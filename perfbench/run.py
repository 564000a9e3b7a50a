"""Benchmark of crdf: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (crdf is imported from its ``src``):

    python3 perfbench/run.py --workload zero-rate-curves --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload runs in one process with one thread.  After set-up the process
repeats whole rounds of the workload's operations (a round is every step of
the workload once) and stops starting rounds once the next one would end
after ``--seconds``; every run does at least one round.  With ``--trace 0``
it reports the end-to-end metrics, with ``--trace 1`` it alternates untraced
and traced rounds and reports the per-layer metrics.  ``setup_s`` and
``wall_s`` are in reference seconds: measured time divided by the time of a
fixed computation sampled alongside the work (see refclock.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload, both ways, each in its own process,
and prints a summary.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_PROBES = 7
SETUP_REF_CALLS = 3      # reference() calls in each set-up probe
WORKLOAD_NAMES = ("zero-rate-curves", "long-horizon", "causality-check",
                  "coding")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MB = float(1 << 20)
FAULT = ("solve_fixed_s stops when the kernel moves less than tol, and the "
         "fixed point stalls near s -> 0 (CHANGES.md, FOUND line on "
         "solve_fixed_s)")


def prepare_import() -> None:
    """One-thread numpy and crdf from this checkout's src, or exit 2."""
    if not (SRC / "crdf" / "__init__.py").is_file():
        print(f"error: no crdf package under {SRC}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def probe(workload: str, seed: int) -> None:
    """Set-up only: import numpy and crdf, load and validate the configs."""
    t0 = time.perf_counter()
    prepare_import()
    import numpy  # noqa: F401
    import crdf  # noqa: F401
    import workloads
    t1 = time.perf_counter()
    for stem in workloads.WORKLOADS[workload].configs:
        workloads.load_config(stem, seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1}), flush=True)
    # the machine's speed in this process, just after its set-up
    from refclock import reference
    t3 = time.perf_counter()
    for _ in range(SETUP_REF_CALLS):
        reference()
    print(json.dumps({"ref_s": (time.perf_counter() - t3) / SETUP_REF_CALLS}),
          flush=True)


def measure_setup(workload: str, seed: int) -> dict:
    """Median over fresh processes of start-to-ready time (the set-up).

    Each probe process times the reference computation right after it is
    ready, and its set-up is reported in reference seconds (refclock.py).
    """
    from refclock import REF_S
    totals, imports, configs, raws = [], [], [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            total = time.perf_counter() - t0
            rest = proc.stdout.read()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        rec = json.loads(line)
        scale = REF_S / json.loads(rest)["ref_s"]
        raws.append(total)
        totals.append(total * scale)
        imports.append(rec["import_s"] * scale)
        configs.append(rec["config_s"] * scale)
    return {"setup_s": statistics.median(totals),
            "setup.import_s": statistics.median(imports),
            "setup.config_s": statistics.median(configs),
            "measured_s": statistics.median(raws)}


def run_round(steps: list, tracer=None, sampler=None) -> dict:
    """Every step once; times the steps only, then judges their outputs.

    Time spent in the sampler's reference calls is taken out of the steps.
    """
    values, wall = [], 0.0
    start = time.perf_counter()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for step in steps:
            paused = sampler.paused if sampler is not None else 0.0
            t0 = time.perf_counter()
            try:
                value = step.run()
            except Exception as exc:  # an operation that raises has failed
                value = exc
            wall += time.perf_counter() - t0
            if sampler is not None:
                wall -= sampler.paused - paused
            values.append(value)
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcomes, prints, out_bytes = [], [], 0
    for step, value in zip(steps, values):
        if isinstance(value, Exception):
            outcomes += [("error", f"{step.label}: {value!r}")] * step.ops
            prints.append(repr(value))
            continue
        try:
            judged = step.judge(value)
            fp = step.fingerprint(value)
        except Exception as exc:  # unreadable output counts as an error
            judged, fp = [("error", repr(exc))] * step.ops, repr(exc)
        outcomes += [(st, f"{step.label}: {why}" if why else "")
                     for st, why in judged]
        prints.append(fp)
        if step.out_dir is not None and isinstance(fp, tuple):
            out_bytes += sum(size for size, _ in fp[1].values())
    return {"traced": tracer is not None, "wall_s": wall,
            "start": start, "end": time.perf_counter(),
            "outcomes": outcomes, "fingerprint": prints,
            "output_bytes": out_bytes}


def layer_metrics(tracer, rnd: dict) -> dict:
    m = dict(tracer.layer_times())
    m.update(tracer.counts)
    m["cli.output_mb"] = rnd["output_bytes"] / MB
    return m


PER_LAYER = {
    "setup.import_s": "s", "setup.config_s": "s",
    "cli.commands": "count", "cli.self_s": "s", "cli.output_mb": "MB",
    "serialization.self_s": "s",
    "solver.solves": "count", "solver.iterations": "count",
    "solver.nonconverged": "count", "solver.wasted_iterations": "count",
    "solver.self_s": "s", "solver.us_per_iteration": "us",
    "solver.classical_iterations": "count", "solver.classical_self_s": "s",
    "information.calls": "count", "information.self_s": "s",
    "distortion.self_s": "s", "probability.self_s": "s",
    "oracle.calls": "count", "oracle.evaluations": "count",
    "oracle.self_s": "s", "oracle.us_per_evaluation": "us",
    "coding.trials": "count", "coding.codewords": "count",
    "coding.encoder_cells": "count", "coding.self_s": "s",
    "coding.codebook_s": "s", "coding.typicality_s": "s",
    "trace.overhead_s": "s",
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer(traced: list, rounds: list, setup: dict) -> dict:
    """Median per metric over traced rounds; counts repeat exactly."""
    derived = {"setup.import_s", "setup.config_s", "solver.us_per_iteration",
               "oracle.us_per_evaluation", "trace.overhead_s"}
    m = {k: statistics.median(r.get(k, 0) for r in traced)
         for k in set(PER_LAYER) - derived}
    m["setup.import_s"] = setup["setup.import_s"]
    m["setup.config_s"] = setup["setup.config_s"]
    its, evals = m["solver.iterations"], m["oracle.evaluations"]
    m["solver.us_per_iteration"] = 1e6 * m["solver.self_s"] / its if its else 0.0
    m["oracle.us_per_evaluation"] = (1e6 * m["oracle.self_s"] / evals
                                     if evals else 0.0)
    m["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in rounds if r["traced"])
        - statistics.median(r["wall_s"] for r in rounds if not r["traced"]))
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    prepare_import()
    import crdf
    if Path(crdf.__file__).resolve().parent != (SRC / "crdf").resolve():
        print(f"error: crdf imported from {crdf.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    import workloads
    from refclock import REF_S, Sampler
    from tracing import Tracer

    workload = workloads.WORKLOADS[name]
    setup = measure_setup(name, seed)
    cfgs = {stem: workloads.load_config(stem, seed)
            for stem in workload.configs}
    out = BENCH / "out" / f"{name}-seed{seed}-pid{os.getpid()}"
    tracer = Tracer() if trace else None
    sampler = None if trace else Sampler()
    rounds, traced_metrics = [], []
    try:
        steps = workload.steps(cfgs, out)
        deadline = time.perf_counter() + seconds
        longest = 0.0
        if sampler is not None:
            sampler.arm()
        while True:
            t0 = time.perf_counter()
            use_tracer = tracer if trace and len(rounds) % 2 == 1 else None
            rnd = run_round(steps, use_tracer, sampler)
            rounds.append(rnd)
            if use_tracer is not None:
                traced_metrics.append(layer_metrics(tracer, rnd))
            longest = max(longest, time.perf_counter() - t0)
            if (len(rounds) >= (2 if trace else 1)
                    and time.perf_counter() + longest > deadline):
                break
    finally:
        if sampler is not None:
            sampler.disarm()
        shutil.rmtree(out, ignore_errors=True)
    if sampler is not None and not sampler.samples:
        sampler.sample()     # every round ended before the first sample

    ops = len(rounds[0]["outcomes"])
    attempted = ops * len(rounds)
    failed = sum(st != "ok" for r in rounds for st, _ in r["outcomes"])
    wrong = sorted({why for r in rounds for st, why in r["outcomes"]
                    if st == "wrong"})
    repeat = all(r["fingerprint"] == rounds[0]["fingerprint"]
                 and [st for st, _ in r["outcomes"]]
                 == [st for st, _ in rounds[0]["outcomes"]] for r in rounds)
    correct = not wrong and repeat
    untraced = [r for r in rounds if not r["traced"]]
    if trace:
        values = per_layer(traced_metrics, rounds, setup)
        units = PER_LAYER
    else:
        for r in untraced:
            ref = sampler.mean_between(r["start"], r["end"]) or sampler.mean()
            r["ref_s"] = ref
            r["wall_ref_s"] = r["wall_s"] * REF_S / ref
        values = {"setup_s": setup["setup_s"],
                  "wall_s": statistics.median(r["wall_ref_s"]
                                              for r in untraced),
                  "peak_rss_mb":
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    print(f"workload {name}, seed {seed}: {len(rounds)} rounds "
          f"({len(untraced)} untraced), {ops} operations per round")
    print(f"attempted {attempted} failed {failed}")
    kinds = Counter((st, why) for st, why in rounds[0]["outcomes"]
                    if st != "ok")
    for (st, why), k in kinds.items():
        print(f"  {k} per round {st}: {why}" + (
            f"; fault: {FAULT}" if st == "nonconverged" else ""))
    for why in wrong:
        print(f"  WRONG {why}")
    if not repeat:
        print("  WRONG outputs differ between rounds of one seed")
    if not trace:
        print(f"measured set-up {setup['measured_s']:.6g} s, "
              f"wall {statistics.median(r['wall_s'] for r in untraced):.6g} s, "
              f"reference {1e3 * sampler.mean():.4g} ms per call "
              f"({len(sampler.samples)} samples, nominal {1e3 * REF_S:g} ms)")
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "round_walls": [[r["traced"], r["wall_s"], r.get("ref_s")]
                              for r in rounds],
              "metrics": metrics}
    if trace:
        record["spans"] = tracer.spans   # the last traced round
    with open(results / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary, ok = {}, True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 and not lines:
                return proc.returncode
            result = json.loads(lines[-1])
            ok &= result["correct"]
            summary.setdefault(name, {}).update(
                {"attempted": result["attempted"], "failed": result["failed"]},
                **{k: m["value"] for k, m in result["metrics"].items()})
    print(f"\n{'metric':<28}" + "".join(f"{n:>18}" for n in WORKLOAD_NAMES))
    units = {**END_TO_END, **PER_LAYER, "attempted": "count", "failed": "count"}
    for key, unit in units.items():
        print(f"{key + ' (' + unit + ')':<28}"
              + "".join(f"{summary[n][key]:>18.6g}" for n in WORKLOAD_NAMES))
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
