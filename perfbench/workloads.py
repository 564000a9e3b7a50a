"""The benchmark's four workloads: fixed lists of crdf operations and their checks.

A workload is a list of steps run in order, one caller, one thread.  A step
is one timed call: a ``crdf`` command run in-process through
``crdf.cli.run``, or a library call where the CLI has no command (classical
Blahut-Arimoto bisected to a distortion, as ``scripts/markov_causality_gap.py``
does, and exact typicality, as ``scripts/coding_trend.py`` does).  A step
covers one or more operations (a sweep covers one per grid point), and after
the round each operation is marked ``ok``, ``nonconverged``, ``error`` or
``wrong`` by the checks in ``checks.py``.

Configs live in ``configs/``; the workload seed is written into their
``seed`` field and nowhere else.  crdf is imported when this module is, so
the caller puts the checkout's ``src`` on ``sys.path`` first.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from crdf import cli, coding, serialization, solver

import checks

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
CONFIG_SCHEMA = "crdf-config-v1"
# size of crdf's built-in multiplier grid (40 negative values plus s = 0);
# a config without ``solver.s_grid`` sweeps it
DEFAULT_GRID_POINTS = 41
CLASSICAL_BISECTION_STEPS = 60


def load_config(stem: str, seed: int) -> dict:
    """Read one config, set its seed and validate it as the CLI would."""
    with open(CONFIG_DIR / f"{stem}.json") as fh:
        cfg = json.load(fh)
    if cfg.get("schema") != CONFIG_SCHEMA:
        raise ValueError(f"{stem}: schema {cfg.get('schema')!r}")
    cfg["seed"] = seed
    source = serialization.source_from_dict(cfg["source"])
    serialization.distortion_from_dict(cfg["distortion"], nx=source.alphabet)
    if "kernel" in cfg:
        serialization.chain_from_dict(cfg["kernel"], "kernel")
    return cfg


def with_s(cfg: dict, s: float) -> dict:
    return {**cfg, "solver": {**cfg["solver"], "s": s}}


def file_digests(out_dir: Path) -> dict:
    """name -> (bytes, sha256) of every file a command wrote."""
    out = {}
    for path in sorted(out_dir.iterdir()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[path.name] = (path.stat().st_size, h.hexdigest())
    return out


@dataclass
class Step:
    """One timed call and the checks of the operations it covers.

    ``run`` returns the step's value; ``judge(value)`` returns one
    ``(status, detail)`` per operation; ``fingerprint(value)`` is what must
    repeat exactly from round to round for a fixed seed.
    """

    label: str
    ops: int
    run: Callable[[], object]
    judge: Callable[[object], list]
    out_dir: Path | None = None

    def fingerprint(self, value):
        if self.out_dir is not None:
            return value, file_digests(self.out_dir)
        return value


def _statuses(ops: int, bad: list, not_converged=()) -> list:
    """Merge check failures and non-convergence into per-operation statuses."""
    out = [("ok", "")] * ops
    for k in not_converged:
        out[k] = ("nonconverged", "stopped at max_iters")
    for k, reason in bad:
        out[k] = ("wrong", reason)
    return out


def _cli_step(label: str, command: str, cfg: dict, out_dir: Path, ops: int,
              judge: Callable[[int, Path], list]) -> Step:
    out_dir.mkdir(parents=True, exist_ok=True)
    return Step(label=label, ops=ops, out_dir=out_dir,
                run=lambda: cli.run(command, cfg, out_dir, threads=1),
                judge=lambda code: judge(code, out_dir))


def _grid_points(cfg: dict) -> int:
    grid = cfg["solver"].get("s_grid")
    if grid is None:
        return DEFAULT_GRID_POINTS
    return len(set(grid) | {0.0})


def _sweep_step(label: str, cfg: dict, out_dir: Path, curve_checks) -> Step:
    ops = _grid_points(cfg)

    def judge(code, out):
        if code != 0:
            return [("error", f"sweep exit {code}")] * ops
        rows = checks.parse_curve_csv((out / "curve.csv").read_text())
        if len(rows) != ops:
            return [("wrong", f"{len(rows)} rows, expected {ops}")] * ops
        bad = [b for check in curve_checks for b in check(rows, cfg)]
        return _statuses(ops, bad, [k for k, r in enumerate(rows)
                                    if not r["converged"]])
    return _cli_step(label, "sweep", cfg, out_dir, ops, judge)


class Workload:
    name = ""
    configs = ()

    def steps(self, cfgs: dict, out: Path) -> list:
        raise NotImplementedError


class ZeroRateCurves(Workload):
    """Warm sweeps over the default 41-point grid on two short-horizon
    instances of the acceptance matrix; most iterations are spent in the
    fixed point's stalls near s -> 0."""

    name = "zero-rate-curves"
    configs = ("mkv3-ham-n1", "iid2-tbl-n2")

    def steps(self, cfgs, out):
        return [
            _sweep_step("sweep mkv3-ham-n1", cfgs["mkv3-ham-n1"],
                        out / "mkv3-ham-n1", [checks.check_curve,
                                              checks.check_slb]),
            _sweep_step("sweep iid2-tbl-n2", cfgs["iid2-tbl-n2"],
                        out / "iid2-tbl-n2", [checks.check_curve,
                                              checks.check_single_letter_match]),
        ]


class LongHorizon(Workload):
    """One warm sweep at n = 8: the 4^9-cell joint per iteration and the
    ~60 MB kernels.json set the time, not the iteration count."""

    name = "long-horizon"
    configs = ("mkv2-ham-n8",)

    def steps(self, cfgs, out):
        def slb_and_range(rows, cfg):
            return checks.check_slb(rows, cfg, upper=True)
        return [_sweep_step("sweep mkv2-ham-n8", cfgs["mkv2-ham-n8"],
                            out / "mkv2-ham-n8",
                            [checks.check_curve, slb_and_range])]


class CausalityCheck(Workload):
    """The markov_causality_gap workflow, scaled down: the multistart oracle
    at n = 1, then single cold solves at n = 2 with classical Blahut-Arimoto
    bisected to each solve's distortion."""

    name = "causality-check"
    configs = ("mkv2-ham-n1-oracle", "mkv2-ham-n2")
    ORACLE_S = (-0.5, -1.0, -2.0)
    GAP_S = (-0.6, -1.3, -2.7, -5.5)

    def steps(self, cfgs, out):
        steps = []
        for s in self.ORACLE_S:
            steps.append(_cli_step(f"oracle s={s}", "oracle",
                                   with_s(cfgs["mkv2-ham-n1-oracle"], s),
                                   out / f"oracle{s}", 1, _judge_oracle))
        cfg2 = cfgs["mkv2-ham-n2"]
        for s in self.GAP_S:
            sdir = out / f"solve{s}"
            steps.append(_cli_step(f"solve n=2 s={s}", "solve",
                                   with_s(cfg2, s), sdir, 1, _judge_point))
            steps.append(Step(
                label=f"classical n=2 at D(s={s})", ops=1,
                run=lambda d=sdir: _classical_at(cfg2, d / "point.json"),
                judge=lambda v, d=sdir: _judge_gap(cfg2, d / "point.json", v)))
        return steps


def _judge_oracle(code, out):
    report = json.loads((out / "oracle.json").read_text())
    return _statuses(1, checks.check_oracle(report, code))


def _judge_point(code, out):
    if code != 0:
        return [("error", f"solve exit {code}")]
    point = json.loads((out / "point.json").read_text())
    return _statuses(1, [], [] if point["converged"] else [0])


def _classical_at(cfg: dict, point_path: Path) -> tuple:
    """Classical BA bisected over s in [-60, 0] to the causal solve's D."""
    target = json.loads(point_path.read_text())["distortion"]
    source = serialization.source_from_dict(cfg["source"])
    dist = serialization.distortion_from_dict(cfg["distortion"],
                                              nx=source.alphabet)
    lo, hi = -60.0, 0.0
    for _ in range(CLASSICAL_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if solver.classical_ba(source, dist, mid).distortion > target:
            hi = mid
        else:
            lo = mid
    p = solver.classical_ba(source, dist, 0.5 * (lo + hi))
    return p.distortion, p.rate, p.converged


def _judge_gap(cfg: dict, point_path: Path, value) -> list:
    d, r, converged = value
    point = json.loads(point_path.read_text())
    if not converged:
        return _statuses(1, [], [0])
    causal = {"D": point["distortion"], "R": point["rate"]}
    return _statuses(1, checks.check_causality_gap(cfg, causal,
                                                   {"D": d, "R": r}))


class Coding(Workload):
    """crdf simulate with the solver's history-dependent chain (Markov, n = 6)
    and with a memoryless chain at a long block (n = 19, 1024 codewords),
    then exact typicality by the multinomial recursion at n = 99."""

    name = "coding"
    configs = ("mkv2-ham-n6-sim", "iid2-ham-n19-sim", "iid2-ham-n99-typ")

    def steps(self, cfgs, out):
        steps = []
        for stem in self.configs[:2]:
            def judge(code, o, cfg=cfgs[stem]):
                if code != 0:
                    return [("error", f"simulate exit {code}")]
                report = json.loads((o / "sim_report.json").read_text())
                return _statuses(1, checks.check_simulation(report, cfg))
            steps.append(_cli_step(f"simulate {stem}", "simulate", cfgs[stem],
                                   out / stem, 1, judge))
        typ = cfgs["iid2-ham-n99-typ"]
        steps.append(Step(
            label="typicality iid2-ham-n99", ops=1,
            run=lambda: _typicality(typ),
            judge=lambda v: _statuses(1, checks.check_typicality(v, typ))))
        return steps


def _typicality(cfg: dict) -> dict:
    source = serialization.source_from_dict(cfg["source"])
    spec = coding.TypicalitySpec(
        epsilon=float(cfg["sim"]["epsilon"]), horizon=source.horizon,
        source=source,
        chain=serialization.chain_from_dict(cfg["kernel"], "kernel"),
        dist=serialization.distortion_from_dict(cfg["distortion"],
                                                nx=source.alphabet))
    res = coding.typicality_probability(spec)
    return {"p_info": res.p_info, "p_dist": res.p_dist, "method": res.method}


WORKLOADS = {w.name: w for w in (ZeroRateCurves(), LongHorizon(),
                                 CausalityCheck(), Coding())}

