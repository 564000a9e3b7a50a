"""Batch front door: `crdf <command> --config <path> [--out <dir>]`.

Commands: solve, sweep, properties, oracle, simulate, dmax, info.  The config
is a JSON document with a versioned "schema" field; all randomness flows from
its single "seed".  Sweeps run sequentially, each solve starting from the
previous point's output law mixed with the uniform law; "solver.mode" is
still read, and "warm" is its only legal value.  Results are written as CSV
(curve) and compact, key-sorted JSON (everything else) under the output
directory.  Exit status: 0 on success, 1 when a properties/oracle check
fails, 2 on a missing or malformed value, with a message naming its field.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import serialization as ser
from .coding import simulate
from .distortion import d_max_product
from .information import check_causality_equivalence
from .oracle import brute_force_lagrangian, compare
from .probability import CausalKernelChain, ShapeError, check_tol
from .serialization import ConfigError, read_field
from .solver import (
    RDCurve,
    SolverOptions,
    check_s,
    d_max_min_sequence,
    default_s_grid,
    properties_report,
    solve_fixed_s,
    sweep,
)

CONFIG_SCHEMA = "crdf-config-v1"
COMMANDS = ("solve", "sweep", "properties", "oracle", "simulate", "dmax", "info")
# legal keys of the config (None) and its blocks; a misspelt key must not
# fall back to its default
CONFIG_KEYS = {None: ("schema", "seed", "source", "distortion", "solver",
                      "oracle", "sim", "kernel", "output", "tol"),
               "solver": ("s", "s_grid", "tol", "max_iters", "mode"),
               "oracle": ("method", "budget", "tol"),
               "sim": ("rate", "trials", "epsilon", "target_d")}
# blocks that serialization reads: it checks their keys, not their type
MODEL_BLOCKS = ("source", "distortion", "kernel", "output")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config", "must be a JSON object")
    schema = cfg.get("schema")
    if schema != CONFIG_SCHEMA:
        raise ConfigError("schema", f"expected {CONFIG_SCHEMA!r}, got {schema!r}")
    return cfg


def _given(block: dict, where, **kinds) -> dict:
    """The keys of ``kinds`` that ``block`` sets, each read by its kind;
    the library's defaults stand for the others."""
    return {key: read_field(block, key, where, kind)
            for key, kind in kinds.items() if key in block}


def _solver_options(cfg: dict) -> SolverOptions:
    opts = _given(cfg.get("solver", {}), "solver", tol=float, max_iters=int)
    with ser.reading("solver"):
        return SolverOptions(**opts)


def _problem(cfg: dict):
    source = ser.source_from_dict(read_field(cfg, "source"))
    dist = ser.distortion_from_dict(read_field(cfg, "distortion"),
                                    nx=source.alphabet)
    with ser.reading("distortion"):
        dist.check_source(source)
    return source, dist


def _kernel_from_config(cfg: dict, source, dist):
    """The kernel block, of either kind, checked against the source and
    the distortion's output alphabet."""
    k = read_field(cfg, "kernel")
    if k.get("kind") in ("stages", "memoryless"):
        kernel = ser.chain_from_dict(k, "kernel")
    else:
        kernel = ser.general_kernel_from_dict(k, "kernel")
    with ser.reading("kernel"):
        source.check_kernel(kernel)
        if kernel.ny != dist.ny:
            raise ShapeError(f"kernel output alphabet {kernel.ny} != "
                             f"distortion ny {dist.ny}")
    return kernel


def _s_value(cfg: dict) -> float:
    return read_field(cfg.get("solver", {}), "s", "solver", check_s)


def _s_grid(cfg: dict) -> list:
    # s = 0 ends every grid; sweep drops the repeat
    grid = read_field(cfg.get("solver", {}), "s_grid", "solver",
                      lambda g: [check_s(s) for s in g] + [0.0], None)
    return default_s_grid() if grid is None else grid


def _output(out_dir: Path, name: str) -> Path:
    """out_dir / name, creating out_dir: a command makes the directory only
    once it writes, so a config that fails leaves none behind."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _write_json(out_dir: Path, name: str, payload: dict) -> None:
    """Compact JSON with sorted keys, in one call to the C encoder."""
    _output(out_dir, name).write_text(json.dumps(payload, sort_keys=True)
                                      + "\n")


def _write_kernels(out_dir: Path, curve: RDCurve) -> None:
    """kernels.json, one point at a time, so that only one point's lists
    exist at once; the bytes equal those of _write_json on the whole payload,
    whose sorted keys are d_max, points, schema."""
    with open(_output(out_dir, "kernels.json"), "w") as fh:
        fh.write(f'{{"d_max": {json.dumps(curve.d_max_reported)}, "points": [')
        for k, point in enumerate(curve.points):
            if k:
                fh.write(", ")
            fh.write(json.dumps(ser.point_to_dict(point), sort_keys=True))
        fh.write(f'], "schema": {json.dumps(ser.SCHEMA)}}}\n')


# ``threads`` is unused; perfbench/workloads.py still passes it
def run(command: str, cfg: dict, out_dir: Path, threads: int = 1) -> int:
    """Dispatch one command; returns the process exit status."""
    for block, legal in CONFIG_KEYS.items():
        keys = cfg if block is None else cfg.get(block, {})
        if not isinstance(keys, dict):
            raise ConfigError(block, "must be a JSON object")
        for key in keys:
            if key not in legal:
                raise ConfigError(key if block is None else f"{block}.{key}",
                                  "unknown key")
    for block in MODEL_BLOCKS:
        if not isinstance(cfg.get(block, {}), dict):
            raise ConfigError(block, "must be a JSON object")
    if cfg.get("solver", {}).get("mode", "warm") != "warm":
        raise ConfigError("solver.mode", "the only legal value is 'warm'")
    seed = read_field(cfg, "seed", None, int, 0)
    if seed < 0:
        raise ConfigError("seed", "must be >= 0")

    if command == "solve":
        source, dist = _problem(cfg)
        point = solve_fixed_s(source, dist, _s_value(cfg),
                              _solver_options(cfg))
        _write_json(out_dir, "point.json", ser.point_to_dict(point))
        return 0

    if command in ("sweep", "properties"):
        source, dist = _problem(cfg)
        curve = sweep(source, dist, _s_grid(cfg), _solver_options(cfg))
        if command == "sweep":
            _output(out_dir, "curve.csv").write_text(ser.curve_to_csv(curve))
            _write_kernels(out_dir, curve)
            return 0
        report = properties_report(curve)
        dropped = [{"s": s, "reason": reason, "gap": gap}
                   for s, reason, gap in curve.dropped()]
        _write_json(out_dir, "properties.json",
                    {"schema": ser.SCHEMA, **asdict(report),
                     "passed": report.passed, "dropped": dropped})
        return 0 if report.passed else 1

    if command == "oracle":
        source, dist = _problem(cfg)
        ocfg = cfg.get("oracle", {})
        search = _given(ocfg, "oracle", method=None, budget=int)
        check = _given(ocfg, "oracle", tol=check_tol)
        s = _s_value(cfg)
        point = solve_fixed_s(source, dist, s, _solver_options(cfg))
        with ser.reading("oracle"):
            result = brute_force_lagrangian(source, dist, s, seed=seed,
                                            **search)
            report = compare(point, result, **check)
        _write_json(out_dir, "oracle.json", {
            "schema": ser.SCHEMA, **asdict(report),
            "solver_lagrangian": point.lagrangian(),
            "oracle_best": result.best_value,
            "evaluations": result.evaluations,
            "method": result.method})
        return 0 if report.passed else 1

    if command == "simulate":
        source, dist = _problem(cfg)
        sim = cfg.get("sim", {})
        rate = read_field(sim, "rate", "sim", float)
        trials = read_field(sim, "trials", "sim", int)
        epsilon = read_field(sim, "epsilon", "sim", float)
        target = _given(sim, "sim", target_d=float)
        if "kernel" in cfg:
            chain = _kernel_from_config(cfg, source, dist)
            if not isinstance(chain, CausalKernelChain):
                raise ConfigError("kernel", "simulate requires a causal chain")
        else:
            point = solve_fixed_s(source, dist, _s_value(cfg),
                                  _solver_options(cfg))
            chain = point.chain
        with ser.reading("sim"):
            report = simulate(source, dist, chain, rate, trials, epsilon,
                              seed, **target)
        _write_json(out_dir, "sim_report.json",
                    {"schema": ser.SCHEMA, **asdict(report)})
        return 0

    if command == "dmax":
        source, dist = _problem(cfg)
        value, seq = d_max_min_sequence(source, dist)
        payload = {"schema": ser.SCHEMA, "min_sequence": value,
                   "argmin_sequence": list(seq), "product": None}
        if "output" in cfg:
            output = ser.output_from_dict(cfg["output"])
            payload["product"] = d_max_product(source, output, dist)
        _write_json(out_dir, "dmax.json", payload)
        return 0

    if command == "info":
        source, dist = _problem(cfg)
        report = check_causality_equivalence(
            source, _kernel_from_config(cfg, source, dist),
            **_given(cfg, None, tol=check_tol))
        _write_json(out_dir, "info.json",
                    {"schema": ser.SCHEMA, **asdict(report),
                     "all_hold": report.all_hold})
        return 0

    raise ConfigError("command", f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crdf",
        description="Causal rate distortion: solver, oracle, and coding simulator")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return run(args.command, cfg, Path(args.out))
    except ValueError as exc:        # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
