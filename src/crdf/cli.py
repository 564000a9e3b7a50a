"""Batch front door: `crdf <command> --config <path> [--out <dir>] [--threads K]`.

Commands: solve, sweep, properties, oracle, simulate, dmax, info.  The config
is a JSON document with a versioned "schema" field; all randomness flows from
its single "seed".  Results are written as CSV (curve) and JSON (everything
else) under the output directory.  Exit status: 0 on success, 1 when a
properties/oracle check fails, 2 on validation errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import serialization as ser
from .coding import simulate
from .distortion import d_max_min_sequence, d_max_product
from .information import check_causality_equivalence
from .oracle import brute_force_lagrangian, compare
from .probability import CausalKernelChain
from .serialization import ConfigError
from .solver import (
    SolverOptions,
    default_s_grid,
    properties_report,
    solve_fixed_s,
    sweep,
)

CONFIG_SCHEMA = "crdf-config-v1"
COMMANDS = ("solve", "sweep", "properties", "oracle", "simulate", "dmax", "info")
SOLVER_KEYS = ("s", "s_grid", "tol", "max_iters", "mode")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    schema = cfg.get("schema")
    if schema != CONFIG_SCHEMA:
        raise ConfigError("schema", f"expected {CONFIG_SCHEMA!r}, got {schema!r}")
    return cfg


def _solver_options(cfg: dict) -> SolverOptions:
    sol = cfg.get("solver", {})
    try:
        return SolverOptions(tol=float(sol.get("tol", 1e-9)),
                             max_iters=int(sol.get("max_iters", 20000)))
    except ValueError as exc:
        raise ConfigError("solver", str(exc)) from exc


def _problem(cfg: dict):
    source = ser.source_from_dict(_need(cfg, "source"))
    dist = ser.distortion_from_dict(_need(cfg, "distortion"),
                                    nx=source.alphabet)
    if source.horizon != dist.horizon:
        raise ConfigError("distortion.horizon",
                          "does not match source.horizon")
    ny = cfg.get("output_alphabet")
    return source, dist, (int(ny) if ny is not None else None)


def _need(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(key, "missing required field")
    return cfg[key]


def _kernel_from_config(cfg: dict):
    k = _need(cfg, "kernel")
    if k.get("kind") in ("stages", "memoryless"):
        return ser.chain_from_dict(k, "kernel")
    return ser.general_kernel_from_dict(k, "kernel")


def _s_value(cfg: dict) -> float:
    sol = cfg.get("solver", {})
    if "s" not in sol:
        raise ConfigError("solver.s", "missing required field")
    s = float(sol["s"])
    if s > 0:
        raise ConfigError("solver.s", "multiplier must be <= 0")
    return s


def _s_grid(cfg: dict) -> list:
    grid = cfg.get("solver", {}).get("s_grid")
    if grid is None:
        return default_s_grid()
    grid = [float(s) for s in grid]
    if any(s > 0 for s in grid):
        raise ConfigError("solver.s_grid", "multipliers must be <= 0")
    if 0.0 not in grid:
        grid.append(0.0)
    return grid


def _write_json(out_dir: Path, name: str, payload: dict) -> Path:
    path = out_dir / name
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run(command: str, cfg: dict, out_dir: Path, threads: int = 1) -> int:
    """Dispatch one command; returns the process exit status."""
    for key in cfg.get("solver", {}):
        if key not in SOLVER_KEYS:
            raise ConfigError(f"solver.{key}", "unknown key")
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = int(cfg.get("seed", 0))

    if command == "solve":
        source, dist, ny = _problem(cfg)
        point = solve_fixed_s(source, dist, _s_value(cfg),
                              _solver_options(cfg), ny=ny)
        _write_json(out_dir, "point.json", ser.point_to_dict(point))
        return 0

    if command in ("sweep", "properties"):
        source, dist, ny = _problem(cfg)
        mode = cfg.get("solver", {}).get("mode", "warm")
        curve = sweep(source, dist, _s_grid(cfg), _solver_options(cfg),
                      ny=ny, mode=mode, threads=threads)
        if command == "sweep":
            (out_dir / "curve.csv").write_text(ser.curve_to_csv(curve))
            kernels = {"schema": ser.SCHEMA,
                       "d_max": curve.d_max_reported,
                       "points": [ser.point_to_dict(p) for p in curve.points]}
            _write_json(out_dir, "kernels.json", kernels)
            return 0
        report = properties_report(curve, source, dist)
        _write_json(out_dir, "properties.json",
                    {"schema": ser.SCHEMA, **asdict(report),
                     "passed": report.passed})
        return 0 if report.passed else 1

    if command == "oracle":
        source, dist, ny = _problem(cfg)
        ocfg = cfg.get("oracle", {})
        s = _s_value(cfg)
        opts = _solver_options(cfg)
        point = solve_fixed_s(source, dist, s, opts, ny=ny)
        result = brute_force_lagrangian(
            source, dist, s, method=ocfg.get("method", "grid"),
            budget=int(ocfg.get("budget", 500)), seed=seed, ny=ny)
        report = compare(point, result, tol=float(ocfg.get("tol", 1e-3)))
        _write_json(out_dir, "oracle.json", {
            "schema": ser.SCHEMA, **asdict(report),
            "solver_lagrangian": point.lagrangian(),
            "oracle_best": result.best_value,
            "evaluations": result.evaluations,
            "method": result.method})
        return 0 if report.passed else 1

    if command == "simulate":
        source, dist, ny = _problem(cfg)
        sim = cfg.get("sim", {})
        for field in ("rate", "trials", "epsilon"):
            if field not in sim:
                raise ConfigError(f"sim.{field}", "missing required field")
        if "kernel" in cfg:
            chain = _kernel_from_config(cfg)
            if not isinstance(chain, CausalKernelChain):
                raise ConfigError("kernel", "simulate requires a causal chain")
        else:
            point = solve_fixed_s(source, dist, _s_value(cfg),
                                  _solver_options(cfg), ny=ny)
            chain = point.chain
        report = simulate(source, dist, chain, float(sim["rate"]),
                          source.horizon, int(sim["trials"]),
                          float(sim["epsilon"]), seed,
                          target_d=sim.get("target_d"))
        _write_json(out_dir, "sim_report.json",
                    {"schema": ser.SCHEMA, **asdict(report)})
        return 0

    if command == "dmax":
        source, dist, ny = _problem(cfg)
        value, seq = d_max_min_sequence(source, dist, ny=ny)
        payload = {"schema": ser.SCHEMA, "min_sequence": value,
                   "argmin_sequence": list(seq), "product": None}
        if "output" in cfg:
            output = ser.output_from_dict(cfg["output"])
            payload["product"] = d_max_product(source, output, dist)
        _write_json(out_dir, "dmax.json", payload)
        return 0

    if command == "info":
        source, dist, ny = _problem(cfg)
        kernel = _kernel_from_config(cfg)
        if isinstance(kernel, CausalKernelChain):
            kernel = kernel.to_general()
        report = check_causality_equivalence(source, kernel,
                              tol=float(cfg.get("tol", 1e-9)))
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
    parser.add_argument("--threads", type=int, default=1,
                        help="worker cap for parallel-capable commands")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return run(args.command, cfg, Path(args.out), threads=args.threads)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
