"""JSON readers for sources, distortions and general kernels; JSON
round-tripping for chains and output processes; writers for results.

Schema (versioned via the "schema" field, currently "crdf-v1"):

* source:      {"kind": "iid", "horizon": n, "letter": [...]}
               {"kind": "markov", "horizon": n, "initial": [...], "transition": [[...]]}
               {"kind": "explicit", "horizon": n, "alphabet": a, "weights": [...]}
* distortion:  {"kind": "hamming", "horizon": n, "nx": a, "ny": b}
               {"kind": "single_letter", "horizon": n, "costs": [[...]]}
               {"kind": "table", "horizon": n, "tables": [[[...]], ...]}
* chain:       {"kind": "stages", "nx": a, "ny": b, "stages": [...]} with stage i
               flattened to rows of ny entries in mixed-radix order, either
               over (y^{i-1}, x^i) (ny^i * nx^(i+1) rows) or, for a stage that
               depends on x^i only through x_i, over (y^{i-1}, x_i) (ny^i * nx
               rows); the reader tells the two apart by the row count, and
               the writer keeps the layout the chain holds.  Or
               {"kind": "memoryless", "horizon": n, "letter_kernel": [[...]]}
* general kernel: {"nx": a, "ny": b, "horizon": n, "table": [[...]]}
* output:      {"kind": "explicit", "ny": b, "horizon": n, "joint": [...]};
               {"kind": "memoryless", "horizon": n, "letter": [...]} is
               also read, and expanded to the joint of the iid product

All trajectory-indexed rows follow :mod:`crdf.indexing` (time 0 most
significant).  Numbers serialize via Python's repr, so emitted files are
byte-stable for identical inputs.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .distortion import DistortionModel
from .probability import (
    CausalKernelChain,
    FinitePmf,
    GeneralKernel,
    OutputProcess,
    SourceModel,
)
from .solver import RateDistortionPoint, RDCurve

SCHEMA = "crdf-v1"


class ConfigError(ValueError):
    """Malformed configuration or serialized object; names the field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"{where}.{key}", "missing required field")
    return d[key]


def source_from_dict(d: dict, where: str = "source") -> SourceModel:
    kind = _require(d, "kind", where)
    horizon = int(_require(d, "horizon", where))
    try:
        if kind == "iid":
            return SourceModel.iid(FinitePmf(np.array(_require(d, "letter", where), float)), horizon)
        if kind == "markov":
            return SourceModel.markov(
                FinitePmf(np.array(_require(d, "initial", where), float)),
                np.array(_require(d, "transition", where), float), horizon)
        if kind == "explicit":
            return SourceModel.explicit(
                np.array(_require(d, "weights", where), float),
                int(_require(d, "alphabet", where)), horizon)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(where, str(exc)) from exc
    raise ConfigError(f"{where}.kind", f"unknown source kind {kind!r}")


def distortion_from_dict(d: dict, nx: Optional[int] = None,
                         where: str = "distortion") -> DistortionModel:
    kind = _require(d, "kind", where)
    horizon = int(_require(d, "horizon", where))
    try:
        if kind == "hamming":
            a = int(d.get("nx", nx if nx is not None else 0))
            if a < 1:
                raise ConfigError(f"{where}.nx", "hamming needs an alphabet size")
            return DistortionModel.hamming(a, horizon, ny=d.get("ny"))
        if kind == "single_letter":
            return DistortionModel.single_letter(
                np.array(_require(d, "costs", where), float), horizon)
        if kind == "table":
            tabs = [np.array(t, float) for t in _require(d, "tables", where)]
            return DistortionModel.from_tables(tabs, horizon)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(where, str(exc)) from exc
    raise ConfigError(f"{where}.kind", f"unknown distortion kind {kind!r}")


def chain_to_dict(chain: CausalKernelChain) -> dict:
    out = {"schema": SCHEMA, "nx": chain.nx, "ny": chain.ny,
           "horizon": chain.horizon}
    if chain.is_memoryless:
        out["kind"] = "memoryless"
        out["letter_kernel"] = chain.letter_kernel.tolist()
    else:
        out["kind"] = "stages"
        out["stages"] = [s.reshape(-1, chain.ny).tolist() for s in chain.stages]
    return out


def chain_from_dict(d: dict, where: str = "chain") -> CausalKernelChain:
    kind = _require(d, "kind", where)
    try:
        if kind == "memoryless":
            return CausalKernelChain.memoryless(
                np.array(_require(d, "letter_kernel", where), float),
                int(_require(d, "horizon", where)))
        if kind == "stages":
            nx, ny = int(_require(d, "nx", where)), int(_require(d, "ny", where))
            stages = []
            for i, flat in enumerate(_require(d, "stages", where)):
                stages.append(np.array(flat, float).reshape(ny**i, -1, ny))
            return CausalKernelChain.from_stages(stages, nx, ny)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(where, str(exc)) from exc
    raise ConfigError(f"{where}.kind", f"unknown chain kind {kind!r}")


def general_kernel_from_dict(d: dict, where: str = "kernel") -> GeneralKernel:
    try:
        return GeneralKernel(
            nx=int(_require(d, "nx", where)), ny=int(_require(d, "ny", where)),
            horizon=int(_require(d, "horizon", where)),
            table=np.array(_require(d, "table", where), float))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(where, str(exc)) from exc


def output_to_dict(output: OutputProcess) -> dict:
    return {"schema": SCHEMA, "ny": output.ny, "horizon": output.horizon,
            "kind": "explicit", "joint": output.joint.tolist()}


def output_from_dict(d: dict, where: str = "output") -> OutputProcess:
    kind = _require(d, "kind", where)
    if kind == "memoryless":
        return OutputProcess.memoryless(
            np.array(_require(d, "letter", where), float),
            int(_require(d, "horizon", where)))
    if kind == "explicit":
        return OutputProcess(ny=int(_require(d, "ny", where)),
                             horizon=int(_require(d, "horizon", where)),
                             joint=np.array(_require(d, "joint", where), float))
    raise ConfigError(f"{where}.kind", f"unknown output kind {kind!r}")


def point_to_dict(point: RateDistortionPoint) -> dict:
    out = {
        "schema": SCHEMA,
        "s": point.s,
        "distortion": point.distortion,
        "rate": point.rate,
        "rate_formula": point.rate_formula,
        "iterations": point.iterations,
        "converged": point.converged,
        "residual": point.residual,
        "gap": point.gap,
    }
    if point.chain is not None:
        out["chain"] = chain_to_dict(point.chain)
    if point.output is not None:
        out["output"] = output_to_dict(point.output)
    return out


CSV_HEADER = "s,D,R,rate_formula,iterations,converged"


def curve_to_csv(curve: RDCurve) -> str:
    """Locale-independent CSV with 12 significant digits."""
    lines = [CSV_HEADER]
    for p in curve.points:
        lines.append(",".join([
            f"{p.s:.12g}", f"{p.distortion:.12g}", f"{p.rate:.12g}",
            f"{p.rate_formula:.12g}", str(p.iterations),
            str(bool(p.converged)).lower()]))
    return "\n".join(lines) + "\n"
