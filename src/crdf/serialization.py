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

from contextlib import contextmanager
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


@contextmanager
def reading(field: str):
    """Re-raise a ValueError, TypeError or OverflowError of the block as a
    ConfigError naming ``field``; a ConfigError passes through."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(field, str(exc)) from exc


def read_field(d: dict, key: str, where: Optional[str] = None, kind=None,
               default=...):
    """``d[key]`` converted by ``kind`` (int, integral numbers only; float;
    an array reader), or ``default`` if absent.  A missing required key, or
    a value that ``kind`` rejects, raises ConfigError naming ``where.key``."""
    field = key if where is None else f"{where}.{key}"
    if key not in d:
        if default is ...:
            raise ConfigError(field, "missing required field")
        return default
    if kind is None:
        return d[key]
    with reading(field):
        value = d[key]
        if kind is int and (type(value) not in (int, float) or value % 1):
            raise ValueError(f"must be an integer, not {value!r}")
        return kind(value)


def _floats(v) -> np.ndarray:
    return np.array(v, float)


def _pmf(v) -> FinitePmf:
    return FinitePmf(_floats(v))


def source_from_dict(d: dict, where: str = "source") -> SourceModel:
    kind = read_field(d, "kind", where)
    horizon = read_field(d, "horizon", where, int)
    with reading(where):
        if kind == "iid":
            return SourceModel.iid(read_field(d, "letter", where, _pmf),
                                   horizon)
        if kind == "markov":
            return SourceModel.markov(
                read_field(d, "initial", where, _pmf),
                read_field(d, "transition", where, _floats), horizon)
        if kind == "explicit":
            return SourceModel.explicit(
                read_field(d, "weights", where, _floats),
                read_field(d, "alphabet", where, int), horizon)
    raise ConfigError(f"{where}.kind", f"unknown source kind {kind!r}")


def distortion_from_dict(d: dict, nx: Optional[int] = None,
                         where: str = "distortion") -> DistortionModel:
    kind = read_field(d, "kind", where)
    horizon = read_field(d, "horizon", where, int)
    with reading(where):
        if kind == "hamming":
            a = read_field(d, "nx", where, int, nx if nx is not None else 0)
            if a < 1:
                raise ConfigError(f"{where}.nx", "hamming needs an alphabet size")
            return DistortionModel.hamming(
                a, horizon, ny=read_field(d, "ny", where, int, None))
        if kind == "single_letter":
            return DistortionModel.single_letter(
                read_field(d, "costs", where, _floats), horizon)
        if kind == "table":
            tabs = [_floats(t) for t in read_field(d, "tables", where)]
            return DistortionModel.from_tables(tabs, horizon)
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
    kind = read_field(d, "kind", where)
    with reading(where):
        if kind == "memoryless":
            return CausalKernelChain.memoryless(
                read_field(d, "letter_kernel", where, _floats),
                read_field(d, "horizon", where, int))
        if kind == "stages":
            nx = read_field(d, "nx", where, int)
            ny = read_field(d, "ny", where, int)
            stages = [_floats(flat).reshape(ny**i, -1, ny) for i, flat
                      in enumerate(read_field(d, "stages", where))]
            return CausalKernelChain.from_stages(stages, nx, ny)
    raise ConfigError(f"{where}.kind", f"unknown chain kind {kind!r}")


def general_kernel_from_dict(d: dict, where: str = "kernel") -> GeneralKernel:
    with reading(where):
        return GeneralKernel(
            nx=read_field(d, "nx", where, int),
            ny=read_field(d, "ny", where, int),
            horizon=read_field(d, "horizon", where, int),
            table=read_field(d, "table", where, _floats))


def output_to_dict(output: OutputProcess) -> dict:
    return {"schema": SCHEMA, "ny": output.ny, "horizon": output.horizon,
            "kind": "explicit", "joint": output.joint.tolist()}


def output_from_dict(d: dict, where: str = "output") -> OutputProcess:
    kind = read_field(d, "kind", where)
    with reading(where):
        if kind == "memoryless":
            return OutputProcess.memoryless(
                read_field(d, "letter", where, _pmf).weights,
                read_field(d, "horizon", where, int))
        if kind == "explicit":
            return OutputProcess(
                ny=read_field(d, "ny", where, int),
                horizon=read_field(d, "horizon", where, int),
                joint=read_field(d, "joint", where, _pmf).weights)
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
        "output": output_to_dict(point.output),
    }
    if point.chain is not None:
        out["chain"] = chain_to_dict(point.chain)
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
