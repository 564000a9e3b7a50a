"""Distortion models and the two zero-rate distortion thresholds.

A distortion model is either a single-letter cost matrix rho(x, y) applied at
every stage, or an explicit family of per-stage tables rho_i(x^i, y^i).  The
module always reports the normalized average d = (1/(n+1)) * sum_i rho_i;
solvers that need the unnormalized sum absorb the factor into the Lagrange
multiplier.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import indexing as ix
from .probability import (
    JointMeasure,
    OutputProcess,
    ShapeError,
    SourceModel,
    _frozen_array,
    product_measure,
)


@dataclass(frozen=True)
class DistortionModel:
    """Per-letter or history-dependent nonnegative distortion.

    ``letter_costs`` has shape (nx, ny) for the single-letter kind; ``tables``
    holds one (nx**(i+1), ny**(i+1)) array per stage for the table kind.
    All costs must be finite and >= 0 (the bounded-distortion hypothesis of
    the coding theorem).
    """

    kind: str
    horizon: int
    letter_costs: Optional[np.ndarray] = None
    tables: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == "single_letter":
            c = _frozen_array(self.letter_costs)
            if c.ndim != 2:
                raise ValueError("letter costs must be a matrix")
            self._check_nonneg(c)
            object.__setattr__(self, "letter_costs", c)
        elif self.kind == "table":
            tabs = tuple(_frozen_array(t) for t in self.tables)
            if len(tabs) != self.horizon + 1:
                raise ValueError("need one table per stage 0..n")
            for t in tabs:
                self._check_nonneg(t)
            object.__setattr__(self, "tables", tabs)
        else:
            raise ValueError(f"unknown distortion kind {self.kind!r}")

    @staticmethod
    def _check_nonneg(a: np.ndarray) -> None:
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            raise ValueError("distortion values must be finite and >= 0")

    @classmethod
    def single_letter(cls, costs, horizon: int):
        return cls(kind="single_letter", horizon=horizon,
                   letter_costs=np.asarray(costs, float))

    @classmethod
    def hamming(cls, nx: int, horizon: int, ny: Optional[int] = None):
        ny = nx if ny is None else ny
        costs = 1.0 - np.eye(nx, ny)
        return cls.single_letter(costs, horizon)

    @classmethod
    def from_tables(cls, tables, horizon: int):
        return cls(kind="table", horizon=horizon, tables=tuple(tables))

    @property
    def is_single_letter(self) -> bool:
        return self.kind == "single_letter"

    @property
    def ny(self) -> int:
        """Output alphabet size implied by the costs (last axis of stage 0)."""
        if self.is_single_letter:
            return self.letter_costs.shape[1]
        return self.tables[0].shape[1]

    def stage_cost(self, i: int, nx: int, ny: int) -> np.ndarray:
        """rho_i as a matrix over (x^i, y^i) prefixes, shape (nx**(i+1), ny**(i+1))."""
        if self.kind == "table":
            t = self.tables[i]
            want = (nx ** (i + 1), ny ** (i + 1))
            if t.shape != want:
                raise ShapeError(f"stage {i} table shape {t.shape} != {want}")
            return t
        lx = ix.all_indices(nx, i + 1) % nx
        ly = ix.all_indices(ny, i + 1) % ny
        return self.letter_costs[np.ix_(lx, ly)]

    def total_cost_matrix(self, nx: int, ny: int) -> np.ndarray:
        """Unnormalized sum_i rho_i over full trajectories, shape (Nx, Ny)."""
        n = self.horizon
        Nx, Ny = nx ** (n + 1), ny ** (n + 1)
        if self.is_single_letter:
            xs = ix.to_letters(ix.all_indices(nx, n + 1), nx, n + 1)
            ys = ix.to_letters(ix.all_indices(ny, n + 1), ny, n + 1)
            total = np.zeros((Nx, Ny))
            for i in range(n + 1):
                total += self.letter_costs[np.ix_(xs[:, i], ys[:, i])]
            return total
        xs_full = ix.all_indices(nx, n + 1)
        ys_full = ix.all_indices(ny, n + 1)
        total = np.zeros((Nx, Ny))
        for i in range(n + 1):
            hx = ix.prefix(xs_full, nx, n + 1, i + 1)
            hy = ix.prefix(ys_full, ny, n + 1, i + 1)
            total += self.stage_cost(i, nx, ny)[np.ix_(hx, hy)]
        return total


def average_distortion(joint: JointMeasure, dist: DistortionModel) -> float:
    """Normalized expected distortion (1/(n+1)) * E[sum_i rho_i]."""
    if joint.horizon != dist.horizon:
        raise ShapeError("joint and distortion horizons differ")
    cost = dist.total_cost_matrix(joint.nx, joint.ny)
    return float(np.sum(joint.pmf * cost)) / (joint.horizon + 1)


def _min_sequence(mu: np.ndarray, cost: np.ndarray, n: int):
    """Per-sequence normalized distortion and the index of the best constant
    reproduction sequence, from the source pmf and total cost matrix."""
    per_seq = mu @ cost / (n + 1)
    best = int(np.argmin(per_seq))  # argmin takes the first = lexicographic min
    return per_seq, best


def d_max_min_sequence(source: SourceModel, dist: DistortionModel):
    """Zero-rate threshold: best deterministic output sequence.

    Exhaustively minimizes the normalized expected distortion over all
    |Y|**(n+1) constant reproduction sequences; ties break to the
    lexicographically smallest sequence.  Returns (value, sequence).
    """
    per_seq, best = _min_sequence(
        source.joint_pmf(), dist.total_cost_matrix(source.alphabet, dist.ny),
        source.horizon)
    letters = ix.to_letters(best, dist.ny, source.horizon + 1)
    seq = tuple(int(v) for v in letters)
    return float(per_seq[best]), seq


def zero_rate_sequence(source: SourceModel, dist: DistortionModel,
                       s: float) -> Optional[int]:
    """Index of the D_max sequence y* if the point mass on it is optimal at s.

    Blahut's (1972) KKT condition for the output law delta_{y*}: with C the
    total cost over trajectories,

        c_s(y) = sum_x mu(x) exp(s * (C(x, y) - C(x, y*)))  <=  c_s(y*)

    for every y (c_s(y*) = sum mu = 1 up to rounding).  The point mass then
    attains the classical Lagrangian minimum; it is a constant reproduction,
    hence causal, and the classical minimum bounds the causal one from below,
    so it is the causal optimum too, with R = 0 and D = D_max.  Only s < 0 is
    certified: at s = 0 every output law independent of x is optimal.
    Returns None when the condition fails.
    """
    return _zero_rate_index(
        source.joint_pmf(), dist.total_cost_matrix(source.alphabet, dist.ny),
        s, source.horizon)


def _zero_rate_index(mu: np.ndarray, cost: np.ndarray, s: float,
                     n: int) -> Optional[int]:
    """:func:`zero_rate_sequence` on a source pmf and total cost matrix."""
    if s >= 0:
        return None
    _, best = _min_sequence(mu, cost, n)
    reach = mu > 0
    with np.errstate(over="ignore"):   # an overflow is a failed condition
        c = mu[reach] @ np.exp(s * (cost[reach] - cost[reach, best, None]))
    return best if float(np.max(c)) <= float(c[best]) else None


def d_max_product(source: SourceModel, output: OutputProcess,
                  dist: DistortionModel) -> float:
    """Zero-rate threshold via the product measure: E_{mu x nu}[d]."""
    return average_distortion(product_measure(source, output), dist)
