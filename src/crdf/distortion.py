"""The fidelity criterion: distortion models and averages over joint laws.

A distortion model is either a single-letter cost matrix rho(x, y) applied at
every stage, or an explicit family of per-stage tables rho_i(x^i, y^i), whose
shapes it checks against its alphabets (nx, ny).  Every cost is read through
one evaluator on letter arrays, :meth:`DistortionModel.cost`, which gathers
whole rows of a single-letter cost matrix when it evaluates all pairs of two
sets of blocks.  The block encoder :meth:`DistortionModel.min_cost` takes a
block's totals as one matrix product when the single-letter costs are
nonnegative integers with (n+1) * max rho < 2**53: every partial sum is then
an exact integer, so the order of the sum cannot change a bit.  Non-integral
single-letter costs and table costs keep the stage-by-stage gather of
:meth:`DistortionModel.cost`, whose rounding only that order reproduces, and
so do source alphabets above PRODUCT_MAX_LETTERS letters, where the
product's nx multiply-adds per stage cost more than the gather's one add.
The module always reports the normalized average
d = (1/(n+1)) * sum_i rho_i; solvers that need the unnormalized sum absorb
the factor into the Lagrange multiplier.  D_max over constant sequences and
the zero-rate test live in ``solver``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
    row_blocks,
)

# the product does nx*(n+1) multiply-adds per cell where the gather does n+1
# adds, so above this many source letters the gather is faster
PRODUCT_MAX_LETTERS = 16


@dataclass(frozen=True)
class DistortionModel:
    """Per-letter or history-dependent nonnegative distortion.

    ``letter_costs`` has shape (nx, ny) for the single-letter kind; ``tables``
    holds one (nx**(i+1), ny**(i+1)) array per stage for the table kind, and
    stage 0 fixes nx and ny.  All costs must be finite and >= 0 (the
    bounded-distortion hypothesis of the coding theorem).  :meth:`cost` is
    the one reader of either format.
    """

    kind: str
    horizon: int
    letter_costs: Optional[np.ndarray] = None
    tables: Optional[tuple] = None
    # alphabet sizes, read from the shape of stage 0
    nx: int = field(init=False)
    ny: int = field(init=False)
    # every sum of n+1 single-letter costs is an exact integer in any order
    integral: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("single_letter", "table"):
            raise ValueError(f"unknown distortion kind {self.kind!r}")
        stages = tuple(_frozen_array(t) for t in (
            self.tables if self.kind == "table" else (self.letter_costs,)))
        if self.kind == "table" and len(stages) != self.horizon + 1:
            raise ValueError("need one table per stage 0..n")
        if stages[0].ndim != 2 or 0 in stages[0].shape:
            raise ValueError("stage 0 costs must be a non-empty matrix")
        nx, ny = stages[0].shape
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "ny", ny)
        for i, t in enumerate(stages):
            want = (nx ** (i + 1), ny ** (i + 1))
            if t.shape != want:
                raise ShapeError(f"stage {i} table shape {t.shape} != {want}")
            if not np.all(np.isfinite(t)) or np.any(t < 0):
                raise ValueError("distortion values must be finite and >= 0")
        if self.kind == "table":
            object.__setattr__(self, "tables", stages)
        else:
            object.__setattr__(self, "letter_costs", stages[0])
        c = stages[0]
        # -0.0 is excluded: a product's zero is +0.0 where a gather's is not
        object.__setattr__(self, "integral", bool(
            self.kind == "single_letter" and np.all(c == np.floor(c))
            and not np.any(np.signbit(c))
            and (self.horizon + 1) * int(c.max()) < 2**53))

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

    def cost(self, x, y, stage: Optional[int] = None) -> np.ndarray:
        """rho_i(x^i, y^i) at i = ``stage``, or sum_i rho_i when it is None.

        ``x`` and ``y`` are letter arrays of shape (..., k) that broadcast
        against each other, with k = stage+1 (or n+1 for the sum); the
        result has their broadcast shape without the last axis.  In the
        all-pairs case, ``x`` of shape (A, 1, k) against ``y`` of shape
        (1, B, k), a single-letter stage gathers whole rows: the columns
        that y picks, then the rows that x picks; a table stage is one
        (A, B) gather by prefix indices either way.  Stages are added in
        place and in order, so a sum holds two arrays of that shape at once
        and is the same to the bit by either gather.
        """
        pairs = (x.ndim == y.ndim == 3 and x.shape[1] == 1
                 and y.shape[0] == 1)
        stages = range(self.horizon + 1) if stage is None else (stage,)
        total = None
        for i in stages:
            if self.is_single_letter and pairs:
                c = self.letter_costs.take(y[0, :, i], axis=1)[x[:, 0, i]]
            elif self.is_single_letter:
                c = self.letter_costs[x[..., i], y[..., i]]
            else:
                c = self.tables[i][ix.from_letters(x[..., :i + 1], self.nx),
                                   ix.from_letters(y[..., :i + 1], self.ny)]
            if total is None:
                total = c        # a gather returns a fresh array
            else:
                total += c
            del c                # or it outlives the next stage's gather
        return total

    def min_cost(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """min over the rows of ``y`` of sum_i rho_i(x, y), for each row of
        ``x``; both are (num, n+1) letter arrays.

        The all-pairs sums are taken a block of about BLOCK_CELLS cells at a
        time, so the (len(x), len(y)) table is never held whole.  With
        ``integral`` costs (nonnegative integers, (n+1) * max rho < 2**53) a
        block's sums are one matrix product: the one-hot letters of its rows
        of ``x``, shape (rows, nx*(n+1)), times a table W of a block of
        codewords with W[(a, i), j] = rho(a, y_ji).  Each product is 1*rho
        or 0*rho and each partial sum an exact integer, so BLAS's order of
        summation returns the bits of the stage-by-stage sum.  W holds at
        most BLOCK_CELLS cells, and a running minimum carries the codeword
        blocks, so the memory does not grow with the book; the one-hot
        rows and the sums of a product hold a quarter of that each.  Other
        costs, and integral ones over more than PRODUCT_MAX_LETTERS source
        letters, take the gather of :meth:`cost` for a block of rows of
        ``x`` against the whole of ``y``.
        """
        if not self.integral or self.nx > PRODUCT_MAX_LETTERS:
            out = np.empty(len(x))
            for blk in row_blocks(len(x), len(y)):
                out[blk] = self.cost(x[blk][:, None], y[None]).min(axis=1)
            return out
        out = np.full(len(x), np.inf)
        letters = np.arange(self.nx)[:, None]
        width = self.nx * (self.horizon + 1)
        for words in row_blocks(len(y), width):
            table = self.letter_costs[:, y[words].T].reshape(width, -1)
            # a quarter block each for the one-hot rows and the sums keeps
            # them in cache; with W and BLAS's packed copy of it they hold
            # about as much as the gather's two (rows, codewords) arrays
            for blk in row_blocks(len(x), 4 * max(table.shape[1], width)):
                hot = (x[blk][:, None] == letters).reshape(-1, width)
                sums = hot.astype(float) @ table
                np.minimum(out[blk], sums.min(axis=1), out=out[blk])
        return out

    def _all_pairs(self, length: int):
        """Letters of every (x^k, y^k) pair, k = ``length``, as (Nx, 1, k)
        and (1, Ny, k) arrays."""
        return (ix.all_letters(self.nx, length)[:, None],
                ix.all_letters(self.ny, length)[None])

    def stage_cost(self, i: int) -> np.ndarray:
        """rho_i as a matrix over (x^i, y^i) prefixes, shape (nx**(i+1), ny**(i+1))."""
        return self.cost(*self._all_pairs(i + 1), stage=i)

    def total_cost_matrix(self) -> np.ndarray:
        """Unnormalized sum_i rho_i over full trajectories, shape (Nx, Ny).

        Built on the first call and kept, read-only, on the model.
        """
        total = self.__dict__.get("_total")
        if total is None:
            total = self.cost(*self._all_pairs(self.horizon + 1))
            total.setflags(write=False)
            object.__setattr__(self, "_total", total)
        return total

    def check_source(self, source: SourceModel) -> None:
        """Raise ShapeError unless ``source`` has this model's horizon and
        source alphabet."""
        if source.horizon != self.horizon:
            raise ShapeError("source and distortion horizons differ")
        if source.alphabet != self.nx:
            raise ShapeError(f"source alphabet {source.alphabet} != "
                             f"distortion nx {self.nx}")


def average_distortion(joint: JointMeasure, dist: DistortionModel) -> float:
    """Normalized expected distortion (1/(n+1)) * E[sum_i rho_i]."""
    if (joint.horizon, joint.nx, joint.ny) != (dist.horizon, dist.nx, dist.ny):
        raise ShapeError("joint and distortion horizons or alphabets differ")
    cost = dist.total_cost_matrix()
    return float(np.sum(joint.pmf * cost)) / (joint.horizon + 1)


def d_max_product(source: SourceModel, output: OutputProcess,
                  dist: DistortionModel) -> float:
    """Zero-rate threshold via the product measure: E_{mu x nu}[d]."""
    return average_distortion(product_measure(source, output), dist)
