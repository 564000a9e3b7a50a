"""Independent brute-force verification of the Lagrangian optimum.

On tiny instances the causal Lagrangian

    L(q) = I(X^n -> Y^n)/(n+1) - s*log2(e) * distortion(q)

is globally minimized by exhaustive simplex-grid search (n = 0) or by
multistart derivative-free coordinate descent (n <= 2), entirely independent
of the fixed-point solver.  Comparisons are made on the Lagrangian value, not
the kernel, because minimizers need not be unique (the constant sD term of
the dual cancels between the two sides and is dropped).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import indexing as ix
from .distortion import DistortionModel
from .information import LOG2E
from .probability import CausalKernelChain, SourceModel
from .solver import RateDistortionPoint


class InstanceTooLarge(ValueError):
    """Requested oracle method cannot certify an instance of this size."""


@dataclass(frozen=True)
class OracleResult:
    """Best Lagrangian value found and the chain that attains it."""

    best_value: float
    best_chain: CausalKernelChain
    evaluations: int
    method: str
    s: float
    horizon: int
    nx: int
    ny: int


def _simplex_grid(dim: int, steps: int) -> np.ndarray:
    """All pmfs with coordinates that are multiples of 1/steps."""
    rows = []
    for comp in itertools.combinations_with_replacement(range(dim), steps):
        counts = np.bincount(comp, minlength=dim)
        rows.append(counts / steps)
    return np.array(rows)


def _local_simplex_grid(center: np.ndarray, radius: float,
                        step: float) -> np.ndarray:
    """Simplex lattice points at ``step`` within sup-distance ``radius``."""
    dim = center.shape[0]
    k = int(round(radius / step))
    offsets = np.arange(-k, k + 1) * step
    rows = []
    for deltas in itertools.product(offsets, repeat=dim - 1):
        last = -sum(deltas)
        if abs(last) > radius + 1e-12:
            continue
        cand = center + np.array(list(deltas) + [last])
        if np.all(cand >= -1e-12):
            cand = np.clip(cand, 0.0, None)
            rows.append(cand / cand.sum())
    return np.array(rows)


def _grid_search(ev: _BatchEvaluator, steps: int = 20) -> tuple:
    """Simplex-lattice search over stage-kernel rows (n <= 1).

    At n = 0 the product over rows is exhausted jointly; at n = 1 rows are
    exhausted cyclically (each row against the full lattice with the others
    held fixed) until a full pass leaves every row unchanged.  Either way one
    refinement pass at step 1/200 around the incumbent follows.  Every
    evaluation is a batch of one.
    """
    def lagrangian(stages) -> float:
        return float(ev.lagrangian([st[None] for st in stages])[0])

    grid = _simplex_grid(ev.ny, steps)
    if ev.n == 0:
        best_val, best_rows = math.inf, None
        for choice in itertools.product(range(len(grid)), repeat=ev.nx):
            rows = grid[list(choice)]
            val = lagrangian([rows[None, :, :]])
            if val < best_val:
                best_val, best_rows = val, rows.copy()
        best_stages = [best_rows[None, :, :]]
    else:
        best_stages = [np.full((ev.ny**i, ev.nx ** (i + 1), ev.ny), 1.0 / ev.ny)
                       for i in range(ev.n + 1)]
        best_val = lagrangian(best_stages)
        for _ in range(100):
            changed = False
            for i in range(ev.n + 1):
                for hy in range(best_stages[i].shape[0]):
                    for hx in range(best_stages[i].shape[1]):
                        for cand in grid:
                            saved = best_stages[i][hy, hx].copy()
                            best_stages[i][hy, hx] = cand
                            val = lagrangian(best_stages)
                            if val < best_val - 1e-15:
                                best_val, changed = val, True
                            else:
                                best_stages[i][hy, hx] = saved
            if not changed:
                break
    # one refinement pass at step 1/200, row by row around the incumbent
    for i in range(ev.n + 1):
        for hy in range(best_stages[i].shape[0]):
            for hx in range(best_stages[i].shape[1]):
                local = _local_simplex_grid(best_stages[i][hy, hx],
                                            1.0 / steps, 1.0 / 200)
                for cand in local:
                    saved = best_stages[i][hy, hx].copy()
                    best_stages[i][hy, hx] = cand
                    val = lagrangian(best_stages)
                    if val < best_val:
                        best_val = val
                    else:
                        best_stages[i][hy, hx] = saved
    return best_val, best_stages


class _BatchEvaluator:
    """Lagrangian evaluation for a batch of stage-kernel sets in lockstep.

    Stage i of a batch of B kernel sets has shape (B, ny**i, nx**(i+1), ny).
    """

    def __init__(self, source: SourceModel, dist: DistortionModel, s: float,
                 ny: int):
        n, nx = source.horizon, source.alphabet
        self.n, self.nx, self.ny, self.s = n, nx, ny, s
        self.mu = source.joint_pmf()
        self.C = dist.total_cost_matrix(nx, ny)
        self.evaluations = 0

    def lagrangian(self, stages_b) -> np.ndarray:
        """L of every batch entry of a list of batched stage kernels."""
        return self.value(ix.stage_product(stages_b, self.nx, self.ny, self.n))

    def value(self, K: np.ndarray) -> np.ndarray:
        """L = MI/(n+1) - s*log2(e)*D for each (nx^.., ny^..) matrix in K."""
        self.evaluations += K.shape[0]
        J = self.mu[None, :, None] * K
        py = J.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = J * np.log2(K / np.maximum(py, 1e-300)[:, None, :])
        mi = np.where(J > 0, terms, 0.0).sum(axis=(1, 2))
        d = (J * self.C[None]).sum(axis=(1, 2)) / (self.n + 1)
        return mi / (self.n + 1) - self.s * LOG2E * d


def _batched_descent(ev: _BatchEvaluator, stages_b, step0: float = 0.25,
                     min_step: float = 1e-6, max_sweeps: int = 50) -> tuple:
    """Greedy mass-shifting descent, run on every start simultaneously.

    Each batch entry follows exactly the serial schedule: sweep all
    (stage, history) rows trying pairwise mass shifts of the current step,
    accept improvements immediately, halve the step once a sweep stalls.
    ``max_sweeps`` caps the sweeps per step level because near-deterministic
    optima otherwise cycle through microscopic improvements for millions of
    evaluations; entries that have already stalled are unaffected by the
    extra sweeps of their batch-mates (a stalled sweep is a no-op).
    """
    B = stages_b[0].shape[0]
    pairs = [(a, b) for a in range(ev.ny) for b in range(ev.ny) if a != b]
    maps = ix.stage_maps(ev.nx, ev.ny, ev.n)
    G = list(ix.stage_factors(stages_b, ev.nx, ev.ny, ev.n))
    best = ev.lagrangian(stages_b)
    step = step0
    while step >= min_step:
        for _ in range(max_sweeps):
            improved = np.zeros(B, dtype=bool)
            for i in range(ev.n + 1):
                P = np.ones_like(G[0])
                for j in range(ev.n + 1):
                    if j != i:
                        P = P * G[j]
                hy_map, hx_map, y_map = maps[i]
                for hy in range(stages_b[i].shape[1]):
                    cols = np.nonzero(hy_map[0] == hy)[0]
                    ylets = y_map[0, cols]
                    for hx in range(stages_b[i].shape[2]):
                        rows_x = np.nonzero(hx_map[:, 0] == hx)[0]
                        for a, b in pairs:
                            row = stages_b[i][:, hy, hx]
                            delta = np.minimum(step, row[:, a])
                            movable = delta > 0
                            if not movable.any():
                                continue
                            row2 = row.copy()
                            row2[:, a] -= delta
                            row2[:, b] += delta
                            Gi = G[i].copy()
                            Gi[:, rows_x[:, None], cols[None, :]] = \
                                row2[:, ylets][:, None, :]
                            val = ev.value(P * Gi)
                            accept = movable & (
                                val < best - 1e-12 * (1.0 + np.abs(best)))
                            if accept.any():
                                stages_b[i][accept, hy, hx] = row2[accept]
                                G[i][accept] = Gi[accept]
                                best[accept] = val[accept]
                                improved |= accept
            if not improved.any():
                break
        step *= 0.5
    return best, stages_b


def brute_force_lagrangian(source: SourceModel, dist: DistortionModel,
                           s: float, method: str = "grid",
                           budget: int = 500, seed: int = 0,
                           ny: Optional[int] = None) -> OracleResult:
    """Globally minimize the causal Lagrangian on a tiny instance.

    ``grid`` exhausts each stage-kernel row on a step-1/20 simplex lattice
    with one 1/200 refinement pass (n <= 1, alphabets <= 3); ``multistart``
    runs ``budget`` seeded interior starts of coordinate descent (n <= 2).
    """
    if s > 0:
        raise ValueError("Lagrange multiplier s must be <= 0")
    ny = dist.ny if ny is None else ny
    n, nx = source.horizon, source.alphabet
    if method == "grid":
        if n > 1 or nx > 3 or ny > 3:
            raise InstanceTooLarge("grid oracle supports n <= 1, alphabets <= 3")
        ev = _BatchEvaluator(source, dist, s, ny)
        best_val, best_stages = _grid_search(ev)
    elif method == "multistart":
        if n > 2:
            raise InstanceTooLarge("multistart oracle supports n <= 2")
        ev = _BatchEvaluator(source, dist, s, ny)
        rng = np.random.default_rng(seed)
        stages_b = [0.8 * rng.dirichlet(np.ones(ny),
                                        size=(budget, ny**i, nx ** (i + 1)))
                    + 0.2 / ny  # keep starts interior
                    for i in range(n + 1)]
        vals, stages_b = _batched_descent(ev, stages_b)
        k = int(np.argmin(vals))
        best_val = float(vals[k])
        best_stages = [sb[k] for sb in stages_b]
    else:
        raise ValueError("method must be 'grid' or 'multistart'")
    chain = CausalKernelChain.from_stages(best_stages, nx, ny)
    return OracleResult(best_value=best_val, best_chain=chain,
                        evaluations=ev.evaluations, method=method,
                        s=s, horizon=n, nx=nx, ny=ny)


@dataclass(frozen=True)
class CompareReport:
    """Solver-vs-oracle agreement on the Lagrangian value."""

    passed: bool
    value_difference: float
    kernel_difference: float
    tol: float


def compare(solver_point: RateDistortionPoint, oracle_result: OracleResult,
            tol: float = 1e-3) -> CompareReport:
    """Pass iff the solver's Lagrangian matches the oracle best within tol.

    Also reports the max entrywise kernel difference for diagnosis; kernels
    may legitimately differ when the optimum is not unique.
    """
    chain = solver_point.chain
    if chain is None:
        raise ValueError("solver point carries no causal chain")
    if (solver_point.s != oracle_result.s
            or chain.horizon != oracle_result.horizon
            or chain.nx != oracle_result.nx or chain.ny != oracle_result.ny):
        raise ValueError("solver point and oracle result describe different instances")
    value_diff = abs(solver_point.lagrangian() - oracle_result.best_value)
    kernel_diff = float(np.max(np.abs(
        chain.conditional_matrix()
        - oracle_result.best_chain.conditional_matrix())))
    return CompareReport(passed=value_diff <= tol,
                         value_difference=value_diff,
                         kernel_difference=kernel_diff, tol=tol)
