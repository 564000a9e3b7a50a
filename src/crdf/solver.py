"""Lagrangian solver for the causal rate distortion function.

For a fixed multiplier s <= 0 and fixed output conditionals nu_i, the
optimal causal chain is the backward-recursive exponential tilt

    q_i(y_i | y^{i-1}, x^i)  propto  nu_i(y_i | y^{i-1}) * exp(s * rho_i - G_i)

    G_i(x^i, y^i) = E[ V_{i+1}(X^{i+1}, y^i) | x^i ],   G_n = 0,
    V_i(x^i, y^{i-1}) = -log Z_i = -log sum_{y_i} nu_i * exp(s * rho_i - G_i)

computed stage by stage from i = n down to 0.  G_i is the expected
cost-to-go of the later stages; for iid sources it does not depend on y_i
and the kernel reduces to the stage-wise tilt.  The solver alternates this
kernel update with the output-marginal update until the kernel stops moving,
sweeps s to trace the rate-distortion curve, and cross-checks the telescoped
closed-form rate

    R = s*D*log2(e) - E_mu[ log2 Z_0(X_0) ] / (n+1)

against the directed-information rate at every converged point.

Conventions: s multiplies rho in natural units inside the exponent; all
reported rates are bits per symbol and all distortions are normalized by
(n+1).  The classical (non-causal) solver on the trajectory alphabet is
provided as a baseline for rate-loss-due-to-causality reports.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import indexing as ix
from .distortion import DistortionModel, average_distortion, d_max_min_sequence
from .information import (
    LOG2E,
    directed_information_of_joint,
    mutual_information,
)
from .probability import (
    CausalKernelChain,
    GeneralKernel,
    JointMeasure,
    OutputProcess,
    ShapeError,
    SourceModel,
    _chain_rule_conditionals,
    output_marginal,
)


# weight of the uniform law in a warm start (see solve_fixed_s)
WARM_MIX = 1e-6


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls for the fixed-point solvers."""

    tol: float = 1e-9
    max_iters: int = 20000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class RateDistortionPoint:
    """One Lagrangian solution: multiplier, achieved (D, R), and the kernel."""

    s: float
    distortion: float
    rate: float
    rate_formula: float
    iterations: int
    converged: bool
    residual: float = math.nan
    chain: Optional[CausalKernelChain] = None
    output: Optional[OutputProcess] = None
    kernel: Optional[GeneralKernel] = None

    def lagrangian(self) -> float:
        """R - s*log2(e)*D in bits; the sD constant of the dual is dropped."""
        return self.rate - self.s * LOG2E * self.distortion


@dataclass(frozen=True)
class RDCurve:
    """Sweep result, ordered by s descending (s = 0 end first)."""

    points: tuple
    d_max_reported: float

    def converged_points(self):
        return [p for p in self.points if p.converged]


def _max_step(a, b) -> float:
    """Largest entrywise difference between two lists of stage kernels."""
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))


class _Workspace:
    """Source prefix laws and tilt tables for one (source, dist, s) problem."""

    def __init__(self, source: SourceModel, dist: DistortionModel, s: float,
                 ny: int):
        if source.horizon != dist.horizon:
            raise ShapeError("source and distortion horizons differ")
        n = source.horizon
        nx = source.alphabet
        self.n, self.nx, self.ny = n, nx, ny
        self.mu = source.joint_pmf()
        # tilt tables exp(s*(rho_i - min_{y_i} rho_i)) laid out as
        # (y^{i-1}, x^i, y_i); the shift keeps exp from underflowing to 0 and
        # s*min goes back into V_i, where it is the factor dropped from Z_i
        self.exp_cost, self.cost_shift = [], []
        for i in range(n + 1):
            rho = dist.stage_cost(i, nx, ny)          # (nx^(i+1), ny^(i+1))
            rho = rho.reshape(nx ** (i + 1), ny**i, ny).transpose(1, 0, 2)
            low = rho.min(axis=2)
            self.exp_cost.append(np.exp(s * (rho - low[:, :, None])))
            self.cost_shift.append(s * low)
        # source prefix marginals mu(x^i) and transitions mu(x_{i+1} | x^i)
        prefix = [self.mu.reshape(nx ** (i + 1), -1).sum(axis=1)
                  for i in range(n + 1)]
        self.mu0 = prefix[0]
        self.mu_next = []
        for i in range(n):
            parent = prefix[i]
            child = prefix[i + 1].reshape(nx ** (i + 1), nx)
            safe = np.where(parent > 0, parent, 1.0)
            self.mu_next.append(child / safe[:, None])

    def tilt(self, nu_conds):
        """Optimal causal kernel for fixed output conditionals.

        Runs the backward recursion from stage n to 0 and returns the stage
        kernels together with V_0 = -log Z_0, shape (1, nx).  rho_i and G_i
        are shifted by their minimum over y_i, which cancels in the
        normalization and is added back into V_i, so neither exponential
        exceeds 1 and each equals 1 somewhere in every row.
        """
        nx, ny = self.nx, self.ny
        stages = [None] * (self.n + 1)
        G = None
        for i in range(self.n, -1, -1):
            w = self.exp_cost[i] * nu_conds[i][:, None, :]
            shift = 0.0
            if G is not None:
                shift = G.min(axis=2)
                w = w * np.exp(shift[:, :, None] - G)
            Z = w.sum(axis=2)                                 # (y^{i-1}, x^i)
            stages[i] = w / Z[:, :, None]
            V = shift - np.log(Z) - self.cost_shift[i]
            if i > 0:
                # G_{i-1}(x^{i-1}, y^{i-1}) = sum_{x_i} mu(x_i|x^{i-1}) V_i
                V = V.reshape(ny ** (i - 1), ny, nx**i, nx)
                G = (V * self.mu_next[i - 1]).sum(axis=3).transpose(0, 2, 1)
        return stages, V


def solve_fixed_s(source: SourceModel, dist: DistortionModel, s: float,
                  opts: SolverOptions = SolverOptions(),
                  ny: Optional[int] = None,
                  warm_start=None) -> RateDistortionPoint:
    """Solve the fixed-s Lagrangian problem by alternating minimization.

    ``warm_start`` may carry output conditionals from a neighboring solve.
    Non-convergence within ``max_iters`` returns converged=False rather than
    raising.
    """
    if s > 0:
        raise ValueError("Lagrange multiplier s must be <= 0")
    ny = dist.ny if ny is None else ny
    ws = _Workspace(source, dist, s, ny)
    n, nx = ws.n, ws.nx
    nu = [np.full((ny**i, ny), 1.0 / ny) for i in range(n + 1)]
    if warm_start is not None:
        # a multiplicative update never revives a zero mass and revives a
        # vanishing one too slowly to notice, so the warm conditionals are
        # mixed with the uniform law to give full support
        nu = [(1.0 - WARM_MIX) * np.asarray(c, dtype=float) + WARM_MIX * u
              for c, u in zip(warm_start, nu)]

    q_prev = None
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iters + 1):
        q, _ = ws.tilt(nu)
        if q_prev is not None and _max_step(q, q_prev) < opts.tol:
            converged = True
            break
        pmf = ws.mu[:, None] * ix.stage_product(q, nx, ny, n)
        nu = _chain_rule_conditionals(pmf.sum(axis=0), ny, n)
        q_prev = q

    joint = JointMeasure(nx=nx, ny=ny, horizon=n,
                         pmf=ws.mu[:, None] * ix.stage_product(q, nx, ny, n))
    output = output_marginal(joint)
    q_next, V0 = ws.tilt(output.conditionals)
    residual = _max_step(q_next, q)

    chain = CausalKernelChain.from_stages(q, nx, ny)
    d_norm = average_distortion(joint, dist)
    rate = directed_information_of_joint(joint) / (n + 1)
    # the stage sum telescopes: -E[log2 Z_0] is the minimized Lagrangian
    formula = s * LOG2E * d_norm + LOG2E * float(ws.mu0 @ V0[0]) / (n + 1)
    return RateDistortionPoint(
        s=s, distortion=d_norm, rate=rate, rate_formula=formula,
        iterations=iterations, converged=converged, residual=residual,
        chain=chain, output=output)


def default_s_grid(num: int = 40, smallest: float = 1e-3,
                   largest: float = 20.0) -> list:
    """Log-spaced negative multipliers plus the zero-rate endpoint s=0."""
    mags = np.logspace(math.log10(smallest), math.log10(largest), num)
    return sorted([0.0] + [-float(m) for m in mags], reverse=True)


def sweep(source: SourceModel, dist: DistortionModel,
          s_grid: Sequence[float], opts: SolverOptions = SolverOptions(),
          ny: Optional[int] = None, mode: str = "warm",
          threads: Optional[int] = None) -> RDCurve:
    """Trace the rate-distortion curve over a grid of multipliers.

    ``mode='warm'`` runs sequentially from s=0 downward, warm-starting each
    solve from the previous fixed point; ``mode='cold'`` solves every point
    independently (optionally across threads).  Both modes must agree at
    every converged point to within solver tolerance.
    """
    if len(s_grid) == 0:
        raise ValueError("empty multiplier grid")
    grid = sorted(set(float(s) for s in s_grid), reverse=True)
    ny_eff = dist.ny if ny is None else ny
    points = []
    if mode == "warm":
        warm = None
        for s in grid:
            p = solve_fixed_s(source, dist, s, opts, ny=ny_eff,
                              warm_start=warm)
            points.append(p)
            if p.output is not None and not p.output.is_memoryless:
                warm = p.output.conditionals
    elif mode == "cold":
        def solve_one(s):
            return solve_fixed_s(source, dist, s, opts, ny=ny_eff)
        if threads and threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                points = list(pool.map(solve_one, grid))
        else:
            points = [solve_one(s) for s in grid]
    else:
        raise ValueError("mode must be 'warm' or 'cold'")
    dmax, _ = d_max_min_sequence(source, dist, ny=ny_eff)
    return RDCurve(points=tuple(points), d_max_reported=dmax)


def classical_ba(source: SourceModel, dist: DistortionModel, s: float,
                 opts: SolverOptions = SolverOptions(),
                 ny: Optional[int] = None) -> RateDistortionPoint:
    """Classical Blahut-Arimoto on the trajectory alphabet (no causality).

    Optimizes an unconstrained kernel q(y^n | x^n) at multiplier s and
    reports the per-symbol (R, D) pair; the gap to the causal solution is
    the rate loss due to causality.
    """
    if s > 0:
        raise ValueError("Lagrange multiplier s must be <= 0")
    ny = dist.ny if ny is None else ny
    n, nx = source.horizon, source.alphabet
    mu = source.joint_pmf()
    C = dist.total_cost_matrix(nx, ny)
    # rows shifted by their minimum so exp cannot underflow to 0; the factor
    # exp(s*low) cancels in q and goes back into Z in the rate formula
    low = C.min(axis=1)
    E = np.exp(s * (C - low[:, None]))
    Ny = ny ** (n + 1)
    nu = np.full(Ny, 1.0 / Ny)
    q_prev = None
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iters + 1):
        q = E * nu[None, :]
        q /= q.sum(axis=1, keepdims=True)
        if q_prev is not None and float(np.max(np.abs(q - q_prev))) < opts.tol:
            converged = True
            break
        nu = mu @ q
        q_prev = q
    nu_final = mu @ q
    q_next = E * nu_final[None, :]
    q_next /= q_next.sum(axis=1, keepdims=True)
    residual = float(np.max(np.abs(q_next - q)))

    kernel = GeneralKernel(nx=nx, ny=ny, horizon=n, table=q)
    joint = JointMeasure(nx=nx, ny=ny, horizon=n, pmf=mu[:, None] * q)
    d_norm = average_distortion(joint, dist)
    rate = mutual_information(joint) / (n + 1)
    Z = (E * nu_final[None, :]).sum(axis=1)
    log2_z = np.log2(Z) + s * LOG2E * low
    formula = s * LOG2E * d_norm - float(mu @ log2_z) / (n + 1)
    return RateDistortionPoint(
        s=s, distortion=d_norm, rate=rate, rate_formula=formula,
        iterations=iterations, converged=converged, residual=residual,
        kernel=kernel, output=output_marginal(joint))


def _conditional_matrix(kernel) -> np.ndarray:
    if isinstance(kernel, CausalKernelChain):
        return kernel.conditional_matrix()
    if isinstance(kernel, GeneralKernel):
        return kernel.table
    raise TypeError("expected a CausalKernelChain or GeneralKernel")


def gateaux_derivative(source: SourceModel, q0, q1) -> float:
    """Directional derivative of the information functional at q0 toward q1.

    Evaluates sum_{x,y} mu(x) (q1 - q0)(y|x) log2(q0(y|x) / nu0(y)) exactly;
    q0 must be strictly positive on every row the source reaches.
    """
    K0 = _conditional_matrix(q0)
    K1 = _conditional_matrix(q1)
    if K0.shape != K1.shape:
        raise ShapeError("q0 and q1 have different shapes")
    mu = source.joint_pmf()
    if mu.shape[0] != K0.shape[0]:
        raise ShapeError("source and kernel shapes differ")
    reachable = mu > 0
    if np.any(K0[reachable] <= 0):
        raise ValueError("q0 must be strictly positive on reachable rows")
    nu0 = mu @ K0
    integrand = np.log2(K0 / nu0[None, :])
    return float(np.sum(mu[:, None] * (K1 - K0) * integrand))


@dataclass(frozen=True)
class PropertiesReport:
    """Curve-shape checks: monotonicity, convexity, zero-rate threshold."""

    monotone_ok: bool
    convex_ok: bool
    zero_rate_at_dmax_ok: bool
    positive_rate_below_dmax_ok: bool
    d_max: float
    num_points: int

    @property
    def passed(self) -> bool:
        return (self.monotone_ok and self.convex_ok
                and self.zero_rate_at_dmax_ok
                and self.positive_rate_below_dmax_ok)


def properties_report(curve: RDCurve, source: SourceModel,
                      dist: DistortionModel,
                      monotone_tol: float = 1e-8,
                      convex_tol: float = 1e-6,
                      zero_rate_tol: float = 1e-6,
                      dmax_margin: float = 1e-3) -> PropertiesReport:
    """Check the structural properties of a swept curve."""
    pts = sorted(curve.converged_points(), key=lambda p: p.distortion)
    if len(pts) < 3:
        raise ValueError("need at least 3 converged points")
    dmax, _ = d_max_min_sequence(source, dist,
                                 ny=pts[0].output.ny if pts[0].output else None)
    D = np.array([p.distortion for p in pts])
    R = np.array([p.rate for p in pts])
    monotone = bool(np.all(np.diff(R) <= monotone_tol))
    convex = True
    for k in range(len(pts) - 2):
        span = D[k + 2] - D[k]
        if span <= 1e-12:
            continue
        lam = (D[k + 1] - D[k]) / span
        if R[k + 1] > (1 - lam) * R[k] + lam * R[k + 2] + convex_tol:
            convex = False
            break
    at_or_above = R[D >= dmax - 1e-12]
    zero_at_dmax = bool(np.all(at_or_above <= zero_rate_tol)) \
        if at_or_above.size else True
    below = R[D < dmax - dmax_margin]
    positive_below = bool(np.all(below > 0)) if below.size else True
    return PropertiesReport(
        monotone_ok=monotone, convex_ok=convex,
        zero_rate_at_dmax_ok=zero_at_dmax,
        positive_rate_below_dmax_ok=positive_below,
        d_max=dmax, num_points=len(pts))


def bisect_s_for_distortion(source: SourceModel, dist: DistortionModel,
                            target: float,
                            opts: SolverOptions = SolverOptions(),
                            ny: Optional[int] = None,
                            s_low: float = -60.0, tol_d: float = 1e-7,
                            max_steps: int = 200) -> RateDistortionPoint:
    """Find the multiplier whose achieved distortion matches ``target``.

    Plain bisection on s (D(s) is non-decreasing in s); the returned point is
    the final solve.
    """
    lo, hi = s_low, 0.0
    warm = None
    point = None
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        point = solve_fixed_s(source, dist, mid, opts, ny=ny, warm_start=warm)
        if point.output is not None and not point.output.is_memoryless:
            warm = point.output.conditionals
        if abs(point.distortion - target) <= tol_d:
            return point
        if point.distortion > target:
            hi = mid
        else:
            lo = mid
    return point
