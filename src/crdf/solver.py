"""Lagrangian solver for the causal rate distortion function.

For a fixed multiplier s <= 0 and fixed output conditionals nu_i, the
optimal causal chain is the backward-recursive exponential tilt

    q_i(y_i | y^{i-1}, x^i)  propto  nu_i(y_i | y^{i-1}) * exp(s * rho_i - G_i)

    G_i(x^i, y^i) = E[ V_{i+1}(X^{i+1}, y^i) | x^i ],   G_n = 0,
    V_i(x^i, y^{i-1}) = -log Z_i = -log sum_{y_i} nu_i * exp(s * rho_i - G_i)

computed stage by stage from i = n down to 0.  G_i is the expected
cost-to-go of the later stages; for iid sources it does not depend on y_i
and the kernel reduces to the stage-wise tilt.  A row whose every weight
nu_i * exp(s * rho_i - G_i) underflows to 0 is normalized as a log-sum-exp
instead; other rows take the plain path.

Output-law update and stop rule.  Both solvers alternate the kernel update
with an update of the joint output law nu on Y^n.  With P_Y the output law
of the kernel tilted at nu and r = P_Y / nu, the update is the Matz &
Duhamel (2004) natural-gradient step nu <- nu * r^beta, normalized, formed in
log space; beta = 1 is the plain Blahut-Arimoto step nu <- P_Y.  Blahut's
(1972) duality bound, carried to the causal problem, certifies the tilted
kernel: its Lagrangian is within log2(max_y r(y)) / (n+1) bits of the
optimum, the max taken over the masses of nu that are > 0.  That is the
point's ``gap``.  beta doubles, up to 256, after each step whose gap strictly
falls; otherwise the step is replaced by the plain one and beta returns to
1, and beta is halved while a step would turn a mass that P_Y keeps
positive into 0 (``_alternate``).  A solve has converged when the kernel
moves less than ``tol`` and its gap is at most ``tol``.

Newton step.  Once plain steps stall, both solvers try Newton candidates on
the fixed point P_Y(nu) = nu in log nu: with J = dP_Y / dlog nu, each solves
(J / P_Y - I) t = -log r on the masses of its support, is accepted when the
gap strictly falls and is halved otherwise (``_newton_step``).
  - Classical Blahut-Arimoto: with Q the kernel tilted at nu and P_Y = mu Q,
    dP_Y(y) / dlog nu(y') = delta_{yy'} P_Y(y) - sum_x mu(x) Q(x,y) Q(x,y'),
    J = diag(P_Y) - Q^T diag(mu) Q, which costs no extra evaluation.  An
    episode starts after one plain step whose gap does not fall, and the
    masses off the support take the plain step.
  - Causal: J is taken by complex step (Squire & Trapp 1998) through the
    stage code, column k being Im P_Y(nu with nu_k * e^{ih}) / h for
    h = 1e-30, exact to rounding (``_complex_step_jacobian``).  The stage
    code takes leading batch axes, so the ny^(n+1) perturbed laws take one
    batched complex evaluation, 1.5 real ones' time at ny^(n+1) = 9.  An
    episode starts after CAUSAL_PATIENCE = 12 stalled steps in a row: plain
    steps whose gap did not fall, and plain or beta = BETA_MAX steps whose
    gap stayed above CAUSAL_SLOW = 0.9 times the last.  Next to s = 0 the
    BETA_MAX steps are all accepted but each gains a factor of only about
    0.9999, and a binary Markov solve at n = 2, s = -0.001 stopped at
    max_iters without that rule.  At a patience of 1 the ternary Markov
    sweep built 7 times the Jacobians.  The other stall is a multiplier
    where an output letter enters or leaves the support: at s = -0.4434 on
    that source at n = 1, two masses settle at 6.6e-4 while two decay at
    r = 0.984 per step, and the plain loop takes 4,139 steps.  A mass below
    LEAVING_MASS whose log r is below -LEAVING_RATE leaves the support, and
    every mass off it steps by BETA_MAX * log r, so the decaying masses
    empty while Newton settles the rest.  J is built only while ny^(n+1)
    <= JACOBIAN_MAX = 64, as the batch holds ny^(n+1) copies of every stage
    table: at N = 512 (binary, n = 8; 2 vCPU) J takes 0.16 s and 48 MB,
    against 0.08 s for a whole four-point sweep there, which never stalls.

State layout.  For an iid or Markov source with single-letter costs, q_i
depends on x^i only through x_i, so the state of stage i is (y^{i-1}, x_i):
nx * ny^i rows instead of nx^(i+1) * ny^i, and the returned chain holds these
compact stages.  Explicit sources and table costs keep the full history
(y^{i-1}, x^i).  The input selects the layout; the code is the same.

Joint-free measures.  A forward pass carries P(y^{i-1}, x^i) through the
stages.  Every iteration reads the output law nu(y^n) from it, and the final
chain also reads the distortion sum_i E[rho_i] and the directed information
sum_i E[log2 q_i / nu_i], so no solve forms the (Nx, Ny) joint.  The
telescoped closed-form rate

    R = s*D*log2(e) - E_mu[ log2 Z_0(X_0) ] / (n+1)

is reported next to the directed-information rate as a cross-check.

Start (``_Workspace.start``, both solvers).  For s < 0, where Blahut's
(1972) KKT test certifies the point mass on the D_max sequence y* as the
causal optimum (``_Workspace.zero_rate``), the output law starts there and
the loop stops after two iterations.  Otherwise a ``warm_start`` is mixed
with the uniform law by WARM_MIX, as a multiplicative update never revives
a zero mass; without one the start is the uniform law, optimal at s = 0.

Costs.  A causal solve or sweep reads costs only from the workspace's stage
tables: the tilt, the forward pass, the zero-rate test and D_max
(``_Workspace.min_sequence``) never form the (Nx, Ny) total cost matrix.
Classical Blahut-Arimoto lives on the trajectory alphabet and reads that
matrix, which the model builds on first use and keeps.

Bisection on s.  ``bisect_s_for_distortion`` drives either solver, warm
from step to step, and stops once the s bracket is one double wide: a stop
on |D - target| <= 1e-7 could move the classical rate by 2.9e-6 at s = -20,
where a binary Markov source at n = 2 has a causal rate only 9e-10 above it.

Conventions: s multiplies rho in natural units inside the exponent; all
reported rates are bits per symbol and all distortions are normalized by
(n+1).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import indexing as ix
from .distortion import DistortionModel, average_distortion
from .information import LOG2E, _plogratio, mutual_information
from .probability import (
    CausalKernelChain,
    FinitePmf,
    GeneralKernel,
    Kernel,
    OutputProcess,
    ShapeError,
    SourceModel,
    _chain_rule_conditionals,
    check_tol,
    make_joint,
)


# weight of the uniform law in a warm start
WARM_MIX = 1e-6
# largest exponent of the natural-gradient step on the output law
BETA_MAX = 256.0
# Newton step on the output law: smallest mass and largest |log r| of its
# support, and smallest scale tried before the plain path resumes
NEWTON_FLOOR = 1e-200
NEWTON_BAND = 1.0
NEWTON_MIN_SCALE = 1.0 / 16.0
# causal Newton step: stalled steps before an episode starts, and the factor
# a gap must fall by for a step not to stall; a mass below LEAVING_MASS whose
# log r is below -LEAVING_RATE leaves its support; the complex step of its
# Jacobian, built only while ny^(n+1) <= JACOBIAN_MAX
CAUSAL_PATIENCE = 12
CAUSAL_SLOW = 0.9
LEAVING_MASS = 1e-6
LEAVING_RATE = 1e-3
COMPLEX_STEP = 1e-30
JACOBIAN_MAX = 64
# _reduce_last: numpy adds a row of fewer entries one after another and
# longer ones pairwise; below SLICE_MIN entries its reduction is cheaper than
# one call per slice
PAIRWISE_MIN = 8
SLICE_MIN = 128

# properties_report: slack of the monotone, chord and R = 0 tests, and the
# margin below D_max from which the rate must be positive
MONOTONE_TOL = 1e-8
CONVEX_TOL = 1e-6
ZERO_RATE_TOL = 1e-6
DMAX_MARGIN = 1e-3
# bisect_s_for_distortion: s bracket's lower end and step limit
BISECT_S_LOW = -60.0
BISECT_MAX_STEPS = 200
# default_s_grid: count and magnitude range of its negative multipliers
S_GRID_NUM = 40
S_GRID_SMALLEST = 1e-3
S_GRID_LARGEST = 20.0


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls for the fixed-point solvers."""

    tol: float = 1e-9
    max_iters: int = 20000

    def __post_init__(self):
        check_tol(self.tol)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def check_s(s) -> float:
    """``s`` as a float, if it is a legal multiplier; else ValueError."""
    s = float(s)
    if not (math.isfinite(s) and s <= 0):
        raise ValueError("Lagrange multiplier s must be finite and <= 0")
    return s


@dataclass(frozen=True)
class RateDistortionPoint:
    """One Lagrangian solution: multiplier, achieved (D, R) and the output
    law; a causal solve also carries its chain.

    ``gap`` certifies the kernel tilted at the last candidate output law nu
    that the loop evaluated: by Blahut's bound at nu, its Lagrangian is
    within ``gap`` bits per symbol of the optimum.  ``output`` is that
    kernel's own output law, mu*q, one plain step past nu, so Blahut's
    bound taken at ``output`` can exceed ``tol`` although ``gap`` does not.
    """

    s: float
    distortion: float
    rate: float
    rate_formula: float
    iterations: int
    converged: bool
    output: OutputProcess
    residual: float = math.nan
    gap: float = math.nan
    chain: Optional[CausalKernelChain] = None

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

    def dropped(self):
        """(s, reason, gap) of each point that converged_points() leaves out."""
        return [(p.s, "stopped at max_iters", p.gap)
                for p in self.points if not p.converged]


def _max_step(a, b) -> float:
    """Largest entrywise difference between two lists of stage kernels."""
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))


def _reduce_last(op, a):
    """``op.reduce(a, axis=-1)`` for np.add or np.minimum, bit for bit.

    numpy's reduction over a short last axis is its slow case: on a
    C-ordered (256, 512, 2) array, the size of an n = 8 tilt's last table,
    a sum took 2.4 ms and a minimum 7.2 ms, against 0.16 and 0.14 ms across
    the slices (2 vCPU, numpy 2.4).  So where one law's table (the last
    three axes) has at least SLICE_MIN entries, rows of 2 to PAIRWISE_MIN - 1
    entries are reduced elementwise across the slices a[..., 0], a[..., 1],
    ... in order.  That is numpy's own order for a real sum of such rows,
    and a minimum does not depend on the order.  Complex input takes the
    same paths, but numpy sums complex rows of 4 or more entries out of
    order (its pairwise cut counts both parts), so there the paths differ by
    rounding: the path is set per law, which gets the same bits in a batch.
    """
    k = a.shape[-1]
    if math.prod(a.shape[-3:]) < SLICE_MIN or not 2 <= k < PAIRWISE_MIN:
        return op.reduce(a, axis=-1)
    out = op(a[..., 0], a[..., 1])
    for j in range(2, k):
        op(out, a[..., j], out=out)
    return out


def _normalized(w, log_w) -> tuple:
    """w normalized over its last axis, and the log of each row's sum.

    A row whose every entry underflowed to 0 sums to 0.  Only then is
    ``log_w()`` called, and those rows are redone as a log-sum-exp of it, so
    ordinary rows take the plain path unchanged.
    """
    Z = _reduce_last(np.add, w)
    if Z.all():
        return w / Z[..., None], np.log(Z)
    bad = Z == 0
    with np.errstate(divide="ignore"):        # log of the zero masses of nu
        lw = log_w()[bad]
    top = lw.real.max(axis=-1)
    e = np.exp(lw - top[:, None])
    z = e.sum(axis=-1)
    Z[bad] = 1.0
    q, log_z = w / Z[..., None], np.log(Z)
    q[bad] = e / z[:, None]
    log_z[bad] = top + np.log(z)
    return q, log_z


def _gap(nu, p, n: int) -> float:
    """Certified gap of the kernel tilted at nu, in bits per symbol.

    With r = P_Y / nu over the masses of nu that are > 0, the kernel's
    Lagrangian is at most Phi(nu), and L* >= Phi(nu) - log max r (Blahut
    1972, carried to the causal problem), so the kernel is within
    log2(max r) / (n+1) of the optimum.  max r >= 1, as P_Y and nu both sum
    to 1 over that support; rounding below it reads as 0.
    """
    live = nu > 0
    return max(0.0, math.log2(float(np.max(p[live] / nu[live]))) / (n + 1))


def _guarded_step(nu, p, log_step, x: float, floor: float) -> tuple:
    """Candidate exp(log_step(x)), normalized, and x; (None, x) once x is
    below ``floor``.

    ``log_step(x)`` is the log of the candidate, up to a constant, on the
    masses of nu that are > 0; the others stay 0.  It is shifted by its
    maximum, and x is halved while the candidate would turn a mass that p
    keeps positive into 0: a multiplicative update never revives a zero, so
    such a step would lock onto a face of the simplex, where the gap, which
    reads only the masses > 0, cannot see it.
    """
    live, keep = nu > 0, p > 0
    while x >= floor:
        t = log_step(x)
        cand = np.zeros_like(nu)
        cand[live] = np.exp(t - t.max())
        cand /= cand.sum()
        if cand[keep].all():
            return cand, x
        x /= 2.0
    return None, x


def _natural_step(nu, p, beta: float) -> tuple:
    """Candidate output law nu * (p / nu)^beta, normalized, and its beta.

    Matz & Duhamel's (2004) natural-gradient step; beta = 1 is the plain
    Blahut-Arimoto step and returns p itself, as does every beta that
    ``_guarded_step`` halves down to 1.
    """
    if beta == 1.0:
        return p, 1.0
    live = nu > 0
    with np.errstate(divide="ignore"):            # log 0 where p has no mass
        log_nu = np.log(nu[live])
        log_r = np.log(p[live]) - log_nu
    cand, beta = _guarded_step(nu, p, lambda b: log_nu + b * log_r, beta,
                               2.0)
    return (p, 1.0) if cand is None else (cand, beta)


def _newton_direction(nu, p, jac, causal_support: bool) -> Optional[tuple]:
    """Newton step on log nu for the fixed point P_Y(nu) = nu, or None.

    ``jac`` is J = dP_Y / dlog nu at nu.  On the support, the masses of nu
    above NEWTON_FLOOR whose r = p / nu is within NEWTON_BAND of 1 in log,
    it solves (J / P_Y - I) t = -log r; the other masses, which decay
    towards 0, keep the plain step's log r.  With ``causal_support``, a mass
    below LEAVING_MASS whose log r is below -LEAVING_RATE also leaves the
    support, and every mass off it steps by BETA_MAX * log r, so that the
    masses on their way to 0 get there while Newton settles the others.
    Returns (t, support), or None when the support is empty or the system
    is singular.
    """
    live = nu > 0
    log_r = np.zeros_like(nu)
    with np.errstate(divide="ignore"):            # log 0 where p has no mass
        log_r[live] = np.log(p[live]) - np.log(nu[live])
    on = live & (nu > NEWTON_FLOOR) & (np.abs(log_r) < NEWTON_BAND)
    if causal_support:
        on &= ~((nu < LEAVING_MASS) & (log_r < -LEAVING_RATE))
        log_r[~on] *= BETA_MAX
    if not on.any():
        return None
    a = jac[np.ix_(on, on)] / p[on][:, None] - np.eye(int(on.sum()))
    try:
        t = np.linalg.solve(a, -log_r[on])
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(t)):
        return None
    log_r[on] = t
    return log_r, on


def _newton_step(nu, p, direction, scale: float) -> tuple:
    """Candidate nu * exp(scale * t) on the support and nu * exp(t) off it,
    normalized, and its scale, halved by ``_guarded_step``; (None, scale)
    once the scale is below NEWTON_MIN_SCALE."""
    t, on = direction
    live = nu > 0
    log_nu = np.log(nu[live])
    return _guarded_step(
        nu, p, lambda x: log_nu + np.where(on, x * t, t)[live], scale,
        NEWTON_MIN_SCALE)


def _alternate(evaluate, nu, n: int, opts: SolverOptions, jacobian=None,
               patience: int = 1, causal: bool = False) -> tuple:
    """Alternating minimization over the output law, safeguarded.

    ``evaluate(nu)`` returns the kernel tilted at the output law nu, a list
    of stage kernels, and the kernel's own output law P_Y; the first call is
    at the start nu.  Each iteration evaluates one candidate, from
    ``_natural_step`` unless a Newton step is under way (below).  A
    natural-gradient candidate is accepted when its certified gap
    strictly falls, and beta then doubles, up to BETA_MAX; otherwise the
    next candidate is the plain step from the last accepted law, with
    beta = 1.  A plain step is always taken, so with beta = 1 throughout
    this is the plain Blahut-Arimoto iteration.

    ``jacobian(nu, q, p)``, if given, returns dP_Y / dlog nu at the last
    accepted law nu, with its kernel q and output law p.  Then, once
    ``patience`` steps in a row have stalled, Newton candidates follow
    (``_newton_step``, with ``causal`` passed to ``_newton_direction``):
    each is accepted when the gap strictly falls, and the next is formed at
    the new law; a rejected one is retried at half its scale, and below
    NEWTON_MIN_SCALE the plain path takes over again.  A plain step whose
    gap does not fall has stalled; with ``causal``, so has a plain step or
    a step at BETA_MAX whose gap stays above CAUSAL_SLOW times the last.  A
    step whose gap falls further, and the start of an episode, set the
    count of stalled steps back to 0.

    The solve has converged when the gap is at most ``tol`` and the kernel
    moves less than ``tol``, the gap read first.  Returns (kernel, gap,
    iterations, converged), the kernel being the converged candidate or
    else the last accepted one.
    """
    q, p = evaluate(nu)
    gap = _gap(nu, p, n)
    beta, direction, scale, stalled = 1.0, None, 1.0, 0
    iterations = 1
    for iterations in range(2, opts.max_iters + 1):
        cand = None
        if direction is not None:
            cand, scale = _newton_step(nu, p, direction, scale)
        if cand is None:
            direction = None
            cand, used = _natural_step(nu, p, beta)
        q_new, p_new = evaluate(cand)
        gap_new = _gap(cand, p_new, n)
        if gap_new <= opts.tol and _max_step(q_new, q) < opts.tol:
            return q_new, gap_new, iterations, True
        falls = gap_new < gap
        if direction is not None:
            if falls:
                nu, q, p, gap = cand, q_new, p_new, gap_new
                direction, scale = _newton_direction(
                    nu, p, jacobian(nu, q, p), causal), 1.0
            else:
                scale /= 2.0
            continue
        slow = not gap_new < (CAUSAL_SLOW if causal else 1.0) * gap
        if falls or used == 1.0:
            nu, q, p, gap = cand, q_new, p_new, gap_new
        beta = min(2.0 * used, BETA_MAX) if falls else 1.0
        counted = used == 1.0 or (causal and used == BETA_MAX)
        stalled = stalled + counted if slow else 0
        if jacobian is not None and stalled >= patience:
            stalled = 0
            direction, scale = _newton_direction(
                nu, p, jacobian(nu, q, p), causal), 1.0
    return q, gap, iterations, False


class _Workspace:
    """Source laws and tilt tables for one (source, dist, s) problem.

    The layout of the stage tables is read from the input.  For an iid or
    Markov source with single-letter costs, q_i depends on x^i only through
    x_i (by induction on the backward recursion), so every stage table is
    laid out as (y^{i-1}, x_i, y_i), the cost rho_0 serves every stage, and
    ``mu_next[i]`` is the (nx, nx) transition (the letter pmf tiled for an
    iid source): the Markov-state layout.  Otherwise the tables are laid out
    as (y^{i-1}, x^i, y_i) and ``mu_next[i]`` is mu(x_{i+1} | x^i).
    """

    def __init__(self, source: SourceModel, dist: DistortionModel, s: float):
        check_s(s)
        dist.check_source(source)
        n, nx, ny = source.horizon, dist.nx, dist.ny
        self.n, self.nx, self.ny, self.s = n, nx, ny, s
        self.markov = source.kind in ("iid", "markov") and dist.is_single_letter
        # rho_i per stage in the stage layout; in the Markov-state layout
        # stage 0's table, (1, nx, ny), serves every stage
        cost = []
        for i in range(n + 1):
            if i == 0 or not self.markov:
                rho = dist.stage_cost(i).reshape(nx ** (i + 1), ny**i, ny)
                table = rho.transpose(1, 0, 2)
            cost.append(table)
        self.cost = tuple(cost)
        if self.markov and source.kind == "iid":
            self.mu0 = source.letter.weights
            self.mu_next = [np.tile(self.mu0, (nx, 1))] * n
        elif self.markov:
            self.mu0 = source.initial.weights
            self.mu_next = [source.transition] * n
        else:
            # source prefix marginals mu(x^i), transitions mu(x_{i+1} | x^i)
            mu = source.joint_pmf()
            prefix = [mu.reshape(nx ** (i + 1), -1).sum(axis=1)
                      for i in range(n + 1)]
            self.mu0 = prefix[0]
            self.mu_next = []
            for i in range(n):
                parent = prefix[i]
                child = prefix[i + 1].reshape(nx ** (i + 1), nx)
                safe = np.where(parent > 0, parent, 1.0)
                self.mu_next.append(child / safe[:, None])
        # mu(x^i) in the stage layout: the forward pass of a one-letter output
        ones = [np.ones((1, 1, 1))] * (n + 1)
        self.mass = [m[0] for m in self.prefix_laws(ones)]

    @functools.cached_property
    def tilt_tables(self) -> tuple:
        """Per stage, the tilt table exp(s*(rho_i - min_{y_i} rho_i)) and its
        shift s*min, in the stage layout; built on the first tilt, since the
        zero-rate test and D_max read only the costs.

        The shift keeps exp from underflowing to 0 and goes back into V_i,
        where it is the factor dropped from Z_i.  The minimum over y_i is
        taken by ``_reduce_last`` in the (x^i, y^{i-1}, y_i) order, then the
        axes are swapped.
        """
        tables = []
        for i, cost in enumerate(self.cost):
            if i == 0 or not self.markov:
                rho = cost.transpose(1, 0, 2)
                low = _reduce_last(np.minimum, rho)
                table = (np.exp(self.s * (rho - low[:, :, None]))
                         .transpose(1, 0, 2), (self.s * low).T)
            tables.append(table)
        return tuple(zip(*tables))

    def tilt(self, nu_conds):
        """Optimal causal kernel for fixed output conditionals.

        Runs the backward recursion from stage n to 0 and returns the stage
        kernels together with V_0 = -log Z_0, shape (1, nx), with the
        leading batch axes of ``nu_conds`` if any (``prefix_laws`` and
        ``output_law`` take them too).  rho_i and G_i are shifted by their
        minimum over y_i, which cancels in the normalization and is added
        back into V_i, so neither exponential exceeds 1 and each equals 1
        somewhere in every row.  Minima and row sums over y_i are taken by
        ``_reduce_last``, across the ny slices on large tables, with the
        results of numpy's last-axis reductions.
        """
        nx, ny = self.nx, self.ny
        exp_cost, cost_shift = self.tilt_tables
        stages = [None] * (self.n + 1)
        G = None
        shift = 0.0
        for i in range(self.n, -1, -1):
            w = exp_cost[i] * nu_conds[i][..., None, :]
            if G is not None:
                shift = _reduce_last(np.minimum, G)
                # in place: into a large temporary numpy computes a
                # complex w * tmp as tmp * w, which rounds differently
                w *= np.exp(shift[..., None] - G)
            stages[i], log_z = _normalized(w, lambda: (
                self.s * self.cost[i] - cost_shift[i][:, :, None]
                + np.log(nu_conds[i])[..., None, :]
                + (0.0 if G is None else shift[..., None] - G)))
            V = shift - log_z - cost_shift[i]
            if i > 0:
                # G_{i-1}(x^{i-1}, y^{i-1}) = sum_{x_i} mu(x_i|x^{i-1}) V_i;
                # in the Markov-state layout V_i has no x^{i-1} axis, and
                # mu_next brings in x_{i-1}
                V = V.reshape(*V.shape[:-2], ny ** (i - 1), ny, -1, nx)
                G = (V * self.mu_next[i - 1]).sum(axis=-1).swapaxes(-1, -2)
        return stages, V

    def prefix_laws(self, stages) -> list:
        """P(y^{i-1}, x^i) for i = 0..n, laid out as stage i's first two axes
        (x_i alone in the Markov-state layout).

        The forward pass behind the output law, the measures and the
        zero-rate test: linear in each stage, it never forms the joint.
        """
        laws = [self.mu0[None, :]]
        for i in range(self.n):
            # P(y^{i-1}, x^i, y_i) reordered to (y^i, x^i), then times
            # mu(x_{i+1} | x^i) gives P(y^i, x^{i+1}); in the Markov-state
            # layout the product sums x_i out
            b = (laws[i][..., None] * stages[i]).swapaxes(-1, -2)
            b = b.reshape(*b.shape[:-3], -1, b.shape[-1])
            if self.markov:
                laws.append(b @ self.mu_next[i])
            else:
                laws.append((b[..., None] * self.mu_next[i])
                            .reshape(*b.shape[:-1], -1))
        return laws

    def output_law(self, stages) -> np.ndarray:
        """Output marginal nu(y^n) of the source through a stage chain."""
        p = self.prefix_laws(stages)[-1][..., None, :] @ stages[self.n]
        return p.reshape(*p.shape[:-3], -1)

    def min_sequence(self) -> tuple:
        """sum_i E_mu[rho_i(X^i, y^i)] of every sequence y^n, and its first
        argmin.  Every sum adds the stages in the same order, so exact ties
        stay exact and the argmin is the lexicographically smallest one."""
        total = np.zeros(1)
        for mass, rho in zip(self.mass, self.cost):
            stage = (mass[:, None] * rho).sum(axis=1)   # (y^{i-1}, y_i)
            total = (total[:, None] + stage).reshape(-1)
        return total, int(np.argmin(total))

    def zero_rate(self) -> Optional[int]:
        """Index of the D_max sequence y* if the point mass on it is optimal.

        Blahut's (1972) KKT condition for delta_{y*}: with C = sum_i rho_i,
        c_s(y) = sum_x mu(x) exp(s (C(x, y) - C(x, y*))) <= c_s(y*) = 1 for
        every y.  The point mass then attains the classical Lagrangian
        minimum; it is constant, hence causal, and the classical minimum
        bounds the causal one, so it is the causal optimum (R = 0,
        D = D_max).  c_s is the output law of the stage weights
        exp(s (rho_i - rho_i(., y*^i))).  Only s < 0 is certified: at s = 0
        every output law independent of x is optimal.  None if it fails.
        """
        if self.s >= 0:
            return None
        best = self.min_sequence()[1]
        y = ix.to_letters(best, self.ny, self.n + 1)
        weights = []
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (mass, rho) in enumerate(zip(self.mass, self.cost)):
                row = 0 if self.markov else ix.from_letters(y[:i], self.ny)
                w = np.exp(self.s * (rho - rho[row, :, y[i]][:, None]))
                # a weight may overflow, and where the source has no mass
                # it must add 0, not 0 * inf = nan
                weights.append(np.where(mass[:, None] > 0, w, 0.0))
            c = self.output_law(weights)
        return best if np.max(c) <= c[best] else None   # fails on inf, nan

    def start(self, warm_start) -> np.ndarray:
        """Start output law on Y^n of either solver (module docstring)."""
        size = self.ny ** (self.n + 1)
        y_star = self.zero_rate()
        if y_star is not None:
            return FinitePmf.point_mass(y_star, size).weights
        nu = np.full(size, 1.0 / size)
        if warm_start is None:
            return nu
        return ((1.0 - WARM_MIX) * np.asarray(warm_start, dtype=float)
                + WARM_MIX * nu)

    def measures(self, stages) -> tuple:
        """nu(y^n), sum_i E[rho_i] and I(X^n -> Y^n) in bits of a stage chain.

        Directed information is sum_i E[log2 q_i / nu_i], with nu_i the
        chain-rule conditional of the output law; it does not use the
        telescoped rate formula, so it stays a cross-check of it.
        """
        d = di = 0.0
        for q, a, rho in zip(stages, self.prefix_laws(stages), self.cost):
            p = a[:, :, None] * q                        # P(y^{i-1}, x^i, y_i)
            d += float(np.sum(p * rho))
            py = p.sum(axis=1)                           # P(y^{i-1}, y_i)
            di += _plogratio(p, q * py.sum(axis=1)[:, None, None],
                             np.broadcast_to(py[:, None, :], p.shape))
        return py.reshape(-1), d, di


def _complex_step_jacobian(evaluate, nu) -> np.ndarray:
    """dP_Y / dlog nu at nu, by complex step (Squire & Trapp 1998), of the
    map ``evaluate``: nu -> (kernel, P_Y), as ``_alternate`` takes it.

    Column k is Im P_Y(nu with nu_k * e^{ih}) / h, h = COMPLEX_STEP, and
    nu_k * e^{ih} = nu_k * (1 + ih) in floating point.  ``evaluate`` runs
    on the complex laws unchanged, so J is the derivative of the very map
    the loop iterates, the UNREACHABLE_MASS rule of the causal solver's
    chain-rule conditionals included.  With no difference of two values, it
    is exact to rounding however small h is.  The N perturbed laws go to
    ``evaluate`` as the rows of one (N, N) array, each row getting the bits
    of its own evaluation; the batch holds N copies of every stage table,
    so ``solve_fixed_s`` builds J only while N <= JACOBIAN_MAX.
    """
    z = nu + 1j * COMPLEX_STEP * np.diag(nu)      # row k perturbs nu_k
    return evaluate(z)[1].imag.T / COMPLEX_STEP


def solve_fixed_s(source: SourceModel, dist: DistortionModel, s: float,
                  opts: SolverOptions = SolverOptions(),
                  warm_start=None) -> RateDistortionPoint:
    """Solve the fixed-s Lagrangian problem by alternating minimization,
    with the causal Newton step while ny^(n+1) <= JACOBIAN_MAX (module
    docstring).

    ``warm_start`` may carry the output law, a joint on Y^n, of a
    neighboring solve.  Non-convergence within ``max_iters`` returns
    converged=False, with the gap reached, rather than raising.
    """
    ws = _Workspace(source, dist, s)
    n, nx, ny = ws.n, ws.nx, ws.ny

    def evaluate(law):
        q, _ = ws.tilt(_chain_rule_conditionals(law, ny, n))
        return q, ws.output_law(q)

    jacobian = ((lambda law, q, p: _complex_step_jacobian(evaluate, law))
                if ny ** (n + 1) <= JACOBIAN_MAX else None)
    q, gap, iterations, converged = _alternate(
        evaluate, ws.start(warm_start), n, opts, jacobian, CAUSAL_PATIENCE,
        causal=True)
    chain = CausalKernelChain.from_stages(q, nx, ny)
    nu, d_sum, info = ws.measures(q)
    output = OutputProcess(ny=ny, horizon=n, joint=nu)
    q_next, V0 = ws.tilt(output.conditionals)
    residual = _max_step(q_next, q)
    d_norm = d_sum / (n + 1)
    rate = info / (n + 1)
    # the stage sum telescopes: -E[log2 Z_0] is the minimized Lagrangian
    formula = s * LOG2E * d_norm + LOG2E * float(ws.mu0 @ V0[0]) / (n + 1)
    return RateDistortionPoint(
        s=s, distortion=d_norm, rate=rate, rate_formula=formula,
        iterations=iterations, converged=converged, residual=residual,
        gap=gap, chain=chain, output=output)


def d_max_min_sequence(source: SourceModel, dist: DistortionModel):
    """Zero-rate threshold: best deterministic output sequence.

    Exhaustively minimizes the normalized expected distortion over all
    |Y|**(n+1) constant reproduction sequences; ties break to the
    lexicographically smallest sequence.  Returns (value, sequence).
    """
    per_seq, best = _Workspace(source, dist, 0.0).min_sequence()
    letters = ix.to_letters(best, dist.ny, source.horizon + 1)
    return (float(per_seq[best]) / (source.horizon + 1),
            tuple(int(v) for v in letters))


def default_s_grid() -> list:
    """Log-spaced negative multipliers plus the zero-rate endpoint s=0."""
    mags = np.logspace(math.log10(S_GRID_SMALLEST), math.log10(S_GRID_LARGEST),
                       S_GRID_NUM)
    return sorted([0.0] + [-float(m) for m in mags], reverse=True)


def sweep(source: SourceModel, dist: DistortionModel,
          s_grid: Sequence[float],
          opts: SolverOptions = SolverOptions()) -> RDCurve:
    """Trace the rate-distortion curve over a grid of multipliers.

    Runs sequentially from s=0 downward, warm-starting each solve from the
    output law of the previous fixed point.
    """
    if len(s_grid) == 0:
        raise ValueError("empty multiplier grid")
    points = []
    for s in sorted(set(float(s) for s in s_grid), reverse=True):
        warm = points[-1].output.joint if points else None
        points.append(solve_fixed_s(source, dist, s, opts, warm_start=warm))
    dmax, _ = d_max_min_sequence(source, dist)
    return RDCurve(points=tuple(points), d_max_reported=dmax)


def _ba_jacobian(mu, q, p) -> np.ndarray:
    """dP_Y(y) / dlog nu(y') = delta_{yy'} P_Y(y) - sum_x mu(x) q(y|x) q(y'|x)
    of classical Blahut-Arimoto, with q the kernel tilted at nu and
    p = mu @ q: diag(P_Y) - Q^T diag(mu) Q, from values the iteration holds."""
    return np.diag(p) - q.T @ (mu[:, None] * q)


def classical_ba(source: SourceModel, dist: DistortionModel, s: float,
                 opts: SolverOptions = SolverOptions(),
                 warm_start=None) -> RateDistortionPoint:
    """Classical Blahut-Arimoto on the trajectory alphabet (no causality).

    From the start ``solve_fixed_s`` takes, optimizes an unconstrained kernel
    q(y^n | x^n) at s and reports per-symbol (R, D) and the output law mu @ q;
    the causal rate minus R is the rate loss due to causality.  The loop is
    ``_alternate`` with the closed-form Jacobian ``_ba_jacobian``, so after
    a plain step whose gap does not fall it tries Newton steps on the fixed
    point mu @ q = nu (module docstring).
    """
    nu = _Workspace(source, dist, s).start(warm_start)
    n, nx, ny = source.horizon, dist.nx, dist.ny
    mu = source.joint_pmf()
    C = dist.total_cost_matrix()
    # rows shifted by their minimum so exp cannot underflow to 0; the factor
    # exp(s*low) cancels in q and goes back into Z in the rate formula
    low = C.min(axis=1)
    log_e = s * (C - low[:, None])
    E = np.exp(log_e)

    def kernel(law):
        return _normalized(E * law[None, :],
                           lambda: log_e + np.log(law)[None, :])

    def evaluate(law):
        q, _ = kernel(law)
        return [q], mu @ q

    (q,), gap, iterations, converged = _alternate(
        evaluate, nu, n, opts, lambda law, q, p: _ba_jacobian(mu, q[0], p))
    output = OutputProcess(ny=ny, horizon=n, joint=mu @ q)
    q_next, log_z = kernel(output.joint)
    residual = _max_step([q_next], [q])

    joint = make_joint(source, GeneralKernel(nx=nx, ny=ny, horizon=n, table=q))
    d_norm = average_distortion(joint, dist)
    rate = mutual_information(joint) / (n + 1)
    log2_z = LOG2E * (log_z + s * low)
    formula = s * LOG2E * d_norm - float(mu @ log2_z) / (n + 1)
    return RateDistortionPoint(
        s=s, distortion=d_norm, rate=rate, rate_formula=formula,
        iterations=iterations, converged=converged, residual=residual,
        gap=gap, output=output)


def gateaux_derivative(source: SourceModel, q0: Kernel, q1: Kernel) -> float:
    """Directional derivative of the information functional at q0 toward q1.

    Evaluates sum_{x,y} mu(x) (q1 - q0)(y|x) log2(q0(y|x) / nu0(y)) exactly;
    q0 must be strictly positive on every row the source reaches.
    """
    source.check_kernel(q0)
    K0 = q0.conditional_matrix()
    K1 = q1.conditional_matrix()
    if K0.shape != K1.shape:
        raise ShapeError("q0 and q1 have different shapes")
    mu = source.joint_pmf()
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


def properties_report(curve: RDCurve) -> PropertiesReport:
    """Check the structural properties of a swept curve against its D_max."""
    pts = sorted(curve.converged_points(), key=lambda p: p.distortion)
    if len(pts) < 3:
        raise ValueError("need at least 3 converged points")
    dmax = curve.d_max_reported
    D = np.array([p.distortion for p in pts])
    R = np.array([p.rate for p in pts])
    monotone = bool(np.all(np.diff(R) <= MONOTONE_TOL))
    convex = True
    for k in range(len(pts) - 2):
        span = D[k + 2] - D[k]
        if span <= 1e-12:
            continue
        lam = (D[k + 1] - D[k]) / span
        if R[k + 1] > (1 - lam) * R[k] + lam * R[k + 2] + CONVEX_TOL:
            convex = False
            break
    at_or_above = R[D >= dmax - 1e-12]
    zero_at_dmax = bool(np.all(at_or_above <= ZERO_RATE_TOL)) \
        if at_or_above.size else True
    below = R[D < dmax - DMAX_MARGIN]
    positive_below = bool(np.all(below > 0)) if below.size else True
    return PropertiesReport(
        monotone_ok=monotone, convex_ok=convex,
        zero_rate_at_dmax_ok=zero_at_dmax,
        positive_rate_below_dmax_ok=positive_below,
        d_max=dmax, num_points=len(pts))


def bisect_s_for_distortion(source: SourceModel, dist: DistortionModel,
                            target: float,
                            opts: SolverOptions = SolverOptions(),
                            solve=solve_fixed_s) -> RateDistortionPoint:
    """Find the multiplier whose achieved distortion matches ``target``.

    Bisection on s with ``solve``, ``solve_fixed_s`` or ``classical_ba``
    (module docstring); the returned point is the final solve.
    """
    lo, hi, warm = BISECT_S_LOW, 0.0, None
    for _ in range(BISECT_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        point = solve(source, dist, mid, opts, warm_start=warm)
        warm = point.output.joint
        if point.distortion > target:
            hi = mid
        else:
            lo = mid
    return point
