"""Independent brute-force verification of the Lagrangian optimum.

On tiny instances the causal Lagrangian

    L(q) = I(X^n -> Y^n)/(n+1) - s*log2(e) * distortion(q)

is globally minimized by a derivative-free descent over causal chains
(n <= 2), entirely independent of the fixed-point solver.  The two methods
differ only in where the descent starts: ``grid`` (n <= 1) starts at n = 0
from the lowest kernels whose rows lie on a step-1/20 simplex lattice,
found by scoring every such kernel, and at n = 1 from the uniform chain;
``multistart`` starts from seeded random interior chains.  Comparisons are
made on the Lagrangian value, not the kernel, because minimizers need not be
unique (the constant sD term of the dual cancels between the two sides and
is dropped).

The descent moves mass between two letters of one stage-kernel row at a
time.  Such a shift changes the (x^n, y^n) conditional matrix only on one
block and the output law only on that block's columns, so each candidate is
scored by the change of that block's terms of L (``_stage_tables``), not by
a full evaluation; every start's reported value is a full evaluation of its
final chain.

Such compass sweeps crawl along an ill-conditioned valley, so each start
also makes Hooke & Jeeves' (1961) pattern moves.  It keeps a base point:
its chain when its current step began, or where its last accepted pattern
move started.  After an improving sweep at the 4th, 8th, 16th and 32nd
sweep of a step, it tries its chain plus 1, 2, 4, 8, 16 and 32 times its
drift from the base.  Each candidate without a negative entry is scored by
a full evaluation and counted as one, and the best is taken if it lowers L.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import indexing as ix
from .distortion import DistortionModel
from .information import LOG2E
from .probability import CausalKernelChain, SourceModel, check_tol, row_blocks
from .solver import RateDistortionPoint, check_s

# descent: first mass-shift step, last step, sweeps per step
DESCENT_STEP0 = 0.25
DESCENT_MIN_STEP = 1e-6
DESCENT_MAX_SWEEPS = 50
# pattern moves: the sweep counts of a step level after which an entry whose
# sweep improved tries one, and the multiples of its drift tried
PATTERN_SWEEPS = (4, 8, 16, 32)
PATTERN_ALPHAS = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
# most (Nx, Ny) cells of candidates scored in one batch, which bounds the
# memory of a move whatever the alphabet and the number of starts
PATTERN_CHUNK_CELLS = 1 << 16
# PATTERN_AT[k]: whether an improving sweep k of a level is followed by one
PATTERN_AT = np.array([k in PATTERN_SWEEPS
                       for k in range(DESCENT_MAX_SWEEPS + 1)])
# grid starts at n = 0: rows on the simplex lattice of step 1/LATTICE_STEPS
LATTICE_STEPS = 20
# floor under a probability whose log is taken; its terms are 0 there
TINY = 1e-300


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


def _simplex_grid(dim: int, steps: int) -> np.ndarray:
    """All pmfs with coordinates that are multiples of 1/steps."""
    rows = []
    for comp in itertools.combinations_with_replacement(range(dim), steps):
        counts = np.bincount(comp, minlength=dim)
        rows.append(counts / steps)
    return np.array(rows)


def _lattice_starts(ev: _BatchEvaluator, budget: int) -> list:
    """The ``budget`` lowest of all n = 0 kernels whose rows lie on the
    step-1/LATTICE_STEPS simplex lattice, ties in lattice order.

    Kernel k has the rows of lattice letters ``ix.to_letters(k, G, nx)``, G
    being the lattice size.  The G**nx kernels are scored a ``row_blocks``
    block at a time, each counting one evaluation, and the lowest are kept
    as a running selection, so no list of them is built.  Returns their
    stages, shaped (budget, 1, nx, ny).
    """
    grid = _simplex_grid(ev.ny, LATTICE_STEPS)
    vals, idx = np.empty(0), np.empty(0, dtype=np.int64)
    for blk in row_blocks(len(grid) ** ev.nx, ev.C.size):
        k = np.arange(blk.start, blk.stop)
        rows = grid[ix.to_letters(k, len(grid), ev.nx)]
        vals = np.concatenate((vals, ev.lagrangian([rows[:, None]])))
        idx = np.concatenate((idx, k))
        keep = np.argsort(vals, kind="stable")[:budget]
        vals, idx = vals[keep], idx[keep]
    return [grid[ix.to_letters(idx, len(grid), ev.nx)][:, None]]


class _BatchEvaluator:
    """Lagrangian evaluation for a batch of stage-kernel sets in lockstep.

    Stage i of a batch of B kernel sets has shape (B, ny**i, nx**(i+1), ny).
    """

    def __init__(self, source: SourceModel, dist: DistortionModel, s: float):
        n, nx, ny = source.horizon, dist.nx, dist.ny
        self.n, self.nx, self.ny, self.s = n, nx, ny, s
        self.mu = source.joint_pmf()
        self.C = dist.total_cost_matrix()
        self.sC = s * LOG2E * self.C    # each cell's cost weight in L*(n+1)
        self.evaluations = 0

    def lagrangian(self, stages_b) -> np.ndarray:
        """L of every batch entry of a list of batched stage kernels, each
        counted as one evaluation."""
        K = ix.stage_product(stages_b, self.nx, self.ny, self.n)
        self.evaluations += K.shape[0]
        return self.value(K)

    def value(self, K: np.ndarray) -> np.ndarray:
        """L = MI/(n+1) - s*log2(e)*D for each (nx^.., ny^..) matrix in K.

        The sums run on a C-contiguous copy, so that an entry's value does
        not depend on its batch-mates: ``stage_product`` of a batch puts the
        batch axis innermost in memory.  P_Y adds the x rows in order, as
        ``J.sum(axis=1)`` does, without numpy's loop over short rows.
        """
        K = np.ascontiguousarray(K)
        J = self.mu[None, :, None] * K
        py = functools.reduce(np.add, J.transpose(1, 0, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = J * np.log2(K / np.maximum(py, TINY)[:, None, :])
        mi = np.where(J > 0, terms, 0.0).sum(axis=(1, 2))
        d = (J * self.C[None]).sum(axis=(1, 2)) / (self.n + 1)
        return mi / (self.n + 1) - self.s * LOG2E * d


def _pairs(ny: int) -> list:
    return [(a, b) for a in range(ny) for b in range(ny) if a != b]


def _sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum over one axis of a C-contiguous array whose last axis is the
    batch, term by term in order for every entry.  numpy does so when the
    summed axis is not innermost, but sums a lone vector (a batch of one)
    pairwise, which rounds differently from 8 terms on; such a sum is taken
    here."""
    if a.shape[-1] > 1 or a.shape[axis] < 8:
        return np.add.reduce(a, axis=axis)
    return functools.reduce(np.add, np.moveaxis(a, axis, 0))


def _stage_tables(ev: _BatchEvaluator, stages_b, i: int) -> tuple:
    """Block tables of every row of stage i, the other stages held fixed.

    L*(n+1) = sum over cells of mu*[K log2 K - s*log2(e)*C*K]
              - sum over y of P_Y log2 P_Y,

    where a cell counts iff mu*K > 0.  Row (hy, hx) of stage i is one
    kernel q(.|y^{i-1}, x^i).  It sets K = P*q(y_i) on one block, the R =
    nx**(n-i) trajectories x^n with prefix hx times the ny*S trajectories
    y^n with prefix hy (S = ny**(n-i)), where P is the product of the other
    stages' factors; and it moves P_Y on those columns only.  So the terms
    of L*(n+1) that the row can change are a function of z = (q, P_Y on the
    block's columns) alone:

        f(z) = sum_l q_l*(A_l + M_l*log2 q_l) - sum_cols P_Y*log2 P_Y,

    with M_l and A_l the sums of mu*P and of mu*P*(log2 P - s*log2(e)*C)
    over the block's cells with y_i = l.  Moving mass delta from q_a to q_b
    moves delta*W from P_Y on the block's y_i = a columns to its y_i = b
    columns, W being each column's sum of mu*P over the block.  Rows with
    different hy share neither cells nor columns.

    The batch axis is last throughout (see ``_sum``).  Returns (coef_a,
    coef_m, w, py): f = sum over axis 1 of z*(coef_a + coef_m*log2 z),
    with z of shape (nhy, m, B), m = ny + ny*S, and coef_a, coef_m and w of
    shape (nhx, nhy, m, B), w being 1 on q and W on the columns; and P_Y as
    (nhy, ny*S, B).
    """
    n, nx, ny = ev.n, ev.nx, ev.ny
    nhy, nhx, S = ny**i, nx ** (i + 1), ny ** (n - i)
    F = [np.ascontiguousarray(f.transpose(1, 2, 0))
         for f in ix.stage_factors(stages_b, nx, ny, n)]
    others = F[:i] + F[i + 1:]
    P = functools.reduce(np.multiply, others) if others else np.ones_like(F[i])
    B = P.shape[-1]
    MP = ev.mu[:, None, None] * P
    py = _sum(MP * F[i], 0).reshape(nhy, ny * S, B)
    # mu*P = 0 where log2 P is clamped, so those cells add 0
    T = np.log2(np.maximum(P, TINY))
    T -= ev.sC[:, :, None]
    T *= MP
    shape = (nhx, -1, nhy, ny, S, B)   # (hx, x suffix, hy, y_i, y suffix)
    W = _sum(MP.reshape(shape), 1)
    coef_a = np.zeros((nhx, nhy, ny + ny * S, B))
    coef_a[:, :, :ny] = _sum(_sum(T.reshape(shape), 4), 1)
    coef_m = np.full_like(coef_a, -1.0)
    coef_m[:, :, :ny] = _sum(W, 3)
    w = np.ones_like(coef_a)
    w[:, :, ny:] = W.reshape(nhx, nhy, ny * S, B)
    return coef_a, coef_m, w, py


@functools.lru_cache(maxsize=32)
def _shift_units(ny: int, S: int) -> np.ndarray:
    """Sign of the change of each entry of z per unit of mass moved from
    letter a to letter b, for each pair (a, b) of ``_pairs``, shaped to
    broadcast against (pairs, nhy, m, B)."""
    letters = np.concatenate((np.arange(ny), np.repeat(np.arange(ny), S)))
    out = np.array([(letters == b) - (letters == a) * 1.0
                    for a, b in _pairs(ny)])[:, None, :, None]
    out.setflags(write=False)
    return out


def _block_score(z: np.ndarray, coef_a: np.ndarray,
                 coef_m: np.ndarray) -> np.ndarray:
    """f(z) of ``_stage_tables`` for each row.  A column that a shift
    empties can come out at -1 ulp; abs keeps its term at the ulp scale."""
    lg = np.log2(np.maximum(np.abs(z), TINY))
    return _sum(z * (coef_a + coef_m * lg), 1)


def _accept_bar(val: np.ndarray) -> np.ndarray:
    """The value a candidate must get below to replace L = val."""
    return val - 1e-12 * (1.0 + np.abs(val))


def _sweep_stage(ev: _BatchEvaluator, stages_b, i: int, step: np.ndarray,
                 best: np.ndarray, improved: np.ndarray) -> np.ndarray:
    """One sweep of the descent over the rows of stage i; returns L of each
    entry after it.  Updates ``stages_b[i]`` and ``improved`` in place.

    A shift is scored on the block of K that its row sets (see
    ``_stage_tables``): the candidate's L is the current L plus the change
    of f over n+1, and it is accepted iff below ``_accept_bar`` of the
    current L.  The rows of one hx and every hy are scored together, since
    they share no cell or column; each counts as one evaluation per entry,
    as when it was scored alone.
    """
    n1, ny, pairs = ev.n + 1, ev.ny, _pairs(ev.ny)
    coef_a, coef_m, w, py = _stage_tables(ev, stages_b, i)
    units = _shift_units(ny, ny ** (ev.n - i))
    rows = stages_b[i]
    for hx in range(rows.shape[2]):
        z = np.concatenate((rows[:, :, hx].transpose(1, 2, 0), py), axis=1)
        ca, cm, shifts = coef_a[hx], coef_m[hx], w[hx] * units
        f = _block_score(z, ca, cm)
        val = best[None].repeat(len(f), axis=0)
        bar = _accept_bar(val)
        for p, (a, b) in enumerate(pairs):
            delta = np.minimum(step, z[:, a])
            scored = np.count_nonzero(np.logical_or.reduce(delta > 0, axis=1))
            if not scored:
                continue
            ev.evaluations += len(step) * int(scored)
            # an entry with nothing to move gets z2 = z, val2 = val
            z2 = z + delta[:, None] * shifts[p]
            f2 = _block_score(z2, ca, cm)
            # rounded to L's own ulp, as a full evaluation is, so a gain
            # within an ulp of the bar is judged as one was
            val2 = val + (f2 - f) / n1
            accept = val2 < bar
            if accept.any():
                z = np.where(accept[:, None], z2, z)
                f = np.where(accept, f2, f)
                val = np.where(accept, val2, val)
                bar = _accept_bar(val)
                improved |= np.logical_or.reduce(accept, axis=0)
        rows[:, :, hx] = z[:, :ny].transpose(2, 0, 1)
        py = z[:, ny:]
        best = best + (val - best).sum(axis=0)
    return best


def _pattern_move(ev: _BatchEvaluator, stages_b, base, best: np.ndarray,
                  movers: np.ndarray) -> None:
    """Hooke & Jeeves' (1961) pattern move for the batch entries ``movers``.

    Entry k, at stages x, tries x + a*(x - base) for a in PATTERN_ALPHAS; a
    candidate with a negative entry is dropped unscored.  The others are
    scored by ``lagrangian`` in batches of at most PATTERN_CHUNK_CELLS
    cells, each counting one evaluation, and a mover takes its lowest one
    if that is below ``_accept_bar`` of its L: its stages become the
    candidate, its L the candidate's value and its base the x it moved
    from.  Updates ``stages_b``, ``base`` and ``best`` in place.
    """
    # every stage's rows side by side, so that one pass builds and checks
    # the candidates of all stages
    cuts = np.cumsum([sb[0].size for sb in stages_b])[:-1]

    def split(flat):
        return [c.reshape((-1,) + sb.shape[1:])
                for c, sb in zip(np.split(flat, cuts, axis=1), stages_b)]

    alpha = PATTERN_ALPHAS[:, None]
    per = max(1, PATTERN_CHUNK_CELLS // (alpha.size * ev.C.size))
    for lo in range(0, movers.size, per):
        m = movers[lo:lo + per]
        x, b = (np.concatenate([a[m].reshape(m.size, -1) for a in arr],
                               axis=1) for arr in (stages_b, base))
        cand = x[:, None] + alpha * (x - b)[:, None]   # (mover, alpha, cell)
        feasible = (cand >= 0).all(axis=2)
        if not feasible.any():
            continue
        vals = np.full(feasible.shape, np.inf)
        vals[feasible] = ev.lagrangian(split(cand[feasible]))
        pick = vals.argmin(axis=1)
        low = vals[np.arange(m.size), pick]
        take = low < _accept_bar(best[m])
        k = m[take]
        for sb, bs, c in zip(stages_b, base, split(cand[take, pick[take]])):
            bs[k] = sb[k]
            sb[k] = c
        best[k] = low[take]


def _batched_descent(ev: _BatchEvaluator, stages_b) -> tuple:
    """Greedy mass-shifting descent with pattern moves, run on every start
    simultaneously.

    Each batch entry follows the serial schedule with its own step and
    sweep counter: sweep all (stage, history) rows trying pairwise mass
    shifts of its current step (``_sweep_stage``), accept improvements
    immediately, and halve the step once a sweep stalls or after
    DESCENT_MAX_SWEEPS sweeps at one step, because near-deterministic optima
    otherwise cycle through microscopic improvements for millions of
    evaluations.  An entry leaves the batch once its step is below
    DESCENT_MIN_STEP, so no start is evaluated after it has converged.

    Compass sweeps crawl along an ill-conditioned valley, so each entry also
    keeps a base point: its stages when its step level began, or where its
    last accepted pattern move started.  After a sweep that improved, at
    the sweep counts PATTERN_SWEEPS of a level, the entry extrapolates along
    its drift from the base (``_pattern_move``); every scored candidate
    counts one evaluation.  The returned values are ``value`` of the
    returned stages.
    """
    B = stages_b[0].shape[0]
    best = ev.lagrangian(stages_b)
    step = np.full(B, DESCENT_STEP0)
    sweeps = np.zeros(B, dtype=np.int64)
    live = np.arange(B)                 # the start of each batch entry
    base = [sb.copy() for sb in stages_b]
    out_stages = [np.empty_like(sb) for sb in stages_b]
    while live.size:
        improved = np.zeros(live.size, dtype=bool)
        for i in range(ev.n + 1):
            best = _sweep_stage(ev, stages_b, i, step, best, improved)
        sweeps += 1
        movers = np.flatnonzero(improved & PATTERN_AT[sweeps])
        if movers.size:
            _pattern_move(ev, stages_b, base, best, movers)
        halve = ~improved | (sweeps >= DESCENT_MAX_SWEEPS)
        step[halve] *= 0.5
        sweeps[halve] = 0
        for b, sb in zip(base, stages_b):
            b[halve] = sb[halve]
        done = step < DESCENT_MIN_STEP
        if done.any():
            for out, sb in zip(out_stages, stages_b):
                out[live[done]] = sb[done]
            keep = ~done
            live, best, step, sweeps = (live[keep], best[keep], step[keep],
                                        sweeps[keep])
            stages_b = [sb[keep] for sb in stages_b]
            base = [b[keep] for b in base]
    K = ix.stage_product(out_stages, ev.nx, ev.ny, ev.n)
    return ev.value(K), out_stages


def brute_force_lagrangian(source: SourceModel, dist: DistortionModel,
                           s: float, method: str = "grid",
                           budget: int = 500, seed: int = 0) -> OracleResult:
    """Globally minimize the causal Lagrangian on a tiny instance.

    Both methods run ``_batched_descent`` and return its best start; they
    differ only in the starts.  ``grid`` (n <= 1, alphabets <= 3) starts
    at n = 0 from the ``budget`` lowest kernels whose rows lie on the
    step-1/20 simplex lattice (``_lattice_starts``), and at n = 1 from the
    uniform chain; ``multistart`` (n <= 2) from ``budget`` seeded interior
    chains.
    """
    check_s(s)
    dist.check_source(source)
    n, nx, ny = source.horizon, dist.nx, dist.ny
    if method == "grid":
        if n > 1 or nx > 3 or ny > 3:
            raise InstanceTooLarge("grid oracle supports n <= 1, alphabets <= 3")
    elif method == "multistart":
        if n > 2:
            raise InstanceTooLarge("multistart oracle supports n <= 2")
    else:
        raise ValueError("method must be 'grid' or 'multistart'")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    ev = _BatchEvaluator(source, dist, s)
    if method == "multistart":
        rng = np.random.default_rng(seed)
        stages_b = [0.8 * rng.dirichlet(np.ones(ny),
                                        size=(budget, ny**i, nx ** (i + 1)))
                    + 0.2 / ny  # keep starts interior
                    for i in range(n + 1)]
    elif n == 0:
        stages_b = _lattice_starts(ev, budget)
    else:
        stages_b = [np.full((1, ny**i, nx ** (i + 1), ny), 1.0 / ny)
                    for i in range(n + 1)]
    vals, stages_b = _batched_descent(ev, stages_b)
    k = int(np.argmin(vals))
    chain = CausalKernelChain.from_stages([sb[k] for sb in stages_b], nx, ny)
    return OracleResult(best_value=float(vals[k]), best_chain=chain,
                        evaluations=ev.evaluations, method=method, s=s)


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
    check_tol(tol)
    chain, best = solver_point.chain, oracle_result.best_chain
    if chain is None:
        raise ValueError("solver point carries no causal chain")
    if (solver_point.s != oracle_result.s
            or (chain.horizon, chain.nx, chain.ny)
            != (best.horizon, best.nx, best.ny)):
        raise ValueError("solver point and oracle result describe different instances")
    value_diff = abs(solver_point.lagrangian() - oracle_result.best_value)
    kernel_diff = float(np.max(np.abs(
        chain.conditional_matrix() - best.conditional_matrix())))
    return CompareReport(passed=value_diff <= tol,
                         value_difference=value_diff,
                         kernel_difference=kernel_diff, tol=tol)
