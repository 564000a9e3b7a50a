"""Finite-alphabet probability primitives.

Probability vectors, conditional kernels, causal kernel chains, source models,
and the three measure constructions used throughout the package:

* joint measure      P(x^n, y^n) = mu(x^n) * prod_i q_i(y_i | y^{i-1}, x^i)
* output marginal    nu(y^n)     = sum_{x^n} P(x^n, y^n), whose chain-rule
                     conditionals nu_i(y_i | y^{i-1}) are read from it
* product measure    pi(x^n, y^n) = mu(x^n) * nu(y^n)

All types are immutable after construction and all operations are pure, so
values can be shared freely.  Summations rely on numpy's pairwise reduction,
which keeps the 1e-12 closure invariants honest at the horizons this package
targets (n <= 8 for explicit tables).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import indexing as ix

PMF_ATOL = 1e-9
UNREACHABLE_MASS = 1e-15
# cells that a blocked pass (sampling, Monte Carlo typicality, the block
# encoder) holds at once; larger arrays go in row blocks of about this size
BLOCK_CELLS = 1 << 16


class ShapeError(ValueError):
    """Alphabets or horizons of two objects do not agree."""


def check_tol(tol) -> float:
    """``tol`` as a float; raises ValueError unless it is > 0 (NaN fails)."""
    tol = float(tol)
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    return tol


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FinitePmf:
    """Probability vector over a finite alphabet."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights)
        if w.ndim != 1:
            raise ValueError("pmf weights must be one-dimensional")
        if np.any(w < -PMF_ATOL) or np.any(w > 1 + PMF_ATOL):
            raise ValueError("pmf weights must lie in [0, 1]")
        if abs(float(w.sum()) - 1.0) > PMF_ATOL:
            raise ValueError(f"pmf weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @staticmethod
    def uniform(size: int) -> "FinitePmf":
        return FinitePmf(np.full(size, 1.0 / size))

    @staticmethod
    def point_mass(symbol: int, size: int) -> "FinitePmf":
        w = np.zeros(size)
        w[symbol] = 1.0
        return FinitePmf(w)


def _choice_letters(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Letter of each uniform in ``u`` by ``Generator.choice``'s mapping:
    the number of entries <= u of the cdf ``cumsum(p)``, divided by its
    last entry.  ``p`` is one pmf for every uniform, or one pmf row per
    uniform (shape ``u.shape + (a,)``).
    """
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    if cdf.ndim == 1:
        return cdf.searchsorted(u, side="right")
    return (cdf <= u[..., None]).sum(axis=-1)


def row_blocks(num: int, width: int):
    """Slices of ``num`` rows, each block holding about BLOCK_CELLS cells
    of ``width`` columns."""
    rows = max(1, BLOCK_CELLS // width)
    for start in range(0, num, rows):
        yield slice(start, min(start + rows, num))


def _check_rows_stochastic(rows: np.ndarray, what: str) -> None:
    if np.any(rows < -PMF_ATOL):
        raise ValueError(f"{what} has negative entries")
    if np.max(np.abs(rows.sum(axis=-1) - 1.0)) > PMF_ATOL:
        raise ValueError(f"{what} rows do not sum to 1")


@dataclass(frozen=True)
class CausalKernelChain:
    """Family {q_i(y_i | y^{i-1}, x^i)}_{i=0..n}.

    Stage i is stored as an array of shape (ny**i, nx**(i+1), ny), indexed by
    (prefix y^{i-1}, prefix x^i, y_i), or, when q_i depends on x^i only
    through x_i, compactly as (ny**i, nx, ny), indexed by (y^{i-1}, x_i, y_i).
    Each stage's layout is read from its shape (at i = 0 the two coincide).
    A chain may alternatively be declared ``memoryless`` via a single
    per-letter channel W(y|x).  :meth:`stage` synthesizes the full-history
    table of a compact or memoryless stage on demand, and :meth:`sample`
    reads their rows directly, so neither is materialized at large n.
    """

    nx: int
    ny: int
    horizon: int
    stages: Optional[tuple] = None
    letter_kernel: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.stages is None) == (self.letter_kernel is None):
            raise ValueError("exactly one of stages / letter_kernel required")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.stages is not None:
            stages = tuple(_frozen_array(s) for s in self.stages)
            if len(stages) != self.horizon + 1:
                raise ValueError("need one stage kernel per time index 0..n")
            for i, s in enumerate(stages):
                full = (self.ny**i, self.nx ** (i + 1), self.ny)
                compact = (self.ny**i, self.nx, self.ny)
                if s.shape not in (full, compact):
                    raise ShapeError(f"chain stage {i} has shape {s.shape}, "
                                     f"expected {full} or {compact}")
                _check_rows_stochastic(s, f"stage {i}")
            object.__setattr__(self, "stages", stages)
        else:
            w = _frozen_array(self.letter_kernel)
            if w.shape != (self.nx, self.ny):
                raise ShapeError("letter kernel must have shape (nx, ny)")
            _check_rows_stochastic(w, "letter kernel")
            object.__setattr__(self, "letter_kernel", w)

    @classmethod
    def from_stages(cls, stages: Sequence[np.ndarray], nx: int, ny: int):
        return cls(nx=nx, ny=ny, horizon=len(stages) - 1, stages=tuple(stages))

    @classmethod
    def memoryless(cls, letter_kernel, horizon: int):
        w = np.asarray(letter_kernel, dtype=float)
        if w.ndim != 2:
            raise ShapeError("letter kernel must be a matrix")
        return cls(nx=w.shape[0], ny=w.shape[1], horizon=horizon,
                   letter_kernel=w)

    @property
    def is_memoryless(self) -> bool:
        return self.letter_kernel is not None

    def _full_history(self, i: int) -> bool:
        """Whether stage i is stored over x^i rather than x_i alone."""
        return (self.stages is not None
                and self.stages[i].shape[1] == self.nx ** (i + 1))

    def stage(self, i: int) -> np.ndarray:
        """Stage table q_i with shape (ny**i, nx**(i+1), ny)."""
        if self._full_history(i):
            return self.stages[i]
        xlast = np.arange(self.nx ** (i + 1)) % self.nx
        if self.is_memoryless:
            return np.broadcast_to(self.letter_kernel[xlast][None, :, :],
                                   (self.ny**i, self.nx ** (i + 1), self.ny))
        return self.stages[i][:, xlast]

    def sample(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Pass source blocks, a (num, n+1) letter array, through the chain.

        y_i is drawn from q_i(. | y^{i-1}, x^i) stage by stage; a per-letter
        chain reads its rows from ``letter_kernel`` and a compact stage at
        (y^{i-1}, x_i), so a per-letter chain costs O(n).  The uniforms are
        drawn ``rng.random((b, n+1))`` a row block at a time, which reads
        the same doubles as one draw of them all.
        """
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.horizon + 1:
            raise ShapeError(f"source blocks of shape {x.shape}, expected "
                             f"(num, {self.horizon + 1})")
        y = np.empty(x.shape, dtype=np.int64)
        for blk in row_blocks(*x.shape):
            xb, yb = x[blk], y[blk]
            u = rng.random(xb.shape)     # all uniforms first: one fixed stream
            for i in range(self.horizon + 1):
                if self.is_memoryless:
                    rows = self.letter_kernel[xb[:, i]]
                else:
                    hx = (ix.from_letters(xb[:, :i + 1], self.nx)
                          if self._full_history(i) else xb[:, i])
                    rows = self.stages[i][ix.from_letters(yb[:, :i], self.ny),
                                          hx]
                yb[:, i] = _choice_letters(rows, u[:, i])
        return y

    def conditional_matrix(self) -> np.ndarray:
        """Full conditional K[x^n, y^n] = prod_i q_i, shape (Nx, Ny)."""
        n = self.horizon
        return ix.stage_product([self.stage(i) for i in range(n + 1)],
                                self.nx, self.ny, n)


@dataclass(frozen=True)
class GeneralKernel:
    """Unrestricted compression channel: pmf over Y^{0..n} per x^n row."""

    nx: int
    ny: int
    horizon: int
    table: np.ndarray

    def __post_init__(self):
        t = _frozen_array(self.table)
        want = (self.nx ** (self.horizon + 1), self.ny ** (self.horizon + 1))
        if t.shape != want:
            raise ShapeError(f"kernel table shape {t.shape}, expected {want}")
        _check_rows_stochastic(t, "general kernel")
        object.__setattr__(self, "table", t)

    def conditional_matrix(self) -> np.ndarray:
        """The table K[x^n, y^n], shape (Nx, Ny)."""
        return self.table


# either kind of kernel; its consumers read it through conditional_matrix()
Kernel = CausalKernelChain | GeneralKernel


@dataclass(frozen=True)
class SourceModel:
    """Source law mu over X^{0..n}: iid, first-order Markov, or explicit.

    The source never references the reproduction process (no feedback); the
    explicit joint pmf is the canonical internal form, expanded on demand.
    """

    kind: str
    alphabet: int
    horizon: int
    letter: Optional[FinitePmf] = None
    initial: Optional[FinitePmf] = None
    transition: Optional[np.ndarray] = None
    joint_weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("iid", "markov", "explicit"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "iid" and self.letter is None:
            raise ValueError("iid source needs a per-letter pmf")
        if self.kind == "markov":
            if self.initial is None or self.transition is None:
                raise ValueError("markov source needs initial pmf + transition")
            t = _frozen_array(self.transition)
            if t.shape != (self.alphabet, self.alphabet):
                raise ShapeError("transition must be (nx, nx)")
            _check_rows_stochastic(t, "transition")
            object.__setattr__(self, "transition", t)
        if self.kind == "explicit":
            if self.joint_weights is None:
                raise ValueError("explicit source needs joint weights")
            w = FinitePmf(self.joint_weights).weights
            if w.shape[0] != self.alphabet ** (self.horizon + 1):
                raise ShapeError("explicit joint has wrong length")
            object.__setattr__(self, "joint_weights", w)

    @classmethod
    def iid(cls, letter: FinitePmf, horizon: int):
        return cls(kind="iid", alphabet=letter.size, horizon=horizon,
                   letter=letter)

    @classmethod
    def markov(cls, initial: FinitePmf, transition, horizon: int):
        return cls(kind="markov", alphabet=initial.size, horizon=horizon,
                   initial=initial, transition=np.asarray(transition, float))

    @classmethod
    def explicit(cls, joint_weights, alphabet: int, horizon: int):
        return cls(kind="explicit", alphabet=alphabet, horizon=horizon,
                   joint_weights=np.asarray(joint_weights, float))

    def joint_pmf(self) -> np.ndarray:
        """Expand to the joint pmf over X^{0..n} (length nx**(n+1))."""
        n, a = self.horizon, self.alphabet
        if self.kind == "explicit":
            return self.joint_weights
        letters = ix.all_letters(a, n + 1)
        if self.kind == "iid":
            w = self.letter.weights[letters].prod(axis=1)
        else:
            w = self.initial.weights[letters[:, 0]].copy()
            for i in range(1, n + 1):
                w *= self.transition[letters[:, i - 1], letters[:, i]]
        return w

    def check_kernel(self, kernel) -> None:
        """Raise ShapeError unless ``kernel``, of either kind, has this
        source's horizon and alphabet as its input alphabet."""
        if (kernel.horizon, kernel.nx) != (self.horizon, self.alphabet):
            raise ShapeError("source and kernel horizons or alphabets differ")

    @property
    def block_uniforms(self) -> int:
        """Uniform doubles that one block consumes: one per letter, or one
        for the whole block of an explicit source."""
        return 1 if self.kind == "explicit" else self.horizon + 1

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Blocks of letters, a (num, n+1) array, from a (num,
        block_uniforms) array of uniforms.

        Each letter (an explicit source's whole block) is
        ``Generator.choice``'s draw for its uniform, over the letter pmf
        (iid), the initial pmf and then the transition row of the previous
        letter (Markov), or the joint pmf (explicit).
        """
        n, a = self.horizon, self.alphabet
        if self.kind == "iid":
            return _choice_letters(self.letter.weights, u)
        if self.kind == "explicit":
            idx = _choice_letters(self.joint_weights, u[:, 0])
            return ix.to_letters(idx, a, n + 1)
        out = np.empty(u.shape, dtype=np.int64)
        out[:, 0] = _choice_letters(self.initial.weights, u[:, 0])
        for i in range(1, n + 1):
            out[:, i] = _choice_letters(self.transition[out[:, i - 1]],
                                        u[:, i])
        return out

    def sample(self, num: int, rng: np.random.Generator) -> np.ndarray:
        """Draw trajectories as a (num, n+1) letter array.

        The stream is that of ``Generator.choice``: an iid source reads
        ``rng.random((num, n+1))``, a Markov source ``rng.random(num)`` for
        its first letters and then ``rng.random((num, n))``, and an explicit
        source ``rng.random(num)``.  Both iid and Markov draws are taken a
        row block at a time, which reads the same doubles.
        """
        n = self.horizon
        if self.kind == "explicit":
            return self.from_uniforms(rng.random((num, 1)))
        first = rng.random(num) if self.kind == "markov" else None
        out = np.empty((num, n + 1), dtype=np.int64)
        for blk in row_blocks(num, n + 1):
            rows = blk.stop - blk.start
            u = (rng.random((rows, n + 1)) if first is None else
                 np.column_stack((first[blk], rng.random((rows, n)))))
            out[blk] = self.from_uniforms(u)
        return out


@dataclass(frozen=True)
class JointMeasure:
    """Joint pmf over X^{0..n} x Y^{0..n}."""

    nx: int
    ny: int
    horizon: int
    pmf: np.ndarray

    def __post_init__(self):
        p = _frozen_array(self.pmf)
        want = (self.nx ** (self.horizon + 1), self.ny ** (self.horizon + 1))
        if p.shape != want:
            raise ShapeError(f"joint pmf shape {p.shape}, expected {want}")
        object.__setattr__(self, "pmf", p)

    def x_marginal(self) -> np.ndarray:
        return self.pmf.sum(axis=1)

    def y_marginal(self) -> np.ndarray:
        return self.pmf.sum(axis=0)


@dataclass(frozen=True)
class OutputProcess:
    """Reproduction-process law nu(y^n): ``joint`` is its pmf over Y^{0..n}."""

    ny: int
    horizon: int
    joint: np.ndarray

    def __post_init__(self):
        j = FinitePmf(self.joint).weights
        if j.shape[0] != self.ny ** (self.horizon + 1):
            raise ShapeError("output joint has wrong length")
        object.__setattr__(self, "joint", j)

    @property
    def conditionals(self) -> tuple:
        """``conditionals[i]`` has shape (ny**i, ny) and gives
        nu_i(y_i | y^{i-1}); rows whose prefix has no mass are uniform."""
        return tuple(_chain_rule_conditionals(self.joint, self.ny,
                                              self.horizon))

    @classmethod
    def memoryless(cls, letter, horizon: int):
        """The iid product of one per-letter pmf, expanded to its joint."""
        pmf = FinitePmf(letter)
        return cls(ny=pmf.size, horizon=horizon,
                   joint=SourceModel.iid(pmf, horizon).joint_pmf())


# ---------------------------------------------------------------------------
# Measure constructions
# ---------------------------------------------------------------------------

def make_joint(source: SourceModel, kernel: Kernel) -> JointMeasure:
    """Joint measure P = mu (x) q of a source and a causal or general kernel."""
    return _joint_and_conditional(source, kernel)[0]


def _joint_and_conditional(source: SourceModel, kernel: Kernel) -> tuple:
    """``make_joint``'s joint and the (Nx, Ny) conditional matrix it is
    formed from, for a caller that needs both without building it twice."""
    source.check_kernel(kernel)
    K = kernel.conditional_matrix()
    return (JointMeasure(nx=kernel.nx, ny=kernel.ny, horizon=kernel.horizon,
                         pmf=source.joint_pmf()[:, None] * K), K)


def _chain_rule_conditionals(nu: np.ndarray, ny: int, n: int) -> list:
    """Conditionals nu_i(y_i | y^{i-1}) of a pmf nu over Y^{0..n}.

    Row y^{i-1} of the i-th table is uniform where the prefix carries at
    most UNREACHABLE_MASS.  Leading axes of nu are a batch of pmfs.  A
    complex nu, which the solver's complex-step Jacobian passes, is judged
    by its real part, and the tables keep its dtype.
    """
    conditionals = []
    child = nu
    for i in range(n, -1, -1):
        child = child.reshape(*nu.shape[:-1], ny**i, ny)
        parent = child.sum(axis=-1)
        conditionals.insert(0, np.divide(
            child, parent[..., None],
            out=np.full(child.shape, 1.0 / ny, dtype=child.dtype),
            where=parent.real[..., None] > UNREACHABLE_MASS))
        child = parent
    return conditionals


def product_measure(source: SourceModel, output: OutputProcess) -> JointMeasure:
    """Product measure pi = mu x nu."""
    if source.horizon != output.horizon:
        raise ShapeError("source and output horizons differ")
    mu = source.joint_pmf()
    nu = output.joint
    return JointMeasure(nx=source.alphabet, ny=output.ny,
                        horizon=source.horizon, pmf=np.outer(mu, nu))


# ---------------------------------------------------------------------------
# Causality validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CausalityCheck:
    """Outcome of a causality test, with a witness when it fails."""

    ok: bool
    stage: Optional[int] = None
    x_history: Optional[tuple] = None
    y_history: Optional[tuple] = None
    deviation: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


def validate_causal(kernel: Kernel, source: SourceModel,
                    tol: float = 1e-9) -> CausalityCheck:
    """Check that the conditional law of Y_i given (x^i, y^{i-1}) does not
    depend on future source letters x_{i+1..n}, on the source's support.

    Returns a truthy :class:`CausalityCheck`; on failure the witness carries
    the first violating stage and histories and the max deviation found there.
    """
    check_tol(tol)
    source.check_kernel(kernel)
    n, nx, ny = kernel.horizon, kernel.nx, kernel.ny
    mu = source.joint_pmf()
    q = kernel.conditional_matrix()
    for i in range(n):
        # group x^n by (x^{i+1}-prefix, suffix); y^n by (y^i-prefix, rest)
        ahead_x = nx ** (n - i)
        ahead_y = ny ** (n - i)
        qi = q.reshape(nx ** (i + 1), ahead_x, ny ** (i + 1), ahead_y)
        mu_i = mu.reshape(nx ** (i + 1), ahead_x)
        # law of (y^{i-1}, y_i) given full x^n
        law = qi.sum(axis=3)  # (hx, x_future, y^i)
        law = law.reshape(nx ** (i + 1), ahead_x, ny**i, ny)
        hist_mass = law.sum(axis=3)  # P(y^{i-1} | x^n), per (hx, future, hy)
        supported = mu_i > 0
        for hx in range(nx ** (i + 1)):
            futures = np.nonzero(supported[hx])[0]
            if len(futures) == 0:
                continue
            for hy in range(ny**i):
                conds = []
                for f in futures:
                    m = hist_mass[hx, f, hy]
                    if m <= UNREACHABLE_MASS:
                        continue
                    conds.append(law[hx, f, hy] / m)
                if len(conds) <= 1:
                    continue
                conds = np.array(conds)
                dev = float(np.max(np.abs(conds - conds[0])))
                if dev > tol:
                    return CausalityCheck(
                        ok=False, stage=i,
                        x_history=tuple(ix.to_letters(hx, nx, i + 1)),
                        y_history=tuple(ix.to_letters(hy, ny, i)),
                        deviation=dev)
    return CausalityCheck(ok=True)
