"""Finite-alphabet probability primitives.

Probability vectors, conditional kernels, causal kernel chains, source models,
and the three measure constructions used throughout the package:

* joint measure      P(x^n, y^n) = mu(x^n) * prod_i q_i(y_i | y^{i-1}, x^i)
* output marginal    nu(y^n)     = sum_{x^n} P(x^n, y^n), with chain-rule
                     conditionals nu_i(y_i | y^{i-1})
* product measure    pi(x^n, y^n) = mu(x^n) * nu(y^n)

All types are immutable after construction and all operations are pure, so
values can be shared freely between threads.  Summations rely on numpy's
pairwise reduction, which keeps the 1e-12 closure invariants honest at the
horizons this package targets (n <= 8 for explicit tables).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import indexing as ix

PMF_ATOL = 1e-9
UNREACHABLE_MASS = 1e-15


class ShapeError(ValueError):
    """Alphabets or horizons of two objects do not agree."""


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


def _check_rows_stochastic(rows: np.ndarray, what: str) -> None:
    if np.any(rows < -PMF_ATOL):
        raise ValueError(f"{what} has negative entries")
    if np.max(np.abs(rows.sum(axis=-1) - 1.0)) > PMF_ATOL:
        raise ValueError(f"{what} rows do not sum to 1")


@dataclass(frozen=True)
class CausalKernelChain:
    """Family {q_i(y_i | y^{i-1}, x^i)}_{i=0..n}.

    Stage i is stored as an array of shape (ny**i, nx**(i+1), ny), indexed by
    (prefix y^{i-1}, prefix x^i, y_i).  A chain may alternatively be declared
    ``memoryless`` via a single per-letter channel W(y|x), in which case stage
    tables are synthesized on demand (and never materialized at large n).
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
                want = (self.ny**i, self.nx ** (i + 1), self.ny)
                if s.shape != want:
                    raise ShapeError(
                        f"stage {i} has shape {s.shape}, expected {want}"
                    )
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
        return cls(nx=w.shape[0], ny=w.shape[1], horizon=horizon,
                   letter_kernel=w)

    @property
    def is_memoryless(self) -> bool:
        return self.letter_kernel is not None

    def stage(self, i: int) -> np.ndarray:
        """Stage table q_i with shape (ny**i, nx**(i+1), ny)."""
        if self.stages is not None:
            return self.stages[i]
        nhy, nhx = self.ny**i, self.nx ** (i + 1)
        xlast = ix.all_indices(self.nx, i + 1) % self.nx
        table = np.broadcast_to(
            self.letter_kernel[xlast][None, :, :], (nhy, nhx, self.ny)
        )
        return table

    def conditional_matrix(self) -> np.ndarray:
        """Full conditional K[x^n, y^n] = prod_i q_i, shape (Nx, Ny)."""
        n = self.horizon
        return ix.stage_product([self.stage(i) for i in range(n + 1)],
                                self.nx, self.ny, n)

    def to_general(self) -> "GeneralKernel":
        return GeneralKernel(nx=self.nx, ny=self.ny, horizon=self.horizon,
                             table=self.conditional_matrix())


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
        idx = ix.all_indices(a, n + 1)
        letters = ix.to_letters(idx, a, n + 1)
        if self.kind == "iid":
            w = self.letter.weights[letters].prod(axis=1)
        else:
            w = self.initial.weights[letters[:, 0]].copy()
            for i in range(1, n + 1):
                w *= self.transition[letters[:, i - 1], letters[:, i]]
        return w

    def letter_marginal(self, i: int) -> np.ndarray:
        """Marginal pmf of X_i."""
        if self.kind == "iid":
            return self.letter.weights
        if self.kind == "markov":
            p = self.initial.weights
            for _ in range(i):
                p = p @ self.transition
            return p
        n, a = self.horizon, self.alphabet
        lets = ix.letter_at(ix.all_indices(a, n + 1), a, n + 1, i)
        return np.bincount(lets, weights=self.joint_weights, minlength=a)

    def sample(self, num: int, rng: np.random.Generator) -> np.ndarray:
        """Draw trajectories as a (num, n+1) letter array."""
        n, a = self.horizon, self.alphabet
        if self.kind == "iid":
            return rng.choice(a, size=(num, n + 1), p=self.letter.weights)
        if self.kind == "markov":
            out = np.empty((num, n + 1), dtype=np.int64)
            out[:, 0] = rng.choice(a, size=num, p=self.initial.weights)
            u = rng.random((num, n))
            cum = np.cumsum(self.transition, axis=1)
            for i in range(1, n + 1):
                out[:, i] = (u[:, i - 1, None] > cum[out[:, i - 1]]).sum(axis=1)
            return out
        idx = rng.choice(len(self.joint_weights), size=num,
                         p=self.joint_weights)
        return ix.to_letters(idx, a, n + 1)


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
    """Reproduction-process law nu(y^n) with chain-rule conditionals.

    ``conditionals[i]`` has shape (ny**i, ny) giving nu_i(y_i | y^{i-1});
    rows whose conditioning prefix has no mass hold a uniform placeholder.
    A memoryless output (iid product of a
    single per-letter pmf) may be declared via ``letter`` with no explicit
    joint, for horizons too large to materialize.
    """

    ny: int
    horizon: int
    joint: Optional[np.ndarray] = None
    conditionals: Optional[tuple] = None
    letter: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.joint is None) == (self.letter is None):
            raise ValueError("exactly one of joint / letter required")
        if self.joint is not None:
            j = FinitePmf(self.joint).weights
            if j.shape[0] != self.ny ** (self.horizon + 1):
                raise ShapeError("output joint has wrong length")
            object.__setattr__(self, "joint", j)
            conds = tuple(_frozen_array(c) for c in self.conditionals)
            object.__setattr__(self, "conditionals", conds)
        else:
            w = FinitePmf(self.letter).weights
            if w.shape[0] != self.ny:
                raise ShapeError("letter pmf has wrong length")
            object.__setattr__(self, "letter", w)

    @classmethod
    def memoryless(cls, letter, horizon: int):
        w = np.asarray(letter, dtype=float)
        return cls(ny=w.shape[0], horizon=horizon, letter=w)

    @property
    def is_memoryless(self) -> bool:
        return self.letter is not None

    def conditional(self, i: int) -> np.ndarray:
        if self.is_memoryless:
            return np.broadcast_to(self.letter[None, :], (self.ny**i, self.ny))
        return self.conditionals[i]

    def joint_pmf(self) -> np.ndarray:
        if not self.is_memoryless:
            return self.joint
        n = self.horizon
        lets = ix.to_letters(ix.all_indices(self.ny, n + 1), self.ny, n + 1)
        return self.letter[lets].prod(axis=1)

    def sample(self, num: int, rng: np.random.Generator) -> np.ndarray:
        n = self.horizon
        if self.is_memoryless:
            return rng.choice(self.ny, size=(num, n + 1), p=self.letter)
        idx = rng.choice(len(self.joint), size=num, p=self.joint)
        return ix.to_letters(idx, self.ny, n + 1)


# ---------------------------------------------------------------------------
# Measure constructions
# ---------------------------------------------------------------------------

def make_joint(source: SourceModel, chain: CausalKernelChain) -> JointMeasure:
    """Joint measure P = mu (x) q of a source and a causal chain."""
    if source.horizon != chain.horizon:
        raise ShapeError("source and chain horizons differ")
    if source.alphabet != chain.nx:
        raise ShapeError("source and chain X-alphabets differ")
    mu = source.joint_pmf()
    K = chain.conditional_matrix()
    return JointMeasure(nx=chain.nx, ny=chain.ny, horizon=chain.horizon,
                        pmf=mu[:, None] * K)


def joint_from_general(source: SourceModel, kernel: GeneralKernel) -> JointMeasure:
    """Joint measure of a source and an unrestricted kernel."""
    if source.horizon != kernel.horizon or source.alphabet != kernel.nx:
        raise ShapeError("source and kernel shapes differ")
    mu = source.joint_pmf()
    return JointMeasure(nx=kernel.nx, ny=kernel.ny, horizon=kernel.horizon,
                        pmf=mu[:, None] * kernel.table)


def _chain_rule_conditionals(nu: np.ndarray, ny: int, n: int) -> list:
    """Conditionals nu_i(y_i | y^{i-1}) of a pmf nu over Y^{0..n}.

    Row y^{i-1} of the i-th table is uniform where the prefix carries at
    most UNREACHABLE_MASS.
    """
    # prefix masses m_k over length-k prefixes, k = 0..n+1
    masses = [nu]
    for k in range(n, -1, -1):
        masses.append(masses[-1].reshape(ny**k, ny).sum(axis=1))
    masses.reverse()  # masses[k] = mass of length-k prefixes
    conditionals = []
    for i in range(n + 1):
        parent = masses[i]
        child = masses[i + 1].reshape(ny**i, ny)
        dead = parent <= UNREACHABLE_MASS
        rows = child / np.where(dead, 1.0, parent)[:, None]
        rows[dead] = 1.0 / ny
        conditionals.append(rows)
    return conditionals


def output_marginal(joint: JointMeasure) -> OutputProcess:
    """Marginal nu(y^n) with chain-rule conditionals nu_i(y_i | y^{i-1})."""
    n, ny = joint.horizon, joint.ny
    nu = joint.y_marginal()
    conditionals = _chain_rule_conditionals(nu, ny, n)
    return OutputProcess(ny=ny, horizon=n, joint=nu,
                         conditionals=tuple(conditionals))


def product_measure(source: SourceModel, output: OutputProcess) -> JointMeasure:
    """Product measure pi = mu x nu."""
    if source.horizon != output.horizon:
        raise ShapeError("source and output horizons differ")
    mu = source.joint_pmf()
    nu = output.joint_pmf()
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


def validate_causal(kernel: GeneralKernel, source: SourceModel,
                    tol: float = 1e-9) -> CausalityCheck:
    """Check that the conditional law of Y_i given (x^i, y^{i-1}) does not
    depend on future source letters x_{i+1..n}, on the source's support.

    Returns a truthy :class:`CausalityCheck`; on failure the witness carries
    the first violating stage and histories and the max deviation found there.
    """
    if isinstance(kernel, CausalKernelChain):
        kernel = kernel.to_general()
    if source.horizon != kernel.horizon or source.alphabet != kernel.nx:
        raise ShapeError("source and kernel shapes differ")
    n, nx, ny = kernel.horizon, kernel.nx, kernel.ny
    mu = source.joint_pmf()
    q = kernel.table
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
