"""Random-codebook realization of the causal source coding theorem.

Typical sets of the directed-information density and of the distortion,
random codebooks drawn from the output law nu, and a block-causal
minimum-distortion encoder.  nu is the law of Y when a source block passes
through the causal chain, so a codeword is one source block pushed through
:meth:`CausalKernelChain.sample`; Monte Carlo typicality draws its pairs
the same way, and computes their densities and costs a row block at a
time.  Typicality probabilities are probabilities of the joint law
of (source, chain), never fractions of sampled blocks.  For a per-letter
chain over an iid source they are exact by a multinomial sum over the
compositions of n+1 into the distinct per-letter (lambda, rho) classes,
cells grouped by exact float equality (the method of types): C(n+k, k-1)
rows for k classes.  A symmetric channel on a uniform source with Hamming
costs has 2 classes, so n+2 rows at any horizon.
Otherwise, or when those compositions exceed EXACT_PAIR_CAP, they are exact
by enumeration of at most EXACT_PAIR_CAP pairs or of a table the spec
already holds, else Monte Carlo for a per-letter chain over an iid or
Markov source, with reported standard errors; a compact stage chain is
refused there.  Monte Carlo centres its windows on the exact per-letter
(I, E[d]) of an iid source and on the sample means of a Markov one.

The coding trials run as array passes.  One generator, seeded by a child of
the seed's SeedSequence, draws a (trials, k) array of uniforms, row t for
trial t; one pass of :meth:`SourceModel.from_uniforms` turns all of them
into source blocks, and :meth:`DistortionModel.min_cost` encodes them a
block of about BLOCK_CELLS cells at a time, so the (trials, codewords)
table never exists.  For single-letter costs that are nonnegative integers
with (n+1) * max rho < 2**53 a block's totals are one matrix product, exact
in any summation order; non-integral single-letter costs and table costs
take the stage-by-stage gather, whose rounding only that order reproduces.

Membership conventions (single normalization, block length = n+1 symbols):

    T_eps: |Lambda(x,y)/(n+1) - I(X^n -> Y^n)/(n+1)| < eps
    D_eps: |d(x,y) - E[d]| < eps          (d already carries the 1/(n+1))
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distortion import DistortionModel, average_distortion
from .information import directed_information_of_joint
from .probability import (
    CausalKernelChain,
    ShapeError,
    SourceModel,
    _joint_and_conditional,
    row_blocks,
)

EXACT_PAIR_CAP = 10**7
# pairs that Monte Carlo typicality draws
MC_SAMPLES = 200_000
CODEBOOK_CAP = 2**20
# compositions per block of the multinomial typicality sum
MULTINOMIAL_CHUNK = 1 << 16


class CodebookTooLarge(ValueError):
    """Requested rate implies a codebook above the size cap."""


@dataclass(frozen=True)
class TypicalitySpec:
    """One typicality problem: threshold, horizon, and the generating model.

    The joint law is described generatively (source + causal chain +
    distortion) rather than as an explicit pmf so that per-letter chains at
    large horizons stay representable.
    """

    epsilon: float
    horizon: int
    source: SourceModel
    chain: CausalKernelChain
    dist: DistortionModel

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got "
                             f"{self.epsilon}")
        if self.horizon != self.source.horizon:
            raise ShapeError("spec horizons disagree")
        self.source.check_kernel(self.chain)
        self.dist.check_source(self.source)
        if self.chain.ny != self.dist.ny:
            raise ShapeError("chain and distortion output alphabets differ")


@dataclass(frozen=True)
class TypicalityResult:
    """P(T_eps) and P(D_eps), with standard errors when estimated."""

    p_info: float
    p_dist: float
    method: str                      # "enumeration" | "multinomial" | "monte_carlo"
    mean_dist: float                 # E[d], the centre of the D_eps window
    se_info: float = 0.0
    se_dist: float = 0.0


def _letter_cells(spec: TypicalitySpec):
    """Per-letter cell probabilities, info densities, and costs."""
    mu1 = spec.source.letter.weights
    W = spec.chain.letter_kernel
    nu1 = mu1 @ W
    cells = []
    for x in range(spec.source.alphabet):
        for y in range(spec.chain.ny):
            p = mu1[x] * W[x, y]
            if p > 0:
                cells.append((p, math.log2(W[x, y] / nu1[y]),
                              float(spec.dist.letter_costs[x, y])))
    return cells


def _letter_classes(spec: TypicalitySpec) -> tuple:
    """The letter cells merged by exact float equality of (lambda, rho).

    Returns a dict from (lambda, rho) to the summed probability of its
    cells, in order of first appearance, and the window centres (I, E[d])
    per letter, taken over the cells.
    """
    cells = _letter_cells(spec)
    probs, lams, rhos = (np.array(c) for c in zip(*cells))
    classes = {}
    for p, lam, rho in cells:
        classes[lam, rho] = classes.get((lam, rho), 0.0) + p
    return classes, (float(probs @ lams), float(probs @ rhos))


def _compositions(m: int, k: int) -> int:
    """Count vectors of k classes summing to m: C(m+k-1, k-1)."""
    return math.comb(m + k - 1, k - 1)


def _multinomial_typicality(spec: TypicalitySpec, classes: dict,
                            centre: tuple) -> TypicalityResult:
    """Exact typicality for iid source + per-letter chain, any horizon.

    The normalized density and distortion of a trajectory pair are sums of
    per-letter (lambda, rho) values, so they depend on the pair only
    through how many of its n+1 letters fall in each distinct (lambda, rho)
    class (the method of types, Csiszar & Korner 1981).  Under the iid law
    the class counts are multinomial with the class probabilities (merging
    cells of a multinomial is exact), so the probabilities reduce to a sum
    of multinomial weights over the C(m+k-1, k-1) compositions of m = n+1
    into the k classes, taken MULTINOMIAL_CHUNK at a time so that memory
    stays bounded.  Only cells with equal doubles (lambda, rho) share a
    class, so the windows see the same values as a sum over the cells, and
    a spec whose cells are all distinct sums over its cells.
    """
    m = spec.horizon + 1
    info_mean, dist_mean = centre
    logp = np.log(list(classes.values()))
    values = np.array(list(classes))                  # (k, 2): lambda, rho
    lg = np.array([math.lgamma(c + 1) for c in range(m + 1)])
    k = len(classes)
    # stars and bars: the gaps between k-1 bars among m+k-1 slots are counts
    total = _compositions(m, k)
    bars = itertools.chain.from_iterable(
        itertools.combinations(range(m + k - 1), k - 1))
    p = np.zeros(2)                                   # P(T_eps), P(D_eps)
    for start in range(0, total, MULTINOMIAL_CHUNK):
        rows = min(MULTINOMIAL_CHUNK, total - start)
        pos = np.fromiter(bars, dtype=np.int64, count=rows * (k - 1))
        counts = np.diff(pos.reshape(rows, k - 1), axis=1, prepend=-1,
                         append=m + k - 1) - 1
        w = np.exp(lg[m] - lg[counts].sum(axis=1) + counts @ logp)
        dev = np.abs(counts @ values / m - [info_mean, dist_mean])
        p += w @ (dev < spec.epsilon)
    return TypicalityResult(p_info=float(p[0]), p_dist=float(p[1]),
                            method="multinomial", mean_dist=dist_mean)


def _enumeration_typicality(spec: TypicalitySpec) -> TypicalityResult:
    m = spec.horizon + 1
    joint, K = _joint_and_conditional(spec.source, spec.chain)
    P = joint.pmf
    nu = joint.y_marginal()
    cost = spec.dist.total_cost_matrix() / m
    i_norm = directed_information_of_joint(joint) / m
    d_norm = average_distortion(joint, spec.dist)
    sup = P > 0
    with np.errstate(divide="ignore"):
        lam = np.log2(K / np.maximum(nu, 1e-300)[None, :]) / m
    in_t = sup & (np.abs(lam - i_norm) < spec.epsilon)
    in_d = sup & (np.abs(cost - d_norm) < spec.epsilon)
    return TypicalityResult(p_info=float(P[in_t].sum()),
                            p_dist=float(P[in_d].sum()),
                            method="enumeration", mean_dist=d_norm)


def _forward_output_logprob(initial: np.ndarray, transition: np.ndarray,
                            W: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log2 nu(y^n) for a per-letter chain over a Markov source with the
    given initial pmf and transition, by the forward recursion."""
    num, m = y.shape
    out = np.zeros(num)
    alpha = initial[None, :] * W[:, y[:, 0]].T
    scale = alpha.sum(axis=1)
    out += np.log2(scale)
    alpha /= scale[:, None]
    for i in range(1, m):
        alpha = (alpha @ transition) * W[:, y[:, i]].T
        scale = alpha.sum(axis=1)
        out += np.log2(scale)
        alpha /= scale[:, None]
    return out


def _monte_carlo_typicality(spec: TypicalitySpec, seed: int,
                            centre: Optional[tuple]) -> TypicalityResult:
    """P(T_eps) and P(D_eps) from MC_SAMPLES pairs of the spec's joint law.

    The windows are centred on ``centre``, the exact per-letter (I, E[d]),
    when it is known (an iid source), else on the sample means.
    """
    samples = MC_SAMPLES
    source = spec.source
    if source.kind == "explicit":
        raise ValueError("too many pairs to enumerate; Monte-Carlo "
                         "typicality requires an iid or Markov source")
    # an iid source is the Markov chain whose every row is its letter pmf
    if source.kind == "iid":
        initial = source.letter.weights
        transition = np.tile(initial, (source.alphabet, 1))
    else:
        initial, transition = source.initial.weights, source.transition
    rng = np.random.default_rng(seed)
    m = spec.horizon + 1
    W = spec.chain.letter_kernel
    x = source.sample(samples, rng)
    y = spec.chain.sample(x, rng)
    # densities and costs a row block at a time: their gathers stay small
    lam = np.empty(samples)
    d = np.empty(samples)
    for blk in row_blocks(samples, m):
        xb, yb = x[blk], y[blk]
        lam[blk] = (np.log2(W[xb, yb]).sum(axis=1)
                    - _forward_output_logprob(initial, transition, W, yb)) / m
        d[blk] = spec.dist.cost(xb, yb) / m
    info_mean, dist_mean = (lam.mean(), d.mean()) if centre is None else centre
    in_t = np.abs(lam - info_mean) < spec.epsilon
    in_d = np.abs(d - dist_mean) < spec.epsilon
    return TypicalityResult(
        p_info=float(in_t.mean()), p_dist=float(in_d.mean()),
        method="monte_carlo", mean_dist=float(dist_mean),
        se_info=float(in_t.std(ddof=1) / math.sqrt(samples)),
        se_dist=float(in_d.std(ddof=1) / math.sqrt(samples)))


def typicality_probability(spec: TypicalitySpec,
                           seed: int = 0) -> TypicalityResult:
    """P(T_eps) and P(D_eps) for the joint generated by the spec's chain.

    A per-letter problem over an iid source takes the multinomial sum over
    the compositions of its (lambda, rho) classes when there are at most
    EXACT_PAIR_CAP of them; at n = 99 a symmetric channel on a uniform
    source with Hamming costs has 2 classes and 101 compositions.
    Otherwise the (x^n, y^n) pairs are enumerated when at most
    EXACT_PAIR_CAP or when the spec holds a table over them (a full-history
    last stage, or table costs).  Above the cap a per-letter chain takes
    Monte Carlo with MC_SAMPLES pairs (an iid source read as the Markov
    chain whose every row is its letter pmf), whose windows are centred on
    the exact per-letter (I, E[d]) for an iid source and on the sample
    means for a Markov one; a compact (Markov-state) chain raises
    ValueError.
    """
    chain, n = spec.chain, spec.horizon
    per_letter = chain.is_memoryless and spec.dist.is_single_letter
    centre = None
    if per_letter and spec.source.kind == "iid":
        classes, centre = _letter_classes(spec)
        if _compositions(n + 1, len(classes)) <= EXACT_PAIR_CAP:
            return _multinomial_typicality(spec, classes, centre)
    pairs = (spec.source.alphabet * chain.ny) ** (n + 1)
    if (pairs <= EXACT_PAIR_CAP or not spec.dist.is_single_letter
            or chain._full_history(n)):
        return _enumeration_typicality(spec)
    if per_letter:
        return _monte_carlo_typicality(spec, seed, centre)
    raise ValueError(f"typicality of a compact stage chain: {pairs} pairs "
                     f"are above EXACT_PAIR_CAP = {EXACT_PAIR_CAP}")


@dataclass(frozen=True)
class Codebook:
    """Random rate-distortion codebook: iid draws from the output law nu."""

    rate: float
    codewords: np.ndarray            # (count, n+1) letter array
    seed: int

    @property
    def count(self) -> int:
        return self.codewords.shape[0]


def codebook_size(rate: float, n: int) -> int:
    return int(math.ceil(2.0 ** ((n + 1) * rate)))


def generate_codebook(source: SourceModel, chain: CausalKernelChain,
                      rate: float, seed: int) -> Codebook:
    """Draw ceil(2^((n+1)R)) codewords iid from the output law nu of the
    source and chain, each a source block passed through the chain;
    deterministic per seed."""
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"rate must be finite and >= 0, got {rate}")
    source.check_kernel(chain)
    # compared as exponents: 2^((n+1)R) overflows a float long before R is
    # absurd
    bits = (chain.horizon + 1) * rate
    if bits > math.log2(CODEBOOK_CAP):
        raise CodebookTooLarge(
            f"rate {rate} at horizon {chain.horizon} asks for 2^{bits:g} "
            f"codewords, above the cap of {CODEBOOK_CAP}")
    count = codebook_size(rate, chain.horizon)
    rng = np.random.default_rng(seed)
    words = chain.sample(source.sample(count, rng), rng)
    words.setflags(write=False)
    return Codebook(rate=rate, codewords=words, seed=seed)


@dataclass(frozen=True)
class SimReport:
    """Outcome of one causal-coding experiment.

    The distortion fields are statistics of the encoded trials; the
    typicality fields are P(T_eps) and P(D_eps) of the joint law of
    (source, chain), which do not depend on ``trials``.
    """

    trials: int
    mean_distortion: float
    typicality_T: float
    typicality_D: float
    rate: float
    target_D: float
    epsilon: float
    seed: int
    horizon: int
    codebook_count: int
    std_err_distortion: float


def simulate(source: SourceModel, dist: DistortionModel,
             chain: CausalKernelChain, rate: float, trials: int,
             epsilon: float, seed: int,
             target_d: Optional[float] = None) -> SimReport:
    """Run the random-codebook causal-coding experiment.

    The codebook comes from :func:`generate_codebook`: source blocks passed
    through the chain.  Each trial samples a source block, encodes it to the
    codeword of minimum average distortion, and records the achieved
    distortion.  The trials draw one (trials, k) array of uniforms, k =
    ``source.block_uniforms``, from a generator seeded by
    ``SeedSequence(seed).spawn(1)[0]``, a stream apart from the codebook's
    and Monte Carlo typicality's ``default_rng(seed)``.  The array fills row
    by row, so trial t's block depends only on (seed, t), and a larger
    ``trials`` only appends rows.  One pass of
    :meth:`SourceModel.from_uniforms` maps row t to trial t's block, as
    ``source.sample(1, .)`` maps the k doubles it reads.  The encoder is
    :meth:`DistortionModel.min_cost`: for single-letter costs that are
    nonnegative integers with (n+1) * max rho < 2**53 it takes each block's
    totals as one matrix product, exact in any order; non-integral
    single-letter costs and table costs take the stage-by-stage gather, a
    block of trials against the whole codebook.  The typicality fields are the
    probabilities of the joint law from :func:`typicality_probability`, not
    fractions of the trials, and ``target_d`` defaults to that law's mean
    distortion.  They come first, so a refused spec costs no encoding.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = source.horizon
    spec = TypicalitySpec(epsilon, n, source, chain, dist)
    typ = typicality_probability(spec, seed=seed)
    book = generate_codebook(source, chain, rate, seed)

    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    xs = source.from_uniforms(rng.random((trials, source.block_uniforms)))

    per_trial = dist.min_cost(xs, book.codewords) / (n + 1)
    mean_d = float(per_trial.mean())
    se_d = float(per_trial.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0

    if target_d is None:
        target_d = typ.mean_dist
    return SimReport(trials=trials, mean_distortion=mean_d,
                     typicality_T=typ.p_info, typicality_D=typ.p_dist,
                     rate=rate, target_D=float(target_d), epsilon=epsilon,
                     seed=seed, horizon=n, codebook_count=book.count,
                     std_err_distortion=se_d)
