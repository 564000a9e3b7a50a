"""Monte-Carlo realization of the causal source coding theorem.

Typical sets of the directed-information density and of the distortion,
random codebooks drawn from the optimal output law, and a block-causal
minimum-distortion encoder.  Exact typicality probabilities are computed by
full enumeration when the pair space is small, by a multinomial count
recursion for per-letter chains over iid sources (any horizon), and by Monte
Carlo with reported standard errors otherwise.

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

from . import indexing as ix
from .distortion import DistortionModel, average_distortion
from .information import directed_information_of_joint
from .probability import (
    CausalKernelChain,
    OutputProcess,
    ShapeError,
    SourceModel,
    make_joint,
    output_marginal,
)

EXACT_PAIR_CAP = 10**7
CODEBOOK_CAP = 2**20


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
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if not (self.source.horizon == self.chain.horizon
                == self.dist.horizon == self.horizon):
            raise ShapeError("spec horizons disagree")


@dataclass(frozen=True)
class TypicalityResult:
    """P(T_eps) and P(D_eps), with standard errors when estimated."""

    p_info: float
    p_dist: float
    method: str                      # "enumeration" | "multinomial" | "monte_carlo"
    se_info: float = 0.0
    se_dist: float = 0.0

    def __iter__(self):
        return iter((self.p_info, self.p_dist))


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


def _multinomial_typicality(spec: TypicalitySpec) -> TypicalityResult:
    """Exact typicality for iid source + per-letter chain, any horizon.

    The normalized density and distortion depend on the trajectory pair only
    through its per-letter cell counts, so the probabilities reduce to a sum
    of multinomial weights over compositions of n+1.
    """
    cells = _letter_cells(spec)
    m = spec.horizon + 1
    probs = np.array([c[0] for c in cells])
    lams = np.array([c[1] for c in cells])
    rhos = np.array([c[2] for c in cells])
    info_mean = float(probs @ lams)
    dist_mean = float(probs @ rhos)
    logp = np.log(probs)
    lg = math.lgamma
    p_info = p_dist = 0.0
    k = len(cells)
    for comp in itertools.combinations_with_replacement(range(k), m):
        counts = np.bincount(comp, minlength=k)
        logw = lg(m + 1) - sum(lg(c + 1) for c in counts) \
            + float(counts @ logp)
        w = math.exp(logw)
        if abs(float(counts @ lams) / m - info_mean) < spec.epsilon:
            p_info += w
        if abs(float(counts @ rhos) / m - dist_mean) < spec.epsilon:
            p_dist += w
    return TypicalityResult(p_info=p_info, p_dist=p_dist, method="multinomial")


def _enumeration_typicality(spec: TypicalitySpec) -> TypicalityResult:
    joint = make_joint(spec.source, spec.chain)
    m = spec.horizon + 1
    P = joint.pmf
    K = spec.chain.conditional_matrix()
    nu = joint.y_marginal()
    cost = spec.dist.total_cost_matrix(joint.nx, joint.ny) / m
    i_norm = directed_information_of_joint(joint) / m
    d_norm = average_distortion(joint, spec.dist)
    sup = P > 0
    with np.errstate(divide="ignore"):
        lam = np.log2(K / np.maximum(nu, 1e-300)[None, :]) / m
    in_t = sup & (np.abs(lam - i_norm) < spec.epsilon)
    in_d = sup & (np.abs(cost - d_norm) < spec.epsilon)
    return TypicalityResult(p_info=float(P[in_t].sum()),
                            p_dist=float(P[in_d].sum()),
                            method="enumeration")


def _forward_output_logprob(source: SourceModel, W: np.ndarray,
                            y: np.ndarray) -> np.ndarray:
    """log2 nu(y^n) for per-letter chains via the forward recursion."""
    num, m = y.shape
    out = np.zeros(num)
    if source.kind == "iid":
        nu1 = source.letter.weights @ W
        return np.log2(nu1[y]).sum(axis=1)
    alpha = source.initial.weights[None, :] * W[:, y[:, 0]].T
    scale = alpha.sum(axis=1)
    out += np.log2(scale)
    alpha /= scale[:, None]
    for i in range(1, m):
        alpha = (alpha @ source.transition) * W[:, y[:, i]].T
        scale = alpha.sum(axis=1)
        out += np.log2(scale)
        alpha /= scale[:, None]
    return out


def _monte_carlo_typicality(spec: TypicalitySpec, samples: int,
                            seed: int) -> TypicalityResult:
    if not (spec.chain.is_memoryless and spec.dist.is_single_letter
            and spec.source.kind in ("iid", "markov")):
        raise ValueError("Monte-Carlo typicality requires a per-letter chain, "
                         "a single-letter distortion, and an iid or Markov source")
    rng = np.random.default_rng(seed)
    m = spec.horizon + 1
    W = spec.chain.letter_kernel
    x = spec.source.sample(samples, rng)
    u = rng.random(x.shape)
    y = (u[..., None] > np.cumsum(W, axis=1)[x]).sum(axis=2)
    lam = (np.log2(W[x, y]).sum(axis=1)
           - _forward_output_logprob(spec.source, W, y)) / m
    d = spec.dist.letter_costs[x, y].mean(axis=1)
    # references are the sample means; exact values are unavailable here
    in_t = np.abs(lam - lam.mean()) < spec.epsilon
    in_d = np.abs(d - d.mean()) < spec.epsilon
    return TypicalityResult(
        p_info=float(in_t.mean()), p_dist=float(in_d.mean()),
        method="monte_carlo",
        se_info=float(in_t.std(ddof=1) / math.sqrt(samples)),
        se_dist=float(in_d.std(ddof=1) / math.sqrt(samples)))


def typicality_probability(spec: TypicalitySpec,
                           mc_samples: int = 200_000,
                           seed: int = 0) -> TypicalityResult:
    """P(T_eps) and P(D_eps) for the joint generated by the spec's chain.

    Chooses, in order: the exact multinomial recursion (iid source,
    per-letter chain, single-letter distortion), full enumeration when the
    pair space has at most 10^7 atoms, and Monte Carlo otherwise.
    """
    n = spec.horizon
    if (spec.chain.is_memoryless and spec.source.kind == "iid"
            and spec.dist.is_single_letter):
        return _multinomial_typicality(spec)
    pairs = (spec.source.alphabet * spec.chain.ny) ** (n + 1)
    if pairs <= EXACT_PAIR_CAP:
        return _enumeration_typicality(spec)
    return _monte_carlo_typicality(spec, mc_samples, seed)


@dataclass(frozen=True)
class Codebook:
    """Random rate-distortion codebook: iid draws from the output law."""

    rate: float
    codewords: np.ndarray            # (count, n+1) letter array
    seed: int

    @property
    def count(self) -> int:
        return self.codewords.shape[0]


def codebook_size(rate: float, n: int) -> int:
    return int(math.ceil(2.0 ** ((n + 1) * rate)))


def generate_codebook(output: OutputProcess, rate: float, n: int,
                      seed: int, cap: int = CODEBOOK_CAP) -> Codebook:
    """Draw ceil(2^((n+1)R)) codewords iid from nu; deterministic per seed."""
    if rate < 0:
        raise ValueError("rate must be >= 0")
    if output.horizon != n:
        raise ShapeError("output process horizon mismatch")
    count = codebook_size(rate, n)
    if count > cap:
        raise CodebookTooLarge(
            f"codebook of {count} codewords exceeds the cap of {cap}")
    rng = np.random.default_rng(seed)
    words = output.sample(count, rng)
    words = np.array(words)
    words.setflags(write=False)
    return Codebook(rate=rate, codewords=words, seed=seed)


@dataclass(frozen=True)
class SimReport:
    """Empirical outcome of one causal-coding experiment."""

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


def _chain_output(source: SourceModel, chain: CausalKernelChain) -> OutputProcess:
    if chain.is_memoryless and source.kind == "iid":
        nu1 = source.letter.weights @ chain.letter_kernel
        return OutputProcess.memoryless(nu1, chain.horizon)
    return output_marginal(make_joint(source, chain))


def _trial_distortion_table(dist: DistortionModel, x: np.ndarray,
                            words: np.ndarray, nx: int,
                            ny: int) -> np.ndarray:
    """Average distortion of every trial row against every codeword."""
    if dist.is_single_letter:
        return dist.letter_costs[x[:, None, :], words[None, :, :]].mean(axis=2)
    n = dist.horizon
    cost = dist.total_cost_matrix(nx, ny) / (n + 1)
    xi = ix.from_letters(x, nx)
    wi = ix.from_letters(words, ny)
    return cost[np.ix_(xi, wi)]


def simulate(source: SourceModel, dist: DistortionModel,
             chain: CausalKernelChain, rate: float, n: int, trials: int,
             epsilon: float, seed: int,
             target_d: Optional[float] = None) -> SimReport:
    """Run the random-codebook causal-coding experiment.

    Each trial samples a source block, encodes it to the codeword of minimum
    average distortion (ties to the lowest index), and records the achieved
    distortion; a joint sample from (source, chain) per trial estimates the
    typicality fractions.  Per-trial randomness is derived from
    (seed, trial index), so results are independent of scheduling.
    """
    if not (source.horizon == chain.horizon == dist.horizon == n):
        raise ShapeError("simulation horizons disagree")
    output = _chain_output(source, chain)
    book = generate_codebook(output, rate, n, seed)

    xs = np.empty((trials, n + 1), dtype=np.int64)
    ys = np.empty((trials, n + 1), dtype=np.int64)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        xs[t] = source.sample(1, rng)[0]
        ys[t] = _sample_y_given_x(chain, xs[t], rng)

    table = _trial_distortion_table(dist, xs, book.codewords, source.alphabet,
                                    chain.ny)
    per_trial = table.min(axis=1)
    mean_d = float(per_trial.mean())
    se_d = float(per_trial.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0

    lam_norm, d_joint, i_norm, ed_norm = _joint_sample_stats(
        source, dist, chain, xs, ys)
    frac_t = float(np.mean(np.abs(lam_norm - i_norm) < epsilon))
    frac_d = float(np.mean(np.abs(d_joint - ed_norm) < epsilon))

    if target_d is None:
        target_d = ed_norm
    return SimReport(trials=trials, mean_distortion=mean_d,
                     typicality_T=frac_t, typicality_D=frac_d,
                     rate=rate, target_D=float(target_d), epsilon=epsilon,
                     seed=seed, horizon=n, codebook_count=book.count,
                     std_err_distortion=se_d)


def _sample_y_given_x(chain: CausalKernelChain, x: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    m = chain.horizon + 1
    y = np.empty(m, dtype=np.int64)
    if chain.is_memoryless:
        W = chain.letter_kernel
        u = rng.random(m)
        y[:] = (u[:, None] > np.cumsum(W, axis=1)[x]).sum(axis=1)
        return y
    hy = 0
    for i in range(m):
        hx = int(ix.from_letters(x[: i + 1], chain.nx))
        row = chain.stage(i)[hy, hx]
        y[i] = rng.choice(chain.ny, p=row)
        hy = hy * chain.ny + int(y[i])
    return y


def _joint_sample_stats(source, dist, chain, xs, ys):
    """Normalized densities/distortions of joint samples plus exact means."""
    m = chain.horizon + 1
    if chain.is_memoryless and dist.is_single_letter:
        W = chain.letter_kernel
        lam = (np.log2(W[xs, ys]).sum(axis=1)
               - _forward_output_logprob(source, W, ys)) / m
        d = dist.letter_costs[xs, ys].mean(axis=1)
        if source.kind == "iid":
            mu1 = source.letter.weights
            nu1 = mu1 @ W
            cells = mu1[:, None] * W
            with np.errstate(divide="ignore", invalid="ignore"):
                lam_cell = np.log2(W / nu1[None, :])
            i_norm = float(np.where(cells > 0, cells * lam_cell, 0.0).sum())
            ed = float((cells * dist.letter_costs).sum())
        else:
            i_norm = float(lam.mean())
            ed = float(d.mean())
        return lam, d, i_norm, ed
    joint = make_joint(source, chain)
    K = chain.conditional_matrix()
    nu = joint.y_marginal()
    cost = dist.total_cost_matrix(joint.nx, joint.ny) / m
    xi = ix.from_letters(xs, chain.nx)
    yi = ix.from_letters(ys, chain.ny)
    lam = np.log2(K[xi, yi] / nu[yi]) / m
    d = cost[xi, yi]
    return (lam, d, directed_information_of_joint(joint) / m,
            average_distortion(joint, dist))
