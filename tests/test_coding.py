import math

import numpy as np
import pytest

from crdf import (
    CausalKernelChain,
    DistortionModel,
    FinitePmf,
    ShapeError,
    SourceModel,
    TypicalitySpec,
    generate_codebook,
    simulate,
    solve_fixed_s,
    typicality_probability,
)
from crdf import coding, distortion
from crdf import indexing as ix
from crdf import probability
from crdf.coding import CodebookTooLarge, codebook_size
from crdf.sampling import random_chain, random_markov_source, random_pmf

# letter kernel achieving D = 0.25 for the uniform binary source under
# Hamming distortion (crossover equals target distortion)
W_QUARTER = np.array([[0.75, 0.25], [0.25, 0.75]])
FLIP = np.array([[0.8, 0.2], [0.2, 0.8]])


def bsc_spec(n, epsilon=0.05):
    src = SourceModel.iid(FinitePmf.uniform(2), n)
    chain = CausalKernelChain.memoryless(W_QUARTER, n)
    return TypicalitySpec(epsilon=epsilon, horizon=n, source=src,
                          chain=chain, dist=DistortionModel.hamming(2, n))


def binomial_typicality_oracle(n, epsilon):
    """Independent exact computation for the uniform-binary BSC spec.

    Both the per-block information density and the per-block distortion are
    affine in the number of disagreeing positions k ~ Binomial(n+1, 1/4), so
    each typicality probability is a sum of binomial weights.
    """
    m = n + 1
    slope = math.log2(3.0)            # |dLambda/dk| per letter, in bits
    p_info = p_dist = 0.0
    for k in range(m + 1):
        w = math.comb(m, k) * 0.25**k * 0.75 ** (m - k)
        dev = abs(k / m - 0.25)
        if dev * slope < epsilon:
            p_info += w
        if dev < epsilon:
            p_dist += w
    return p_info, p_dist


def all_pairs_min(dist, xs, words):
    """Each trial's least total cost over the codebook, read from the whole
    (trials, codewords) table; full-shape letter arrays take the
    element-by-element gather of DistortionModel.cost."""
    x, y = np.broadcast_arrays(xs[:, None], words[None])
    return dist.cost(x, y).min(axis=1)


def trial_draws(src, trials, seed):
    """The (trials, k) uniforms of the trials' stream: one draw from the
    generator of the seed's first child SeedSequence."""
    child = np.random.SeedSequence(seed).spawn(1)[0]
    return np.random.default_rng(child).random((trials, src.block_uniforms))


def reference_simulation(src, dist, chain, rate, trials, seed, u=None):
    """Mean and standard error of the encoded distortion, with each trial's
    block mapped from its row of uniforms (``u``, by default the trials'
    stream) by its own ``from_uniforms`` call and the whole normalized
    (trials, codewords) table built at once."""
    n = src.horizon
    words = generate_codebook(src, chain, rate, seed).codewords
    if u is None:
        u = trial_draws(src, trials, seed)
    xs = np.array([src.from_uniforms(row[None])[0] for row in u])
    x, y = np.broadcast_arrays(xs[:, None], words[None])
    per_trial = (dist.cost(x, y) / (n + 1)).min(axis=1)
    return (float(per_trial.mean()),
            float(per_trial.std(ddof=1) / math.sqrt(trials)))


def coding_case(kind, n, rng):
    """(source, distortion, chain) of one kind of coding problem."""
    if kind == "iid-hamming":
        return (SourceModel.iid(FinitePmf([0.3, 0.7]), n),
                DistortionModel.hamming(2, n),
                CausalKernelChain.memoryless(W_QUARTER, n))
    if kind == "markov-real":
        return (random_markov_source(rng, 3, n),
                DistortionModel.single_letter(2.5 * rng.random((3, 2)), n),
                random_chain(rng, 3, 2, n))
    if kind == "iid-integer":
        # integral costs: the encoder's matrix-product path
        return (SourceModel.iid(random_pmf(rng, 3), n),
                DistortionModel.single_letter(
                    rng.choice([0.0, 1.0, 2.0, 7.0], size=(3, 4)), n),
                random_chain(rng, 3, 4, n))
    if kind == "explicit-table":
        return (SourceModel.explicit(random_pmf(rng, 2 ** (n + 1)).weights,
                                     2, n),
                DistortionModel.from_tables(
                    [rng.random((2 ** (i + 1), 2 ** (i + 1)))
                     for i in range(n + 1)], n),
                CausalKernelChain.memoryless(W_QUARTER, n))
    raise ValueError(kind)


CODING_KINDS = ("iid-hamming", "markov-real", "iid-integer",
                "explicit-table")


class TestTypicality:
    def test_multinomial_matches_independent_binomial_oracle(self):
        for n in (3, 7, 11):
            res = typicality_probability(bsc_spec(n))
            oi, od = binomial_typicality_oracle(n, 0.05)
            assert res.method == "multinomial"
            assert res.p_info == pytest.approx(oi, abs=1e-12)
            assert res.p_dist == pytest.approx(od, abs=1e-12)

    def test_frozen_values(self):
        # exact probabilities for epsilon = 0.05; they *decrease* with n on
        # this instance because the mean distortion sits on the count lattice
        frozen = {3: 0.421875, 7: 0.311462, 11: 0.258104}
        for n, val in frozen.items():
            res = typicality_probability(bsc_spec(n))
            assert res.p_info == pytest.approx(val, abs=1e-6)
            assert res.p_dist == pytest.approx(val, abs=1e-6)

    @pytest.mark.parametrize("mu, W, epsilon, classes", [
        # the uniform source through W_QUARTER: 4 cells in 2 classes
        ([0.5, 0.5], W_QUARTER, 0.05, 2),
        # every cell has its own (lambda, rho)
        ([0.3, 0.7], [[0.7, 0.3], [0.2, 0.8]], 0.1, 4),
        # x = 0 and 1 mirror each other, and so do y = 0 and 1 in row 2:
        # 7 cells with positive mass in 4 classes
        ([1 / 3] * 3, [[0.8, 0.2, 0.0], [0.2, 0.8, 0.0], [0.3, 0.3, 0.4]],
         0.1, 4),
    ])
    def test_enumeration_agrees_with_multinomial(self, mu, W, epsilon,
                                                 classes):
        # rebuilding the memoryless chain from explicit stage tables routes
        # the same joint law through the enumeration backend, which sees
        # the letter cells, not the classes
        n = 3
        W = np.array(W)
        nx, ny = W.shape
        src = SourceModel.iid(FinitePmf(mu), n)
        chain = CausalKernelChain.memoryless(W, n)
        spec = TypicalitySpec(epsilon=epsilon, horizon=n, source=src,
                              chain=chain, dist=DistortionModel.hamming(nx, n))
        assert len(coding._letter_classes(spec)[0]) == classes
        stages = [chain.stage(i).copy() for i in range(n + 1)]
        staged = TypicalitySpec(
            epsilon=epsilon, horizon=n, source=src, dist=spec.dist,
            chain=CausalKernelChain.from_stages(stages, nx, ny))
        a = typicality_probability(spec)
        b = typicality_probability(staged)
        assert (a.method, b.method) == ("multinomial", "enumeration")
        assert abs(a.p_info - b.p_info) <= 1e-12
        assert abs(a.p_dist - b.p_dist) <= 1e-12
        assert 0.0 < a.p_info < 1.0 and 0.0 < a.p_dist < 1.0

    def test_ternary_symmetric_channel_is_exact_at_n99(self):
        # 9 cells in 2 (lambda, rho) classes: 101 compositions, where the
        # cell sum would need C(107, 8) ~ 3.5e11
        n, eps = 99, 0.047
        W = np.full((3, 3), 0.1) + 0.7 * np.eye(3)
        spec = TypicalitySpec(
            epsilon=eps, horizon=n,
            source=SourceModel.iid(FinitePmf.uniform(3), n),
            chain=CausalKernelChain.memoryless(W, n),
            dist=DistortionModel.hamming(3, n))
        res = typicality_probability(spec)
        assert res.method == "multinomial"
        # k of the m letters disagree, k ~ Binomial(m, 0.2); the density
        # per letter is log2(2.4) on a match and log2(0.3) off it
        m = n + 1
        info = 0.8 * math.log2(2.4) + 0.2 * math.log2(0.3)
        p_info = p_dist = 0.0
        for k in range(m + 1):
            w = math.comb(m, k) * 0.2**k * 0.8 ** (m - k)
            lam = ((m - k) * math.log2(2.4) + k * math.log2(0.3)) / m
            p_info += w * (abs(lam - info) < eps)
            p_dist += w * (abs(k / m - 0.2) < eps)
        assert abs(res.p_info - p_info) <= 1e-12
        assert abs(res.p_dist - p_dist) <= 1e-12

    def test_iid_above_the_composition_cap_takes_monte_carlo(self,
                                                             monkeypatch):
        # 9 distinct cells: C(5 + 8, 8) = 1287 compositions at n = 4
        n = 4
        W = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
        spec = TypicalitySpec(
            epsilon=0.1, horizon=n,
            source=SourceModel.iid(FinitePmf([0.2, 0.3, 0.5]), n),
            chain=CausalKernelChain.memoryless(W, n),
            dist=DistortionModel.hamming(3, n))
        exact = typicality_probability(spec)
        assert exact.method == "multinomial"
        monkeypatch.setattr(coding, "EXACT_PAIR_CAP", 1000)
        monkeypatch.setattr(coding, "MC_SAMPLES", 20_000)
        res = typicality_probability(spec, seed=0)
        assert res.method == "monte_carlo"
        assert res.se_info > 0 and res.se_dist > 0
        assert abs(res.p_info - exact.p_info) <= 5 * res.se_info
        assert abs(res.p_dist - exact.p_dist) <= 5 * res.se_dist

    def test_monte_carlo_of_an_iid_source_is_centred_on_the_exact_means(
            self, monkeypatch):
        # at eps = 0.15 an atom of the density lies near a window edge, so
        # windows centred on sample means moved it in and out: the z-scores
        # of P(T) against the exact value had spread 2.15 and max 5.72
        n = 4
        W = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
        spec = TypicalitySpec(
            epsilon=0.15, horizon=n,
            source=SourceModel.iid(FinitePmf([0.2, 0.3, 0.5]), n),
            chain=CausalKernelChain.memoryless(W, n),
            dist=DistortionModel.hamming(3, n))
        exact = typicality_probability(spec)
        monkeypatch.setattr(coding, "EXACT_PAIR_CAP", 1000)
        monkeypatch.setattr(coding, "MC_SAMPLES", 20_000)
        z = []
        for seed in range(30):
            res = typicality_probability(spec, seed=seed)
            assert res.method == "monte_carlo"
            assert res.mean_dist == exact.mean_dist
            z.append((res.p_info - exact.p_info) / res.se_info)
        assert np.std(z, ddof=1) < 1.5
        assert np.max(np.abs(z)) < 4.5

    def test_markov_source_small_uses_enumeration(self):
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(FinitePmf.uniform(2), T, 2)
        spec = TypicalitySpec(epsilon=0.1, horizon=2, source=src,
                              chain=CausalKernelChain.memoryless(W_QUARTER, 2),
                              dist=DistortionModel.hamming(2, 2))
        res = typicality_probability(spec)
        assert res.method == "enumeration"
        assert 0.0 <= res.p_info <= 1.0
        assert 0.0 <= res.p_dist <= 1.0

    def test_markov_source_large_falls_back_to_monte_carlo(self, monkeypatch):
        n = 12   # 4^(n+1) pairs exceeds the enumeration cap
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(FinitePmf.uniform(2), T, n)
        spec = TypicalitySpec(epsilon=0.1, horizon=n, source=src,
                              chain=CausalKernelChain.memoryless(W_QUARTER, n),
                              dist=DistortionModel.hamming(2, n))
        monkeypatch.setattr(coding, "MC_SAMPLES", 20_000)
        res = typicality_probability(spec, seed=1)
        assert res.method == "monte_carlo"
        assert res.se_info > 0 and res.se_dist > 0
        assert 0.0 <= res.p_info <= 1.0
        # the pairs are drawn through CausalKernelChain.sample; the stream
        # is that of the earlier per-letter draw, so the values are too
        assert res.p_info == 0.4514
        assert res.p_dist == 0.6732

    def test_dispatch_under_a_small_pair_cap(self, monkeypatch):
        # a full-history stage chain and table distortions hold one entry
        # per pair, so they enumerate whatever the cap; a per-letter Markov
        # spec above the cap goes to Monte Carlo, and a compact
        # (Markov-state) chain above it is refused
        monkeypatch.setattr(coding, "EXACT_PAIR_CAP", 4)
        n = 2
        spec = bsc_spec(n)
        stages = [spec.chain.stage(i).copy() for i in range(n + 1)]
        staged = TypicalitySpec(
            epsilon=0.05, horizon=n, source=spec.source, dist=spec.dist,
            chain=CausalKernelChain.from_stages(stages, 2, 2))
        tables = DistortionModel.from_tables(
            [spec.dist.stage_cost(i) for i in range(n + 1)], n)
        tabled = TypicalitySpec(epsilon=0.05, horizon=n, source=spec.source,
                                chain=spec.chain, dist=tables)
        markov = TypicalitySpec(
            epsilon=0.05, horizon=n,
            source=SourceModel.markov(FinitePmf.uniform(2), FLIP, n),
            chain=spec.chain, dist=spec.dist)
        assert typicality_probability(staged).method == "enumeration"
        assert typicality_probability(tabled).method == "enumeration"
        assert typicality_probability(spec).method == "multinomial"
        monkeypatch.setattr(coding, "MC_SAMPLES", 2000)
        res = typicality_probability(markov, seed=1)
        assert res.method == "monte_carlo"
        compact = TypicalitySpec(
            epsilon=0.05, horizon=n, source=markov.source, dist=spec.dist,
            chain=solve_fixed_s(markov.source, spec.dist, -1.0).chain)
        assert compact.chain.stages[n].shape == (4, 2, 2)

        def no_table(*args):
            raise AssertionError("built a table over all pairs")
        # neither a pair table nor the encoder's work comes before the refusal
        monkeypatch.setattr(coding, "_enumeration_typicality", no_table)
        monkeypatch.setattr(coding, "generate_codebook", no_table)
        with pytest.raises(ValueError, match="EXACT_PAIR_CAP = 4"):
            typicality_probability(compact)
        with pytest.raises(ValueError, match="EXACT_PAIR_CAP = 4"):
            simulate(markov.source, spec.dist, compact.chain, 0.5, 10, 0.05, 0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        # NaN passes an "epsilon <= 0" test and would make nothing typical
        src = SourceModel.iid(FinitePmf.uniform(2), 1)
        chain = CausalKernelChain.memoryless(W_QUARTER, 1)
        dist = DistortionModel.hamming(2, 1)
        with pytest.raises(ValueError, match="epsilon"):
            TypicalitySpec(epsilon=epsilon, horizon=1, source=src,
                           chain=chain, dist=dist)
        with pytest.raises(ValueError, match="epsilon"):
            simulate(src, dist, chain, 0.5, 10, epsilon, 0)

    def test_bad_epsilon_and_horizon_rejected(self):
        src = SourceModel.iid(FinitePmf.uniform(2), 1)
        chain = CausalKernelChain.memoryless(W_QUARTER, 1)
        dist = DistortionModel.hamming(2, 1)
        with pytest.raises(ValueError):
            TypicalitySpec(epsilon=0.0, horizon=1, source=src,
                           chain=chain, dist=dist)
        with pytest.raises(ShapeError):
            TypicalitySpec(epsilon=0.1, horizon=2, source=src,
                           chain=chain, dist=dist)

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            TypicalitySpec(epsilon=0.1, horizon=1,
                           source=SourceModel.iid(FinitePmf.uniform(3), 1),
                           chain=CausalKernelChain.memoryless(W_QUARTER, 1),
                           dist=DistortionModel.hamming(3, 1))


class TestCodebook:
    def test_size_formula(self):
        assert codebook_size(0.0, 5) == 1
        assert codebook_size(1.0, 3) == 16
        assert codebook_size(0.34, 7) == math.ceil(2 ** (8 * 0.34))

    @staticmethod
    def bsc(n):
        # the uniform source through W_QUARTER has the uniform output law
        return (SourceModel.iid(FinitePmf.uniform(2), n),
                CausalKernelChain.memoryless(W_QUARTER, n))

    def test_deterministic_per_seed(self):
        src, chain = self.bsc(3)
        a = generate_codebook(src, chain, 0.5, seed=7)
        b = generate_codebook(src, chain, 0.5, seed=7)
        c = generate_codebook(src, chain, 0.5, seed=8)
        assert np.array_equal(a.codewords, b.codewords)
        assert not np.array_equal(a.codewords, c.codewords)

    def test_cap_enforced(self):
        src, chain = self.bsc(30)
        with pytest.raises(CodebookTooLarge):
            generate_codebook(src, chain, 1.0, seed=0)

    def test_negative_rate_rejected(self):
        src, chain = self.bsc(1)
        with pytest.raises(ValueError):
            generate_codebook(src, chain, -0.1, seed=0)

    def test_rate_too_large_to_exponentiate_hits_the_cap(self):
        # 2^(2 * 1000) overflows a float; the cap is compared in bits
        src, chain = self.bsc(1)
        with pytest.raises(CodebookTooLarge):
            generate_codebook(src, chain, 1000.0, seed=0)
        with pytest.raises(CodebookTooLarge):
            generate_codebook(src, chain, 10.0 + 1e-9, seed=0)
        assert generate_codebook(src, chain, 10.0, seed=0).count == 2**20

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        src, chain = self.bsc(1)
        with pytest.raises(ValueError, match="rate") as exc:
            generate_codebook(src, chain, rate, seed=0)
        assert not isinstance(exc.value, CodebookTooLarge)

    def test_horizon_mismatch_rejected(self):
        src, _ = self.bsc(1)
        _, chain = self.bsc(2)
        with pytest.raises(ShapeError):
            generate_codebook(src, chain, 0.5, seed=0)


class TestSimulate:
    @staticmethod
    def run(n, trials=400, seed=20260823):
        src = SourceModel.iid(FinitePmf.uniform(2), n)
        chain = CausalKernelChain.memoryless(W_QUARTER, n)
        dist = DistortionModel.hamming(2, n)
        return simulate(src, dist, chain, 0.34, trials, 0.05, seed,
                        target_d=0.25)

    def test_deterministic(self):
        a = self.run(5)
        b = self.run(5)
        assert a == b

    def test_frozen_trend_values(self):
        # rate 0.34 sits above R(0.25) = 1 - h(1/4) ~= 0.189; the empirical
        # mean distortion decreases toward the target as the block grows
        frozen = {7: 0.267125, 11: 0.24450, 15: 0.23325}
        means = []
        for n, val in frozen.items():
            rep = self.run(n, trials=2000)
            assert rep.mean_distortion == pytest.approx(val, abs=5e-5)
            means.append(rep.mean_distortion)
        assert means == sorted(means, reverse=True)
        assert means[-1] <= 0.25 + 2.0 * 0.05

    def test_report_fields(self):
        rep = self.run(3, trials=50)
        assert rep.trials == 50
        assert rep.horizon == 3
        assert rep.codebook_count == codebook_size(0.34, 3)
        assert rep.target_D == 0.25
        assert rep.std_err_distortion > 0
        assert 0.0 <= rep.typicality_T <= 1.0
        assert 0.0 <= rep.typicality_D <= 1.0

    def test_default_target_is_model_mean(self):
        n = 3
        src = SourceModel.iid(FinitePmf.uniform(2), n)
        chain = CausalKernelChain.memoryless(W_QUARTER, n)
        dist = DistortionModel.hamming(2, n)
        rep = simulate(src, dist, chain, 0.34, 50, 0.05, 0)
        assert rep.target_D == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("kind, method", [
        ("iid", "multinomial"), ("solver", "enumeration"),
        ("explicit", "enumeration")])
    def test_typicality_is_that_of_the_joint_law(self, kind, method):
        # the typicality fields and the default target come from
        # typicality_probability on the same spec, whatever the trial count
        n = 2
        dist = DistortionModel.hamming(2, n)
        chain = CausalKernelChain.memoryless(W_QUARTER, n)
        if kind == "iid":
            src = SourceModel.iid(FinitePmf.uniform(2), n)
        elif kind == "solver":
            src = SourceModel.markov(FinitePmf.uniform(2), FLIP, n)
            chain = solve_fixed_s(src, dist, -1.5).chain
        else:
            w = SourceModel.markov(FinitePmf.uniform(2), FLIP, n).joint_pmf()
            src = SourceModel.explicit(w, 2, n)
        res = typicality_probability(
            TypicalitySpec(epsilon=0.1, horizon=n, source=src, chain=chain,
                           dist=dist), seed=5)
        assert res.method == method
        for trials in (10, 200):
            rep = simulate(src, dist, chain, 0.5, trials, 0.1, 5)
            assert rep.typicality_T == res.p_info
            assert rep.typicality_D == res.p_dist
            assert rep.target_D == res.mean_dist

    def test_one_joint_serves_codebook_and_typicality(self, monkeypatch):
        n = 2
        src = SourceModel.markov(FinitePmf.uniform(2), FLIP, n)
        dist = DistortionModel.hamming(2, n)
        chain = solve_fixed_s(src, dist, -1.5).chain
        calls = []
        build = CausalKernelChain.conditional_matrix
        monkeypatch.setattr(CausalKernelChain, "conditional_matrix",
                            lambda self: calls.append(1) or build(self))
        simulate(src, dist, chain, 0.5, 10, 0.1, 5)
        assert len(calls) == 1

    def test_markov_per_letter_chain_at_n31(self, monkeypatch):
        # 2^32 source blocks: codewords are source blocks passed through the
        # chain, so nothing builds mu, the (Nx, Ny) kernel or the joint, and
        # typicality above the enumeration cap is Monte Carlo
        n = 31
        src = SourceModel.markov(FinitePmf.uniform(2), FLIP, n)
        chain = CausalKernelChain.memoryless(W_QUARTER, n)
        dist = DistortionModel.hamming(2, n)

        def refuse(self):
            raise AssertionError("built a table over all trajectories")
        monkeypatch.setattr(CausalKernelChain, "conditional_matrix", refuse)
        monkeypatch.setattr(SourceModel, "joint_pmf", refuse)
        seen = []
        mc = coding._monte_carlo_typicality
        monkeypatch.setattr(coding, "_monte_carlo_typicality",
                            lambda *a: seen.append(mc(*a)) or seen[-1])
        rep = simulate(src, dist, chain, 0.1, 200, 0.1, 7)
        assert [r.method for r in seen] == ["monte_carlo"]
        assert rep.typicality_T == seen[0].p_info
        assert rep.typicality_D == seen[0].p_dist
        assert rep.target_D == seen[0].mean_dist
        assert rep.codebook_count == codebook_size(0.1, n) == 10
        assert 0.0 <= rep.mean_distortion <= 1.0

    def test_horizon_mismatch_rejected(self):
        src = SourceModel.iid(FinitePmf.uniform(2), 2)
        chain = CausalKernelChain.memoryless(W_QUARTER, 2)
        dist = DistortionModel.hamming(2, 3)
        with pytest.raises(ShapeError):
            simulate(src, dist, chain, 0.3, 10, 0.05, 0)

    def test_prefix_dependent_distortion_path(self):
        # a stage table that depends on the whole prefix exercises the
        # trajectory-indexed distortion table in the encoder
        n = 1
        t0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        t1 = np.arange(16, dtype=float).reshape(4, 4)
        dist = DistortionModel.from_tables([t0, t1], n)
        src = SourceModel.iid(FinitePmf.uniform(2), n)
        chain = CausalKernelChain.memoryless(W_QUARTER, n)
        rep = simulate(src, dist, chain, 1.0, 100, 0.5, 3)
        mean, se = reference_simulation(src, dist, chain, 1.0, 100, 3)
        assert rep.mean_distortion == mean
        assert rep.std_err_distortion == se

    @pytest.mark.parametrize("kind", CODING_KINDS)
    def test_reports_match_the_trial_by_trial_reference(self, kind):
        n = 2
        src, dist, chain = coding_case(kind, n, np.random.default_rng(4))
        for trials, seed in ((2, 0), (37, 5), (400, 11)):
            rep = simulate(src, dist, chain, 0.6, trials, 0.1, seed)
            mean, se = reference_simulation(src, dist, chain, 0.6, trials,
                                            seed)
            assert rep.mean_distortion == mean
            assert rep.std_err_distortion == se

    @pytest.mark.parametrize("kind", CODING_KINDS)
    def test_a_trial_depends_only_on_seed_and_index(self, kind):
        # 37 trials are the first 37 rows of a 400-trial draw
        n = 2
        src, dist, chain = coding_case(kind, n, np.random.default_rng(4))
        rep = simulate(src, dist, chain, 0.6, 37, 0.1, 5)
        mean, se = reference_simulation(src, dist, chain, 0.6, 37, 5,
                                        u=trial_draws(src, 400, 5)[:37])
        assert rep.mean_distortion == mean
        assert rep.std_err_distortion == se

    def test_table_distortion_spans_unsampled_letters(self):
        # with p(1) = 0.001 five trials draw only the letter 0; the encoder's
        # cost table must still cover the whole source alphabet
        n = 1
        src = SourceModel.iid(FinitePmf([0.999, 0.001]), n)
        ham = DistortionModel.hamming(2, n)
        tables = DistortionModel.from_tables(
            [ham.stage_cost(i) for i in range(n + 1)], n)
        chain = CausalKernelChain.memoryless(W_QUARTER, n)
        by_table = simulate(src, tables, chain, 0.5, 5, 0.1, 0)
        by_letter = simulate(src, ham, chain, 0.5, 5, 0.1, 0)
        assert by_table.mean_distortion == pytest.approx(
            by_letter.mean_distortion, abs=1e-12)


class TestTrialDraws:
    @pytest.mark.parametrize("kind", ["iid", "markov", "explicit"])
    def test_trial_blocks_match_one_block_draws(self, kind):
        # one random(k) per trial generator, mapped in one pass, gives the
        # block that source.sample(1, .) draws from the same generator
        n = 4
        rng = np.random.default_rng(21)
        if kind == "iid":
            src = SourceModel.iid(random_pmf(rng, 3), n)
        elif kind == "markov":
            src = random_markov_source(rng, 3, n)
        else:
            src = SourceModel.explicit(random_pmf(rng, 2 ** (n + 1)).weights,
                                       2, n)
        k = src.block_uniforms
        assert k == (1 if kind == "explicit" else n + 1)
        for seed in (0, 41):
            u = np.array([np.random.default_rng([seed, t]).random(k)
                          for t in range(300)])
            want = np.array([src.sample(1, np.random.default_rng([seed, t]))[0]
                             for t in range(300)])
            got = src.from_uniforms(u)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    # 2^100 + 7 is four words of entropy, past SeedSequence's pool of four
    # once spawning appends the child's key
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3,
                                      2**100 + 7])
    @pytest.mark.parametrize("trials", [1, 300])
    @pytest.mark.parametrize("k", [1, 7, 20])
    def test_array_uniforms_match_the_trial_generators(self, monkeypatch,
                                                       seed, trials, k):
        # after the codebook's source blocks, simulate maps one (trials, k)
        # draw of the seed's child stream
        n = k - 1
        src = SourceModel.iid(FinitePmf.uniform(2), n)
        seen = []
        mapping = SourceModel.from_uniforms
        monkeypatch.setattr(SourceModel, "from_uniforms",
                            lambda self, u: seen.append(u) or mapping(self, u))
        simulate(src, DistortionModel.hamming(2, n),
                 CausalKernelChain.memoryless(W_QUARTER, n), 0.1, trials,
                 0.1, seed)
        assert np.array_equal(seen[-1], trial_draws(src, trials, seed))

    def test_negative_seed_rejected(self):
        n = 2
        src, dist, chain = coding_case("iid-hamming", n,
                                       np.random.default_rng(4))
        with pytest.raises(ValueError):
            simulate(src, dist, chain, 0.6, 10, 0.1, seed=-1)


class TestEncoder:
    @pytest.mark.parametrize("kind", CODING_KINDS)
    @pytest.mark.parametrize("codewords", [1, 7])
    def test_min_cost_matches_the_all_pairs_table(self, monkeypatch, kind,
                                                  codewords):
        # 30-cell blocks hold 4 trials of a 7-word book (101 is no multiple
        # of 4) and 30 trials of a one-word book
        monkeypatch.setattr(probability, "BLOCK_CELLS", 30)
        n = 3
        rng = np.random.default_rng(8)
        src, dist, chain = coding_case(kind, n, rng)
        xs = src.sample(101, rng)
        words = chain.sample(src.sample(codewords, rng), rng)
        got = dist.min_cost(xs, words)
        assert np.array_equal(got, all_pairs_min(dist, xs, words))
        assert np.array_equal(got, dist.cost(xs[:, None],
                                             words[None]).min(axis=1))

    @staticmethod
    def gathers(monkeypatch, dist, xs, words):
        """min_cost's result and how many times it called cost."""
        calls = []
        cost = DistortionModel.cost
        monkeypatch.setattr(DistortionModel, "cost",
                            lambda *a, **k: calls.append(1) or cost(*a, **k))
        got = dist.min_cost(xs, words)
        monkeypatch.setattr(DistortionModel, "cost", cost)
        return got, len(calls)

    @pytest.mark.parametrize("kind, integral", [
        ("iid-hamming", True), ("iid-integer", True),
        ("markov-real", False), ("explicit-table", False),
        ("iid-integer-24", True)])
    def test_only_integral_letter_costs_take_the_product(self, monkeypatch,
                                                         kind, integral):
        n = 3
        rng = np.random.default_rng(9)
        # above PRODUCT_MAX_LETTERS source letters integral costs gather
        wide = kind == "iid-integer-24"
        if wide:
            src = SourceModel.iid(random_pmf(rng, 24), n)
            dist = DistortionModel.single_letter(
                rng.integers(0, 5, size=(24, 24)).astype(float), n)
            chain = CausalKernelChain.memoryless(
                rng.dirichlet(np.ones(24), size=24), n)
            assert dist.nx > distortion.PRODUCT_MAX_LETTERS
        else:
            src, dist, chain = coding_case(kind, n, rng)
        xs = src.sample(50, rng)
        words = chain.sample(src.sample(9, rng), rng)
        assert dist.integral is integral
        got, calls = self.gathers(monkeypatch, dist, xs, words)
        assert (calls == 0) is (integral and not wide)
        assert np.array_equal(got, all_pairs_min(dist, xs, words))

    @pytest.mark.parametrize("costs, n, integral", [
        # (n+1) * max rho < 2^53 keeps every partial sum an exact integer
        ([[0.0, 2.0**52 - 1], [3.0, 1.0]], 1, True),
        ([[0.0, 2.0**52], [3.0, 1.0]], 1, False),
        ([[0.0, 2.0**60], [3.0, 1.0]], 1, False),
        ([[0.0, 1.5], [1.0, 0.0]], 2, False),
        # a product's zero is +0.0, a gather's sum of -0.0 is -0.0
        ([[-0.0, 1.0], [1.0, 0.0]], 2, False)])
    def test_the_product_takes_only_exact_integer_sums(self, monkeypatch,
                                                       costs, n, integral):
        dist = DistortionModel.single_letter(costs, n)
        assert dist.integral is integral
        xs = ix.all_letters(2, n + 1)
        words = xs[::-1].copy()
        got, calls = self.gathers(monkeypatch, dist, xs, words)
        assert (calls == 0) is integral
        assert np.array_equal(got, all_pairs_min(dist, xs, words))

    def test_a_book_of_several_codeword_blocks(self):
        # at n = 11 a block of ternary codewords is BLOCK_CELLS // 36 =
        # 1,820 of them, so 20,000 codewords span eleven; each trial's best
        # word, letter by letter, sits in a middle block
        n = 11
        rng = np.random.default_rng(12)
        dist = DistortionModel.single_letter(
            rng.choice([0.0, 1.0, 2.0, 7.0], size=(3, 4)), n)
        xs = rng.integers(0, 3, size=(12, n + 1))
        words = rng.integers(0, 4, size=(20_000, n + 1))
        assert len(words) > 10 * (probability.BLOCK_CELLS // (3 * (n + 1)))
        words[9_000:9_012] = dist.letter_costs.argmin(axis=1)[xs]
        got = dist.min_cost(xs, words)
        assert np.array_equal(got, all_pairs_min(dist, xs, words))
        assert np.array_equal(got,
                              dist.letter_costs.min(axis=1)[xs].sum(axis=1))
