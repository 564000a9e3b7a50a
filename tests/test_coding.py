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
from crdf import coding
from crdf.coding import CodebookTooLarge, codebook_size

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

    def test_enumeration_agrees_with_multinomial(self):
        # rebuilding the memoryless chain from explicit stage tables routes
        # the same joint law through the enumeration backend
        n = 3
        spec = bsc_spec(n)
        stages = [spec.chain.stage(i).copy() for i in range(n + 1)]
        explicit = CausalKernelChain.from_stages(stages, 2, 2)
        spec2 = TypicalitySpec(epsilon=0.05, horizon=n, source=spec.source,
                               chain=explicit, dist=spec.dist)
        a = typicality_probability(spec)
        b = typicality_probability(spec2)
        assert b.method == "enumeration"
        assert b.p_info == pytest.approx(a.p_info, abs=1e-12)
        assert b.p_dist == pytest.approx(a.p_dist, abs=1e-12)

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

    def test_markov_source_large_falls_back_to_monte_carlo(self):
        n = 12   # 4^(n+1) pairs exceeds the enumeration cap
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(FinitePmf.uniform(2), T, n)
        spec = TypicalitySpec(epsilon=0.1, horizon=n, source=src,
                              chain=CausalKernelChain.memoryless(W_QUARTER, n),
                              dist=DistortionModel.hamming(2, n))
        res = typicality_probability(spec, mc_samples=20_000, seed=1)
        assert res.method == "monte_carlo"
        assert res.se_info > 0 and res.se_dist > 0
        assert 0.0 <= res.p_info <= 1.0
        # the pairs are drawn through CausalKernelChain.sample; the stream
        # is that of the earlier per-letter draw, so the values are too
        assert res.p_info == 0.4514
        assert res.p_dist == 0.6732

    def test_dispatch_under_a_small_pair_cap(self, monkeypatch):
        # stage chains and table distortions hold one entry per pair, so
        # they enumerate whatever the cap; a per-letter Markov spec above
        # the cap goes to Monte Carlo
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
        res = typicality_probability(markov, mc_samples=2000, seed=1)
        assert res.method == "monte_carlo"

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
        frozen = {7: 0.26844, 11: 0.24413, 15: 0.23234}
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
        assert rep.mean_distortion >= 0.0

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
