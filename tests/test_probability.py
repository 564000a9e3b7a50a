import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crdf import (
    CausalKernelChain,
    DistortionModel,
    FinitePmf,
    GeneralKernel,
    OutputProcess,
    ShapeError,
    SourceModel,
    check_causality_equivalence,
    gateaux_derivative,
    make_joint,
    product_measure,
    solve_fixed_s,
    validate_causal,
)
from crdf import indexing as ix
from crdf import probability
from crdf.sampling import (
    anticausal_swap_kernel,
    random_chain,
    random_iid_source,
    random_markov_source,
)

rngs = st.integers(0, 2**32 - 1).map(np.random.default_rng)


class TestFinitePmf:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            FinitePmf([0.5, 0.6])
        with pytest.raises(ValueError):
            FinitePmf([1.5, -0.5])

    def test_uniform_and_point_mass(self):
        u = FinitePmf.uniform(4)
        assert np.allclose(u.weights, 0.25)
        p = FinitePmf.point_mass(2, 3)
        assert p.weights[2] == 1.0 and p.weights.sum() == 1.0

    def test_weights_are_read_only(self):
        u = FinitePmf.uniform(2)
        with pytest.raises(ValueError):
            u.weights[0] = 0.9


class TestSourceModel:
    def test_iid_joint_is_product(self):
        src = SourceModel.iid(FinitePmf([0.3, 0.7]), 1)
        mu = src.joint_pmf()
        assert np.allclose(mu, np.outer([0.3, 0.7], [0.3, 0.7]).ravel())

    def test_markov_joint(self):
        T = np.array([[0.9, 0.1], [0.2, 0.8]])
        src = SourceModel.markov(FinitePmf([0.6, 0.4]), T, 1)
        mu = src.joint_pmf().reshape(2, 2)
        assert np.allclose(mu, np.array([0.6, 0.4])[:, None] * T)

    @given(rngs)
    @settings(max_examples=25, deadline=None)
    def test_joint_pmf_sums_to_one(self, rng):
        src = random_markov_source(rng, 3, 2)
        assert src.joint_pmf().sum() == pytest.approx(1.0, abs=1e-12)

    def test_sampling_matches_marginal(self):
        src = SourceModel.iid(FinitePmf([0.2, 0.8]), 3)
        xs = src.sample(4000, np.random.default_rng(0))
        assert xs.shape == (4000, 4)
        assert abs(xs.mean() - 0.8) < 0.03

    @staticmethod
    def choice_reference(src, num, rng):
        """Blocks drawn with Generator.choice: the whole iid array, the first
        Markov letters and the explicit block indices; a Markov transition
        maps its uniform by choice's own cdf."""
        n, a = src.horizon, src.alphabet
        if src.kind == "iid":
            return rng.choice(a, size=(num, n + 1), p=src.letter.weights)
        if src.kind == "explicit":
            idx = rng.choice(a ** (n + 1), size=num, p=src.joint_weights)
            return ix.to_letters(idx, a, n + 1)
        out = np.empty((num, n + 1), dtype=np.int64)
        out[:, 0] = rng.choice(a, size=num, p=src.initial.weights)
        u = rng.random((num, n))
        for t in range(num):
            for i in range(1, n + 1):
                cdf = np.cumsum(src.transition[out[t, i - 1]])
                cdf /= cdf[-1]
                out[t, i] = np.searchsorted(cdf, u[t, i - 1], side="right")
        return out

    def test_uniforms_on_the_cdf_steps_map_as_choice_maps_them(self):
        # choice takes the letter after a step that u equals, and its cdf is
        # divided by its last entry, so u just below 1 stays in the alphabet
        # although the ten 0.1 masses sum to 1 - 2^-53
        below_one = np.nextafter(1.0, 0.0)
        halves = SourceModel.iid(FinitePmf([0.5, 0.5]), 1)
        assert halves.from_uniforms(np.array([[0.5, 0.25]])).tolist() == [[1, 0]]
        tenths = SourceModel.iid(FinitePmf(np.full(10, 0.1)), 0)
        assert tenths.from_uniforms(np.array([[below_one]])).tolist() == [[9]]
        T = np.zeros((10, 10))
        T[:, 0] = T[:, 1] = 0.5
        T[1] = 0.1
        markov = SourceModel.markov(FinitePmf.point_mass(0, 10), T, 2)
        got = markov.from_uniforms(np.array([[0.3, 0.5, below_one]]))
        assert got.tolist() == [[0, 1, 9]]

    @pytest.mark.parametrize("kind", ["iid", "markov", "explicit"])
    @pytest.mark.parametrize("block", [probability.BLOCK_CELLS, 9])
    def test_sample_matches_a_choice_reference(self, monkeypatch, kind,
                                               block):
        # 9-cell blocks split 601 blocks of n+1 = 4 letters into 2-row draws
        monkeypatch.setattr(probability, "BLOCK_CELLS", block)
        rng = np.random.default_rng(33)
        if kind == "iid":
            src = random_iid_source(rng, 3, 3)
        elif kind == "markov":
            src = random_markov_source(rng, 3, 3)
        else:
            src = SourceModel.explicit(rng.dirichlet(np.ones(16)), 2, 3)
        for seed in (0, 7):
            got = src.sample(601, np.random.default_rng(seed))
            want = self.choice_reference(src, 601, np.random.default_rng(seed))
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)


class TestCausalKernelChain:
    def test_memoryless_equals_explicit_stages(self):
        W = np.array([[0.9, 0.1], [0.3, 0.7]])
        mem = CausalKernelChain.memoryless(W, 1)
        # stage 1 rows run over x^1 = (x_0, x_1) with x_0 most significant,
        # and a memoryless kernel depends only on the latest letter x_1
        stages = [W[None, :, :],
                  np.broadcast_to(W[None, (0, 1, 0, 1), :], (2, 4, 2)).copy()]
        exp = CausalKernelChain.from_stages(stages, 2, 2)
        assert np.allclose(mem.conditional_matrix(), exp.conditional_matrix())

    def test_conditional_matrix_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        chain = random_chain(rng, 2, 3, 2)
        K = chain.conditional_matrix()
        assert K.shape == (8, 27)
        assert np.allclose(K.sum(axis=1), 1.0)

    def test_stage_shape_validation(self):
        with pytest.raises((ValueError, ShapeError)):
            CausalKernelChain.from_stages([np.ones((1, 2, 2))], 2, 2)

    def test_stage_of_neither_layout_rejected(self):
        # stage 1 of a ternary-input chain has 3 (x_1) or 9 (x^1) rows
        stages = [np.full((1, 3, 2), 0.5), np.full((2, 6, 2), 0.5)]
        with pytest.raises(ShapeError, match="chain stage 1"):
            CausalKernelChain.from_stages(stages, 3, 2)

    @pytest.mark.parametrize("nx, ny, n", [(2, 2, 3), (3, 2, 2), (2, 3, 2)])
    def test_compact_stage_expands_to_its_last_letter(self, nx, ny, n):
        rng = np.random.default_rng(10 * nx + ny)
        compact = [rng.dirichlet(np.ones(ny), size=(ny**i, nx))
                   for i in range(n + 1)]
        chain = CausalKernelChain.from_stages(compact, nx, ny)
        for i in range(n + 1):
            full = chain.stage(i)
            assert full.shape == (ny**i, nx ** (i + 1), ny)
            for hx in range(nx ** (i + 1)):
                assert np.array_equal(full[:, hx], compact[i][:, hx % nx])


class TestChainSampler:
    FLIP = [[0.8, 0.2], [0.2, 0.8]]

    @pytest.mark.parametrize("kind", ["stages", "per_letter"])
    def test_frequencies_match_the_output_law(self, kind):
        # 400,000 Markov blocks at n = 2 passed through the chain: each
        # y^2 occurs within 5 sigma of nu from make_joint
        n, draws = 2, 400_000
        src = SourceModel.markov(FinitePmf.uniform(2), self.FLIP, n)
        if kind == "stages":
            chain = solve_fixed_s(src, DistortionModel.hamming(2, n),
                                  -1.5).chain
        else:
            chain = CausalKernelChain.memoryless([[0.75, 0.25],
                                                  [0.25, 0.75]], n)
        rng = np.random.default_rng(2026)
        y = chain.sample(src.sample(draws, rng), rng)
        freq = np.bincount(ix.from_letters(y, 2), minlength=8) / draws
        nu = make_joint(src, chain).y_marginal()
        sigma = np.sqrt(nu * (1 - nu) / draws)
        assert np.all(np.abs(freq - nu) <= 5 * sigma)

    @pytest.mark.parametrize("nx, ny", [(2, 2), (3, 2), (2, 3)])
    def test_compact_chain_draws_like_its_expanded_twin(self, nx, ny):
        n = 3
        rng = np.random.default_rng(50 + nx + ny)
        chain = CausalKernelChain.from_stages(
            [rng.dirichlet(np.ones(ny), size=(ny**i, nx))
             for i in range(n + 1)], nx, ny)
        twin = CausalKernelChain.from_stages(
            [chain.stage(i) for i in range(n + 1)], nx, ny)
        x = rng.integers(0, nx, size=(2000, n + 1))
        y = chain.sample(x, np.random.default_rng(9))
        assert np.array_equal(y, twin.sample(x, np.random.default_rng(9)))
        assert np.array_equal(chain.conditional_matrix(),
                              twin.conditional_matrix())

    @staticmethod
    def one_draw_reference(chain, x, rng):
        """Pass x through the chain's full-history stage tables, with every
        uniform drawn at once."""
        u = rng.random(x.shape)
        y = np.empty(x.shape, dtype=np.int64)
        for i in range(chain.horizon + 1):
            rows = chain.stage(i)[ix.from_letters(y[:, :i], chain.ny),
                                  ix.from_letters(x[:, :i + 1], chain.nx)]
            draw = (u[:, i, None] > np.cumsum(rows, axis=1)).sum(axis=1)
            y[:, i] = np.minimum(draw, chain.ny - 1)
        return y

    @pytest.mark.parametrize("kind", ["full", "compact", "per_letter"])
    @pytest.mark.parametrize("block", [probability.BLOCK_CELLS, 10])
    def test_blocked_draws_match_one_draw(self, monkeypatch, kind, block):
        # 10-cell blocks take 2 rows of n+1 = 4 letters per draw, and 999
        # rows leave a partial last block
        monkeypatch.setattr(probability, "BLOCK_CELLS", block)
        n, nx, ny = 3, 3, 2
        rng = np.random.default_rng(12)
        if kind == "full":
            chain = random_chain(rng, nx, ny, n)
        elif kind == "compact":
            chain = CausalKernelChain.from_stages(
                [rng.dirichlet(np.ones(ny), size=(ny**i, nx))
                 for i in range(n + 1)], nx, ny)
        else:
            chain = CausalKernelChain.memoryless(
                rng.dirichlet(np.ones(ny), size=nx), n)
        x = rng.integers(0, nx, size=(999, n + 1))
        got = chain.sample(x, np.random.default_rng(4))
        want = self.one_draw_reference(chain, x, np.random.default_rng(4))
        assert np.array_equal(got, want)

    def test_per_letter_chain_builds_no_stage_table(self):
        # stage(63) of a binary chain would have 2^64 rows
        chain = CausalKernelChain.memoryless([[1.0, 0.0], [0.0, 1.0]], 63)
        x = np.random.default_rng(0).integers(0, 2, size=(5, 64))
        assert np.array_equal(chain.sample(x, np.random.default_rng(1)), x)

    def test_block_length_checked(self):
        chain = CausalKernelChain.memoryless([[0.5, 0.5], [0.5, 0.5]], 2)
        with pytest.raises(ShapeError):
            chain.sample(np.zeros((4, 2), dtype=int), np.random.default_rng(0))


class TestJointAndMarginals:
    def test_make_joint_marginals(self):
        rng = np.random.default_rng(11)
        src = random_iid_source(rng, 2, 1)
        chain = random_chain(rng, 2, 2, 1)
        jm = make_joint(src, chain)
        assert jm.pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(jm.x_marginal(), src.joint_pmf())

    def test_output_marginal_consistency(self):
        rng = np.random.default_rng(13)
        src = random_markov_source(rng, 2, 2)
        chain = random_chain(rng, 2, 2, 2)
        jm = make_joint(src, chain)
        out = OutputProcess(ny=2, horizon=2, joint=jm.y_marginal())
        assert np.allclose(out.joint, jm.y_marginal(), atol=1e-12)

    def test_output_conditionals_recompose(self):
        rng = np.random.default_rng(17)
        src = random_iid_source(rng, 2, 1)
        chain = random_chain(rng, 2, 2, 1)
        out = OutputProcess(ny=2, horizon=1,
                            joint=make_joint(src, chain).y_marginal())
        nu0 = out.conditionals[0]   # (1, ny)
        nu1 = out.conditionals[1]   # (ny, ny)
        rebuilt = (nu0.ravel()[:, None] * nu1).ravel()
        assert np.allclose(rebuilt, out.joint, atol=1e-12)

    def test_bsc_uniform_output_is_uniform(self):
        # binary symmetric stage kernel keeps a uniform source uniform,
        # for every trajectory length
        W = np.array([[0.9, 0.1], [0.1, 0.9]])
        src = SourceModel.iid(FinitePmf.uniform(2), 1)
        nu = make_joint(src, CausalKernelChain.memoryless(W, 1)).y_marginal()
        assert np.allclose(nu, 0.25)

    def test_memoryless_output_dead_rows_are_uniform(self):
        out = OutputProcess.memoryless(np.array([0.0, 1.0]), 1)
        assert np.array_equal(out.conditionals[0], [[0.0, 1.0]])
        assert np.array_equal(out.conditionals[1], [[0.5, 0.5], [0.0, 1.0]])
        assert np.array_equal(out.joint, [0.0, 0.0, 0.0, 1.0])

    def test_product_measure_factors(self):
        rng = np.random.default_rng(19)
        src = random_iid_source(rng, 2, 1)
        chain = random_chain(rng, 2, 2, 1)
        out = OutputProcess(ny=2, horizon=1,
                            joint=make_joint(src, chain).y_marginal())
        pm = product_measure(src, out)
        assert np.allclose(pm.pmf, np.outer(src.joint_pmf(), out.joint))


class TestValidateCausal:
    @given(rngs)
    @settings(max_examples=20, deadline=None)
    def test_chains_are_causal(self, rng):
        n = int(rng.integers(0, 3))
        src = random_iid_source(rng, 2, n)
        chain = random_chain(rng, 2, 2, n)
        check = validate_causal(chain, src)
        assert bool(check)

    def test_anticausal_kernel_is_flagged_with_witness(self):
        rng = np.random.default_rng(23)
        src = random_iid_source(rng, 2, 1)
        ker = anticausal_swap_kernel(rng, 2)
        check = validate_causal(ker, src)
        assert not check
        assert check.stage is not None
        assert check.deviation > 0.1

    def test_shape_mismatch_raises(self):
        src = SourceModel.iid(FinitePmf.uniform(2), 2)
        rng = np.random.default_rng(3)
        chain = random_chain(rng, 2, 2, 1)
        with pytest.raises(ShapeError):
            validate_causal(chain, src)


def _general(chain):
    return GeneralKernel(nx=chain.nx, ny=chain.ny, horizon=chain.horizon,
                         table=chain.conditional_matrix())


class TestKernelParity:
    """Every kernel consumer reads the (Nx, Ny) matrix through
    conditional_matrix(), so a chain and the general kernel of its table
    give identical results."""

    @pytest.mark.parametrize("call", [
        lambda src, q0, q1: make_joint(src, q0).pmf,
        lambda src, q0, q1: validate_causal(q0, src),
        lambda src, q0, q1: check_causality_equivalence(src, q0),
        lambda src, q0, q1: gateaux_derivative(src, q0, q1),
    ], ids=["make_joint", "validate_causal", "check_causality_equivalence",
            "gateaux_derivative"])
    def test_chain_and_general_kernel_agree(self, call):
        rng = np.random.default_rng(29)
        src = random_markov_source(rng, 2, 2)
        q0 = random_chain(rng, 2, 3, 2, floor=0.05)
        q1 = random_chain(rng, 2, 3, 2)
        a = call(src, q0, q1)
        b = call(src, _general(q0), _general(q1))
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert a == b
