import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crdf import (
    CausalKernelChain,
    DistortionModel,
    FinitePmf,
    OutputProcess,
    ShapeError,
    SourceModel,
    average_distortion,
    bisect_s_for_distortion,
    classical_ba,
    d_max_min_sequence,
    d_max_product,
    make_joint,
    sweep,
)
from crdf.sampling import random_chain, random_markov_source

rngs = st.integers(0, 2**32 - 1).map(np.random.default_rng)


class TestConstruction:
    def test_hamming_letter_costs(self):
        dist = DistortionModel.hamming(3, 2)
        costs = dist.stage_cost(0)
        assert np.array_equal(costs, 1.0 - np.eye(3))

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            DistortionModel.single_letter(np.array([[0.0, -1.0], [1.0, 0.0]]), 1)

    def test_stage_tables_must_match_horizon(self):
        tables = [np.zeros((2, 2))]
        with pytest.raises(ValueError):
            DistortionModel.from_tables(tables, 1)

    def test_stage_cost_shapes_grow_with_prefix(self):
        dist = DistortionModel.hamming(2, 2)
        for i in range(3):
            assert dist.stage_cost(i).shape == (2 ** (i + 1), 2 ** (i + 1))

    def test_total_cost_matrix_is_sum_of_stage_costs(self):
        dist = DistortionModel.hamming(2, 1)
        C = dist.total_cost_matrix()
        # d(x^1, y^1) = 1{x0 != y0} + 1{x1 != y1}, trajectories in
        # mixed-radix order 00, 01, 10, 11
        expect = np.array([[0, 1, 1, 2], [1, 0, 2, 1],
                           [1, 2, 0, 1], [2, 1, 1, 0]], float)
        assert np.array_equal(C, expect)

    def test_prefix_dependent_tables(self):
        # stage-1 cost depending on the whole prefix (x^1, y^1)
        t0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        t1 = np.arange(16, dtype=float).reshape(4, 4)
        dist = DistortionModel.from_tables([t0, t1], 1)
        C = dist.total_cost_matrix()
        assert C[3, 2] == t0[1, 1] + t1[3, 2]


class TestCostEvaluator:
    @staticmethod
    def random_model(rng):
        n = int(rng.integers(0, 3))
        nx, ny = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if rng.random() < 0.5:
            return DistortionModel.single_letter(rng.random((nx, ny)), n)
        return DistortionModel.from_tables(
            [rng.random((nx ** (i + 1), ny ** (i + 1))) for i in range(n + 1)],
            n)

    @staticmethod
    def stage_by_letters(dist, x, y, i):
        """rho_i of one pair of letter sequences, read letter by letter."""
        if dist.is_single_letter:
            return dist.letter_costs[x[i], y[i]]
        hx = hy = 0
        for j in range(i + 1):
            hx, hy = hx * dist.nx + x[j], hy * dist.ny + y[j]
        return dist.tables[i][hx, hy]

    @given(rngs)
    @settings(max_examples=40, deadline=None)
    def test_matches_letter_by_letter_sum(self, rng):
        dist = self.random_model(rng)
        m = dist.horizon + 1
        x = rng.integers(0, dist.nx, size=(3, 1, m))
        y = rng.integers(0, dist.ny, size=(1, 4, m))
        total = dist.cost(x, y)
        assert total.shape == (3, 4)
        for a in range(3):
            for b in range(4):
                stages = [self.stage_by_letters(dist, x[a, 0], y[0, b], i)
                          for i in range(m)]
                assert total[a, b] == sum(stages)
                for i in range(m):
                    assert (dist.cost(x[a, 0, :i + 1], y[0, b, :i + 1], stage=i)
                            == stages[i])

    def test_table_of_wrong_shape_rejected_at_construction(self):
        with pytest.raises(ShapeError):
            DistortionModel.from_tables([np.zeros((2, 2)), np.zeros((4, 3))],
                                        1)

    def test_total_cost_matrix_built_once(self, monkeypatch):
        builds = []
        cost = DistortionModel.cost

        def counted(self, x, y, stage=None):
            if stage is None:    # the sum over stages: a matrix build here
                builds.append(self)
            return cost(self, x, y, stage)
        monkeypatch.setattr(DistortionModel, "cost", counted)
        src = SourceModel.markov(FinitePmf.uniform(2),
                                 np.array([[0.8, 0.2], [0.2, 0.8]]), 1)
        dist = DistortionModel.hamming(2, 1)
        sweep(src, dist, [0.0, -0.5, -2.0])
        assert builds == []  # a causal sweep reads the stage tables only
        bisect_s_for_distortion(src, dist, 0.1, solve=classical_ba)
        assert len(builds) == 1 and builds[0] is dist
        assert not dist.total_cost_matrix().flags.writeable


class TestAverageDistortion:
    def test_identity_chain_has_zero_hamming_distortion(self):
        src = SourceModel.iid(FinitePmf([0.3, 0.7]), 2)
        chain = CausalKernelChain.memoryless(np.eye(2), 2)
        jm = make_joint(src, chain)
        assert average_distortion(jm, DistortionModel.hamming(2, 2)) == 0.0

    def test_memoryless_bsc_distortion_is_crossover(self):
        eps = 0.2
        W = np.array([[1 - eps, eps], [eps, 1 - eps]])
        src = SourceModel.iid(FinitePmf.uniform(2), 3)
        jm = make_joint(src, CausalKernelChain.memoryless(W, 3))
        d = average_distortion(jm, DistortionModel.hamming(2, 3))
        assert d == pytest.approx(eps, abs=1e-12)

    @given(rngs)
    @settings(max_examples=25, deadline=None)
    def test_normalized_range(self, rng):
        n = int(rng.integers(0, 3))
        src = random_markov_source(rng, 2, n)
        chain = random_chain(rng, 2, 2, n)
        d = average_distortion(make_joint(src, chain),
                               DistortionModel.hamming(2, n))
        assert -1e-12 <= d <= 1.0 + 1e-12


class TestDmax:
    # every sequence ties exactly; summing the stages in a different order
    # for different sequences (as mu @ C does) breaks the ties by rounding
    @pytest.mark.parametrize("src", [
        SourceModel.iid(FinitePmf.uniform(2), 2),
        SourceModel.markov(FinitePmf.uniform(2),
                           np.array([[0.8, 0.2], [0.2, 0.8]]), 2),
        SourceModel.markov(FinitePmf.uniform(2),
                           np.array([[0.8, 0.2], [0.2, 0.8]]), 8),
    ], ids=["iid-n2", "markov-n2", "markov-n8"])
    def test_min_sequence_uniform_binary(self, src):
        n = src.horizon
        val, seq = d_max_min_sequence(src, DistortionModel.hamming(2, n))
        assert val == pytest.approx(0.5, abs=1e-12)
        assert seq == (0,) * (n + 1)   # lexicographically smallest minimizer

    def test_min_sequence_biased_binary(self):
        src = SourceModel.iid(FinitePmf([0.2, 0.8]), 1)
        val, seq = d_max_min_sequence(src, DistortionModel.hamming(2, 1))
        assert val == pytest.approx(0.2, abs=1e-12)
        assert seq == (1, 1)

    def test_product_dmax_at_best_point_mass_matches_min_sequence(self):
        from crdf.probability import OutputProcess
        src = SourceModel.iid(FinitePmf([0.2, 0.8]), 1)
        dist = DistortionModel.hamming(2, 1)
        out = OutputProcess.memoryless(np.array([0.0, 1.0]), 1)
        val = d_max_product(src, out, dist)
        assert val == pytest.approx(d_max_min_sequence(src, dist)[0], abs=1e-12)

    def test_product_dmax_upper_bounds_min_sequence(self):
        rng = np.random.default_rng(3)
        src = random_markov_source(rng, 2, 2)
        dist = DistortionModel.hamming(2, 2)
        chain = random_chain(rng, 2, 2, 2)
        out = OutputProcess(ny=2, horizon=2,
                            joint=make_joint(src, chain).y_marginal())
        assert (d_max_product(src, out, dist)
                >= d_max_min_sequence(src, dist)[0] - 1e-12)
