import numpy as np
import pytest

from crdf import (
    DistortionModel,
    FinitePmf,
    SourceModel,
    bisect_s_for_distortion,
    brute_force_lagrangian,
    compare,
    solve_fixed_s,
)
from crdf.oracle import InstanceTooLarge, _BatchEvaluator, _batched_descent

UNIFORM2 = FinitePmf.uniform(2)


class TestGridOracle:
    def test_s_zero_everything_optimal(self):
        src = SourceModel.iid(UNIFORM2, 0)
        dist = DistortionModel.hamming(2, 0)
        r = brute_force_lagrangian(src, dist, 0.0, method="grid")
        assert r.best_value == pytest.approx(0.0, abs=1e-12)
        p = solve_fixed_s(src, dist, 0.0)
        assert compare(p, r).passed

    def test_matches_solver_at_d_010(self):
        src = SourceModel.iid(UNIFORM2, 0)
        dist = DistortionModel.hamming(2, 0)
        p = bisect_s_for_distortion(src, dist, 0.10)
        r = brute_force_lagrangian(src, dist, p.s, method="grid")
        rep = compare(p, r)
        assert rep.passed
        assert rep.value_difference <= 1e-3

    def test_horizon_one_supported(self):
        src = SourceModel.iid(UNIFORM2, 1)
        dist = DistortionModel.hamming(2, 1)
        p = solve_fixed_s(src, dist, -2.0)
        r = brute_force_lagrangian(src, dist, -2.0, method="grid")
        assert abs(p.lagrangian() - r.best_value) <= 1e-3

    def test_too_large_rejected(self):
        src = SourceModel.iid(FinitePmf.uniform(4), 0)
        dist = DistortionModel.hamming(4, 0)
        with pytest.raises(InstanceTooLarge):
            brute_force_lagrangian(src, dist, -1.0, method="grid")
        src2 = SourceModel.iid(UNIFORM2, 2)
        with pytest.raises(InstanceTooLarge):
            brute_force_lagrangian(src2, DistortionModel.hamming(2, 2), -1.0,
                                   method="grid")


class TestMultistartOracle:
    def test_matches_solver_on_iid_instance(self):
        src = SourceModel.iid(UNIFORM2, 1)
        dist = DistortionModel.hamming(2, 1)
        p = solve_fixed_s(src, dist, -2.0)
        r = brute_force_lagrangian(src, dist, -2.0, method="multistart",
                                   budget=100, seed=0)
        assert compare(p, r).passed

    def test_deterministic_given_seed(self):
        src = SourceModel.iid(UNIFORM2, 1)
        dist = DistortionModel.hamming(2, 1)
        a = brute_force_lagrangian(src, dist, -1.0, method="multistart",
                                   budget=50, seed=4)
        b = brute_force_lagrangian(src, dist, -1.0, method="multistart",
                                   budget=50, seed=4)
        assert a.best_value == b.best_value
        for sa, sb in zip(a.best_chain.stages, b.best_chain.stages):
            assert np.array_equal(sa, sb)

    def test_never_above_solver_optimum(self):
        # the solver returns the causal optimum, so no chain the oracle
        # explores can undercut its Lagrangian
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(UNIFORM2, T, 1)
        dist = DistortionModel.hamming(2, 1)
        for s in (-0.5, -2.0):
            p = solve_fixed_s(src, dist, s)
            r = brute_force_lagrangian(src, dist, s, method="multistart",
                                       budget=60, seed=1)
            assert p.lagrangian() <= r.best_value + 1e-9

    def test_markov_instance_exposes_fixed_point_gap(self):
        # a stage-wise tilt without the backward cost-to-go term stops at
        # 0.73870148 on this first-order Markov source; the causal optimum
        # at s = -2 is the oracle's value, and the solver must reach it
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(UNIFORM2, T, 1)
        dist = DistortionModel.hamming(2, 1)
        p = solve_fixed_s(src, dist, -2.0)
        r = brute_force_lagrangian(src, dist, -2.0, method="multistart",
                                   budget=200, seed=1)
        assert p.lagrangian() == pytest.approx(0.72539164, abs=1e-6)
        assert r.best_value == pytest.approx(0.72539164, abs=1e-4)

    def test_matches_solver_on_horizon_two_markov(self):
        # n = 2 runs the backward recursion across two stages
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(UNIFORM2, T, 2)
        dist = DistortionModel.hamming(2, 2)
        for s in (-1.0, -2.0):
            p = solve_fixed_s(src, dist, s)
            r = brute_force_lagrangian(src, dist, s, method="multistart",
                                       budget=40, seed=0)
            assert abs(p.lagrangian() - r.best_value) <= 1e-6

    def test_each_start_runs_its_own_schedule(self):
        # a batch gives every start the result of that start descending
        # alone, and about its evaluations: a start is evaluated with its
        # batch-mates at a shift it cannot make (its mass there is 0), which
        # alone it skips.  Before each start kept its own step, this batch
        # cost 18,005 evaluations against 12,964 alone.
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(UNIFORM2, T, 1)
        dist = DistortionModel.hamming(2, 1)
        rng = np.random.default_rng(3)
        starts = [0.8 * rng.dirichlet(np.ones(2), size=(5, 2**i, 2 ** (i + 1)))
                  + 0.1 for i in range(2)]
        ev = _BatchEvaluator(src, dist, -1.0)
        vals, stages = _batched_descent(ev, [st.copy() for st in starts])
        alone = 0
        for k in range(5):
            ev1 = _BatchEvaluator(src, dist, -1.0)
            v1, s1 = _batched_descent(ev1, [st[k:k + 1].copy()
                                            for st in starts])
            assert v1[0] == vals[k]
            for a, b in zip(s1, stages):
                assert np.array_equal(a[0], b[k])
            alone += ev1.evaluations
        assert alone <= ev.evaluations <= 1.01 * alone

    def test_horizon_cap(self):
        src = SourceModel.iid(UNIFORM2, 3)
        with pytest.raises(InstanceTooLarge):
            brute_force_lagrangian(src, DistortionModel.hamming(2, 3), -1.0,
                                   method="multistart", budget=5)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        src = SourceModel.iid(UNIFORM2, 1)
        with pytest.raises(ValueError, match="budget"):
            brute_force_lagrangian(src, DistortionModel.hamming(2, 1), -1.0,
                                   method="multistart", budget=budget)

    def test_positive_s_rejected(self):
        src = SourceModel.iid(UNIFORM2, 0)
        with pytest.raises(ValueError):
            brute_force_lagrangian(src, DistortionModel.hamming(2, 0), 1.0)

    @pytest.mark.parametrize("method", ["grid", "multistart"])
    @pytest.mark.parametrize("s", [float("nan"), float("-inf"), 0.5])
    def test_multiplier_outside_the_solver_range_rejected(self, s, method):
        # the solver's rule, for either method: a NaN s would otherwise
        # reach the search
        src = SourceModel.iid(UNIFORM2, 0)
        with pytest.raises(ValueError, match="finite and <= 0"):
            brute_force_lagrangian(src, DistortionModel.hamming(2, 0), s,
                                   method=method, budget=2)


class TestCompare:
    def test_identical_inputs_pass_with_zero_difference(self):
        src = SourceModel.iid(UNIFORM2, 0)
        dist = DistortionModel.hamming(2, 0)
        p = solve_fixed_s(src, dist, -1.0)
        r = brute_force_lagrangian(src, dist, -1.0, method="grid")
        rep = compare(p, r)
        assert rep.passed
        assert rep.value_difference >= 0.0

    def test_perturbed_solver_point_fails(self):
        from dataclasses import replace
        from crdf.probability import CausalKernelChain
        src = SourceModel.iid(UNIFORM2, 0)
        dist = DistortionModel.hamming(2, 0)
        p = solve_fixed_s(src, dist, -2.0)
        r = brute_force_lagrangian(src, dist, -2.0, method="grid")
        rows = p.chain.stage(0).copy()
        rows[0, 0] += np.array([0.1, -0.1])
        bad_chain = CausalKernelChain.from_stages([rows], 2, 2)
        bad = replace(p, chain=bad_chain,
                      rate=p.rate + 0.1, rate_formula=p.rate_formula + 0.1)
        assert not compare(bad, r).passed

    def test_mismatched_instance_rejected(self):
        src = SourceModel.iid(UNIFORM2, 0)
        dist = DistortionModel.hamming(2, 0)
        p = solve_fixed_s(src, dist, -1.0)
        r = brute_force_lagrangian(src, dist, -2.0, method="grid")
        with pytest.raises(ValueError):
            compare(p, r)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0])
    def test_non_positive_tol_rejected(self, tol):
        src = SourceModel.iid(UNIFORM2, 0)
        dist = DistortionModel.hamming(2, 0)
        p = solve_fixed_s(src, dist, -1.0)
        r = brute_force_lagrangian(src, dist, -1.0, method="grid")
        with pytest.raises(ValueError, match="tol must be > 0"):
            compare(p, r, tol=tol)
