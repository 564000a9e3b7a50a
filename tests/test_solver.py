import math

import numpy as np
import pytest

from crdf import (
    CausalKernelChain,
    DistortionModel,
    FinitePmf,
    SourceModel,
    average_distortion,
    bisect_s_for_distortion,
    classical_ba,
    d_max_product,
    default_s_grid,
    gateaux_derivative,
    make_joint,
    properties_report,
    solve_fixed_s,
    sweep,
    validate_causal,
    SolverOptions,
)
from crdf.information import LOG2E
from crdf.sampling import random_chain

UNIFORM2 = FinitePmf.uniform(2)


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def binary_hamming_rdf(d):
    """Classical (= causal, memoryless) R(D) for a uniform binary source."""
    return max(1.0 - h2(min(d, 0.5)), 0.0)


def ternary_markov():
    T = np.array([[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]])
    return (SourceModel.markov(FinitePmf([0.4, 0.3, 0.3]), T, 1),
            DistortionModel.hamming(3, 1))


class TestSolveFixedS:
    def test_s_zero_gives_zero_rate_and_product_dmax(self):
        src = SourceModel.iid(FinitePmf([0.3, 0.7]), 1)
        dist = DistortionModel.hamming(2, 1)
        p = solve_fixed_s(src, dist, 0.0)
        assert p.rate == pytest.approx(0.0, abs=1e-12)
        assert p.distortion == pytest.approx(
            d_max_product(src, p.output, dist), abs=1e-12)
        # with an identically-1 exponent the kernel never looks at x
        K = p.chain.conditional_matrix()
        assert np.allclose(K, K[0][None, :], atol=1e-12)

    def test_positive_s_rejected(self):
        src = SourceModel.iid(UNIFORM2, 0)
        with pytest.raises(ValueError):
            solve_fixed_s(src, DistortionModel.hamming(2, 0), 0.5)

    def test_horizon_zero_matches_classical(self):
        src = SourceModel.iid(UNIFORM2, 0)
        dist = DistortionModel.hamming(2, 0)
        for s in (-0.5, -1.0986, -3.0):
            causal = solve_fixed_s(src, dist, s)
            classic = classical_ba(src, dist, s)
            assert causal.distortion == pytest.approx(classic.distortion,
                                                      abs=1e-6)
            assert causal.rate == pytest.approx(classic.rate, abs=1e-6)

    def test_near_lossless_asymptote(self):
        src = SourceModel.iid(UNIFORM2, 2)
        p = solve_fixed_s(src, DistortionModel.hamming(2, 2), -50.0)
        assert p.distortion <= 1e-6
        assert p.rate >= 0.999

    def test_self_consistency_and_rate_formula(self):
        src = SourceModel.iid(FinitePmf([0.4, 0.6]), 2)
        dist = DistortionModel.hamming(2, 2)
        p = solve_fixed_s(src, dist, -1.5)
        assert p.converged
        assert p.residual <= 1e-8
        assert abs(p.rate - p.rate_formula) <= 1e-7

    def test_reported_distortion_is_achieved_distortion(self):
        src = SourceModel.iid(FinitePmf([0.4, 0.6]), 1)
        dist = DistortionModel.hamming(2, 1)
        p = solve_fixed_s(src, dist, -2.0)
        jm = make_joint(src, p.chain)
        assert p.distortion == pytest.approx(average_distortion(jm, dist),
                                             abs=1e-12)

    def test_converged_flag_false_when_starved(self):
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(UNIFORM2, T, 2)
        p = solve_fixed_s(src, DistortionModel.hamming(2, 2), -0.5,
                          SolverOptions(max_iters=3))
        assert not p.converged
        assert p.iterations == 3

    def test_causality_of_solution(self):
        T = np.array([[0.7, 0.3], [0.4, 0.6]])
        src = SourceModel.markov(FinitePmf([0.5, 0.5]), T, 2)
        p = solve_fixed_s(src, DistortionModel.hamming(2, 2), -1.0)
        assert bool(validate_causal(p.chain, src))


class TestSweep:
    def test_grid_of_zero_only(self):
        src = SourceModel.iid(UNIFORM2, 1)
        curve = sweep(src, DistortionModel.hamming(2, 1), [0.0])
        assert len(curve.points) == 1
        assert curve.points[0].rate == pytest.approx(0.0, abs=1e-12)

    def test_default_grid_shape(self):
        grid = default_s_grid()
        assert len(grid) == 41
        assert grid[0] == 0.0   # sweep runs from the zero-rate end downward
        assert all(s <= 0 for s in grid)
        assert grid == sorted(grid, reverse=True)

    def test_memoryless_collapse_matches_closed_form(self):
        src = SourceModel.iid(UNIFORM2, 3)
        dist = DistortionModel.hamming(2, 3)
        grid = sorted(-np.geomspace(0.05, 10.0, 20))
        curve = sweep(src, dist, grid)
        for p in curve.points:
            assert p.converged
            assert abs(p.rate - binary_hamming_rdf(p.distortion)) <= 2e-3

    def test_causal_dominates_classical_for_markov(self):
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(UNIFORM2, T, 2)
        dist = DistortionModel.hamming(2, 2)
        grid = sorted(-np.geomspace(0.3, 8.0, 10))
        for s in grid:
            causal = solve_fixed_s(src, dist, s)
            # classical solve at matched D via bisection on the classical curve
            lo, hi = -60.0, 0.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if classical_ba(src, dist, mid).distortion > causal.distortion:
                    hi = mid
                else:
                    lo = mid
            classic = classical_ba(src, dist, 0.5 * (lo + hi))
            assert causal.rate >= classic.rate - 1e-9

    def test_warm_and_cold_modes_agree(self):
        src = SourceModel.iid(FinitePmf([0.35, 0.65]), 2)
        dist = DistortionModel.hamming(2, 2)
        grid = sorted(-np.geomspace(0.2, 5.0, 8)) + [0.0]
        warm = sweep(src, dist, grid, mode="warm")
        cold = sweep(src, dist, grid, mode="cold", threads=2)
        for a, b in zip(warm.points, cold.points):
            assert a.s == b.s
            assert abs(a.rate - b.rate) <= 1e-7
            assert abs(a.distortion - b.distortion) <= 1e-7

    def test_warm_and_cold_modes_agree_on_ternary_markov(self):
        # near the zero-rate end the output law collapses to a point mass;
        # a warm start that kept its vanishing masses stayed locked on it
        # for s in [-0.95, -0.57]
        src, dist = ternary_markov()
        grid = [0.0, -0.05, -0.2, -0.4] + list(np.linspace(-0.57, -0.95, 5))
        warm = sweep(src, dist, grid, mode="warm")
        cold = sweep(src, dist, grid, mode="cold")
        for a, b in zip(warm.points, cold.points):
            assert a.converged and b.converged
            assert abs(a.rate - b.rate) <= 1e-7
            assert abs(a.distortion - b.distortion) <= 1e-7

    def test_distortion_shrinks_as_s_grows_negative(self):
        src = SourceModel.iid(UNIFORM2, 1)
        curve = sweep(src, DistortionModel.hamming(2, 1), default_s_grid())
        ds = [p.distortion for p in curve.points]   # points run s=0 downward
        assert all(a >= b - 1e-12 for a, b in zip(ds, ds[1:]))


class TestClassicalBA:
    def test_closed_form_binary_hamming(self):
        src = SourceModel.iid(UNIFORM2, 0)
        dist = DistortionModel.hamming(2, 0)
        p = classical_ba(src, dist, -math.log(3.0))
        assert p.distortion == pytest.approx(0.25, abs=1e-9)
        assert p.rate == pytest.approx(1 - h2(0.25), abs=1e-9)

    def test_s_zero_rate_zero(self):
        src = SourceModel.iid(UNIFORM2, 1)
        p = classical_ba(src, DistortionModel.hamming(2, 1), 0.0)
        assert p.rate == pytest.approx(0.0, abs=1e-12)

    def test_tensorization(self):
        src0 = SourceModel.iid(FinitePmf([0.3, 0.7]), 0)
        src2 = SourceModel.iid(FinitePmf([0.3, 0.7]), 2)
        a = classical_ba(src0, DistortionModel.hamming(2, 0), -2.0)
        b = classical_ba(src2, DistortionModel.hamming(2, 2), -2.0)
        assert b.distortion == pytest.approx(a.distortion, abs=1e-8)
        assert b.rate == pytest.approx(a.rate, abs=1e-8)


class TestCostShift:
    """Adding a constant to a cost row leaves the optimal kernel unchanged.

    At s = -40 the unshifted exponent exp(s * 20) underflows to 0, which
    used to give D = nan and R = 0 from both solvers.
    """

    SHIFTED = [[20.0, 25.0], [25.0, 20.0]]
    BASE = [[0.0, 5.0], [5.0, 0.0]]

    @pytest.mark.parametrize("solve", [solve_fixed_s, classical_ba])
    def test_shifted_costs_give_the_same_kernel(self, solve):
        src = SourceModel.iid(UNIFORM2, 0)
        hi = solve(src, DistortionModel.single_letter(self.SHIFTED, 0), -40.0)
        lo = solve(src, DistortionModel.single_letter(self.BASE, 0), -40.0)
        assert hi.converged and lo.converged
        assert hi.rate == lo.rate
        assert hi.distortion == pytest.approx(lo.distortion + 20.0, abs=1e-12)
        assert hi.rate_formula == pytest.approx(lo.rate_formula, abs=1e-9)
        assert hi.rate == pytest.approx(hi.rate_formula, abs=1e-9)


class TestGateaux:
    def test_zero_direction(self):
        rng = np.random.default_rng(2)
        src = SourceModel.iid(UNIFORM2, 1)
        q0 = random_chain(rng, 2, 2, 1, floor=1e-3)
        assert gateaux_derivative(src, q0, q0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_difference(self):
        from crdf.probability import GeneralKernel, joint_from_general
        from crdf import mutual_information
        rng = np.random.default_rng(4)
        src = SourceModel.iid(FinitePmf([0.45, 0.55]), 1)
        q0 = random_chain(rng, 2, 2, 1, floor=0.05)
        q1 = random_chain(rng, 2, 2, 1)
        g = gateaux_derivative(src, q0, q1)
        eps = 1e-5
        t0, t1 = q0.to_general().table, q1.to_general().table

        def mi(lmb):
            t = (1 - lmb) * t0 + lmb * t1
            k = GeneralKernel(nx=2, ny=2, horizon=1, table=t)
            return mutual_information(joint_from_general(src, k))

        fd = (mi(eps) - mi(-eps)) / (2 * eps)
        assert g == pytest.approx(fd, abs=1e-6)

    def test_first_order_optimality_at_iid_fixed_point(self):
        # at the optimum the Lagrangian cannot decrease toward any feasible
        # direction; for iid sources the fixed point is the optimum
        rng = np.random.default_rng(8)
        src = SourceModel.iid(FinitePmf([0.4, 0.6]), 1)
        dist = DistortionModel.hamming(2, 1)
        s = -1.7
        p = solve_fixed_s(src, dist, s)
        n1 = src.horizon + 1
        for _ in range(20):
            q1 = random_chain(rng, 2, 2, 1)
            dd = (average_distortion(make_joint(src, q1), dist)
                  - p.distortion)
            lhs = gateaux_derivative(src, p.chain, q1) / n1
            assert lhs >= s * LOG2E * dd - 1e-8


class TestPropertiesReport:
    def test_iid_curve_passes_all_checks(self):
        src = SourceModel.iid(UNIFORM2, 2)
        dist = DistortionModel.hamming(2, 2)
        curve = sweep(src, dist, default_s_grid())
        rep = properties_report(curve, src, dist)
        assert rep.passed

    def test_too_few_points_rejected(self):
        src = SourceModel.iid(UNIFORM2, 0)
        dist = DistortionModel.hamming(2, 0)
        curve = sweep(src, dist, [0.0])
        with pytest.raises(ValueError):
            properties_report(curve, src, dist)

    def test_zero_cost_distortion_gives_flat_zero_curve(self):
        src = SourceModel.iid(UNIFORM2, 1)
        dist = DistortionModel.single_letter(np.zeros((2, 2)), 1)
        curve = sweep(src, dist, [-2.0, -1.0, -0.5, 0.0])
        for p in curve.points:
            assert p.rate == pytest.approx(0.0, abs=1e-12)
        rep = properties_report(curve, src, dist)
        assert rep.monotone_ok and rep.zero_rate_at_dmax_ok


class TestBisection:
    def test_warm_steps_reach_the_cold_solution(self):
        src, dist = ternary_markov()
        target = solve_fixed_s(src, dist, -0.76).distortion
        p = bisect_s_for_distortion(src, dist, target)
        cold = solve_fixed_s(src, dist, p.s)
        assert p.distortion == pytest.approx(target, abs=1e-6)
        assert abs(p.rate - cold.rate) <= 1e-7
        assert abs(p.distortion - cold.distortion) <= 1e-7

    def test_hits_target_distortion(self):
        src = SourceModel.iid(UNIFORM2, 1)
        dist = DistortionModel.hamming(2, 1)
        p = bisect_s_for_distortion(src, dist, 0.15)
        assert p.distortion == pytest.approx(0.15, abs=1e-6)
        assert p.rate == pytest.approx(binary_hamming_rdf(0.15), abs=1e-5)
