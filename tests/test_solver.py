import math
import warnings

import numpy as np
import pytest

from crdf import (
    CausalKernelChain,
    DistortionModel,
    FinitePmf,
    SourceModel,
    average_distortion,
    bisect_s_for_distortion,
    brute_force_lagrangian,
    classical_ba,
    d_max_min_sequence,
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
from crdf.information import LOG2E, directed_information_of_joint
from crdf.probability import (
    UNREACHABLE_MASS,
    JointMeasure,
    _chain_rule_conditionals,
)
from crdf.sampling import (
    random_chain,
    random_iid_source,
    random_markov_source,
    random_pmf,
)
from crdf.solver import (
    COMPLEX_STEP,
    PAIRWISE_MIN,
    SLICE_MIN,
    _Workspace,
    _ba_jacobian,
    _complex_step_jacobian,
    _natural_step,
    _newton_step,
    _normalized,
    _reduce_last,
)

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


def mkv2_ham_n2():
    T = np.array([[0.8, 0.2], [0.2, 0.8]])
    return (SourceModel.markov(FinitePmf([0.5, 0.5]), T, 2),
            DistortionModel.hamming(2, 2))


def random_table_markov():
    rng = np.random.default_rng(5)
    return (random_markov_source(rng, 2, 1),
            DistortionModel.from_tables([rng.random((2, 3)),
                                         rng.random((4, 9))], 1))


def causal_evaluation(ws):
    """The causal solver's map nu -> (kernel, P_Y), as ``_alternate`` takes
    it."""
    def evaluate(nu):
        q, _ = ws.tilt(_chain_rule_conditionals(nu, ws.ny, ws.n))
        return q, ws.output_law(q)
    return evaluate


def binary_table_iid():
    costs = [[0.0, 0.4388784397520523], [0.8585979199113825, 0.0]]
    return (SourceModel.iid(FinitePmf([0.3, 0.7]), 2),
            DistortionModel.single_letter(costs, 2))


def zero_rate_test(source, dist):
    """Blahut's test for the D_max point mass on the trajectory alphabet.

    Returns a function of s < 0 that gives the index of y* = argmin_y mu @ C
    when c_s(y) = sum_x mu(x) exp(s (C(x, y) - C(x, y*))) <= c_s(y*) for
    all y, and None otherwise (and at s = 0), with C the total cost matrix;
    source sequences of zero mass add nothing.
    """
    C = dist.total_cost_matrix()
    mu = source.joint_pmf()
    best = int(np.argmin(mu @ C))
    reach = mu > 0

    def certified(s):
        if s >= 0:
            return None
        with np.errstate(over="ignore"):
            c = mu[reach] @ np.exp(s * (C[reach] - C[reach][:, [best]]))
        return best if c.max() <= c[best] else None
    return certified


def zero_rate_threshold(certified, lo=-20.0):
    """Most negative s < 0 at which the test holds, by bisection."""
    hi = -1e-9
    assert certified(hi) is not None and certified(lo) is None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if certified(mid) is not None:
            hi = mid
        else:
            lo = mid
    return hi


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

    @pytest.mark.parametrize("solve", [solve_fixed_s, classical_ba])
    @pytest.mark.parametrize("s", [math.nan, -math.inf])
    def test_non_finite_s_rejected(self, solve, s):
        # NaN passed the "s > 0" test and ended in an empty-array reduction
        src = SourceModel.iid(UNIFORM2, 1)
        with pytest.raises(ValueError, match="finite"):
            solve(src, DistortionModel.hamming(2, 1), s)

    def test_nan_tol_rejected(self):
        # NaN passed "tol <= 0" and ran to max_iters with converged False
        with pytest.raises(ValueError, match="tol"):
            SolverOptions(tol=math.nan)

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


def _source(kind, rng, nx, n):
    if kind == "iid":
        return SourceModel.iid(random_pmf(rng, nx), n)
    if kind == "markov":
        return random_markov_source(rng, nx, n)
    w = rng.dirichlet(np.ones(nx ** (n + 1)))
    if kind == "explicit-dead-prefixes" and n > 0:
        # no mass on x_0 = 0 nor on x^1 = (1, 1): mu_next divides by zero
        # there and takes its safe branch
        w[:nx ** n] = 0.0
        w[(nx + 1) * nx ** (n - 1):(nx + 2) * nx ** (n - 1)] = 0.0
        w /= w.sum()
    return SourceModel.explicit(w, nx, n)


def _compact_chain(rng, nx, ny, n):
    """A random chain whose stage i depends on x^i only through x_i."""
    return CausalKernelChain.from_stages(
        [rng.dirichlet(np.ones(ny), size=(ny**i, nx)) for i in range(n + 1)],
        nx, ny)


def _chain_for(ws, rng):
    """A random chain in the workspace's stage layout."""
    make = _compact_chain if ws.markov else random_chain
    return make(rng, ws.nx, ws.ny, ws.n)


class TestOutputLawForwardPass:
    """The solver's forward pass gives the output marginal of make_joint;
    iid and Markov sources take x_i-only chains, explicit ones full-history
    chains."""

    @pytest.mark.parametrize("n", [0, 1, 3, 4])
    @pytest.mark.parametrize("nx, ny", [(3, 2), (2, 3), (2, 2)])
    @pytest.mark.parametrize(
        "kind", ["iid", "markov", "explicit", "explicit-dead-prefixes"])
    def test_matches_make_joint_marginal(self, kind, nx, ny, n):
        rng = np.random.default_rng(1000 * n + 10 * nx + ny)
        src = _source(kind, rng, nx, n)
        ws = _Workspace(src, DistortionModel.hamming(nx, n, ny=ny), -1.0)
        assert ws.markov == (kind in ("iid", "markov"))
        chain = _chain_for(ws, rng)
        nu = ws.output_law(chain.stages)
        expected = make_joint(src, chain).y_marginal()
        assert nu.shape == expected.shape
        assert np.max(np.abs(nu - expected)) <= 1e-15


def _table_twin(dist):
    """The same costs as per-stage tables, which select the full layout."""
    return DistortionModel.from_tables(
        [dist.stage_cost(i) for i in range(dist.horizon + 1)], dist.horizon)


class TestForwardPassMeasures:
    """The forward pass's output law, distortion sum and directed
    information equal those of make_joint, in either stage layout."""

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    @pytest.mark.parametrize("nx, ny", [(3, 2), (2, 3), (2, 2)])
    @pytest.mark.parametrize("kind, tables", [
        ("iid", False), ("markov", False), ("markov", True),
        ("explicit", False), ("explicit-dead-prefixes", False)])
    def test_match_the_joint(self, kind, tables, nx, ny, n):
        rng = np.random.default_rng(7000 + 100 * n + 10 * nx + ny)
        src = _source(kind, rng, nx, n)
        costs = rng.uniform(0.0, 2.0, size=(nx, ny))
        dist = DistortionModel.single_letter(costs, n)
        if tables:
            dist = _table_twin(dist)
        ws = _Workspace(src, dist, -1.0)
        assert ws.markov == (kind in ("iid", "markov") and not tables)
        chain = _chain_for(ws, rng)
        nu, d_sum, info = ws.measures(chain.stages)
        joint = make_joint(src, chain)
        assert np.max(np.abs(nu - joint.y_marginal())) <= 1e-15
        assert abs(d_sum / (n + 1) - average_distortion(joint, dist)) <= 1e-12
        assert abs(info - directed_information_of_joint(joint)) <= 1e-12


class TestMarkovStateLayout:
    """An iid or Markov source with single-letter costs is solved on x_i-only
    stages; its full-history twin (the explicit joint pmf and the per-stage
    cost tables) gives the same solution."""

    @pytest.mark.parametrize("kind", ["iid", "markov"])
    @pytest.mark.parametrize("nx, ny, n", [
        (2, 2, 0), (2, 2, 3), (2, 2, 6), (3, 2, 2), (2, 3, 2), (3, 3, 2)])
    @pytest.mark.parametrize("s", [-1.5, -4.0, -10.0])
    def test_matches_full_history_twin(self, kind, nx, ny, n, s):
        rng = np.random.default_rng(9000 + 100 * n + 10 * nx + ny)
        src = _source(kind, rng, nx, n)
        # Hamming plus noise: most of these points lie off the zero-rate
        # interval, where the solve stops after two iterations
        dist = DistortionModel.single_letter(
            1.0 - np.eye(nx, ny) + rng.uniform(0.0, 0.5, size=(nx, ny)), n)
        twin_src = SourceModel.explicit(src.joint_pmf(), nx, n)
        a = solve_fixed_s(src, dist, s)
        b = solve_fixed_s(twin_src, _table_twin(dist), s)
        assert all(q.shape == (ny**i, nx, ny)
                   for i, q in enumerate(a.chain.stages))
        assert all(q.shape == (ny**i, nx ** (i + 1), ny)
                   for i, q in enumerate(b.chain.stages))
        assert a.iterations == b.iterations
        assert a.converged == b.converged
        for field in ("distortion", "rate", "rate_formula"):
            assert abs(getattr(a, field) - getattr(b, field)) <= 1e-12
        reach = src.joint_pmf() > 0
        Ka, Kb = a.chain.conditional_matrix(), b.chain.conditional_matrix()
        assert np.max(np.abs(Ka[reach] - Kb[reach])) <= 1e-12

    def test_solve_forms_no_joint(self, monkeypatch):
        # n = 8 on a binary Markov source: the joint would have 4^9 cells
        def refuse(*args, **kwargs):
            raise AssertionError("a joint measure was formed")
        monkeypatch.setattr(JointMeasure, "__post_init__", refuse)
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(UNIFORM2, T, 8)
        p = solve_fixed_s(src, DistortionModel.hamming(2, 8), -2.0)
        assert p.converged
        assert p.chain.stages[8].shape == (256, 2, 2)
        assert abs(p.rate - p.rate_formula) <= 1e-7


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
            classic = bisect_s_for_distortion(src, dist, causal.distortion,
                                              solve=classical_ba)
            assert causal.rate >= classic.rate - 1e-9

    def test_warm_and_cold_modes_agree(self):
        # a cold start is an independent solve at the same multiplier
        src = SourceModel.iid(FinitePmf([0.35, 0.65]), 2)
        dist = DistortionModel.hamming(2, 2)
        grid = sorted(-np.geomspace(0.2, 5.0, 8)) + [0.0]
        for a in sweep(src, dist, grid).points:
            b = solve_fixed_s(src, dist, a.s)
            assert abs(a.rate - b.rate) <= 1e-7
            assert abs(a.distortion - b.distortion) <= 1e-7

    def test_warm_and_cold_modes_agree_on_ternary_markov(self):
        # near the zero-rate end the output law collapses to a point mass;
        # a warm start that kept its vanishing masses stayed locked on it
        # for s in [-0.95, -0.57]
        src, dist = ternary_markov()
        grid = [0.0, -0.05, -0.2, -0.4] + list(np.linspace(-0.57, -0.95, 5))
        for a in sweep(src, dist, grid).points:
            b = solve_fixed_s(src, dist, a.s)
            assert a.converged and b.converged
            assert abs(a.rate - b.rate) <= 1e-7
            assert abs(a.distortion - b.distortion) <= 1e-7

    @pytest.mark.parametrize("solve", [solve_fixed_s, classical_ba])
    @pytest.mark.parametrize("s", [-0.5, -1.0, -3.0])
    def test_warm_start_from_a_point_mass_reaches_the_cold_solution(self, s,
                                                                    solve):
        # the D_max point mass holds every other mass at 0, and a
        # multiplicative update never revives a zero: WARM_MIX's share of
        # the uniform law is what lets the solve leave it
        src, dist = ternary_markov()
        assert _Workspace(src, dist, s).zero_rate() is None
        _, y_star = d_max_min_sequence(src, dist)
        warm = FinitePmf.point_mass(y_star[0] * 3 + y_star[1], 9).weights
        a = solve(src, dist, s, warm_start=warm)
        b = solve(src, dist, s)
        assert a.converged and b.converged
        assert abs(a.rate - b.rate) <= 1e-7
        assert abs(a.distortion - b.distortion) <= 1e-7
        # the start law has one form, the joint on Y^n
        with pytest.raises(ValueError):
            solve(src, dist, s, warm_start=b.output.conditionals)

    def test_long_horizon_builds_no_trajectory_matrix(self, monkeypatch):
        # n = 12: the (Nx, Ny) cost matrix would take 512 MB
        def refuse(self):
            raise AssertionError("the total cost matrix was built")
        monkeypatch.setattr(DistortionModel, "total_cost_matrix", refuse)
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(UNIFORM2, T, 12)
        curve = sweep(src, DistortionModel.hamming(2, 12),
                      [0.0, -1.5, -2.0, -4.0])
        assert curve.d_max_reported == pytest.approx(0.5, abs=1e-12)
        for p in curve.points:
            assert p.converged
            assert 0.0 <= p.distortion <= curve.d_max_reported

    def test_distortion_shrinks_as_s_grows_negative(self):
        src = SourceModel.iid(UNIFORM2, 1)
        curve = sweep(src, DistortionModel.hamming(2, 1), default_s_grid())
        ds = [p.distortion for p in curve.points]   # points run s=0 downward
        assert all(a >= b - 1e-12 for a, b in zip(ds, ds[1:]))


class TestZeroRateInterval:
    """For s* <= s < 0 the D_max point mass is optimal (Blahut's KKT test);
    the solvers start there and stop after one repeat of the kernel."""

    @pytest.mark.parametrize("make, expected", [
        (ternary_markov, -0.16705), (binary_table_iid, -2.5587)])
    def test_edges_of_the_interval(self, make, expected):
        src, dist = make()
        s_star = zero_rate_threshold(zero_rate_test(src, dist))
        assert s_star == pytest.approx(expected, abs=5e-5)
        d_max, _ = d_max_min_sequence(src, dist)
        curve = sweep(src, dist, default_s_grid())
        inside = [p for p in curve.points if s_star <= p.s < 0]
        assert len(inside) >= 20
        for p in inside:
            assert p.converged and p.iterations <= 2
            assert abs(p.rate) <= 1e-15
            assert p.distortion == pytest.approx(d_max, abs=1e-15)
        outside = next(p for p in curve.points if p.s < s_star)
        assert outside.iterations > 2
        assert outside.rate > 0

    @pytest.mark.parametrize("kind", [
        "iid", "markov", "explicit", "explicit-dead-prefixes"])
    @pytest.mark.parametrize("seed", range(6))
    def test_workspace_matches_the_trajectory_test(self, kind, seed):
        rng = np.random.default_rng(7000 + seed)
        nx, ny, n = (int(v) for v in rng.integers([2, 2, 0], [4, 4, 4]))
        src = _source(kind, rng, nx, n)
        # Hamming plus noise keeps a zero-rate interval on the grid
        dist = DistortionModel.single_letter(
            1.0 - np.eye(nx, ny) + rng.uniform(0.0, 0.5, size=(nx, ny)), n)
        if seed % 2:
            dist = _table_twin(dist)
        reference = zero_rate_test(src, dist)
        for s in default_s_grid():
            assert _Workspace(src, dist, s).zero_rate() == reference(s)

    @pytest.mark.parametrize("s", [-8.0, -20.0])
    def test_zero_mass_letter_adds_nothing(self, s):
        # exp(-s * 100) overflows on the letter x = 1, which has no mass
        src = SourceModel.iid(FinitePmf([1.0, 0.0]), 2)
        dist = DistortionModel.single_letter(100.0 * (1.0 - np.eye(2)), 2)
        assert _Workspace(src, dist, s).zero_rate() == 0   # y* = (0, 0, 0)

    def test_zero_rate_test_builds_no_tilt_tables(self):
        src, dist = binary_table_iid()
        ws = _Workspace(src, dist, -1.0)
        assert ws.zero_rate() is not None
        assert "tilt_tables" not in vars(ws)

    def test_classical_ba_agrees_inside(self):
        src, dist = binary_table_iid()
        for s in (-0.01, -0.5, -2.5):
            causal = solve_fixed_s(src, dist, s)
            classic = classical_ba(src, dist, s)
            assert causal.iterations == classic.iterations == 2
            assert abs(causal.lagrangian() - classic.lagrangian()) <= 1e-12

    def test_no_chain_beats_a_certified_point(self):
        src, dist = ternary_markov()
        p = solve_fixed_s(src, dist, -0.1)
        assert p.iterations == 2
        r = brute_force_lagrangian(src, dist, p.s, method="grid")
        assert r.best_value >= p.lagrangian() - 1e-9


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


class TestUnderflowedRows:
    """With pmf [1, 0], costs 100 (1 - I), n = 2 and s = -20, the product
    of an output mass and exp(s * rho) underflows to 0 on every y in the
    rows of x = 1, which the source never emits.  Those rows are normalized
    in log space; they used to divide 0 by 0."""

    @pytest.mark.parametrize("solve", [solve_fixed_s, classical_ba])
    def test_both_solvers_return_finite_values(self, solve):
        src = SourceModel.iid(FinitePmf([1.0, 0.0]), 2)
        dist = DistortionModel.single_letter(100.0 * (1.0 - np.eye(2)), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = solve(src, dist, -20.0)
        assert p.converged
        assert all(math.isfinite(v) for v in (
            p.rate, p.distortion, p.rate_formula, p.residual, p.gap))
        assert abs(p.rate) <= 1e-12 and abs(p.distortion) <= 1e-12

    def test_log_sum_exp_only_on_rows_that_sum_to_zero(self):
        w = np.array([[0.25, 0.75], [0.0, 0.0]])
        log_w = np.array([[-9.0, -9.0], [-800.0, -801.0]])
        q, log_z = _normalized(w, lambda: log_w)
        assert np.array_equal(q[0], [0.25, 0.75]) and log_z[0] == 0.0
        e = math.exp(-1.0)
        assert q[1] == pytest.approx([1 / (1 + e), e / (1 + e)], abs=1e-15)
        assert log_z[1] == pytest.approx(-800.0 + math.log1p(e), abs=1e-12)


def _reduction_tilt(ws, nu_conds):
    """The backward recursion of ``_Workspace.tilt`` with its minima and
    row sums taken as numpy reductions over the last axis."""
    exp_cost, cost_shift = ws.tilt_tables
    stages, G, shift = [None] * (ws.n + 1), None, 0.0
    for i in range(ws.n, -1, -1):
        w = exp_cost[i] * nu_conds[i][:, None, :]
        if G is not None:
            shift = G.min(axis=2)
            w = w * np.exp(shift[:, :, None] - G)
        Z = w.sum(axis=2)
        stages[i] = w / Z[..., None]
        V = shift - np.log(Z) - cost_shift[i]
        if i > 0:
            V = V.reshape(ws.ny ** (i - 1), ws.ny, -1, ws.nx)
            G = (V * ws.mu_next[i - 1]).sum(axis=3).transpose(0, 2, 1)
    return stages, V


class TestTiltAcrossSlices:
    """On large tables the tilt takes its minima and row sums over y_i
    elementwise across the ny slices; the stage kernels are those of the
    last-axis reductions, bit for bit."""

    @pytest.mark.parametrize("kind", ["explicit", "markov"])
    @pytest.mark.parametrize("ny, n", [(2, 6), (3, 4)])
    def test_matches_the_reduction_form(self, kind, ny, n):
        rng = np.random.default_rng(700 + 10 * n + ny)
        nx = 2
        src = _source(kind, rng, nx, n)
        dist = DistortionModel.single_letter(rng.random((nx, ny)), n)
        ws = _Workspace(src, dist, -3.0)
        assert ws.markov == (kind == "markov")
        conds = _chain_rule_conditionals(
            random_pmf(rng, ny ** (n + 1)).weights, ny, n)
        stages, V = ws.tilt(conds)
        assert stages[n].size >= SLICE_MIN          # the slice path is taken
        ref_stages, ref_V = _reduction_tilt(ws, conds)
        assert all(np.array_equal(a, b) for a, b in zip(stages, ref_stages))
        assert np.array_equal(V, ref_V)
        _, cost_shift = ws.tilt_tables
        assert all(np.array_equal(c, -3.0 * rho.min(axis=2))
                   for c, rho in zip(cost_shift, ws.cost))

    @pytest.mark.parametrize("length", range(1, PAIRWISE_MIN + 2))
    @pytest.mark.parametrize("rows", [3, SLICE_MIN])
    def test_equals_numpys_reduction(self, length, rows):
        # classical_ba normalizes (Nx, Ny) rows through the same sum
        rng = np.random.default_rng(length)
        a = rng.random((rows, length)) * 10.0 ** rng.integers(
            -8, 8, size=(rows, length))
        for w in (a, a.T.copy().T, a[::2], a.reshape(1, rows, length)):
            assert np.array_equal(_reduce_last(np.add, w), w.sum(axis=-1))
            assert np.array_equal(_reduce_last(np.minimum, w),
                                  w.min(axis=-1))


class TestSafeguardedStep:
    def test_plain_step_is_the_output_law(self):
        nu, p = np.array([0.25, 0.75]), np.array([0.5, 0.5])
        cand, beta = _natural_step(nu, p, 1.0)
        assert cand is p and beta == 1.0

    def test_beta_halves_until_no_mass_underflows(self):
        # nu * (p / nu)^beta is 1e-200 * 1e-2^beta on the small mass: 0 for
        # beta >= 64, positive at 32
        nu = np.array([1.0 - 1e-200, 1e-200])
        p = np.array([1.0 - 1e-202, 1e-202])
        cand, beta = _natural_step(nu, p, 256.0)
        assert beta == 32.0
        assert np.all(cand > 0) and abs(cand.sum() - 1.0) <= 1e-15


class TestNewtonStep:
    """The Newton step of both solvers on the fixed point P_Y(nu) = nu, in
    log nu."""

    @pytest.mark.parametrize("instance, s", [(mkv2_ham_n2, -3.1348),
                                             (random_table_markov, -1.7)])
    def test_closed_form_jacobian_matches_central_differences(self, instance,
                                                              s):
        src, dist = instance()
        mu = src.joint_pmf()
        C = dist.total_cost_matrix()
        E = np.exp(s * (C - C.min(axis=1)[:, None]))

        def kernel(log_nu):
            w = E * np.exp(log_nu)[None, :]
            return w / w.sum(axis=1)[:, None]

        log_nu = np.log(random_pmf(np.random.default_rng(0), C.shape[1],
                                   floor=0.01).weights)
        q = kernel(log_nu)
        J = _ba_jacobian(mu, q, mu @ q)
        h = 1e-6
        fd = np.empty_like(J)
        for k in range(len(log_nu)):
            e = np.zeros_like(log_nu)
            e[k] = h
            fd[:, k] = mu @ (kernel(log_nu + e) - kernel(log_nu - e)) / (2 * h)
        assert np.max(np.abs(J - fd)) <= 1e-6 * np.max(np.abs(J))

    def test_certifies_the_slow_classical_point(self):
        # two output masses nearly leave the support here; the plain
        # iteration needs 1,771 steps
        src, dist = mkv2_ham_n2()
        p = classical_ba(src, dist, -3.1348)
        assert p.converged and p.iterations <= 100
        assert p.gap <= 1e-12
        assert abs(p.rate - p.rate_formula) <= 1e-9

    @pytest.mark.parametrize("nx, ny", [(2, 2), (3, 3), (2, 3)])
    def test_complex_step_jacobian_is_classical_at_horizon_zero(self, nx,
                                                                ny):
        # at n = 0 the causal problem is the classical one
        rng = np.random.default_rng(10 * nx + ny)
        src = random_iid_source(rng, nx, 0)
        dist = DistortionModel.single_letter(rng.random((nx, ny)), 0)
        ws = _Workspace(src, dist, -1.3)
        nu = random_pmf(rng, ny, floor=0.01).weights
        (q,), _ = ws.tilt(_chain_rule_conditionals(nu, ny, 0))
        J = _ba_jacobian(src.joint_pmf(), q[0], ws.output_law([q]))
        causal = _complex_step_jacobian(causal_evaluation(ws), nu)
        assert np.max(np.abs(causal - J)) <= 1e-15 * np.max(np.abs(J))

    @pytest.mark.parametrize("instance, s", [(mkv2_ham_n2, -3.1348),
                                             (random_table_markov, -1.7)])
    def test_complex_step_jacobian_matches_central_differences(self,
                                                               instance, s):
        src, dist = instance()
        ws = _Workspace(src, dist, s)
        assert ws.markov == (instance is mkv2_ham_n2)   # both layouts
        evaluate = causal_evaluation(ws)
        nu = random_pmf(np.random.default_rng(0), ws.ny ** (ws.n + 1),
                        floor=0.01).weights
        J = _complex_step_jacobian(evaluate, nu)
        h = 1e-6
        fd = np.empty_like(J)
        for k in range(len(nu)):
            e = np.zeros_like(nu)
            e[k] = h
            fd[:, k] = (evaluate(np.exp(np.log(nu) + e))[1]
                        - evaluate(np.exp(np.log(nu) - e))[1]) / (2 * h)
        assert np.max(np.abs(J - fd)) <= 1e-6 * np.max(np.abs(J))

    def test_jacobian_is_finite_where_a_prefix_is_unreachable(self):
        # nu[:2] is the prefix y^1 = (0, 0), whose stage-2 row is uniform
        src, dist = mkv2_ham_n2()
        ws = _Workspace(src, dist, -1.0)
        nu = random_pmf(np.random.default_rng(1), 8, floor=0.01).weights.copy()
        nu[:2] = 1e-17
        nu /= nu.sum()
        assert nu[:2].sum() <= UNREACHABLE_MASS
        J = _complex_step_jacobian(causal_evaluation(ws), nu)
        assert np.all(np.isfinite(J))
        # P_Y sums to 1 and does not change when nu is scaled
        assert np.max(np.abs(J.sum(axis=0))) <= 1e-15
        assert np.max(np.abs(J.sum(axis=1))) <= 1e-15

    @pytest.mark.parametrize("case", ["markov", "table", "underflow"])
    def test_complex_input_keeps_the_real_values(self, case):
        # the complex step runs the real stage code: imaginary parts stay 0
        # and real parts within a few ulp (numpy's complex division
        # multiplies by the reciprocal, and its complex exp and log are not
        # its real ones)
        if case == "underflow":
            # TestUnderflowedRows's instance at the point mass on y = 000:
            # the rows of x = 1 underflow and take the log-sum-exp branch
            src = SourceModel.iid(FinitePmf([1.0, 0.0]), 2)
            dist = DistortionModel.single_letter(100.0 * (1.0 - np.eye(2)), 2)
            ws = _Workspace(src, dist, -20.0)
            nu = np.eye(8)[0]
        else:
            src, dist = (mkv2_ham_n2 if case == "markov"
                         else random_table_markov)()
            ws = _Workspace(src, dist, -1.7)
            nu = random_pmf(np.random.default_rng(2),
                            ws.ny ** (ws.n + 1)).weights
        real = _chain_rule_conditionals(nu, ws.ny, ws.n)
        cplx = _chain_rule_conditionals(nu + 0j, ws.ny, ws.n)
        exp_cost, _ = ws.tilt_tables
        w = exp_cost[ws.n] * real[ws.n][:, None, :]
        assert w.sum(axis=-1).all() == (case != "underflow")
        (q, V), (qc, Vc) = ws.tilt(real), ws.tilt(cplx)
        pairs = list(zip(real, cplx)) + list(zip(q, qc)) + [
            (V, Vc), (ws.output_law(q), ws.output_law(qc))]
        for a, b in pairs:
            assert a.dtype == float and b.dtype == complex
            assert not b.imag.any()
            np.testing.assert_array_max_ulp(a, b.real, maxulp=8)

    def test_certifies_the_slow_causal_point(self):
        # two output masses must settle at 6.6e-4 while two others decay to
        # 0 at r = 0.984 per plain step; the plain iteration needs 4,139
        # steps
        p = solve_fixed_s(*ternary_markov(), -0.4433918332243225)
        assert p.converged and p.iterations <= 300
        assert p.gap <= SolverOptions().tol
        assert abs(p.rate - p.rate_formula) <= 1e-9

    def test_no_jacobian_above_the_size_bound(self, monkeypatch):
        # the slow point has 9 output masses; with the bound at 8 it takes
        # plain steps only
        from crdf import solver

        def refuse(evaluate, nu):
            raise AssertionError("Jacobian built above JACOBIAN_MAX")
        monkeypatch.setattr(solver, "JACOBIAN_MAX", 8)
        monkeypatch.setattr(solver, "_complex_step_jacobian", refuse)
        p = solve_fixed_s(*ternary_markov(), -0.4433918332243225,
                          SolverOptions(max_iters=300))
        assert not p.converged and p.iterations == 300

    def test_scale_halves_until_no_mass_underflows(self):
        # the small mass is 1e-200 * exp(-500 * scale): 0 at scale 1,
        # positive at 1/2, and 0 down to the smallest scale at -20000
        nu = np.array([0.5, 0.5 - 1e-200, 1e-200])
        on = np.ones(3, dtype=bool)
        cand, scale = _newton_step(nu, nu, (np.array([0.0, 0.0, -500.0]),
                                            on), 1.0)
        assert scale == 0.5
        assert np.all(cand > 0) and abs(cand.sum() - 1.0) <= 1e-15
        cand, _ = _newton_step(nu, nu, (np.array([0.0, 0.0, -2e4]), on), 1.0)
        assert cand is None


def _jacobian_case(case):
    """(workspace, law) of the batched-Jacobian tests."""
    rng = np.random.default_rng(4)
    if case == "underflow":
        # test_complex_input_keeps_the_real_values's instance: the rows of
        # x = 1 underflow and take the log-sum-exp branch
        src = SourceModel.iid(FinitePmf([1.0, 0.0]), 2)
        dist = DistortionModel.single_letter(100.0 * (1.0 - np.eye(2)), 2)
        return _Workspace(src, dist, -20.0), np.eye(8)[0]
    if case == "unreachable":
        # test_jacobian_is_finite_where_a_prefix_is_unreachable's law
        ws = _Workspace(*mkv2_ham_n2(), -1.0)
        nu = random_pmf(np.random.default_rng(1), 8,
                        floor=0.01).weights.copy()
        nu[:2] = 1e-17
        return ws, nu / nu.sum()
    if case == "letters4-n2":
        # complex rows of 4 entries, which numpy sums out of order, on
        # tables on either side of SLICE_MIN
        src = random_markov_source(rng, 4, 2)
        dist = DistortionModel.single_letter(rng.random((4, 4)), 2)
    elif case == "table-n5":
        # a batch of 64 full-history laws whose tables pass the size at
        # which numpy reuses a temporary for the product's result
        src = random_markov_source(rng, 2, 5)
        dist = _table_twin(DistortionModel.single_letter(rng.random((2, 2)),
                                                         5))
    else:
        src, dist = {"mkv2_ham_n2": mkv2_ham_n2, "ternary_markov":
                     ternary_markov, "random_table_markov":
                     random_table_markov}[case]()
    ws = _Workspace(src, dist, -1.7)
    return ws, random_pmf(rng, ws.ny ** (ws.n + 1)).weights


class TestBatchedJacobian:
    """The complex-step Jacobian is one evaluation of the (N, N) batch of
    perturbed laws, and every law of a batch gets the bits it gets alone."""

    @pytest.mark.parametrize("case", [
        "mkv2_ham_n2", "ternary_markov", "random_table_markov",
        "unreachable", "underflow", "letters4-n2", "table-n5"])
    def test_equals_the_column_loop(self, case):
        ws, nu = _jacobian_case(case)
        evaluate = causal_evaluation(ws)
        shapes = []

        def counted(z):
            shapes.append(z.shape)
            return evaluate(z)
        J = _complex_step_jacobian(counted, nu)
        assert shapes == [(len(nu), len(nu))]
        loop = np.empty((len(nu), len(nu)))
        for k in range(len(nu)):
            z = nu.astype(complex)
            z[k] += 1j * COMPLEX_STEP * nu[k]
            loop[:, k] = evaluate(z)[1].imag / COMPLEX_STEP
        assert np.all(np.isfinite(J)) and np.array_equal(J, loop)

    @pytest.mark.parametrize("case", [
        "mkv2_ham_n2", "ternary_markov", "random_table_markov",
        "letters4-n2", "table-n5"])
    def test_a_batch_of_one_law_is_the_law(self, case):
        ws, nu = _jacobian_case(case)
        conds = _chain_rule_conditionals(nu, ws.ny, ws.n)
        batch = _chain_rule_conditionals(nu[None, :], ws.ny, ws.n)
        assert all(np.array_equal(a, b[0]) for a, b in zip(conds, batch))
        (q, V), (qb, Vb) = ws.tilt(conds), ws.tilt(batch)
        assert all(np.array_equal(a, b[0]) for a, b in zip(q, qb))
        assert np.array_equal(V, Vb[0])
        laws, laws_b = ws.prefix_laws(q), ws.prefix_laws(qb)
        # the first law is the source's, with no batch axis
        assert np.array_equal(laws[0], laws_b[0])
        assert all(np.array_equal(a, b[0]) for a, b in zip(laws[1:],
                                                             laws_b[1:]))
        assert np.array_equal(ws.output_law(q), ws.output_law(qb)[0])


class TestJacobianPins:
    """Cold causal solves on both stage layouts; (iterations, gap, rate,
    rate_formula) and the count of Jacobians built were recorded before the
    Jacobian became one batched evaluation, and must not move by one bit.
    The first two stop before a Newton episode starts; mkv2_ham_n2 at
    s = -0.5 and its full-history twin build four Jacobians each."""

    PINS = [
        (mkv2_ham_n2, False, -3.1348, 0, "(32, 1.313274593706975e-10, "
         "0.6544191933705991, 0.6544191933705992)"),
        (random_table_markov, False, -1.7, 0, "(42, 2.0728203652534274e-10, "
         "0.06673109905679175, 0.0667310990567917)"),
        (mkv2_ham_n2, False, -0.5, 4, "(31, 3.2034265038149167e-16, "
         "0.057175560975293575, 0.057175560975293555)"),
        (mkv2_ham_n2, True, -0.5, 4, "(31, 3.2034265038149167e-16, "
         "0.05717556097529363, 0.05717556097529358)"),
    ]

    @pytest.mark.parametrize("instance, twin, s, jacobians, fields", PINS,
                             ids=["mkv2_ham_n2", "random_table_markov",
                                  "mkv2_ham_n2-newton", "twin-newton"])
    def test_cold_solves_are_unchanged(self, monkeypatch, instance, twin, s,
                                       jacobians, fields):
        from crdf import solver
        src, dist = instance()
        if twin:
            src = SourceModel.explicit(src.joint_pmf(), src.alphabet,
                                       src.horizon)
            dist = _table_twin(dist)
        built = []

        def counted(evaluate, nu):
            built.append(len(nu))
            return _complex_step_jacobian(evaluate, nu)
        monkeypatch.setattr(solver, "_complex_step_jacobian", counted)
        p = solve_fixed_s(src, dist, s)
        assert _Workspace(src, dist, s).markov == (
            instance is mkv2_ham_n2 and not twin)
        assert p.converged and len(built) == jacobians
        assert repr((p.iterations, p.gap, p.rate, p.rate_formula)) == fields


class TestGateaux:
    def test_zero_direction(self):
        rng = np.random.default_rng(2)
        src = SourceModel.iid(UNIFORM2, 1)
        q0 = random_chain(rng, 2, 2, 1, floor=1e-3)
        assert gateaux_derivative(src, q0, q0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_difference(self):
        from crdf.probability import GeneralKernel, make_joint
        from crdf import mutual_information
        rng = np.random.default_rng(4)
        src = SourceModel.iid(FinitePmf([0.45, 0.55]), 1)
        q0 = random_chain(rng, 2, 2, 1, floor=0.05)
        q1 = random_chain(rng, 2, 2, 1)
        g = gateaux_derivative(src, q0, q1)
        eps = 1e-5
        t0, t1 = q0.conditional_matrix(), q1.conditional_matrix()

        def mi(lmb):
            t = (1 - lmb) * t0 + lmb * t1
            k = GeneralKernel(nx=2, ny=2, horizon=1, table=t)
            return mutual_information(make_joint(src, k))

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
        rep = properties_report(curve)
        assert rep.passed

    def test_too_few_points_rejected(self):
        src = SourceModel.iid(UNIFORM2, 0)
        dist = DistortionModel.hamming(2, 0)
        curve = sweep(src, dist, [0.0])
        with pytest.raises(ValueError):
            properties_report(curve)

    def test_zero_cost_distortion_gives_flat_zero_curve(self):
        src = SourceModel.iid(UNIFORM2, 1)
        dist = DistortionModel.single_letter(np.zeros((2, 2)), 1)
        curve = sweep(src, dist, [-2.0, -1.0, -0.5, 0.0])
        for p in curve.points:
            assert p.rate == pytest.approx(0.0, abs=1e-12)
        rep = properties_report(curve)
        assert rep.monotone_ok and rep.zero_rate_at_dmax_ok


@pytest.mark.parametrize("solve", [solve_fixed_s, classical_ba])
class TestBisection:
    # (s, distortion, rate, rate_formula, iterations, converged, residual,
    # gap) of cold solves on ternary_markov() at s = 0, -0.05 (inside the
    # zero-rate interval), -0.76 and -3, recorded before the solvers shared
    # their start; a cold solve must not move by one bit
    COLD = {
        "solve_fixed_s": [
            "(0.0, 0.6666666666666667, 1.6017132519074583e-16, 0.0, 2, True, "
            "5.551115123125783e-17, 1.6017132519074586e-16)",
            "(-0.05, 0.605, 0.0, 0.0, 2, True, 0.0, 0.0)",
            "(-0.76, 0.4582991836914747, 0.10454092202792661, "
            "0.10454092202556453, 107, True, 8.062417601031948e-10, "
            "2.7784823672692505e-10)",
            "(-3.0, 0.07455928103528492, 1.0107452059949706, "
            "1.0107452059949709, 42, True, 6.391645546166558e-11, "
            "1.3745454646849662e-10)",
        ],
        "classical_ba": [
            "(0.0, 0.6666666666666666, 2.3865527453421134e-16, 0.0, 2, True, "
            "0.0, 0.0)",
            "(-0.05, 0.605, 0.0, 1.3877787807814457e-17, 2, True, 0.0, 0.0)",
            "(-0.76, 0.4208405897342834, 0.1281720137885276, "
            "0.12817201378836213, 182, True, 1.9299384312887469e-10, "
            "9.657486799653442e-10)",
            "(-3.0, 0.09055700138569861, 0.9156462429331407, "
            "0.9156462429331407, 65, True, 7.963798509535991e-10, "
            "9.560434194411843e-11)",
        ],
    }

    def test_cold_solves_are_unchanged(self, solve):
        src, dist = ternary_markov()
        grid = (0.0, -0.05, -0.76, -3.0)
        for s, fields in zip(grid, self.COLD[solve.__name__]):
            p = solve(src, dist, s)
            assert repr((p.s, p.distortion, p.rate, p.rate_formula,
                         p.iterations, p.converged, p.residual,
                         p.gap)) == fields

    def test_warm_steps_reach_the_cold_solution(self, solve):
        src, dist = ternary_markov()
        target = solve(src, dist, -0.76).distortion
        p = bisect_s_for_distortion(src, dist, target, solve=solve)
        cold = solve(src, dist, p.s)
        assert p.distortion == pytest.approx(target, abs=1e-6)
        assert abs(p.rate - cold.rate) <= 1e-7
        assert abs(p.distortion - cold.distortion) <= 1e-7

    def test_hits_target_distortion(self, solve):
        src = SourceModel.iid(UNIFORM2, 1)
        dist = DistortionModel.hamming(2, 1)
        p = bisect_s_for_distortion(src, dist, 0.15, solve=solve)
        assert p.distortion == pytest.approx(0.15, abs=1e-6)
        assert p.rate == pytest.approx(binary_hamming_rdf(0.15), abs=1e-5)
