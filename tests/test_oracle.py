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
from crdf import indexing as ix
from crdf.oracle import (
    InstanceTooLarge,
    _BatchEvaluator,
    _batched_descent,
    _block_score,
    _pairs,
    _shift_units,
    _stage_tables,
)

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

    def test_each_start_runs_its_own_schedule_on_long_blocks(self):
        # stage 0 of a ternary n = 1 instance scores 12 terms per row, where
        # numpy would sum a batch of one pairwise and a batch in order
        src = SourceModel.iid(FinitePmf(np.array([0.5, 0.3, 0.2])), 1)
        dist = DistortionModel.hamming(3, 1)
        starts = _random_stages(np.random.default_rng(5), 3, 3, 1, 3)
        vals, stages = _batched_descent(_BatchEvaluator(src, dist, -1.5),
                                        [st.copy() for st in starts])
        for k in range(3):
            v1, s1 = _batched_descent(_BatchEvaluator(src, dist, -1.5),
                                      [st[k:k + 1].copy() for st in starts])
            assert v1[0] == vals[k]
            for a, b in zip(s1, stages):
                assert np.array_equal(a[0], b[k])

    def test_evaluation_count_pinned(self):
        # the candidates the search scores on one fixed instance, which is
        # what the BENCH row oracle.evaluations counts
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(UNIFORM2, T, 2)
        r = brute_force_lagrangian(src, DistortionModel.hamming(2, 2), -1.0,
                                   method="multistart", budget=5, seed=0)
        assert r.evaluations == 58856

    def test_pattern_moves_reach_the_solver_at_small_multipliers(self):
        # compass search alone crawls along the ill-conditioned valley of
        # this instance and stops 2.3e-5 above the solver; extrapolated rows
        # must stay on the simplex
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(UNIFORM2, T, 1)
        dist = DistortionModel.hamming(2, 1)
        p = solve_fixed_s(src, dist, -0.05)
        r = brute_force_lagrangian(src, dist, -0.05, method="multistart",
                                   budget=100, seed=0)
        assert abs(r.best_value - p.lagrangian()) <= 1e-7
        for st in r.best_chain.stages:
            assert np.all(st >= 0)
            np.testing.assert_allclose(st.sum(axis=-1), 1.0, rtol=0,
                                       atol=1e-12)

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


def _random_stages(rng, nx, ny, n, batch):
    return [0.8 * rng.dirichlet(np.ones(ny), size=(batch, ny**i, nx ** (i + 1)))
            + 0.2 / ny for i in range(n + 1)]


def _random_instance(rng, max_n=2, max_ny=3):
    nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, max_ny + 1))
    n = int(rng.integers(0, max_n + 1))
    src = SourceModel.markov(FinitePmf(rng.dirichlet(np.ones(nx))),
                             rng.dirichlet(np.ones(nx), size=nx), n)
    dist = DistortionModel.single_letter(rng.random((nx, ny)), n)
    return _BatchEvaluator(src, dist, -float(rng.uniform(0.1, 4.0)))


class TestBlockScoring:
    def test_value_does_not_depend_on_the_batch(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ev = _random_instance(rng)
            batch = int(rng.integers(2, 8))
            stages = _random_stages(rng, ev.nx, ev.ny, ev.n, batch)
            vals = ev.value(ix.stage_product(stages, ev.nx, ev.ny, ev.n))
            for k in range(batch):
                one = [st[k:k + 1] for st in stages]
                K = ix.stage_product(one, ev.nx, ev.ny, ev.n)
                assert ev.value(K)[0] == vals[k]

    def test_block_tables_do_not_depend_on_the_batch(self):
        # numpy sums a lone vector pairwise and a batch's outer axis in
        # order; from 8 terms on the two round differently (ny = 4 gives
        # rows of exactly 8 at the last stage)
        rng = np.random.default_rng(14)
        for _ in range(30):
            ev = _random_instance(rng, max_ny=4)
            stages = _random_stages(rng, ev.nx, ev.ny, ev.n, 3)
            i = int(rng.integers(0, ev.n + 1))
            tables = _stage_tables(ev, stages, i)
            for k in range(3):
                alone = _stage_tables(ev, [st[k:k + 1] for st in stages], i)
                for t, t1 in zip(tables, alone):
                    assert np.array_equal(t[..., k], t1[..., 0])
                for hx in range(ev.nx ** (i + 1)):
                    ca, cm = tables[0][hx], tables[1][hx]
                    z = np.concatenate(
                        (stages[i][:, :, hx].transpose(1, 2, 0), tables[3]),
                        axis=1)
                    score = _block_score(z[..., k:k + 1], ca[..., k:k + 1],
                                         cm[..., k:k + 1])
                    assert np.array_equal(score[:, 0],
                                          _block_score(z, ca, cm)[:, k])

    def test_block_change_matches_the_full_lagrangian(self):
        # shift one row, and then every row of one hx at once: the rows of
        # different hy share no cell or column, so their changes add up
        rng = np.random.default_rng(12)
        for _ in range(40):
            ev = _random_instance(rng)
            stages = _random_stages(rng, ev.nx, ev.ny, ev.n, 3)
            i = int(rng.integers(0, ev.n + 1))
            nhy, nhx = ev.ny**i, ev.nx ** (i + 1)
            hx = int(rng.integers(0, nhx))
            p = int(rng.integers(0, len(_pairs(ev.ny))))
            a = _pairs(ev.ny)[p][0]
            coef_a, coef_m, w, py = _stage_tables(ev, stages, i)
            z = np.concatenate((stages[i][:, :, hx].transpose(1, 2, 0), py),
                               axis=1)
            delta = rng.uniform(0.0, 1.0, size=z[:, a].shape) * z[:, a]
            shift = w[hx] * _shift_units(ev.ny, ev.ny ** (ev.n - i))[p]
            z2 = z + delta[:, None] * shift
            gain = (_block_score(z2, coef_a[hx], coef_m[hx])
                    - _block_score(z, coef_a[hx], coef_m[hx])) / (ev.n + 1)
            before = ev.value(ix.stage_product(stages, ev.nx, ev.ny, ev.n))
            hy = int(rng.integers(0, nhy))
            for rows, expected in ((slice(hy, hy + 1), gain[hy]),
                                   (slice(None), gain.sum(axis=0))):
                after = [st.copy() for st in stages]
                after[i][:, rows, hx] = z2[rows, :ev.ny].transpose(2, 0, 1)
                change = ev.value(ix.stage_product(after, ev.nx, ev.ny,
                                                   ev.n)) - before
                np.testing.assert_allclose(change, expected, rtol=0,
                                           atol=1e-12)

    def test_descent_returns_the_value_of_its_stages(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            ev = _random_instance(rng, max_n=1)
            vals, stages = _batched_descent(
                ev, _random_stages(rng, ev.nx, ev.ny, ev.n, 2))
            K = ix.stage_product(stages, ev.nx, ev.ny, ev.n)
            assert np.array_equal(vals, ev.value(K))


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
