"""End-to-end acceptance checks for the causal rate-distortion library.

Each test prints a single ``[criterion N] PASS`` / ``FAIL`` line.  Three
checks guard easily broken facts:

* 5b — the rate-distortion curve of a ternary Markov source is convex
  within 1e-6.  It needs the backward cost-to-go term in the kernel update
  and warm starts with full support; a warm start that keeps vanishing
  masses stays locked on a point-mass output law for s in [-0.95, -0.57].
* 6b — on a binary Markov source no causal chain found by a 500-start
  brute-force search undercuts the solver by more than 1e-6.  A stage-wise
  tilt without the cost-to-go term misses the optimum by up to ~1.4e-2.
* 8b — the exact typicality probabilities of the distortion-matched binary
  channel meet the weak-law bound behind the AEP at every horizon tested.
  They are not monotone in n: the mean distortion sits on the
  disagreement-count lattice, so at small n the window holds only the
  central count, whose weight falls.

See test_oracle.py and test_coding.py for the frozen numbers behind these.
"""
import json
import math

import numpy as np
import pytest

from crdf import (
    CausalKernelChain,
    DistortionModel,
    FinitePmf,
    SourceModel,
    TypicalitySpec,
    bisect_s_for_distortion,
    brute_force_lagrangian,
    classical_ba,
    compare,
    d_max_min_sequence,
    gateaux_derivative,
    make_joint,
    mutual_information,
    properties_report,
    simulate,
    solve_fixed_s,
    sweep,
    typicality_probability,
    validate_causal,
)
from crdf.cli import main as cli_main
from crdf.information import directed_information_of_joint
from crdf.sampling import (
    anticausal_swap_kernel,
    random_chain,
    random_iid_source,
    random_markov_source,
)


def report(num, label, ok):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {label}")
    return ok


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _test_matrix():
    """iid/Markov binary/ternary sources with Hamming and random tables."""
    rng = np.random.default_rng(42)
    tbl = rng.uniform(0, 1, size=(2, 2))
    tbl[0, 0] = 0
    tbl[1, 1] = 0
    tbl3 = rng.uniform(0, 1, size=(3, 3))
    np.fill_diagonal(tbl3, 0)
    T2 = np.array([[0.8, 0.2], [0.2, 0.8]])
    T3 = np.array([[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]])
    return [
        ("iid2-ham-n3", SourceModel.iid(FinitePmf([0.5, 0.5]), 3),
         DistortionModel.hamming(2, 3)),
        ("iid2-tbl-n2", SourceModel.iid(FinitePmf([0.3, 0.7]), 2),
         DistortionModel.single_letter(tbl, 2)),
        ("mkv2-ham-n2", SourceModel.markov(FinitePmf([0.5, 0.5]), T2, 2),
         DistortionModel.hamming(2, 2)),
        ("mkv3-ham-n1", SourceModel.markov(FinitePmf([0.4, 0.3, 0.3]), T3, 1),
         DistortionModel.hamming(3, 1)),
        ("iid3-tbl-n1", SourceModel.iid(FinitePmf([1 / 3] * 3), 1),
         DistortionModel.single_letter(tbl3, 1)),
    ]


@pytest.fixture(scope="module")
def matrix_curves():
    from crdf import default_s_grid
    out = {}
    for name, src, dist in _test_matrix():
        out[name] = (src, dist, sweep(src, dist, default_s_grid()))
    return out


class TestCriterion1:
    def test_memoryless_collapse(self):
        src = SourceModel.iid(FinitePmf.uniform(2), 3)
        dist = DistortionModel.hamming(2, 3)
        grid = sorted(-np.geomspace(0.05, 10.0, 20))
        curve = sweep(src, dist, grid)
        worst = max(abs(p.rate - max(1.0 - h2(min(p.distortion, 0.5)), 0.0))
                    for p in curve.points)
        ok = worst <= 2e-3
        assert report(1, f"memoryless collapse to 1-h(D), max dev {worst:.1e}",
                      ok)


class TestCriterion2:
    def test_information_equality_suite(self):
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(0, 4))
            nx = int(rng.integers(2, 4))
            ny = int(rng.integers(2, 4))
            src = (random_iid_source(rng, nx, n) if rng.random() < 0.5
                   else random_markov_source(rng, nx, n))
            jm = make_joint(src, random_chain(rng, nx, ny, n))
            worst = max(worst, abs(mutual_information(jm)
                                   - directed_information_of_joint(jm)))
        anticausal_ok = True
        for _ in range(50):
            nx = int(rng.integers(2, 4))
            src = random_iid_source(rng, nx, 1)
            ker = anticausal_swap_kernel(rng, nx)
            jm = make_joint(src, ker)
            anticausal_ok &= (directed_information_of_joint(jm)
                              < mutual_information(jm))
            anticausal_ok &= not bool(validate_causal(ker, src))
        ok = worst <= 1e-10 and anticausal_ok
        assert report(2, f"MI=DI on 200 causal chains (max dev {worst:.1e}), "
                         "50 anticausal kernels flagged", ok)


class TestCriterion3:
    def test_fixed_point_self_consistency(self, matrix_curves):
        worst_res = worst_gap = 0.0
        slack_ok = True
        for name, (src, dist, curve) in matrix_curves.items():
            for p in curve.converged_points():
                worst_res = max(worst_res, p.residual)
                worst_gap = max(worst_gap, abs(p.rate - p.rate_formula))
                if p.rate > 1e-6:
                    slack_ok &= p.s < 0
        ok = worst_res <= 1e-8 and worst_gap <= 1e-7 and slack_ok
        assert report(3, "fixed-point residual "
                         f"{worst_res:.1e}, |R - R_formula| {worst_gap:.1e}",
                      ok)


class TestCriterion4:
    def test_directional_derivative_formula(self):
        from crdf.probability import GeneralKernel
        rng = np.random.default_rng(4)
        worst = 0.0
        eps = 1e-5
        for _ in range(50):
            n = int(rng.integers(0, 3))
            nx = int(rng.integers(2, 4))
            ny = int(rng.integers(2, 4))
            src = random_iid_source(rng, nx, n)
            # interior kernels keep the central difference well conditioned;
            # the derivative formula itself is exact everywhere
            q0 = random_chain(rng, nx, ny, n, floor=0.2)
            q1 = random_chain(rng, nx, ny, n, floor=0.2)
            g = gateaux_derivative(src, q0, q1)
            t0, t1 = q0.conditional_matrix(), q1.conditional_matrix()

            def mi(lmb):
                t = (1 - lmb) * t0 + lmb * t1
                k = GeneralKernel(nx=nx, ny=ny, horizon=n, table=t)
                return mutual_information(make_joint(src, k))

            fd = (mi(eps) - mi(-eps)) / (2 * eps)
            worst = max(worst, abs(g - fd))
        ok = worst <= 1e-6
        assert report(4, f"derivative vs central difference, max dev "
                         f"{worst:.1e}", ok)


class TestCriterion5:
    def test_curve_shape_memoryless_and_binary_markov(self, matrix_curves):
        ok = True
        details = []
        for name, (src, dist, curve) in matrix_curves.items():
            if name == "mkv3-ham-n1":
                continue
            rep = properties_report(curve)
            ok &= rep.passed
            details.append(f"{name}:{'ok' if rep.passed else 'FAIL'}")
        assert report("5a", "curve shape (monotone/convex/zero-rate) on "
                            + ", ".join(details), ok)

    def test_curve_shape_ternary_markov(self, matrix_curves):
        # each point must be the causal optimum: a stage-wise fixed point, or
        # a warm start locked on a point-mass output law, breaks convexity
        src, dist, curve = matrix_curves["mkv3-ham-n1"]
        rep = properties_report(curve)
        assert report("5b", "curve shape on ternary Markov source "
                            f"(convex_ok={rep.convex_ok})", rep.passed)


S_VALUES_6 = [-0.05, -0.1, -0.2, -0.5, -1.0, -1.5, -2.0, -3.0, -4.0, -8.0]


class TestCriterion6:
    def test_exhaustive_grid_matches_single_stage(self):
        src = SourceModel.iid(FinitePmf.uniform(2), 0)
        dist = DistortionModel.hamming(2, 0)
        worst = 0.0
        for s in S_VALUES_6:
            p = solve_fixed_s(src, dist, s)
            r = brute_force_lagrangian(src, dist, s, method="grid")
            rep = compare(p, r, tol=1e-6)
            worst = max(worst, rep.value_difference)
            assert rep.passed
        assert report("6a", f"grid search vs solver at {len(S_VALUES_6)} "
                            f"multipliers, max gap {worst:.1e} (tol 1e-6)",
                      True)

    def test_multistart_matches_binary_markov(self):
        # without the backward cost-to-go term the search undercuts the
        # solver by up to ~1.4e-2 for mid-range multipliers on this source
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(FinitePmf.uniform(2), T, 1)
        dist = DistortionModel.hamming(2, 1)
        worst = 0.0
        ok = True
        for s in S_VALUES_6:
            p = solve_fixed_s(src, dist, s)
            r = brute_force_lagrangian(src, dist, s, method="multistart",
                                       budget=500, seed=0)
            rep = compare(p, r, tol=1e-6)
            worst = max(worst, rep.value_difference)
            ok &= rep.passed
        assert report("6b", "multistart search vs solver on binary Markov, "
                            f"max gap {worst:.1e} (tol 1e-6)", ok)

    def test_grid_matches_binary_markov(self):
        # a lattice search that moves one kernel row at a time stops up to
        # 3.1e-3 above the solver on this source
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        src = SourceModel.markov(FinitePmf.uniform(2), T, 1)
        dist = DistortionModel.hamming(2, 1)
        worst = 0.0
        ok = True
        for s in S_VALUES_6:
            p = solve_fixed_s(src, dist, s)
            r = brute_force_lagrangian(src, dist, s, method="grid")
            rep = compare(p, r, tol=1e-5)
            worst = max(worst, rep.value_difference)
            ok &= rep.passed
        assert report("6c", "grid search vs solver on binary Markov, "
                            f"max gap {worst:.1e} (tol 1e-5)", ok)


class TestCriterion7:
    def test_causal_rate_dominates_classical(self, matrix_curves):
        src, dist, curve = matrix_curves["mkv2-ham-n2"]
        ok = True
        for p in curve.converged_points():
            classic = bisect_s_for_distortion(src, dist, p.distortion,
                                              solve=classical_ba)
            ok &= p.rate >= classic.rate - 1e-9
        assert report(7, "causal rate >= classical rate at matched D "
                         "for the binary Markov source", ok)


class TestDroppedPoints:
    def test_every_dropped_point_reports_its_gap(self, matrix_curves):
        # the plain iteration dropped 10 of the 41 mkv2-ham-n2 points next
        # to s = 0, and a Newton step started by slow plain steps alone
        # still dropped 2 (s = -0.001 and -0.00129); with slow steps at
        # beta = 256 counted too, no point of the matrix is dropped
        for _, _, curve in matrix_curves.values():
            dropped = curve.dropped()
            assert len(dropped) == (len(curve.points)
                                    - len(curve.converged_points()))
            assert dropped == []


@pytest.fixture(scope="module")
def quarter_chain_letter_kernel():
    """Single-stage kernel achieving D = 0.25, lifted per horizon."""
    src = SourceModel.iid(FinitePmf.uniform(2), 0)
    dist = DistortionModel.hamming(2, 0)
    p = bisect_s_for_distortion(src, dist, 0.25)
    return p.chain.conditional_matrix()


class TestCriterion8:
    def test_simulated_distortion_trend(self, quarter_chain_letter_kernel):
        W = quarter_chain_letter_kernel
        means = []
        for n in (7, 11, 15):
            src = SourceModel.iid(FinitePmf.uniform(2), n)
            chain = CausalKernelChain.memoryless(W, n)
            rep = simulate(src, DistortionModel.hamming(2, n), chain,
                           0.34, 2000, 0.05, 20260823, target_d=0.25)
            means.append(rep.mean_distortion)
        ok = (all(a >= b for a, b in zip(means, means[1:]))
              and means[-1] <= 0.35)
        assert report("8a", "mean distortion non-increasing over n in "
                            f"{{7,11,15}}: {[f'{m:.4f}' for m in means]}", ok)

    def test_typicality_growth(self, quarter_chain_letter_kernel):
        # The AEP promises P(T_eps), P(D_eps) -> 1 as n grows, not growth at
        # every step: at n in {3, 7, 11} the lattice step 1/(n+1) exceeds
        # eps, the window holds only the central count, and the exact
        # probabilities fall (0.4219 -> 0.3115 -> 0.2581, pinned in
        # test_coding.py).  What holds at every horizon is the weak-law bound
        # behind the AEP, p >= 1 - sigma^2 / ((n+1) eps^2), with sigma^2 the
        # exact per-letter variance of the density and of the distortion.
        # At n = 99 the D_eps bound is active (0.25); the T_eps bound only
        # becomes active near n = 190, too slow for this suite.
        W = quarter_chain_letter_kernel
        eps = 0.05
        mu1 = np.array([0.5, 0.5])
        cells = mu1[:, None] * W
        density = np.log2(W / (mu1 @ W)[None, :])
        cost = 1.0 - np.eye(2)

        def letter_variance(v):
            return float(np.sum(cells * (v - np.sum(cells * v)) ** 2))

        var_info, var_dist = letter_variance(density), letter_variance(cost)
        ok = 1.0 - var_dist / (100 * eps**2) > 0   # n = 99 is not vacuous
        rows = []
        for n in (3, 7, 11, 99):
            src = SourceModel.iid(FinitePmf.uniform(2), n)
            spec = TypicalitySpec(
                epsilon=eps, horizon=n, source=src,
                chain=CausalKernelChain.memoryless(W, n),
                dist=DistortionModel.hamming(2, n))
            res = typicality_probability(spec)
            bound_info = 1.0 - var_info / ((n + 1) * eps**2)
            bound_dist = 1.0 - var_dist / ((n + 1) * eps**2)
            ok &= res.p_info >= bound_info and res.p_dist >= bound_dist
            rows.append(f"n={n}: T {res.p_info:.4f}>={bound_info:.2f}, "
                        f"D {res.p_dist:.4f}>={bound_dist:.2f}")
        assert report("8b", "exact typicality probabilities meet the "
                            "weak-law bound over n in {3,7,11,99}: "
                            + "; ".join(rows), ok)


class TestCriterion9:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = {
            "schema": "crdf-config-v1",
            "seed": 7,
            "source": {"kind": "markov", "horizon": 2,
                       "initial": [0.5, 0.5],
                       "transition": [[0.8, 0.2], [0.2, 0.8]]},
            "distortion": {"kind": "hamming", "horizon": 2},
            "solver": {"s_grid": [-4.0, -2.0, -1.0, -0.5, 0.0]},
            "sim": {"rate": 0.5, "trials": 200, "epsilon": 0.1},
            "kernel": {"kind": "memoryless", "horizon": 2,
                       "letter_kernel": [[0.75, 0.25], [0.25, 0.75]]},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        ok = True
        for command, artifacts in (("sweep", ["curve.csv", "kernels.json"]),
                                   ("simulate", ["sim_report.json"])):
            a, b = tmp_path / f"{command}_a", tmp_path / f"{command}_b"
            assert cli_main([command, "--config", str(cfg_path),
                             "--out", str(a)]) == 0
            assert cli_main([command, "--config", str(cfg_path),
                             "--out", str(b)]) == 0
            for name in artifacts:
                ok &= (a / name).read_bytes() == (b / name).read_bytes()
        assert report(9, "repeated runs emit byte-identical CSV/JSON", ok)
