"""Each of the benchmark's checks passes crdf's real output and rejects a
deliberately wrong one.

    python3 -m pytest perfbench/test_checks.py -q

Real outputs come from crdf on small variants of the workload configs (short
grids, few trials, a short block), so the whole file runs in seconds.
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from crdf import cli  # noqa: E402


def cfg(stem: str, **solver) -> dict:
    c = workloads.load_config(stem, seed=3)
    if solver:
        c["solver"].update(solver)
    return c


def sweep_rows(c: dict, out: Path) -> list:
    assert cli.run("sweep", c, out) == 0
    return checks.parse_curve_csv((out / "curve.csv").read_text())


def shifted(rows: list, k: int, key: str, delta: float) -> list:
    rows = copy.deepcopy(rows)
    rows[k][key] += delta
    return rows


@pytest.fixture(scope="module")
def iid_rows(tmp_path_factory):
    c = cfg("iid2-tbl-n2", s_grid=[-8.0, -4.0, -2.0, -1.0, -0.5])
    return c, sweep_rows(c, tmp_path_factory.mktemp("iid"))


@pytest.fixture(scope="module")
def mkv3_rows(tmp_path_factory):
    c = cfg("mkv3-ham-n1", s_grid=[-8.0, -4.0, -2.0, -1.0, -0.8])
    return c, sweep_rows(c, tmp_path_factory.mktemp("mkv3"))


@pytest.fixture(scope="module")
def n3_rows(tmp_path_factory):
    c = cfg("mkv2-ham-n8", s_grid=[-4.0, -2.0, -1.5])
    c["source"]["horizon"] = c["distortion"]["horizon"] = 3
    return c, sweep_rows(c, tmp_path_factory.mktemp("n3"))


class TestReferences:
    def test_h2_inverse_inverts_h2(self):
        for p in (0.01, 0.11, 0.25, 0.4999):
            assert checks.h2_inverse(checks.h2(p)) == pytest.approx(p, abs=1e-12)

    def test_single_letter_rd_matches_binary_hamming_curve(self):
        costs = [[0.0, 1.0], [1.0, 0.0]]
        for s in (-0.5, -1.0, -3.0):
            d, r = checks.single_letter_rd([0.5, 0.5], costs, s)
            assert r == pytest.approx(1.0 - checks.h2(d), abs=1e-12)

    def test_d_max_of_ternary_markov(self):
        c = cfg("mkv3-ham-n1")
        # marginals [0.4, 0.3, 0.3] then [0.33, 0.39, 0.28]: best sequence
        # (0, 1) with expected distortion (0.6 + 0.61) / 2
        assert checks.d_max_brute_force(c["source"], c["distortion"]) \
            == pytest.approx(0.605, abs=1e-12)


class TestCurveChecks:
    def test_real_curves_pass(self, iid_rows, mkv3_rows, n3_rows):
        for c, rows in (iid_rows, mkv3_rows):
            assert checks.check_curve(rows, c) == []
        assert checks.check_single_letter_match(*reversed(iid_rows)) == []
        assert checks.check_slb(*reversed(mkv3_rows)) == []
        assert checks.check_slb(*reversed(n3_rows), upper=True) == []

    def test_rate_shift_rejected_by_single_letter_match(self, iid_rows):
        c, rows = iid_rows
        bad = checks.check_single_letter_match(shifted(rows, 2, "R", 1e-3), c)
        assert [k for k, _ in bad] == [2]

    def test_rate_formula_mismatch_rejected(self, mkv3_rows):
        c, rows = mkv3_rows
        bad = checks.check_curve(shifted(rows, 3, "rate_formula", 1e-6), c)
        assert [k for k, _ in bad] == [3]

    def test_nonconvex_point_rejected(self, mkv3_rows):
        c, rows = mkv3_rows
        bad = checks.check_curve(shifted(rows, 3, "R", 1e-3), c)
        assert 3 in [k for k, _ in bad]

    def test_rising_rate_rejected(self, mkv3_rows):
        c, rows = mkv3_rows
        k = max(range(len(rows)), key=lambda j: rows[j]["D"] * (rows[j]["R"] > 0))
        wrong = shifted(rows, k, "R", 0.5)
        assert any("rises" in why for _, why in checks.check_curve(wrong, c))

    def test_positive_rate_at_d_max_rejected(self, mkv3_rows):
        c, rows = mkv3_rows
        k = next(j for j, r in enumerate(rows) if r["s"] == 0.0)
        wrong = shifted(rows, k, "R", 1e-3)
        wrong[k]["rate_formula"] += 1e-3
        assert any("D_max" in why for _, why in checks.check_curve(wrong, c))

    def test_below_shannon_lower_bound_rejected(self, mkv3_rows):
        c, rows = mkv3_rows
        wrong = copy.deepcopy(rows)
        r = wrong[0]
        r["R"] = checks.hamming_slb(checks.entropy_rate(c["source"]), r["D"], 3) - 1e-3
        assert [k for k, _ in checks.check_slb(wrong, c)] == [0]

    def test_upper_bounds_rejected(self, n3_rows):
        c, rows = n3_rows
        h = checks.entropy_rate(c["source"])
        assert checks.check_slb(shifted(rows, 1, "R", h), c, upper=True)
        assert checks.check_slb(shifted(rows, 1, "D", 0.6), c, upper=True)

    def test_nonconverged_rows_are_not_judged(self, iid_rows):
        c, rows = iid_rows
        wrong = shifted(rows, 2, "R", 1e-3)
        wrong[2]["converged"] = False
        assert checks.check_single_letter_match(wrong, c) == []


class TestOracleChecks:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        c = workloads.with_s(cfg("mkv2-ham-n1-oracle"), -2.0)
        c["oracle"]["budget"] = 20
        out = tmp_path_factory.mktemp("oracle")
        code = cli.run("oracle", c, out)
        return code, json.loads((out / "oracle.json").read_text())

    def test_real_report_passes(self, report):
        code, rep = report
        assert checks.check_oracle(rep, code) == []

    def test_failed_report_rejected(self, report):
        code, rep = report
        assert checks.check_oracle({**rep, "passed": False}, code)
        assert checks.check_oracle(rep, 1)

    def test_oracle_beating_solver_rejected(self, report):
        code, rep = report
        wrong = {**rep, "oracle_best": rep["solver_lagrangian"] - 1e-6}
        assert checks.check_oracle(wrong, code)

    def test_causality_gap(self):
        c = cfg("mkv2-ham-n2")
        causal, classical = {"D": 0.2, "R": 0.3}, {"D": 0.2, "R": 0.25}
        assert checks.check_causality_gap(c, causal, classical) == []
        assert checks.check_causality_gap(c, {"D": 0.2, "R": 0.249}, classical)
        below = checks.hamming_slb(checks.entropy_rate(c["source"]), 0.2, 2)
        assert checks.check_causality_gap(
            c, causal, {"D": 0.2, "R": below - 1e-3})


class TestCodingChecks:
    def test_typicality_matches_and_off_by_one_count_rejected(self):
        from crdf.coding import TypicalitySpec, typicality_probability
        from crdf import serialization as ser
        c = cfg("iid2-ham-n99-typ")
        for key in ("source", "distortion", "kernel"):
            c[key]["horizon"] = 39
        src = ser.source_from_dict(c["source"])
        res = typicality_probability(TypicalitySpec(
            epsilon=0.05, horizon=39, source=src,
            chain=ser.chain_from_dict(c["kernel"]),
            dist=ser.distortion_from_dict(c["distortion"], nx=2)))
        real = {"p_info": res.p_info, "p_dist": res.p_dist,
                "method": res.method}
        assert checks.check_typicality(real, c) == []
        # one disagreement count more in the D-window: k = 7, the count just
        # below the window |k/40 - 0.25| < 0.05
        m, a, k = 40, 0.25, 7
        term = checks.math.comb(m, k) * a**k * (1 - a) ** (m - k)
        wrong = {**real, "p_dist": real["p_dist"] + term}
        assert checks.check_typicality(wrong, c)
        assert checks.check_typicality({**real, "method": "monte_carlo"}, c)

    @pytest.fixture(scope="class")
    def sim(self, tmp_path_factory):
        c = cfg("iid2-ham-n19-sim")
        c["sim"]["trials"] = 200
        out = tmp_path_factory.mktemp("sim")
        assert cli.run("simulate", c, out) == 0
        return c, json.loads((out / "sim_report.json").read_text())

    def test_real_simulation_passes(self, sim):
        assert checks.check_simulation(sim[1], sim[0]) == []

    def test_wrong_codebook_count_rejected(self, sim):
        c, rep = sim
        assert checks.check_simulation(
            {**rep, "codebook_count": rep["codebook_count"] + 1}, c)

    def test_mean_distortion_out_of_bounds_rejected(self, sim):
        c, rep = sim
        se = rep["std_err_distortion"]
        assert checks.check_simulation(
            {**rep, "mean_distortion": 0.5 + 6 * se}, c)
        assert checks.check_simulation({**rep, "mean_distortion": 0.05}, c)
