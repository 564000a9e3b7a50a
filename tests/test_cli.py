import json

import pytest

from crdf.cli import main

BASE = {
    "schema": "crdf-config-v1",
    "seed": 0,
    "source": {"kind": "iid", "horizon": 1, "letter": [0.5, 0.5]},
    "distortion": {"kind": "hamming", "horizon": 1},
}


def write_config(tmp_path, extra, name="config.json"):
    cfg = {**BASE, **extra}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(command, config, out_dir, threads=None):
    argv = [command, "--config", config, "--out", str(out_dir)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return main(argv)


class TestSolve:
    def test_writes_point_json(self, tmp_path):
        cfg = write_config(tmp_path, {"solver": {"s": -2.0}})
        assert run("solve", cfg, tmp_path) == 0
        point = json.loads((tmp_path / "point.json").read_text())
        assert point["converged"]
        assert point["s"] == -2.0
        assert 0.0 < point["distortion"] < 0.5
        assert "chain" in point and "output" in point

    def test_missing_s_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"solver": {}})
        assert run("solve", cfg, tmp_path) == 2

    def test_positive_s_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"solver": {"s": 1.0}})
        assert run("solve", cfg, tmp_path) == 2


class TestSweepAndProperties:
    def test_sweep_outputs_csv_and_kernels(self, tmp_path):
        cfg = write_config(tmp_path, {"solver": {"s_grid": [-3.0, -1.0, 0.0]}})
        assert run("sweep", cfg, tmp_path) == 0
        csv = (tmp_path / "curve.csv").read_text()
        assert csv.splitlines()[0] == "s,D,R,rate_formula,iterations,converged"
        assert len(csv.splitlines()) == 4
        kernels = json.loads((tmp_path / "kernels.json").read_text())
        assert len(kernels["points"]) == 3

    def test_sweep_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"solver": {"s_grid": [-2.0, -0.5, 0.0]}})
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run("sweep", cfg, a) == 0
        assert run("sweep", cfg, b) == 0
        assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()
        assert ((a / "kernels.json").read_bytes()
                == (b / "kernels.json").read_bytes())

    def test_properties_pass_exit_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"solver": {"s_grid": [-8.0, -4.0, -2.0, -1.0, -0.5, -0.2, 0.0]}})
        assert run("properties", cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "properties.json").read_text())
        assert rep["passed"]

    @pytest.mark.parametrize("command", ["sweep", "properties"])
    def test_unknown_mode_rejected(self, tmp_path, command):
        cfg = write_config(tmp_path, {"solver": {
            "s_grid": [-2.0, -1.0, -0.5, 0.0], "mode": "bogus"}})
        assert run(command, cfg, tmp_path) == 2


class TestOracle:
    def test_grid_oracle_agrees(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": {"kind": "iid", "horizon": 0, "letter": [0.5, 0.5]},
            "distortion": {"kind": "hamming", "horizon": 0},
            "solver": {"s": -2.0},
        })
        assert run("oracle", cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "oracle.json").read_text())
        assert rep["passed"]
        assert rep["method"] == "grid"
        assert rep["evaluations"] > 0

    def test_multistart_detects_gap_with_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": {"kind": "markov", "horizon": 1,
                       "initial": [0.5, 0.5],
                       "transition": [[0.8, 0.2], [0.2, 0.8]]},
            "solver": {"s": -2.0},
            "oracle": {"method": "multistart", "budget": 200},
            "seed": 1,
        })
        # the solver reaches the causal optimum on this Markov source, so the
        # multistart search finds no gap beyond the tolerance
        assert run("oracle", cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "oracle.json").read_text())
        assert rep["passed"]
        assert abs(rep["oracle_best"] - rep["solver_lagrangian"]) <= rep["tol"]


class TestSimulate:
    def test_with_explicit_kernel(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": {"kind": "memoryless", "horizon": 1,
                       "letter_kernel": [[0.75, 0.25], [0.25, 0.75]]},
            "sim": {"rate": 0.5, "trials": 50, "epsilon": 0.1,
                    "target_d": 0.25},
        })
        assert run("simulate", cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "sim_report.json").read_text())
        assert rep["trials"] == 50
        assert rep["target_D"] == 0.25
        assert 0.0 <= rep["mean_distortion"] <= 1.0

    def test_kernel_from_solver_when_absent(self, tmp_path):
        cfg = write_config(tmp_path, {
            "solver": {"s": -2.0},
            "sim": {"rate": 0.5, "trials": 20, "epsilon": 0.1},
        })
        assert run("simulate", cfg, tmp_path) == 0

    def test_missing_sim_field(self, tmp_path):
        cfg = write_config(tmp_path, {
            "solver": {"s": -2.0},
            "sim": {"rate": 0.5, "trials": 20},
        })
        assert run("simulate", cfg, tmp_path) == 2


class TestDmaxAndInfo:
    def test_dmax(self, tmp_path):
        cfg = write_config(tmp_path, {})
        assert run("dmax", cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "dmax.json").read_text())
        assert rep["min_sequence"] == pytest.approx(0.5)
        assert rep["argmin_sequence"] == [0, 0]

    def test_info_causal_chain_all_hold(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": {"kind": "memoryless", "horizon": 1,
                       "letter_kernel": [[0.9, 0.1], [0.2, 0.8]]},
        })
        assert run("info", cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "info.json").read_text())
        assert rep["all_hold"]
        assert rep["mutual_information"] == pytest.approx(
            rep["directed_information"], abs=1e-9)


class TestValidation:
    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**BASE, "schema": "other"}))
        assert run("solve", str(path), tmp_path) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run("solve", str(path), tmp_path) == 2

    def test_missing_file(self, tmp_path):
        assert run("solve", str(tmp_path / "absent.json"), tmp_path) == 2

    def test_horizon_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, {
            "distortion": {"kind": "hamming", "horizon": 3},
            "solver": {"s": -1.0},
        })
        assert run("solve", cfg, tmp_path) == 2

    @pytest.mark.parametrize("key", ["tie_stationary", "init", "sedd"])
    def test_unknown_solver_key_names_the_key(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, {"solver": {"s": -1.0, key: True}})
        assert run("solve", cfg, tmp_path) == 2
        assert f"solver.{key}" in capsys.readouterr().err

    def test_unknown_command_rejected_by_argparse(self, tmp_path):
        cfg = write_config(tmp_path, {"solver": {"s": -1.0}})
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", cfg])
