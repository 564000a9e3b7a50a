import json

import pytest

from crdf.cli import main
from crdf.information import LOG2E
from crdf.serialization import chain_from_dict, output_from_dict

BASE = {
    "schema": "crdf-config-v1",
    "seed": 0,
    "source": {"kind": "iid", "horizon": 1, "letter": [0.5, 0.5]},
    "distortion": {"kind": "hamming", "horizon": 1},
}


BSC_KERNEL = {"kind": "memoryless", "horizon": 1,
              "letter_kernel": [[0.75, 0.25], [0.25, 0.75]]}
# three output letters against the binary Hamming distortion of BASE
WIDE_KERNEL = {"kind": "memoryless", "horizon": 1,
               "letter_kernel": [[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]]}


def write_config(tmp_path, extra, name="config.json"):
    cfg = {**BASE, **extra}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(command, config, out_dir):
    return main([command, "--config", config, "--out", str(out_dir)])


class TestSolve:
    def test_writes_point_json(self, tmp_path):
        cfg = write_config(tmp_path, {"solver": {"s": -2.0}})
        assert run("solve", cfg, tmp_path) == 0
        point = json.loads((tmp_path / "point.json").read_text())
        assert point["converged"]
        assert point["s"] == -2.0
        assert 0.0 < point["distortion"] < 0.5
        assert "chain" in point and "output" in point

    def test_point_json_carries_the_certified_gap(self, tmp_path):
        cfg = write_config(tmp_path, {"solver": {"s": -2.0}})
        assert run("solve", cfg, tmp_path) == 0
        point = json.loads((tmp_path / "point.json").read_text())
        assert point["converged"] and 0.0 <= point["gap"] <= 1e-9

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

    def test_properties_lists_dropped_points(self, tmp_path):
        # s >= -ln 9 lies in the zero-rate interval and converges in two
        # iterations; -4 and -8 stop at max_iters
        cfg = write_config(tmp_path, {
            "source": {"kind": "iid", "horizon": 1, "letter": [0.9, 0.1]},
            "solver": {"s_grid": [-8.0, -4.0, -2.0, -1.0, -0.5, 0.0],
                       "max_iters": 3}})
        assert run("properties", cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "properties.json").read_text())
        assert rep["num_points"] == 4
        assert [d["s"] for d in rep["dropped"]] == [-4.0, -8.0]
        for d in rep["dropped"]:
            assert d["reason"] == "stopped at max_iters" and d["gap"] > 0.0

    @pytest.mark.parametrize("command", ["sweep", "properties"])
    def test_unknown_mode_rejected(self, tmp_path, command):
        cfg = write_config(tmp_path, {"solver": {
            "s_grid": [-2.0, -1.0, -0.5, 0.0], "mode": "bogus"}})
        assert run(command, cfg, tmp_path) == 2

    @pytest.mark.parametrize("command", ["sweep", "solve"])
    def test_cold_mode_rejected(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"solver": {
            "s": -1.0, "s_grid": [-2.0, -1.0, 0.0], "mode": "cold"}})
        assert run(command, cfg, tmp_path) == 2
        assert "solver.mode" in capsys.readouterr().err

    def test_warm_mode_key_changes_nothing(self, tmp_path):
        grid = [-2.0, -0.5, 0.0]
        plain = write_config(tmp_path, {"solver": {"s_grid": grid}}, "a.json")
        warm = write_config(tmp_path, {"solver": {"s_grid": grid,
                                                  "mode": "warm"}}, "b.json")
        assert run("sweep", plain, tmp_path / "a") == 0
        assert run("sweep", warm, tmp_path / "b") == 0
        for name in ("curve.csv", "kernels.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


class TestKernelsFile:
    GRID = [-3.0, -1.0, -0.3, 0.0]
    MARKOV = {"source": {"kind": "markov", "horizon": 2,
                         "initial": [0.5, 0.5],
                         "transition": [[0.8, 0.2], [0.3, 0.7]]},
              "distortion": {"kind": "single_letter", "horizon": 2,
                             "costs": [[0.0, 1.0, 0.4], [1.0, 0.0, 0.4]]},
              "solver": {"s_grid": GRID}}

    def test_compact_sorted_json_that_reads_back(self, tmp_path):
        cfg = write_config(tmp_path, self.MARKOV)
        assert run("sweep", cfg, tmp_path / "a") == 0
        text = (tmp_path / "a" / "kernels.json").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        kernels = json.loads(text)
        assert [p["s"] for p in kernels["points"]] == sorted(self.GRID,
                                                             reverse=True)
        for p in kernels["points"]:
            chain = chain_from_dict(p["chain"])
            output = output_from_dict(p["output"])
            assert (chain.nx, chain.ny, chain.horizon) == (2, 3, 2)
            assert output.joint.shape == (27,)
        assert run("sweep", cfg, tmp_path / "b") == 0
        assert ((tmp_path / "b" / "kernels.json").read_bytes()
                == text.encode())

    def test_every_point_converges_without_losing_support(self, tmp_path):
        # a step that let a mass the output law keeps underflow to 0 would
        # lock the solve onto a face of the simplex, at a higher Lagrangian;
        # the bounds are those of the plain iteration, which stops at
        # max_iters at s = -0.3
        bound = {0.0: 0.0, -0.3: 0.1729984358, -1.0: 0.5081764634,
                 -3.0: 0.8142106476}
        cfg = write_config(tmp_path, self.MARKOV)
        assert run("sweep", cfg, tmp_path) == 0
        kernels = json.loads((tmp_path / "kernels.json").read_text())
        for p in kernels["points"]:
            assert p["converged"]
            assert 0.0 <= p["gap"] <= 1e-9
            lagrangian = p["rate"] - p["s"] * LOG2E * p["distortion"]
            assert lagrangian <= bound[p["s"]] + 1e-9


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

    def test_explicit_source_with_memoryless_kernel(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": {"kind": "explicit", "horizon": 1, "alphabet": 2,
                       "weights": [0.4, 0.1, 0.1, 0.4]},
            "kernel": {"kind": "memoryless", "horizon": 1,
                       "letter_kernel": [[0.75, 0.25], [0.25, 0.75]]},
            "sim": {"rate": 0.5, "trials": 20, "epsilon": 0.1},
        })
        assert run("simulate", cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "sim_report.json").read_text())
        assert rep["target_D"] == pytest.approx(0.25, abs=1e-12)
        assert 0.0 <= rep["typicality_T"] <= 1.0

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, tmp_path, capsys, trials):
        cfg = write_config(tmp_path, {
            "solver": {"s": -2.0},
            "sim": {"rate": 0.5, "trials": trials, "epsilon": 0.1},
        })
        assert run("simulate", cfg, tmp_path) == 2
        assert "trials" in capsys.readouterr().err
        assert not (tmp_path / "sim_report.json").exists()

    @pytest.mark.parametrize("sim, word", [
        ({"rate": 1000.0, "epsilon": 0.1}, "cap"),
        ({"rate": float("nan"), "epsilon": 0.1}, "rate"),
        ({"rate": 0.5, "epsilon": float("nan")}, "epsilon")])
    def test_bad_rate_or_epsilon_exits_two(self, tmp_path, capsys, sim, word):
        # rate 1000 at n = 1 overflows 2^((n+1)R); NaN passes "< 0" tests
        cfg = write_config(tmp_path, {
            "kernel": {"kind": "memoryless", "horizon": 1,
                       "letter_kernel": [[0.75, 0.25], [0.25, 0.75]]},
            "sim": {"trials": 20, **sim},
        })
        assert run("simulate", cfg, tmp_path) == 2
        assert word in capsys.readouterr().err
        assert not (tmp_path / "sim_report.json").exists()

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

    @pytest.mark.parametrize("letter, costs", [
        ([0.5, 0.5], [[0, 1], [1, 0], [1, 1]]),
        ([0.2, 0.3, 0.5], [[0, 1], [1, 0]]),
    ])
    def test_distortion_alphabet_mismatch(self, tmp_path, capsys, letter,
                                          costs):
        # three cost rows on a binary source ran on rows 0-1; two rows on a
        # ternary source ended in an IndexError traceback
        cfg = write_config(tmp_path, {
            "source": {"kind": "iid", "horizon": 1, "letter": letter},
            "distortion": {"kind": "single_letter", "horizon": 1,
                           "costs": costs},
            "solver": {"s": -1.0},
        })
        assert run("solve", cfg, tmp_path) == 2
        assert "error: distortion:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("key", ["tie_stationary", "init", "sedd"])
    def test_unknown_solver_key_names_the_key(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, {"solver": {"s": -1.0, key: True}})
        assert run("solve", cfg, tmp_path) == 2
        assert f"solver.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra, key", [
        ("solve", {"seeed": 3}, "seeed"),
        ("oracle", {"oracle": {"budjet": 5}}, "oracle.budjet"),
        ("simulate", {"sim": {"rate": 0.5, "trials": 20, "epsilon": 0.1,
                              "trails": 5}}, "sim.trails"),
    ])
    def test_unknown_key_names_the_key(self, tmp_path, capsys, command, extra,
                                       key):
        # a misspelt key used to run silently with its default
        cfg = write_config(tmp_path, {"solver": {"s": -1.0}, **extra})
        assert run(command, cfg, tmp_path) == 2
        assert key in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command", ["solve", "dmax"])
    def test_solver_block_must_be_an_object(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"solver": []})
        assert run(command, cfg, tmp_path) == 2
        assert "solver" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, field", [
        ("solve", [], "config"),
        ("info", {**BASE, "kernel": []}, "kernel"),
        ("solve", {**BASE, "source": 3, "solver": {"s": -1.0}}, "source"),
        ("solve", {**BASE, "distortion": [], "solver": {"s": -1.0}},
         "distortion"),
        ("dmax", {**BASE, "output": 3}, "output"),
    ])
    def test_non_object_names_the_field(self, tmp_path, capsys, command,
                                        config, field):
        # each used to end in an AttributeError or TypeError traceback
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert run(command, str(tmp_path / "config.json"), tmp_path) == 2
        err = capsys.readouterr().err
        assert f"error: {field}: must be a JSON object" in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command, extra, field", [
        ("solve", {"source": {**BASE["source"], "horizon": [1]}},
         "source.horizon"),
        ("solve", {"source": {**BASE["source"], "horizon": float("inf")}},
         "source.horizon"),
        ("solve", {"distortion": {"kind": "hamming", "horizon": "x"}},
         "distortion.horizon"),
        ("solve", {"distortion": {"kind": "hamming", "horizon": 1, "ny": 0}},
         "distortion"),
        ("solve", {"seed": [1]}, "seed"),
        ("solve", {"seed": -1}, "seed"),
        ("solve", {"solver": {"s": [1]}}, "solver.s"),
        ("solve", {"solver": {"s": float("nan")}}, "solver.s"),
        ("solve", {"solver": {"s": float("-inf")}}, "solver.s"),
        ("solve", {"solver": {"s": -1.0, "tol": float("nan")}}, "solver: tol"),
        ("sweep", {"solver": {"s_grid": [-1.0, float("nan")]}},
         "solver.s_grid"),
        ("oracle", {"oracle": {"tol": float("nan")}}, "oracle.tol"),
        ("dmax", {"output": {"kind": "explicit", "ny": [2], "horizon": 1,
                             "joint": [0.25] * 4}}, "output.ny"),
        ("dmax", {"output": {"kind": "explicit", "ny": 2, "horizon": 1,
                             "joint": [0.3, 0.3, 0.25, 0.25]}}, "output.joint"),
        ("simulate", {"sim": {"rate": 0.5, "trials": [20], "epsilon": 0.1}},
         "sim.trials"),
        ("simulate", {"kernel": {"kind": "memoryless", "horizon": 1,
                                 "letter_kernel": 0.5},
                      "sim": {"rate": 0.5, "trials": 20, "epsilon": 0.1}},
         "kernel"),
        ("solve", {"source": {**BASE["source"], "horizon": 1.7}},
         "source.horizon"),
        ("solve", {"source": {**BASE["source"], "horizon": True}},
         "source.horizon"),
        ("solve", {"distortion": {"kind": "hamming", "horizon": 1,
                                  "ny": 1.5}}, "distortion.ny"),
        ("solve", {"solver": {"s": -1.0, "max_iters": "3"}},
         "solver.max_iters"),
        ("oracle", {"oracle": {"method": "bogus"}}, "oracle: method"),
        ("oracle", {"oracle": {"method": "multistart", "budget": 0}},
         "oracle: budget"),
        ("simulate", {"sim": {"rate": -0.5, "trials": 20, "epsilon": 0.1}},
         "sim: rate"),
        ("simulate", {"sim": {"rate": 0.5, "trials": 0, "epsilon": 0.1}},
         "sim: trials"),
        ("simulate", {"sim": {"rate": 0.5, "trials": 20, "epsilon": -0.1}},
         "sim: epsilon"),
        ("simulate", {"kernel": {**BSC_KERNEL, "horizon": 2},
                      "sim": {"rate": 0.5, "trials": 20, "epsilon": 0.1}},
         "kernel: source and kernel"),
        ("simulate", {"kernel": WIDE_KERNEL,
                      "sim": {"rate": 0.5, "trials": 20, "epsilon": 0.1}},
         "kernel: kernel output alphabet"),
        ("info", {"kernel": WIDE_KERNEL}, "kernel: kernel output alphabet"),
        ("info", {"kernel": BSC_KERNEL, "tol": float("nan")}, "tol"),
        ("info", {"kernel": BSC_KERNEL, "tol": -1.0}, "tol"),
        ("info", {"kernel": BSC_KERNEL, "tol": 0}, "tol"),
    ])
    def test_malformed_value_names_its_field(self, tmp_path, capsys, command,
                                             extra, field):
        # each used to end in a traceback (exit 1), exit 0 or 1 with a
        # meaningless result, or exit 2 with a message that named no field
        cfg = write_config(tmp_path, {"solver": {"s": -1.0}, **extra})
        assert run(command, cfg, tmp_path) == 2
        assert f"error: {field}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_chain_stage_of_neither_layout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kernel": {"kind": "stages", "nx": 2, "ny": 2,
                       "stages": [[[0.5, 0.5]] * 2, [[0.5, 0.5]] * 6]}})
        assert run("info", cfg, tmp_path) == 2
        assert "error: kernel: chain stage 1" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command, extra", [
        ("simulate", {"sim": {"rate": 0.5, "trials": 20, "epsilon": 0.1}}),
        ("info", {}),
    ])
    def test_failed_config_leaves_no_output_directory(self, tmp_path, command,
                                                      extra):
        # the output directory used to be made before the kernel was read
        cfg = write_config(tmp_path, {"kernel": WIDE_KERNEL, **extra})
        out = tmp_path / "new"
        assert run(command, cfg, out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("ny", [1, 2, 3])
    def test_output_alphabet_key_rejected(self, tmp_path, capsys, ny):
        # the output alphabet is the distortion's; 3 used to crash the
        # solver and 1 truncated the reproduction alphabet
        cfg = write_config(tmp_path, {"solver": {"s": -1.0},
                                      "output_alphabet": ny})
        assert run("solve", cfg, tmp_path) == 2
        assert "output_alphabet" in capsys.readouterr().err

    def test_threads_flag_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"solver": {"s_grid": [-1.0, 0.0]}})
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--out", str(tmp_path),
                  "--threads", "2"])
        assert exc.value.code == 2

    def test_unknown_command_rejected_by_argparse(self, tmp_path):
        cfg = write_config(tmp_path, {"solver": {"s": -1.0}})
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", cfg])
