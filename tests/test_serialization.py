import json

import numpy as np
import pytest

from crdf import (
    CausalKernelChain,
    DistortionModel,
    FinitePmf,
    SourceModel,
    solve_fixed_s,
    sweep,
)
from crdf import indexing as ix
from crdf.sampling import random_chain
from crdf.serialization import (
    CSV_HEADER,
    ConfigError,
    chain_from_dict,
    chain_to_dict,
    curve_to_csv,
    distortion_from_dict,
    general_kernel_from_dict,
    output_from_dict,
    output_to_dict,
    point_to_dict,
    source_from_dict,
)


class TestSourceRoundTrip:
    """Source reader on literal dicts, one per kind."""

    def test_iid(self):
        back = source_from_dict({"kind": "iid", "horizon": 2,
                                 "letter": [0.3, 0.7]})
        assert back.kind == "iid" and back.horizon == 2
        src = SourceModel.iid(FinitePmf([0.3, 0.7]), 2)
        assert np.allclose(back.joint_pmf(), src.joint_pmf())

    def test_markov(self):
        T = np.array([[0.9, 0.1], [0.2, 0.8]])
        back = source_from_dict({"kind": "markov", "horizon": 1,
                                 "initial": [0.6, 0.4],
                                 "transition": T.tolist()})
        assert back.kind == "markov"
        src = SourceModel.markov(FinitePmf([0.6, 0.4]), T, 1)
        assert np.allclose(back.joint_pmf(), src.joint_pmf())

    def test_explicit(self):
        w = [0.1, 0.2, 0.3, 0.4]
        back = source_from_dict({"kind": "explicit", "horizon": 1,
                                 "alphabet": 2, "weights": w})
        assert np.allclose(back.joint_pmf(), w)

    def test_json_safe(self):
        d = json.loads('{"kind": "iid", "horizon": 1, "letter": [0.25, 0.75]}')
        src = SourceModel.iid(FinitePmf([0.25, 0.75]), 1)
        assert np.allclose(source_from_dict(d).joint_pmf(), src.joint_pmf())

    def test_missing_field_names_location(self):
        with pytest.raises(ConfigError, match="source.letter"):
            source_from_dict({"kind": "iid", "horizon": 1})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            source_from_dict({"kind": "gaussian", "horizon": 0})

    def test_invalid_pmf_wrapped_as_config_error(self):
        with pytest.raises(ConfigError):
            source_from_dict({"kind": "iid", "horizon": 0, "letter": [0.5, 0.6]})


class TestDistortionRoundTrip:
    """Distortion reader on literal dicts, one per kind."""

    def test_single_letter(self):
        costs = 1.0 - np.eye(3)
        back = distortion_from_dict({"kind": "single_letter", "horizon": 2,
                                     "costs": costs.tolist()})
        dist = DistortionModel.hamming(3, 2)
        assert np.array_equal(back.total_cost_matrix(),
                              dist.total_cost_matrix())

    def test_tables(self):
        t0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        t1 = np.arange(16, dtype=float).reshape(4, 4)
        back = distortion_from_dict({"kind": "table", "horizon": 1,
                                     "tables": [t0.tolist(), t1.tolist()]})
        dist = DistortionModel.from_tables([t0, t1], 1)
        assert np.array_equal(back.total_cost_matrix(),
                              dist.total_cost_matrix())

    def test_hamming_shorthand_needs_alphabet(self):
        d = {"kind": "hamming", "horizon": 1}
        with pytest.raises(ConfigError, match="nx"):
            distortion_from_dict(d)
        dist = distortion_from_dict(d, nx=2)
        assert np.array_equal(dist.letter_costs, 1.0 - np.eye(2))


class TestKernelRoundTrip:
    def test_memoryless_chain(self):
        W = np.array([[0.9, 0.1], [0.3, 0.7]])
        chain = CausalKernelChain.memoryless(W, 2)
        back = chain_from_dict(chain_to_dict(chain))
        assert back.is_memoryless
        assert np.allclose(back.conditional_matrix(),
                           chain.conditional_matrix())

    def test_staged_chain(self):
        rng = np.random.default_rng(5)
        chain = random_chain(rng, 2, 3, 2)
        back = chain_from_dict(json.loads(json.dumps(chain_to_dict(chain))))
        assert np.allclose(back.conditional_matrix(),
                           chain.conditional_matrix(), atol=1e-15)

    def test_compact_chain_keeps_its_layout(self):
        rng = np.random.default_rng(6)
        stages = [rng.dirichlet(np.ones(3), size=(3**i, 2)) for i in range(3)]
        chain = CausalKernelChain.from_stages(stages, 2, 3)
        d = chain_to_dict(chain)
        assert [len(rows) for rows in d["stages"]] == [2, 6, 18]
        back = chain_from_dict(json.loads(json.dumps(d)))
        for a, b in zip(back.stages, stages):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_stage_of_neither_layout_names_the_chain(self):
        # 6 rows of stage 1 fit neither x_1 (2 rows) nor x^1 (4 rows)
        d = {"kind": "stages", "nx": 2, "ny": 2,
             "stages": [[[0.5, 0.5]] * 2, [[0.5, 0.5]] * 6]}
        with pytest.raises(ConfigError, match="chain stage 1") as exc:
            chain_from_dict(d)
        assert exc.value.field == "chain"

    def test_general_kernel(self):
        table = [[0.9, 0.1, 0.0, 0.0], [0.0, 0.0, 0.3, 0.7],
                 [0.25, 0.25, 0.25, 0.25], [0.0, 1.0, 0.0, 0.0]]
        back = general_kernel_from_dict({"nx": 2, "ny": 2, "horizon": 1,
                                         "table": table})
        assert (back.nx, back.ny, back.horizon) == (2, 2, 1)
        assert np.array_equal(back.conditional_matrix(), table)

    def test_unknown_chain_kind(self):
        with pytest.raises(ConfigError):
            chain_from_dict({"kind": "recurrent"})


class TestOutputRoundTrip:
    def test_memoryless(self):
        from crdf.probability import OutputProcess
        out = OutputProcess.memoryless(np.array([0.4, 0.6]), 2)
        back = output_from_dict(output_to_dict(out))
        iid = np.prod(np.array([0.4, 0.6])[ix.to_letters(np.arange(8), 2, 3)],
                      axis=1)
        assert np.allclose(out.joint, iid)
        assert np.allclose(back.joint, out.joint)

    def test_explicit(self):
        src = SourceModel.iid(FinitePmf([0.3, 0.7]), 1)
        p = solve_fixed_s(src, DistortionModel.hamming(2, 1), -1.0)
        back = output_from_dict(output_to_dict(p.output))
        assert np.allclose(back.joint, p.output.joint, atol=1e-12)

    def test_explicit_dead_prefix_rows_are_uniform(self):
        back = output_from_dict({"kind": "explicit", "ny": 2, "horizon": 1,
                                 "joint": [0.0, 0.0, 0.3, 0.7]})
        assert np.array_equal(back.conditionals[0], [[0.0, 1.0]])
        assert np.array_equal(back.conditionals[1], [[0.5, 0.5], [0.3, 0.7]])


class TestResults:
    def test_point_dict_carries_solution(self):
        src = SourceModel.iid(FinitePmf([0.4, 0.6]), 1)
        p = solve_fixed_s(src, DistortionModel.hamming(2, 1), -2.0)
        d = point_to_dict(p)
        assert d["s"] == -2.0 and d["converged"]
        assert np.allclose(chain_from_dict(d["chain"]).conditional_matrix(),
                           p.chain.conditional_matrix())

    def test_curve_csv_format(self):
        src = SourceModel.iid(FinitePmf.uniform(2), 1)
        curve = sweep(src, DistortionModel.hamming(2, 1), [0.0, -1.0, -3.0])
        text = curve_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert first[5] in ("true", "false")
        assert curve_to_csv(curve) == text   # byte-stable per input
