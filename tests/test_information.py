import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crdf import (
    CausalKernelChain,
    FinitePmf,
    SourceModel,
    check_causality_equivalence,
    make_joint,
    mutual_information,
    validate_causal,
)
from crdf.information import directed_information_of_joint
from crdf.sampling import (
    anticausal_swap_kernel,
    random_chain,
    random_iid_source,
    random_markov_source,
)

rngs = st.integers(0, 2**32 - 1).map(np.random.default_rng)


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestMutualAndDirected:
    def test_bsc_closed_form(self):
        # I(X;Y) = 1 - h(eps) for a uniform input through BSC(eps)
        W = np.array([[0.9, 0.1], [0.1, 0.9]])
        src = SourceModel.iid(FinitePmf.uniform(2), 0)
        jm = make_joint(src, CausalKernelChain.memoryless(W, 0))
        assert mutual_information(jm) == pytest.approx(1 - h2(0.1), abs=1e-12)

    def test_independent_joint_has_zero_information(self):
        src = SourceModel.iid(FinitePmf([0.3, 0.7]), 1)
        W = np.array([[0.6, 0.4], [0.6, 0.4]])   # output ignores input
        jm = make_joint(src, CausalKernelChain.memoryless(W, 1))
        assert mutual_information(jm) == pytest.approx(0.0, abs=1e-12)
        assert directed_information_of_joint(jm) == pytest.approx(0.0, abs=1e-12)

    def test_memoryless_directed_information_tensorizes(self):
        W = np.array([[0.8, 0.2], [0.3, 0.7]])
        src1 = SourceModel.iid(FinitePmf([0.4, 0.6]), 0)
        one = directed_information_of_joint(
            make_joint(src1, CausalKernelChain.memoryless(W, 0)))
        src4 = SourceModel.iid(FinitePmf([0.4, 0.6]), 3)
        four = directed_information_of_joint(
            make_joint(src4, CausalKernelChain.memoryless(W, 3)))
        assert four == pytest.approx(4 * one, abs=1e-10)

    @given(rngs)
    @settings(max_examples=30, deadline=None)
    def test_information_equality_on_causal_chains(self, rng):
        n = int(rng.integers(0, 4))
        nx = int(rng.integers(2, 4))
        ny = int(rng.integers(2, 4))
        src = (random_iid_source(rng, nx, n) if rng.random() < 0.5
               else random_markov_source(rng, nx, n))
        chain = random_chain(rng, nx, ny, n)
        jm = make_joint(src, chain)
        mi = mutual_information(jm)
        di = directed_information_of_joint(jm)
        assert di == pytest.approx(mi, abs=1e-10)

    def test_anticausal_kernel_has_directed_below_mutual(self):
        rng = np.random.default_rng(7)
        src = random_iid_source(rng, 2, 1)
        ker = anticausal_swap_kernel(rng, 2)
        jm = make_joint(src, ker)
        assert directed_information_of_joint(jm) < mutual_information(jm) - 1e-6


class TestCausalityEquivalenceReport:
    def test_all_four_hold_for_causal_chain(self):
        rng = np.random.default_rng(31)
        src = random_markov_source(rng, 2, 2)
        chain = random_chain(rng, 2, 2, 2)
        rep = check_causality_equivalence(src, chain)
        assert rep.all_hold
        assert rep.causal_factorization
        assert rep.markov_output_nonanticipative and rep.markov_feedback_free
        assert rep.info_equal

    def test_report_fails_for_anticausal_kernel(self):
        rng = np.random.default_rng(37)
        src = random_iid_source(rng, 3, 1)
        ker = anticausal_swap_kernel(rng, 3)
        rep = check_causality_equivalence(src, ker)
        assert not rep.all_hold
        assert not rep.causal_factorization
        assert not rep.info_equal

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0])
    def test_non_positive_tol_rejected(self, tol):
        # with tol NaN every comparison is false, so an anticausal kernel
        # would pass three of the four tests
        rng = np.random.default_rng(37)
        src = random_iid_source(rng, 3, 1)
        ker = anticausal_swap_kernel(rng, 3)
        with pytest.raises(ValueError, match="tol must be > 0"):
            check_causality_equivalence(src, ker, tol=tol)
        with pytest.raises(ValueError, match="tol must be > 0"):
            validate_causal(ker, src, tol=tol)
