"""Properties of the causal and classical solvers on random small instances.

Sources are iid or first-order Markov with alphabets of 2 or 3 letters and
horizons n <= 2; costs are single-letter and uniform on [0, 1), so no cost
row has minimum 0; multipliers lie in [-8, -0.5].
"""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from crdf import DistortionModel, classical_ba, d_max_min_sequence, solve_fixed_s
from crdf.sampling import random_iid_source, random_markov_source


@st.composite
def instances(draw):
    nx = draw(st.sampled_from([2, 3]))
    ny = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, 2))
    make_source = draw(st.sampled_from([random_iid_source,
                                        random_markov_source]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = make_source(rng, nx, n)
    dist = DistortionModel.single_letter(rng.random((nx, ny)), n)
    return source, dist, draw(st.floats(-8.0, -0.5))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instances())
def test_solutions_are_finite_bounded_dominant_and_repeatable(instance):
    source, dist, s = instance
    p = solve_fixed_s(source, dist, s)
    assert all(math.isfinite(v)
               for v in (p.rate, p.distortion, p.rate_formula))
    assert p.rate >= -1e-12
    d_max, _ = d_max_min_sequence(source, dist)
    assert p.distortion <= d_max + 1e-8

    # the causal minimum cannot undercut the unconstrained one at equal s
    c = classical_ba(source, dist, s)
    if p.converged and c.converged:
        assert p.lagrangian() >= c.lagrangian() - 1e-8

    again = solve_fixed_s(source, dist, s)
    assert ((again.rate, again.distortion, again.rate_formula,
             again.iterations)
            == (p.rate, p.distortion, p.rate_formula, p.iterations))
    assert all(np.array_equal(a, b)
               for a, b in zip(again.chain.stages, p.chain.stages))
