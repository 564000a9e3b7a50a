"""Properties of the causal and classical solvers on random small instances.

Sources are iid or first-order Markov with alphabets of 2 or 3 letters and
horizons n <= 2; costs are single-letter and uniform on [0, 1), so no cost
row has minimum 0; multipliers lie in [-8, -0.5].  Where Blahut's test
certifies the D_max point mass at the drawn s, both solvers must return it.
"""
import itertools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from crdf import (
    DistortionModel,
    SolverOptions,
    classical_ba,
    d_max_min_sequence,
    solve_fixed_s,
)
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


def point_mass_is_optimal(source, dist, s):
    """Blahut's KKT test for the output law concentrated on y*, the best
    constant sequence: sum_x mu(x) e^{s (C(x,y) - C(x,y*))} <= its value at
    y* for every y, with C summed letter by letter here."""
    nx, ny = dist.letter_costs.shape
    m = source.horizon + 1
    xs = np.array(list(itertools.product(range(nx), repeat=m)))
    ys = np.array(list(itertools.product(range(ny), repeat=m)))
    C = dist.letter_costs[xs[:, None, :], ys[None, :, :]].sum(axis=2)
    mu = source.joint_pmf()
    best = int(np.argmin(mu @ C))
    c = mu @ np.exp(s * (C - C[:, [best]]))
    return c.max() <= c[best]


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

    if point_mass_is_optimal(source, dist, s):
        assert abs(p.rate) <= 1e-12
        assert abs(p.distortion - d_max) <= 1e-12
        assert abs(p.lagrangian() - c.lagrangian()) <= 1e-12

    again = solve_fixed_s(source, dist, s)
    assert ((again.rate, again.distortion, again.rate_formula,
             again.iterations)
            == (p.rate, p.distortion, p.rate_formula, p.iterations))
    assert all(np.array_equal(a, b)
               for a, b in zip(again.chain.stages, p.chain.stages))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instances())
def test_a_converged_point_is_certified_within_tol(instance):
    source, dist, s = instance
    opts = SolverOptions()
    classical = classical_ba(source, dist, s, opts)
    for p in (solve_fixed_s(source, dist, s, opts), classical):
        assert math.isfinite(p.gap) and p.gap >= 0.0
        if p.converged:
            assert p.gap <= opts.tol
    if classical.converged:
        # Blahut's c(y) = sum_x mu(x) E(x,y) / Z(x) on every y, zero masses
        # of the output law included: the gap reads only the masses > 0, so
        # a step that zeroed a mass the optimum keeps would pass it
        C = dist.total_cost_matrix()
        E = np.exp(s * (C - C.min(axis=1)[:, None]))
        c = source.joint_pmf() @ (E / (E @ classical.output.joint)[:, None])
        assert math.log2(c.max()) / (source.horizon + 1) <= opts.tol
