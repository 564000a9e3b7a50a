import numpy as np
import pytest
from hypothesis import given, strategies as st

from crdf import CausalKernelChain
from crdf import indexing as ix
from crdf.sampling import random_chain


@given(st.integers(2, 5), st.integers(1, 6))
def test_roundtrip_all_indices(base, length):
    idx = np.arange(base**length)
    letters = ix.to_letters(idx, base, length)
    assert letters.shape == (base**length, length)
    back = ix.from_letters(letters, base)
    assert np.array_equal(back, idx)
    assert np.array_equal(ix.all_letters(base, length), letters)


def test_time_zero_is_most_significant():
    # trajectory (1, 0, 0) over base 2 is index 4, not 1
    assert ix.from_letters(np.array([[1, 0, 0]]), 2)[0] == 4
    assert list(ix.to_letters(np.array([4]), 2, 3)[0]) == [1, 0, 0]


def naive_product(stages, nx, ny, n):
    """prod_i q_i(y_i | y^{i-1}, x^i), one trajectory pair at a time."""
    xs = ix.all_letters(nx, n + 1)
    ys = ix.all_letters(ny, n + 1)
    K = np.ones(stages[0].shape[:-3] + (len(xs), len(ys)))
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            for i in range(n + 1):
                hy = int(ix.from_letters(y[:i], ny))
                hx = int(ix.from_letters(x[: i + 1], nx))
                K[..., a, b] *= stages[i][..., hy, hx, y[i]]
    return K


SHAPES = [(2, 2, 0), (2, 3, 1), (3, 2, 1), (2, 2, 2), (3, 3, 2)]


@pytest.mark.parametrize("nx,ny,n", SHAPES)
def test_chain_gather_matches_naive_product(nx, ny, n):
    chain = random_chain(np.random.default_rng(nx + 10 * ny + 100 * n),
                         nx, ny, n)
    assert np.array_equal(chain.conditional_matrix(),
                          naive_product(chain.stages, nx, ny, n))


@pytest.mark.parametrize("nx,ny,n", SHAPES)
def test_batched_gather_matches_naive_product(nx, ny, n):
    rng = np.random.default_rng(7 + nx + 10 * ny + 100 * n)
    stages = [rng.dirichlet(np.ones(ny), size=(4, ny**i, nx ** (i + 1)))
              for i in range(n + 1)]
    K = ix.stage_product(stages, nx, ny, n)
    assert K.shape == (4, nx ** (n + 1), ny ** (n + 1))
    assert np.array_equal(K, naive_product(stages, nx, ny, n))


@pytest.mark.parametrize("nx,ny,n", SHAPES)
def test_memoryless_gather_matches_letter_product(nx, ny, n):
    W = np.random.default_rng(3).dirichlet(np.ones(ny), size=nx)
    chain = CausalKernelChain.memoryless(W, n)
    xs = ix.all_letters(nx, n + 1)
    ys = ix.all_letters(ny, n + 1)
    want = W[xs[:, None, :], ys[None, :, :]].prod(axis=2)
    assert np.allclose(chain.conditional_matrix(), want, rtol=1e-14, atol=0)


def test_stage_maps_are_cached_and_read_only():
    maps = ix.stage_maps(2, 3, 2)
    assert ix.stage_maps(2, 3, 2) is maps
    hy, hx, yi = maps[1]
    assert (hy.shape, hx.shape, yi.shape) == ((1, 27), (8, 1), (1, 27))
    with pytest.raises(ValueError):
        hy[0, 0] = 1
