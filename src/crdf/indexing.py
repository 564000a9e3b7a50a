"""Mixed-radix trajectory indexing.

A trajectory (z_0, ..., z_n) over an alphabet of size ``base`` is identified
with the integer sum_i z_i * base**(n - i), i.e. row-major with the time-0
letter most significant.  All tables in this package (joint measures, kernels,
distortion tables, serialized JSON) use this convention.

The causal kernel q(y^n | x^n) = prod_i q_i(y_i | y^{i-1}, x^i) is assembled
from its stage tables by one gather, :func:`stage_factors`, whose index maps
come from :func:`stage_maps`.
"""
from __future__ import annotations

import functools

import numpy as np


def to_letters(indices, base: int, length: int) -> np.ndarray:
    """Decode trajectory indices into letter arrays of shape (..., length)."""
    idx = np.asarray(indices)
    out = np.empty(idx.shape + (length,), dtype=np.int64)
    for i in range(length):
        out[..., i] = (idx // base ** (length - 1 - i)) % base
    return out


def from_letters(letters, base: int) -> np.ndarray:
    """Encode letter arrays of shape (..., length) into trajectory indices."""
    arr = np.asarray(letters, dtype=np.int64)
    length = arr.shape[-1]
    weights = base ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return arr @ weights


def all_letters(base: int, length: int) -> np.ndarray:
    """Letters of every trajectory, shape (base**length, length), in index
    order."""
    return to_letters(np.arange(base**length), base, length)


@functools.lru_cache(maxsize=32)
def stage_maps(nx: int, ny: int, n: int) -> tuple:
    """Per-stage index maps (hy, hx, yi) over full trajectory pairs.

    For stage i, ``hy`` (shape (1, Ny)) is the y^{i-1} prefix of each output
    trajectory, ``hx`` (shape (Nx, 1)) the x^i prefix of each source
    trajectory and ``yi`` (shape (1, Ny)) the letter y_i, so that
    ``stage[..., hy, hx, yi]`` broadcasts to (..., Nx, Ny).  Cached per
    (nx, ny, n); the arrays are read-only.
    """
    xs, ys = all_letters(nx, n + 1), all_letters(ny, n + 1)
    maps = []
    for i in range(n + 1):
        stage = (from_letters(ys[:, :i], ny)[None, :],
                 from_letters(xs[:, :i + 1], nx)[:, None],
                 ys[:, i][None, :])
        for a in stage:
            a.setflags(write=False)
        maps.append(stage)
    return tuple(maps)


def stage_factors(stages, nx: int, ny: int, n: int):
    """Yield q_i(y_i | y^{i-1}, x^i) over all (x^n, y^n), i = 0..n.

    Stage i has shape (..., ny**i, nx**(i+1), ny); leading batch axes pass
    through, so each factor has shape (..., Nx, Ny).
    """
    for stage, (hy, hx, yi) in zip(stages, stage_maps(nx, ny, n)):
        yield stage[..., hy, hx, yi]


def stage_product(stages, nx: int, ny: int, n: int) -> np.ndarray:
    """Conditional matrix K[..., x^n, y^n] = prod_i q_i, stage 0 first."""
    factors = stage_factors(stages, nx, ny, n)
    K = next(factors)
    for f in factors:
        K *= f
    return K
