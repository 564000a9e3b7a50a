"""Seeded random instance generators for property tests.

The multistart oracle draws its own starts and does not use this module.

All generators take an explicit ``numpy.random.Generator`` so callers control
determinism.
"""
from __future__ import annotations

import numpy as np

from .probability import (
    CausalKernelChain,
    FinitePmf,
    GeneralKernel,
    SourceModel,
)


def random_pmf(rng: np.random.Generator, size: int,
               floor: float = 0.0) -> FinitePmf:
    w = rng.dirichlet(np.ones(size))
    if floor > 0:
        w = (1 - size * floor) * w + floor
    return FinitePmf(w)


def random_chain(rng: np.random.Generator, nx: int, ny: int,
                 horizon: int, floor: float = 0.0) -> CausalKernelChain:
    stages = []
    for i in range(horizon + 1):
        rows = rng.dirichlet(np.ones(ny), size=(ny**i, nx ** (i + 1)))
        if floor > 0:
            rows = (1 - ny * floor) * rows + floor
        stages.append(rows)
    return CausalKernelChain.from_stages(stages, nx, ny)


def random_iid_source(rng: np.random.Generator, nx: int, horizon: int,
                      floor: float = 0.02) -> SourceModel:
    return SourceModel.iid(random_pmf(rng, nx, floor=floor), horizon)


def random_markov_source(rng: np.random.Generator, nx: int,
                         horizon: int, floor: float = 0.02) -> SourceModel:
    initial = random_pmf(rng, nx, floor=floor)
    rows = rng.dirichlet(np.ones(nx), size=nx)
    rows = (1 - nx * floor) * rows + floor
    return SourceModel.markov(initial, rows, horizon)


def anticausal_swap_kernel(rng: np.random.Generator, nx: int) -> GeneralKernel:
    """Horizon-1 kernel with Y_0 = sigma(X_1) and Y_1 = tau(X_0).

    Y_0 reveals the *future* source letter, so the kernel is anticausal and
    (for any iid source with positive entropy) its directed information is
    strictly below its mutual information.
    """
    sigma = rng.permutation(nx)
    tau = rng.permutation(nx)
    table = np.zeros((nx * nx, nx * nx))
    for x0 in range(nx):
        for x1 in range(nx):
            y = sigma[x1] * nx + tau[x0]
            table[x0 * nx + x1, y] = 1.0
    return GeneralKernel(nx=nx, ny=nx, horizon=1, table=table)
