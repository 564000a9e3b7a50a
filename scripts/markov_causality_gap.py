"""Two experiments on a symmetric binary Markov source (flip probability 0.2).

1. Causality gap: the causal rate at each achieved distortion versus the
   classical (non-causal) rate at the same distortion.  The difference is the
   price of causal reconstruction and must be nonnegative.

2. Optimality check: the solver's Lagrangian versus a 500-start
   coordinate-descent search over all causal chains, per Lagrange
   multiplier.  The solver's kernel carries the backward cost-to-go term, so
   it reaches the causal optimum and the search finds nothing better: the
   gap column (solver minus search) is never positive beyond rounding, and
   its negative values show how far the search stops short of the optimum:
   at the defaults, -2.6e-9 at s = -0.05 and -1.7e-9 at s = -8, and at
   most 4e-11 in magnitude in between.
"""
import argparse

import numpy as np

from crdf import (
    DistortionModel,
    FinitePmf,
    SourceModel,
    bisect_s_for_distortion,
    brute_force_lagrangian,
    classical_ba,
    solve_fixed_s,
)

T = np.array([[0.8, 0.2], [0.2, 0.8]])


def causality_gap(horizon):
    src = SourceModel.markov(FinitePmf.uniform(2), T, horizon)
    dist = DistortionModel.hamming(2, horizon)
    print(f"causality gap, horizon {horizon}:")
    print(f"{'s':>8} {'D':>9} {'R_causal':>9} {'R_class':>9} {'gap':>9}")
    for s in sorted(-np.geomspace(0.3, 8.0, 10)):
        p = solve_fixed_s(src, dist, s)
        rc = bisect_s_for_distortion(src, dist, p.distortion,
                                     solve=classical_ba).rate
        print(f"{s:8.3f} {p.distortion:9.5f} {p.rate:9.5f} {rc:9.5f} "
              f"{p.rate - rc:9.2e}")
    print()


def optimality_gap(budget, seed):
    src = SourceModel.markov(FinitePmf.uniform(2), T, 1)
    dist = DistortionModel.hamming(2, 1)
    print(f"solver vs {budget}-start search, horizon 1:")
    print(f"{'s':>8} {'L_solver':>10} {'L_search':>10} {'gap':>9}")
    for s in (-0.05, -0.1, -0.2, -0.5, -1.0, -1.5, -2.0, -3.0, -4.0, -8.0):
        p = solve_fixed_s(src, dist, s)
        r = brute_force_lagrangian(src, dist, s, method="multistart",
                                   budget=budget, seed=seed)
        print(f"{s:8.2f} {p.lagrangian():10.6f} {r.best_value:10.6f} "
              f"{p.lagrangian() - r.best_value:9.2e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=2)
    ap.add_argument("--budget", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    causality_gap(args.horizon)
    optimality_gap(args.budget, args.seed)


if __name__ == "__main__":
    main()
