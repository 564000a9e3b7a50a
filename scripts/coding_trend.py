"""Random-codebook causal coding experiment for a uniform binary source.

The single-stage solver is bisected to the target distortion; its letter
kernel is lifted to each block length and used both to draw codebooks (each
codeword is a source block passed through the per-letter chain) and to define
the typical sets.  The empirical mean
distortion should drift down toward the target as the block grows; P(T) and
P(D) are the exact typicality probabilities of the same channel.
"""
import argparse

from crdf import (
    CausalKernelChain,
    DistortionModel,
    FinitePmf,
    SourceModel,
    bisect_s_for_distortion,
    simulate,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--target-d", type=float, default=0.25)
    ap.add_argument("--rate", type=float, default=0.34)
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--epsilon", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=20260823)
    args = ap.parse_args()

    base = bisect_s_for_distortion(
        SourceModel.iid(FinitePmf.uniform(2), 0),
        DistortionModel.hamming(2, 0), args.target_d)
    W = base.chain.conditional_matrix()
    print(f"letter kernel at D={args.target_d}: {W.round(6).tolist()}")
    print(f"rate {args.rate} bits/symbol vs R(D) = {base.rate:.4f}\n")

    print("simulation:")
    print(f"{'n':>4} {'mean D':>9} {'se':>8} {'P(T)':>7} {'P(D)':>7} "
          f"{'codewords':>9}")
    for n in (7, 11, 15):
        src = SourceModel.iid(FinitePmf.uniform(2), n)
        chain = CausalKernelChain.memoryless(W, n)
        rep = simulate(src, DistortionModel.hamming(2, n), chain, args.rate,
                       args.trials, args.epsilon, args.seed,
                       target_d=args.target_d)
        print(f"{n:4d} {rep.mean_distortion:9.5f} "
              f"{rep.std_err_distortion:8.5f} {rep.typicality_T:7.4f} "
              f"{rep.typicality_D:7.4f} {rep.codebook_count:9d}")
    print("\nnote: with the mean distortion sitting exactly on the "
          "disagreement-count lattice,\nthe window captures a single count "
          "and the probabilities shrink with n.")


if __name__ == "__main__":
    main()
