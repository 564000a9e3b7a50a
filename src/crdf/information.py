"""Exact information measures on finite joints.

Relative entropy, mutual information, directed information, information
density, and the four-way equivalence report for causal kernels (causal
factorization, the two Markov-chain conditions, and equality of mutual and
directed information).

All quantities are in bits.  The 0*log0 = 0 convention is applied atomwise;
absolute-continuity failures return ``math.inf``.  Conditional terms are
computed from exact joint atoms, and conditioning histories carrying less
than 1e-15 mass are skipped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import indexing as ix
from .probability import (
    UNREACHABLE_MASS,
    CausalKernelChain,
    FinitePmf,
    GeneralKernel,
    JointMeasure,
    ShapeError,
    SourceModel,
    joint_from_general,
    make_joint,
    validate_causal,
)

LOG2E = math.log2(math.e)


def relative_entropy(p: FinitePmf, q: FinitePmf) -> float:
    """D(p || q) in bits; +inf when p is not absolutely continuous w.r.t. q."""
    if p.size != q.size:
        raise ShapeError("pmfs live on different alphabets")
    pw, qw = p.weights, q.weights
    support = pw > 0
    if np.any(qw[support] == 0):
        return math.inf
    return float(np.sum(pw[support] * np.log2(pw[support] / qw[support])))


# Atoms below this mass are dropped from expectation sums: products of many
# near-zero kernel entries underflow to subnormals whose num/den ratios are
# pure rounding noise (and can hit 0/0), while their true contribution is
# bounded by ATOM_FLOOR * |log-ratio| per atom.
ATOM_FLOOR = 1e-30


def _plogratio(p: np.ndarray, num: np.ndarray, den: np.ndarray) -> float:
    """sum p * log2(num/den) over atoms with non-negligible p."""
    s = p > ATOM_FLOOR
    return float(np.sum(p[s] * np.log2(num[s] / den[s])))


def mutual_information(joint: JointMeasure) -> float:
    """I(X^n; Y^n) = D(P || mu x nu) in bits, computed atomwise."""
    P = joint.pmf
    prod = np.outer(joint.x_marginal(), joint.y_marginal())
    return _plogratio(P, P, prod)


def directed_information_of_joint(joint: JointMeasure) -> float:
    """I(X^n -> Y^n) = sum_i I(X^i; Y_i | Y^{i-1}) of a joint, in bits."""
    n, nx, ny = joint.horizon, joint.nx, joint.ny
    total = 0.0
    for i in range(n + 1):
        # marginal over (x^i, y^i)
        J = joint.pmf.reshape(nx ** (i + 1), nx ** (n - i),
                              ny ** (i + 1), ny ** (n - i)).sum(axis=(1, 3))
        A = J.shape[0]
        J = J.reshape(A, ny**i, ny)
        m_ah = J.sum(axis=2)              # P(x^i, y^{i-1})
        m_hy = J.sum(axis=0)              # P(y^{i-1}, y_i)
        m_h = m_hy.sum(axis=1)            # P(y^{i-1})
        keep = m_h > UNREACHABLE_MASS
        J = J[:, keep, :]
        num = J * m_h[keep][None, :, None]
        den = m_ah[:, keep, None] * m_hy[keep][None, :, :]
        s = J > ATOM_FLOOR
        total += float(np.sum(J[s] * np.log2(num[s] / den[s])))
    return total


def directed_information(source: SourceModel,
                         kernel: Union[GeneralKernel, CausalKernelChain]) -> float:
    """I(X^n -> Y^n) = sum_i I(X^i; Y_i | Y^{i-1}) in bits."""
    if isinstance(kernel, CausalKernelChain):
        joint = make_joint(source, kernel)
    else:
        joint = joint_from_general(source, kernel)
    return directed_information_of_joint(joint)


def information_density(joint: JointMeasure, x_traj, y_traj) -> float:
    """log2 of the conditional-over-marginal ratio at one trajectory pair.

    Accepts trajectory indices or letter tuples; raises on zero-probability
    pairs.  The expectation of this density over the joint is the directed
    information.
    """
    n = joint.horizon
    xi = int(np.atleast_1d(x_traj)[0]) if np.ndim(x_traj) == 0 \
        else int(ix.from_letters(np.asarray(x_traj), joint.nx))
    yi = int(np.atleast_1d(y_traj)[0]) if np.ndim(y_traj) == 0 \
        else int(ix.from_letters(np.asarray(y_traj), joint.ny))
    p = joint.pmf[xi, yi]
    if p <= 0:
        raise ValueError("information density undefined at zero-probability pair")
    mu_x = joint.x_marginal()[xi]
    nu_y = joint.y_marginal()[yi]
    return float(np.log2(p / (mu_x * nu_y)))


def _conditional_independence(joint3: np.ndarray, tol: float) -> bool:
    """Check A independent of B given C on a pmf of shape (A, B, C)."""
    pc = joint3.sum(axis=(0, 1))
    pac = joint3.sum(axis=1)
    pbc = joint3.sum(axis=0)
    for c in np.nonzero(pc > UNREACHABLE_MASS)[0]:
        want = np.outer(pac[:, c], pbc[:, c]) / pc[c]
        if np.max(np.abs(joint3[:, :, c] - want)) > tol:
            return False
    return True


def _markov_output_nonanticipation(joint: JointMeasure, tol: float) -> bool:
    """Y_i independent of X_{i+1..n} given (X^i, Y^{i-1}), all i < n."""
    n, nx, ny = joint.horizon, joint.nx, joint.ny
    for i in range(n):
        J = joint.pmf.reshape(nx ** (i + 1), nx ** (n - i),
                              ny**i, ny, ny ** (n - i)).sum(axis=4)
        # axes: (x^i, x_future, y^{i-1}, y_i) -> A=y_i, B=x_future, C=(x^i,y^{i-1})
        J = J.transpose(3, 1, 0, 2).reshape(ny, nx ** (n - i), -1)
        if not _conditional_independence(J, tol):
            return False
    return True


def _markov_no_feedback(joint: JointMeasure, tol: float) -> bool:
    """Y^i independent of X_{i+1} given X^i, all i < n."""
    n, nx, ny = joint.horizon, joint.nx, joint.ny
    for i in range(n):
        J = joint.pmf.reshape(nx ** (i + 1), nx, nx ** (n - i - 1),
                              ny ** (i + 1), ny ** (n - i)).sum(axis=(2, 4))
        # axes: (x^i, x_{i+1}, y^i) -> A=y^i, B=x_{i+1}, C=x^i
        J = J.transpose(2, 1, 0)
        if not _conditional_independence(J, tol):
            return False
    return True


@dataclass(frozen=True)
class InfoReport:
    """Four-way causal-equivalence report for one (source, kernel) pair."""

    mutual_information: float
    directed_information: float
    causal_factorization: bool
    markov_output_nonanticipative: bool
    info_equal: bool
    markov_feedback_free: bool
    equal_within: float

    @property
    def all_hold(self) -> bool:
        return (self.causal_factorization and self.markov_output_nonanticipative
                and self.info_equal and self.markov_feedback_free)


def check_causality_equivalence(source: SourceModel, kernel: GeneralKernel,
                 tol: float = 1e-9) -> InfoReport:
    """Evaluate the four equivalent causality statements for a kernel.

    For a kernel assembled from a causal chain all four must hold; for an
    anticausal kernel they all fail together (up to ``tol``).
    """
    joint = joint_from_general(source, kernel)
    mi = mutual_information(joint)
    di = directed_information_of_joint(joint)
    return InfoReport(
        mutual_information=mi,
        directed_information=di,
        causal_factorization=bool(validate_causal(kernel, source, tol)),
        markov_output_nonanticipative=_markov_output_nonanticipation(joint, tol),
        info_equal=abs(mi - di) <= tol,
        markov_feedback_free=_markov_no_feedback(joint, tol),
        equal_within=tol,
    )
