"""Checks of crdf's outputs that do not use crdf.

Every reference here is computed from the workload's config alone: source
entropy, the zero-rate threshold by brute force over deterministic output
sequences, the single-letter rate-distortion point at a given slope, Shannon
lower bounds and binomial typicality sums.  Each ``check_*`` function takes
parsed outputs and returns a list of ``(index, reason)`` pairs, one per
operation whose output is wrong; an empty list means every output passed.
"""
from __future__ import annotations

import itertools
import math

RATE_FORMULA_TOL = 1e-7     # |R - rate_formula| at a converged point
BA_TOL = 1e-5               # solver vs single-letter reference, iid instance
BOUND_TOL = 1e-9            # slack on lower/upper bounds for rounding
MONOTONE_TOL = 1e-8
CONVEX_TOL = 1e-6
ZERO_RATE_TOL = 1e-6
ORACLE_BEATS_SOLVER_TOL = 1e-9
TYPICALITY_TOL = 1e-9
SIM_MARGIN_SE = 5.0         # standard errors of slack on the mean distortion


def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def h2_inverse(v: float) -> float:
    """The p in [0, 1/2] with h2(p) = v (0 for v <= 0, 1/2 for v >= 1)."""
    if v <= 0.0:
        return 0.0
    if v >= 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h2(mid) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _entropy(p) -> float:
    return -sum(x * math.log2(x) for x in p if x > 0)


def letter_marginals(source: dict) -> list:
    """P(X_i = .) for i = 0..n of an iid or Markov source config."""
    n = int(source["horizon"])
    if source["kind"] == "iid":
        return [list(source["letter"])] * (n + 1)
    if source["kind"] != "markov":
        raise ValueError(f"unsupported source kind {source['kind']!r}")
    T = source["transition"]
    marg = [list(source["initial"])]
    for _ in range(n):
        prev = marg[-1]
        marg.append([sum(prev[a] * T[a][b] for a in range(len(prev)))
                     for b in range(len(T[0]))])
    return marg


def entropy_rate(source: dict) -> float:
    """H(X^n)/(n+1) in bits per symbol."""
    n = int(source["horizon"])
    if source["kind"] == "iid":
        return _entropy(source["letter"])
    marg = letter_marginals(source)
    T = source["transition"]
    total = _entropy(marg[0]) + sum(
        sum(marg[i - 1][a] * _entropy(T[a]) for a in range(len(T)))
        for i in range(1, n + 1))
    return total / (n + 1)


def letter_costs(distortion: dict, nx: int) -> list:
    """The single-letter cost matrix of a hamming or single_letter config."""
    if distortion["kind"] == "hamming":
        return [[0.0 if x == y else 1.0 for y in range(nx)] for x in range(nx)]
    if distortion["kind"] == "single_letter":
        return [list(map(float, row)) for row in distortion["costs"]]
    raise ValueError(f"unsupported distortion kind {distortion['kind']!r}")


def d_max_brute_force(source: dict, distortion: dict) -> float:
    """min over every deterministic output sequence y^n of E[d(X^n, y^n)]."""
    marg = letter_marginals(source)
    C = letter_costs(distortion, len(marg[0]))
    ny = len(C[0])
    stage = [[sum(p[x] * C[x][y] for x in range(len(p))) for y in range(ny)]
             for p in marg]
    return min(sum(stage[i][y] for i, y in enumerate(seq))
               for seq in itertools.product(range(ny), repeat=len(marg))
               ) / len(marg)


def hamming_slb(h_rate: float, d: float, nx: int) -> float:
    """Shannon lower bound H/(n+1) - max H(err) under Hamming distortion d."""
    if d >= (nx - 1) / nx:
        return h_rate - math.log2(nx)
    return h_rate - h2(d) - d * math.log2(nx - 1)


def single_letter_rd(p, costs, s: float) -> tuple:
    """(D, R) of the single-letter problem at slope s, binary output.

    Blahut-Arimoto iterates towards the output law nu minimizing the convex
    F(nu) = -sum_x p(x) ln sum_y nu(y) exp(s c(x, y)); with two output
    letters nu = (v, 1 - v) and F'(v) = 0 is found by bisection instead.
    """
    if len(costs[0]) != 2:
        raise ValueError("single_letter_rd needs a binary output alphabet")
    a = [math.exp(s * row[0]) for row in costs]
    b = [math.exp(s * row[1]) for row in costs]

    def slope(v):
        return -sum(px * (ax - bx) / (v * ax + (1 - v) * bx)
                    for px, ax, bx in zip(p, a, b) if px > 0)

    if slope(0.0) >= 0:
        v = 0.0
    elif slope(1.0) <= 0:
        v = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if slope(mid) < 0:
                lo = mid
            else:
                hi = mid
        v = 0.5 * (lo + hi)
    nu = (v, 1.0 - v)
    q = []
    for ax, bx in zip(a, b):
        z = nu[0] * ax + nu[1] * bx
        q.append((nu[0] * ax / z, nu[1] * bx / z))
    out = [sum(px * qx[y] for px, qx in zip(p, q)) for y in range(2)]
    d = sum(px * qx[y] * row[y]
            for px, qx, row in zip(p, q, costs) for y in range(2))
    r = sum(px * qx[y] * math.log2(qx[y] / out[y])
            for px, qx in zip(p, q) for y in range(2) if px * qx[y] > 0)
    return d, r


def parse_curve_csv(text: str) -> list:
    """Rows of crdf's curve.csv as dicts with numeric fields."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rec = dict(zip(header, line.split(",")))
        rows.append({"s": float(rec["s"]), "D": float(rec["D"]),
                     "R": float(rec["R"]),
                     "rate_formula": float(rec["rate_formula"]),
                     "iterations": int(rec["iterations"]),
                     "converged": rec["converged"] == "true"})
    return rows


def check_curve(rows: list, cfg: dict) -> list:
    """Shape checks of one swept curve, over the rows that converged.

    The rate formula at each point, a rate that does not rise with D and is
    midpoint-convex in D, and zero rate at or beyond the brute-force D_max.
    """
    bad = []
    d_max = d_max_brute_force(cfg["source"], cfg["distortion"])
    live = [k for k, r in enumerate(rows) if r["converged"]]
    for k in live:
        r = rows[k]
        if abs(r["R"] - r["rate_formula"]) > RATE_FORMULA_TOL:
            bad.append((k, f"|R - rate_formula| = "
                           f"{abs(r['R'] - r['rate_formula']):.3g} at s={r['s']}"))
        if r["D"] >= d_max - BOUND_TOL and r["R"] > ZERO_RATE_TOL:
            bad.append((k, f"R = {r['R']:.3g} > 0 at D = {r['D']:.6g} "
                           f">= D_max = {d_max:.6g}"))
    order = sorted(live, key=lambda k: rows[k]["D"])
    D = [rows[k]["D"] for k in order]
    R = [rows[k]["R"] for k in order]
    for j in range(1, len(order)):
        if R[j] > R[j - 1] + MONOTONE_TOL:
            bad.append((order[j], f"rate rises with D at D = {D[j]:.6g}"))
    for j in range(1, len(order) - 1):
        span = D[j + 1] - D[j - 1]
        if span <= 1e-12:
            continue
        lam = (D[j] - D[j - 1]) / span
        if R[j] > (1 - lam) * R[j - 1] + lam * R[j + 1] + CONVEX_TOL:
            bad.append((order[j], f"curve not convex at D = {D[j]:.6g}"))
    return bad


def check_single_letter_match(rows: list, cfg: dict) -> list:
    """An iid source with single-letter costs: every converged point equals
    the single-letter rate-distortion point at the same slope."""
    src = cfg["source"]
    if src["kind"] != "iid":
        raise ValueError("single-letter reference needs an iid source")
    costs = letter_costs(cfg["distortion"], len(src["letter"]))
    bad = []
    for k, r in enumerate(rows):
        if not r["converged"]:
            continue
        d, rate = single_letter_rd(src["letter"], costs, r["s"])
        # at s = 0 every output law is optimal, so only R = 0 is determined
        d_off = abs(r["D"] - d) if r["s"] < 0 else 0.0
        if abs(r["R"] - rate) > BA_TOL or d_off > BA_TOL:
            bad.append((k, f"(D, R) = ({r['D']:.9g}, {r['R']:.9g}) vs "
                           f"single-letter ({d:.9g}, {rate:.9g}) at s={r['s']}"))
    return bad


def check_slb(rows: list, cfg: dict, upper: bool = False) -> list:
    """Hamming distortion: R >= Shannon lower bound at every converged point;
    with ``upper``, also R <= H/(n+1) and 0 <= D <= D_max."""
    src = cfg["source"]
    nx = len(letter_marginals(src)[0])
    h_rate = entropy_rate(src)
    d_max = d_max_brute_force(src, cfg["distortion"]) if upper else None
    bad = []
    for k, r in enumerate(rows):
        if not r["converged"]:
            continue
        lower = hamming_slb(h_rate, r["D"], nx)
        if r["R"] < lower - BOUND_TOL:
            bad.append((k, f"R = {r['R']:.9g} below the Shannon lower bound "
                           f"{lower:.9g} at D = {r['D']:.6g}"))
        if upper and r["R"] > h_rate + BOUND_TOL:
            bad.append((k, f"R = {r['R']:.9g} above H/(n+1) = {h_rate:.9g}"))
        if upper and not (-BOUND_TOL <= r["D"] <= d_max + BOUND_TOL):
            bad.append((k, f"D = {r['D']:.9g} outside [0, D_max = {d_max:.9g}]"))
    return bad


def check_oracle(report: dict, exit_code: int) -> list:
    """A multistart oracle report passes, and finds no chain that beats the
    solver's Lagrangian (the solver is the causal optimum)."""
    bad = []
    if exit_code != 0 or not report.get("passed"):
        bad.append((0, f"oracle report failed (exit {exit_code}, difference "
                       f"{report.get('value_difference')})"))
    beat = report["solver_lagrangian"] - report["oracle_best"]
    if beat > ORACLE_BEATS_SOLVER_TOL:
        bad.append((0, f"oracle chain beats the solver by {beat:.3g}"))
    return bad


def check_causality_gap(cfg: dict, causal: dict, classical: dict) -> list:
    """Causal rate >= classical rate at matched D; classical >= Hamming SLB."""
    bad = []
    nx = len(letter_marginals(cfg["source"])[0])
    lower = hamming_slb(entropy_rate(cfg["source"]), classical["D"], nx)
    if causal["R"] < classical["R"] - BOUND_TOL:
        bad.append((0, f"causal rate {causal['R']:.9g} below classical "
                       f"{classical['R']:.9g} at D = {causal['D']:.6g}"))
    if classical["R"] < lower - BOUND_TOL:
        bad.append((0, f"classical rate {classical['R']:.9g} below the "
                       f"Shannon lower bound {lower:.9g}"))
    return bad


def binomial_typicality(cfg: dict) -> tuple:
    """Exact (P(T_eps), P(D_eps)) for a uniform binary iid source through a
    symmetric memoryless channel with crossover a, as a sum over the
    disagreement count k: both the information density and the distortion
    depend on the pair only through k."""
    src, kern = cfg["source"], cfg["kernel"]
    W = kern["letter_kernel"]
    a = W[0][1]
    if src["kind"] != "iid" or src["letter"] != [0.5, 0.5] or W[1][0] != a:
        raise ValueError("binomial typicality needs a uniform binary source "
                         "and a symmetric channel")
    m = int(src["horizon"]) + 1
    eps = float(cfg["sim"]["epsilon"])
    info = 1.0 - h2(a)
    agree, disagree = math.log2(2 * (1 - a)), math.log2(2 * a)
    p_t = p_d = 0.0
    for k in range(m + 1):
        w = math.comb(m, k) * a**k * (1 - a) ** (m - k)
        if abs(((m - k) * agree + k * disagree) / m - info) < eps:
            p_t += w
        if abs(k / m - a) < eps:
            p_d += w
    return p_t, p_d


def check_typicality(result: dict, cfg: dict) -> list:
    p_t, p_d = binomial_typicality(cfg)
    bad = []
    if result["method"] != "multinomial":
        bad.append((0, f"method {result['method']!r}, expected 'multinomial'"))
    if abs(result["p_info"] - p_t) > TYPICALITY_TOL:
        bad.append((0, f"P(T_eps) = {result['p_info']:.12g}, binomial sum "
                       f"{p_t:.12g}"))
    if abs(result["p_dist"] - p_d) > TYPICALITY_TOL:
        bad.append((0, f"P(D_eps) = {result['p_dist']:.12g}, binomial sum "
                       f"{p_d:.12g}"))
    return bad


def random_codeword_distortion(cfg: dict) -> float:
    """E_{mu x nu}[d], the mean distortion of one random codeword.

    With the config's memoryless kernel nu is known exactly; without one
    (the solver's own chain) nu is not in the outputs, and the bound is
    max_y E[d(X_i, y)] per stage, which no output law exceeds.
    """
    marg = letter_marginals(cfg["source"])
    C = letter_costs(cfg["distortion"], len(marg[0]))
    ny = len(C[0])
    kern = cfg.get("kernel")
    total = 0.0
    for p in marg:
        per_y = [sum(p[x] * C[x][y] for x in range(len(p))) for y in range(ny)]
        if kern is not None and kern["kind"] == "memoryless":
            W = kern["letter_kernel"]
            nu = [sum(p[x] * W[x][y] for x in range(len(p))) for y in range(ny)]
            total += sum(nu[y] * per_y[y] for y in range(ny))
        else:
            total += max(per_y)
    return total / len(marg)


def check_simulation(report: dict, cfg: dict) -> list:
    """Codebook size, and the mean distortion between the converse and one
    random codeword, each with a margin of SIM_MARGIN_SE standard errors."""
    bad = []
    sim, src = cfg["sim"], cfg["source"]
    m = int(src["horizon"]) + 1
    count = math.ceil(2 ** (m * float(sim["rate"])))
    if report["codebook_count"] != count:
        bad.append((0, f"codebook_count {report['codebook_count']} != "
                       f"ceil(2^((n+1)R)) = {count}"))
    if report["trials"] != int(sim["trials"]):
        bad.append((0, f"trials {report['trials']} != {sim['trials']}"))
    margin = SIM_MARGIN_SE * report["std_err_distortion"]
    low = h2_inverse(entropy_rate(src) - math.log2(report["codebook_count"]) / m)
    high = random_codeword_distortion(cfg)
    mean = report["mean_distortion"]
    if not (low - margin <= mean <= high + margin):
        bad.append((0, f"mean distortion {mean:.6g} outside "
                       f"[{low - margin:.6g}, {high + margin:.6g}]"))
    for key in ("typicality_T", "typicality_D"):
        if not 0.0 <= report[key] <= 1.0:
            bad.append((0, f"{key} = {report[key]} outside [0, 1]"))
    return bad
