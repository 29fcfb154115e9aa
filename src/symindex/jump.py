"""Common-index-jump search over the torus vector of a path collection.

Builds the vector v whose coordinates are 1/(M ihat_k) followed by each
path's unit-eigenvalue angles (with their S^- multiplicities) divided by
ihat_k, then enumerates N = M0, 2 M0, ... and keeps exactly those N whose
fractional parts {N v} sit within eps of a chi vertex AND whose derived
iterates m_k = ([N/(M ihat_k)] + chi_k) M satisfy, exactly,

    I(k, m_k) = N + Delta_k,

together with the near-integrality conditions on m_k theta/pi.  The
enumeration is the oracle; every emitted solution is certified by integer
identities, so no closed-subgroup machinery is needed.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

import numpy as np
from mpmath import mp

from .iteration import (
    C_of_M,
    I_value,
    PathIndexData,
    S_plus_one,
    index_iterate,
    mean_index,
    nullity_iterate,
    path_record,
    s_minus_angles,
)
from .scalars import (
    PrecisionError,
    Scalar,
    detect_rational,
    fixed_bits,
    get_precision,
    scalar_to_json,
)

__all__ = [
    "JumpError",
    "JumpVector",
    "JumpSolution",
    "SearchResult",
    "build_jump_vector",
    "chi_of",
    "search_N",
    "compute_m",
    "delta_k",
    "delta_upper_bound",
    "varrho",
    "theorem211_report",
    "ratio_consistency_check",
    "mean_ratio_classify",
    "s_minus_angles",
    "default_delta",
    "default_eps",
    "default_M",
]

logger = logging.getLogger(__name__)


class JumpError(ValueError):
    pass


@dataclass(frozen=True)
class JumpVector:
    """The torus vector v plus its bookkeeping.

    coords[0:q] are 1/(M ihat_k); the remaining entries are, path by path,
    each S^- angle divided by that path's mean index.  mu[k] = C(M_k) is
    the number of angle coordinates of path k; h = q + sum(mu).
    """

    q: int
    mu: tuple
    coords: tuple
    M: int
    M0: int
    mean_indices: tuple

    @property
    def h(self) -> int:
        return self.q + sum(self.mu)

    def angle_coord_slice(self, k: int) -> slice:
        start = self.q + sum(self.mu[:k])
        return slice(start, start + self.mu[k])

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "mu": list(self.mu),
            "M": self.M,
            "M0": self.M0,
            "h": self.h,
            "coords": [scalar_to_json(c) for c in self.coords],
            "mean_indices": [scalar_to_json(s) for s in self.mean_indices],
        }


@dataclass(frozen=True)
class JumpSolution:
    N: int
    m: tuple
    chi: tuple
    delta: tuple
    residual: float
    delta_threshold: Fraction

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "m": list(self.m),
            "chi": list(self.chi),
            "delta": list(self.delta),
            "residual": self.residual,
            "delta_threshold": str(self.delta_threshold),
        }


@dataclass
class SearchResult:
    solutions: list
    rejects: list
    params: dict

    def to_json(self) -> dict:
        return {
            "solutions": [s.to_json() for s in self.solutions],
            "rejects": self.rejects,
            "params": self.params,
        }


def default_M(paths) -> int:
    """lcm of the denominators of all rational mean indices and all rational
    S^- angles, so that every m_k theta/pi with rational theta/pi is integral."""
    dens = [1]
    for data in paths:
        mi = mean_index(data)
        if mi.is_rational:
            dens.append(mi.fraction.denominator)
        for ang in s_minus_angles(data.decomp):
            if ang.is_rational:
                dens.append(ang.fraction.denominator)
    return lcm(*dens)


def default_delta(paths) -> Fraction:
    mu_max = max(C_of_M(d.decomp) for d in paths)
    return Fraction(1, 4 * (mu_max + 1))


def default_eps(paths, M: int, delta: Fraction) -> float:
    imax = max(float(mean_index(d)) for d in paths)
    return float(delta) / (4 * M * imax)


def build_jump_vector(paths, M: Optional[int] = None, M0: Optional[int] = None) -> JumpVector:
    """Assemble the torus vector of a finite path collection.

    Rationality tags of the coordinates are re-derived: a quotient of two
    irrational-tagged values can be exactly rational (an angle equal to the
    mean index, say), and the search must know, so each coordinate runs
    through continued-fraction detection at storage precision.
    """
    paths = list(paths)
    if not paths:
        raise JumpError("need at least one path")
    means = []
    for data in paths:
        mi = mean_index(data)
        if not (mi > Scalar.rational(0)):
            raise JumpError(f"mean index must be positive, got {float(mi):.6g}")
        means.append(mi)
    if M is None:
        M = default_M(paths)
    if M < 1:
        raise JumpError("M must be a positive integer")
    if M0 is None:
        M0 = M
    mu = tuple(C_of_M(d.decomp) for d in paths)
    coords = []
    for data in paths:
        coords.append(_retag(path_record(data).inv_mean(M)))
    for data, mi in zip(paths, means):
        for ang in s_minus_angles(data.decomp):
            coords.append(_retag(ang / mi))
    return JumpVector(q=len(paths), mu=mu, coords=tuple(coords), M=M, M0=M0,
                      mean_indices=tuple(means))


def _retag(s: Scalar) -> Scalar:
    if s.is_rational:
        return s
    fr = detect_rational(s)
    if fr is not None:
        return Scalar.from_fraction(fr)
    return s


def chi_of(a) -> tuple:
    """chi(a) componentwise: 0 for a_i >= 0, 1 for a_i < 0."""
    return tuple(0 if float(x) >= 0 else 1 for x in a)


# ----- stage 1: integer-scaled fractional-part filter -----------------------

_WRAP = 1 << 64  # numpy uint64 arithmetic is exact mod 2**64


def _scaled_coord(s: Scalar, F: int) -> int:
    if s.is_rational:
        fr = s.fraction
        return (fr.numerator << F) // fr.denominator
    return s._fixed(F)[0]


def _scan_chunk(args):
    """One N-chunk of the stage-1 scan; returns the (N, bits) candidates.

    A numpy uint64 prefilter drops most N, and each survivor gets the exact
    big-int test: (N X mod 2**F) within eps_int of 0 (side 0) or of 2**F
    (side 1), on the chi side when chi is explicit.  The prefilter keeps
    every N the exact test keeps, so the candidates are exactly those of
    stepping through every N.  Deterministic function of the chunk alone:
    worker count and chunk assignment cannot change the result set.
    """
    (first_step, n_steps, step_N, Xs, F, eps_int, explicit_bits) = args
    mask = (1 << F) - 1
    modulus = 1 << F
    N0 = first_step * step_N
    N_last = N0 + (n_steps - 1) * step_N
    # Prefilter on the top 64 of the F >= fixed_bits(0) = 149 fraction bits,
    # s = F - 64 > 0.  X is reduced mod 2**F first, so that Xh < 2**64: an
    # integer-valued coordinate has X = 2**F.  With Xh = (X mod 2**F) >> s,
    # the exact top bits (N X mod 2**F) >> s exceed N Xh mod 2**64 by
    # floor(N (X mod 2**s) / 2**s), which lies in [0, N), so by at most
    # N_last.  The exact test passes only if those top bits lie within
    # E = ceil(eps_int / 2**s) of 0 mod 2**64, so every passing N has
    # (N Xh + E + N_last) mod 2**64 < 2 E + N_last.  When that window
    # covers the whole circle, every N goes to the exact test.
    s = F - 64
    E = -(-eps_int >> s)
    window = 2 * E + N_last
    steps = np.arange(n_steps, dtype=np.uint64)
    if window < _WRAP:
        for X in Xs:
            Xh = (X & mask) >> s
            start = np.uint64((N0 * Xh + E + N_last) % _WRAP)
            inc = np.uint64(step_N * Xh % _WRAP)
            steps = steps[steps * inc + start < np.uint64(window)]
    out = []
    for j in steps.tolist():
        N = N0 + j * step_N
        bits = 0
        for i, X in enumerate(Xs):
            r = (N * X) & mask
            if r < eps_int:
                side = 0
            elif modulus - r < eps_int:
                side = 1
            else:
                break
            if explicit_bits is not None and side != explicit_bits[i]:
                break
            bits |= side << i
        else:
            out.append((N, bits))
    return out


# ----- exact gates -----------------------------------------------------------
#
# Every decision below is made on integers or Fractions.  An irrational x is
# read as X = floor(x 2**F), F = fixed_bits(dps); then (m X) mod 2**F is within
# |m| of {m x} 2**F, and the guard band of Scalar.mul_frac keeps it away from
# the wrap-around.  A comparison that lands within its slack of the boundary
# is repeated at 2 * dps digits from the stored value; only an ambiguity that
# survives that raises PrecisionError.


def compute_m(N: int, path_k: PathIndexData, chi_k: int, M: int) -> int:
    """m_k = ([N / (M ihat_k)] + chi_k) M; errors when the result is not positive.

    The floor is the guarded mul_floor of the path's cached 1/(M ihat_k)."""
    if N < 1:
        raise JumpError("N must be positive")
    m = (path_record(path_k).inv_mean(M).mul_floor(N) + chi_k) * M
    if m <= 0:
        raise JumpError(f"m_k = {m} <= 0 at N = {N}")
    return m


def _frac_below(x: Scalar, m: int, delta: Fraction) -> bool:
    """{m x} < delta for an irrational x, with slack |m| + 2 (units of 2**-F)."""
    dps = get_precision()
    num, den = delta.numerator, delta.denominator
    slack = (abs(m) + 2) * den
    for digits in (dps, 2 * dps):
        r, F = x.mul_frac(m, fixed_bits(digits))
        gap = r * den - (num << F)
        if gap < -slack:
            return True
        if gap > slack:
            return False
    raise PrecisionError(f"{{{m} * {x!r}}} is within {abs(m) + 2} * 2**-{F} of {delta}")


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def delta_k(path_k: PathIndexData, m_k: int, delta) -> int:
    """Delta_k: the number of S^- angles with 0 < {m_k theta/pi} < delta."""
    if not (0 < delta < 1):
        raise JumpError("delta must lie in (0,1)")
    delta = _as_fraction(delta)
    total = 0
    for ang in path_record(path_k).angles:
        if ang.is_rational:
            fr = m_k * ang.fraction
            if 0 < fr - fr.numerator // fr.denominator < delta:
                total += 1
        elif _frac_below(ang, m_k, delta):
            total += 1
    return total


def delta_upper_bound(decomp) -> int:
    """Upper estimate: Delta_k never exceeds the S^- weight of the
    irrational angles, (r - r~) + 2 (r* - r~*)."""
    r_irr = sum(1 for t in decomp.thetas if not t.is_rational)
    rs_irr = sum(1 for a in decomp.alphas if not a.is_rational)
    return r_irr + 2 * rs_irr


def _condition_339a_340(path_k: PathIndexData, m_k: int, delta) -> bool:
    """min({m theta/pi}, 1-{m theta/pi}) < delta for every unit eigenvalue
    angle, and m theta/pi integral for rational theta/pi."""
    delta = _as_fraction(delta)
    for ang in path_record(path_k).angles:
        if ang.is_rational:
            if (m_k * ang.fraction).denominator != 1:
                return False  # rational angle must land on an integer
        # 1 - {m x} = {-m x} for irrational x
        elif not (_frac_below(ang, m_k, delta) or _frac_below(ang, -m_k, delta)):
            return False
    return True


def _residual(v: JumpVector, N: int, bits, dps: int):
    """Max-norm distance of {N v} from the vertex bits, scaled by 2**F.

    Returns (worst, slack, F), F = fixed_bits(dps): the distance times 2**F
    lies within slack of worst.  Rational coordinates are exact (Fractions);
    each irrational one is within N, so slack is N when there is one.
    """
    F = fixed_bits(dps)
    one = 1 << F
    worst = slack = 0
    for coord, b in zip(v.coords, bits):
        if coord.is_rational:
            p, q = coord.fraction.numerator, coord.fraction.denominator
            d = abs((N * p) % q - b * q)
            dist = Fraction(d << F, q) if d else 0
        else:
            r, _ = coord.mul_frac(N, F)
            dist = one - r if b else r
            slack = N
        if dist > worst:
            worst = dist
    return worst, slack, F


def _closer_than(worst, slack: int, F: int, eps: Fraction):
    """True / False when the residual bounds of _residual decide
    distance < eps, None when eps lies within the slack."""
    gap = worst * eps.denominator - (eps.numerator << F)
    if gap + slack * eps.denominator < 0:
        return True
    if gap - slack * eps.denominator >= 0:
        return False
    return None


def search_N(v: JumpVector, chi, eps: float, N_max: int, paths, delta,
             workers: int = 1, max_reject_log: int = 50) -> SearchResult:
    """Enumerate N = M0, 2 M0, ... <= N_max and keep certified jump solutions.

    chi is a bit tuple of length h, or "auto" to accept every vertex the
    orbit actually approaches (the nearest vertex is tested for each N).
    Gates, in order: (a) max-norm closeness |{N v} - chi| < eps, (b) exact
    divisibility N/(M ihat_k) in Z for rational mean indices, (c) the
    integer identity I(k, m_k) = N + Delta_k, (d) the near-integrality of
    every m_k theta/pi.  Failures of (c) after passing (a) are logged.
    An empty result is a valid outcome.
    """
    paths = list(paths)
    if not (0 < eps < 0.5):
        raise JumpError("eps must lie in (0, 1/2)")
    delta = Fraction(delta) if not isinstance(delta, Fraction) else delta
    if not (0 < delta < Fraction(1, 2)):
        raise JumpError("delta must lie in (0, 1/2)")
    explicit_bits = None
    if chi != "auto":
        explicit_bits = tuple(int(b) for b in chi)
        if len(explicit_bits) != v.h:
            raise JumpError(f"chi needs {v.h} bits, got {len(explicit_bits)}")
        if any(b not in (0, 1) for b in explicit_bits):
            raise JumpError("chi bits must be 0 or 1")

    dps = get_precision()
    F = fixed_bits(dps)
    Xs = [_scaled_coord(c, F) for c in v.coords]
    eps_exact = Fraction(eps)
    eps_int = int(eps_exact * (1 << F)) + N_max + 2

    total_steps = N_max // v.M0
    chunk = 1 << 15
    tasks = []
    s = 1
    while s <= total_steps:
        n = min(chunk, total_steps - s + 1)
        tasks.append((s, n, v.M0, Xs, F, eps_int, explicit_bits))
        s += n

    if workers <= 1 or len(tasks) <= 1:
        chunks = [_scan_chunk(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_scan_chunk, tasks))

    candidates = [c for ch in chunks for c in ch]

    solutions = []
    rejects = []
    for N, bits_packed in candidates:
        bits = tuple((bits_packed >> i) & 1 for i in range(v.h))
        worst, slack, F = _residual(v, N, bits, dps)
        close = _closer_than(worst, slack, F, eps_exact)
        if close is None:  # eps lies within the truncation slack
            worst, slack, F = _residual(v, N, bits, 2 * dps)
            close = _closer_than(worst, slack, F, eps_exact)
            if close is None:
                raise PrecisionError(f"residual at N = {N} is within {slack} * 2**-{F} of eps")
        if not close:
            continue
        res = float(worst / (1 << F))
        # (b) rational mean indices demand exact divisibility of N
        ok = True
        for k, mi in enumerate(v.mean_indices):
            if mi.is_rational:
                ratio = Fraction(N) / (v.M * mi.fraction)
                if ratio.denominator != 1:
                    ok = False
                    break
        if not ok:
            continue
        try:
            ms = tuple(compute_m(N, paths[k], bits[k], v.M) for k in range(v.q))
        except JumpError as exc:
            if len(rejects) < max_reject_log:
                rejects.append({"N": N, "reason": str(exc)})
            continue
        # (d) angle conditions
        if not all(_condition_339a_340(paths[k], ms[k], delta) for k in range(v.q)):
            if len(rejects) < max_reject_log:
                rejects.append({"N": N, "reason": "angle condition (near-integrality) failed"})
            continue
        # (c) the identity gate, exact integers
        deltas = tuple(delta_k(paths[k], ms[k], delta) for k in range(v.q))
        ivals = tuple(I_value(paths[k], ms[k]) for k in range(v.q))
        bad = [k for k in range(v.q) if ivals[k] != N + deltas[k]]
        if bad:
            entry = {"N": N, "reason": "identity gate failed",
                     "detail": [{"k": k, "I": ivals[k], "N_plus_Delta": N + deltas[k]}
                                for k in bad]}
            if len(rejects) < max_reject_log:
                rejects.append(entry)
            logger.info("rejected N=%d at identity gate: %s", N, entry["detail"])
            continue
        solutions.append(JumpSolution(N=N, m=ms, chi=bits, delta=deltas,
                                      residual=res, delta_threshold=delta))
    solutions.sort(key=lambda s: s.N)
    params = {"eps": eps, "delta": str(delta), "M": v.M, "M0": v.M0,
              "N_max": N_max, "chi": "auto" if explicit_bits is None else list(explicit_bits)}
    return SearchResult(solutions=solutions, rejects=rejects, params=params)


# ----- consequences of a verified solution -----------------------------------


def varrho(paths, n: int) -> int:
    """min over paths of [(i1 + 2 S^+(1) - nu1 + n) / 2]."""
    paths = list(paths)
    if not paths:
        raise JumpError("need at least one path")
    vals = []
    for data in paths:
        d = data.decomp
        num = data.i1 + 2 * S_plus_one(d) - d.nu_one + n
        vals.append(num // 2)
    return min(vals)


@dataclass
class Theorem211Report:
    N: int
    varrho_n: int
    entries: list
    ordering_ok: bool
    chi_monotone_ok: bool
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and self.ordering_ok and self.chi_monotone_ok

    def to_json(self) -> dict:
        return {
            "N": self.N, "varrho_n": self.varrho_n, "entries": self.entries,
            "ordering_ok": self.ordering_ok, "chi_monotone_ok": self.chi_monotone_ok,
            "problems": self.problems, "ok": self.ok,
        }


def theorem211_report(sol: JumpSolution, paths, n: int) -> Theorem211Report:
    """Locate j(s) for s = 1..varrho_n by the interval condition
    i <= 2N - 2s + n <= i + nu - 1 at the doubled iterates, then check the
    index identity, the two-sided s bounds, the ordering of the products
    m_k ihat_k, and the chi monotonicity.  Ambiguities are flagged, not
    resolved."""
    paths = list(paths)
    N = sol.N
    rho = varrho(paths, n)
    i2 = [index_iterate(paths[k], 2 * sol.m[k]) for k in range(len(paths))]
    nu2 = [nullity_iterate(paths[k], 2 * sol.m[k]) for k in range(len(paths))]
    spc = [S_plus_one(p.decomp) + C_of_M(p.decomp) for p in paths]
    entries = []
    problems = []
    assigned = []
    for s in range(1, rho + 1):
        target = 2 * N - 2 * s + n
        cands = [k for k in range(len(paths))
                 if i2[k] <= target <= i2[k] + nu2[k] - 1]
        entry = {"s": s, "target": target, "candidates": cands}
        if len(cands) == 1:
            k = cands[0]
            entry["j"] = k
            eq_344 = (i2[k] == 2 * (N + sol.delta[k]) - spc[k])
            lower = (2 * s >= n + spc[k] - 2 * sol.delta[k] - nu2[k] + 1)
            upper = (2 * s <= n + spc[k] - 2 * sol.delta[k])
            entry["index_identity_ok"] = eq_344
            entry["bounds_ok"] = lower and upper
            if not eq_344:
                problems.append(f"s={s}: doubled-iterate index identity fails")
            if not (lower and upper):
                problems.append(f"s={s}: two-sided bound on s fails")
            assigned.append((s, k))
        elif not cands:
            entry["j"] = None
            problems.append(f"s={s}: no path interval contains the target")
        else:
            entry["j"] = None
            problems.append(f"s={s}: ambiguous assignment {cands}")
        entries.append(entry)

    # ordering of ([N/(M D)] + chi) M D = m_k ihat_k, strictly decreasing in s
    ordering_ok = True
    with mp.workdps(get_precision()):
        prods = {k: sol.m[k] * mean_index(paths[k]).mpf() for _, k in assigned}
        for (s1, k1), (s2, k2) in zip(assigned, assigned[1:]):
            if not prods[k2] < prods[k1]:
                ordering_ok = False
    chi_ok = True
    for (s1, k1), (s2, k2) in zip(assigned, assigned[1:]):
        if not sol.chi[k2] <= sol.chi[k1]:
            chi_ok = False
    return Theorem211Report(N=N, varrho_n=rho, entries=entries,
                            ordering_ok=ordering_ok, chi_monotone_ok=chi_ok,
                            problems=problems)


@dataclass
class RatioVerdict:
    status: str  # "ok" | "violated" | "indeterminate"
    detail: dict

    def to_json(self):
        return {"status": self.status, **self.detail}


def ratio_consistency_check(sol: JumpSolution, v: JumpVector, i: int, j: int,
                            p_over_q, tol: Optional[float] = None) -> RatioVerdict:
    """On a hit, rationally dependent irrational coordinates v_j/v_i = p/q
    must have residuals in that exact ratio and equal chi bits."""
    p_over_q = Fraction(p_over_q)
    ci, cj = v.coords[i], v.coords[j]
    if ci.is_rational or cj.is_rational:
        raise JumpError("ratio check requires irrational-tagged coordinates")
    dps = get_precision()
    if tol is None:
        tol = 10.0 ** (-(dps - 15)) * max(1.0, abs(float(p_over_q)))
    with mp.workdps(2 * dps):
        ri = sol.N * ci.mpf(2 * dps) - ci.mul_floor(sol.N) - sol.chi[i]
        rj = sol.N * cj.mpf(2 * dps) - cj.mul_floor(sol.N) - sol.chi[j]
        if abs(ri) < 1e-15:
            return RatioVerdict("indeterminate",
                                {"reason": "residual below 1e-15", "r_i": float(ri)})
        mismatch = float(abs(rj - p_over_q * ri))
    detail = {"r_i": float(ri), "r_j": float(rj),
              "expected_ratio": str(p_over_q), "mismatch": mismatch,
              "chi_equal": sol.chi[i] == sol.chi[j]}
    if sol.chi[i] != sol.chi[j] or mismatch > tol:
        return RatioVerdict("violated", detail)
    return RatioVerdict("ok", detail)


def mean_ratio_classify(paths, denominator_bound: int = 10 ** 6) -> list:
    """Pairwise mean-index ratio matrix: exact rationals when both tags are
    rational, else continued-fraction detection up to the denominator bound."""
    paths = list(paths)
    means = [mean_index(d) for d in paths]
    out = []
    for a in means:
        row = []
        for b in means:
            if a.is_rational and b.is_rational:
                fr = a.fraction / b.fraction
                row.append({"type": "rational", "value": f"{fr.numerator}/{fr.denominator}"})
                continue
            ratio = a / b
            fr = detect_rational(ratio, max_denominator=denominator_bound)
            if fr is not None:
                row.append({"type": "rational", "value": f"{fr.numerator}/{fr.denominator}"})
            else:
                row.append({"type": "irrational", "up_to_denominator": denominator_bound})
        out.append(row)
    return out
