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

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import ceil, floor, lcm
from typing import Optional

import numpy as np

from .iteration import (
    I_value,
    PathIndexData,
    index_iterate,
    mean_index,
    nullity_iterate,
    path_record,
    s_minus_angles,   # re-exported: bench/workloads.py imports it from here
)
from .scalars import (
    PrecisionError,
    Scalar,
    convergents,
    detect_rational,
    fixed_bits,
    get_precision,
    guard_tol,
    retag,
    scalar_to_json,
)

__all__ = [
    "JumpError",
    "JumpVector",
    "JumpSolution",
    "SearchResult",
    "build_jump_vector",
    "search_N",
    "search_report",
    "compute_m",
    "delta_k",
    "varrho",
    "theorem211_report",
    "mean_ratio_classify",
    "s_minus_angles",
    "default_delta",
    "default_eps",
    "default_M",
]


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


@dataclass(slots=True)
class JumpSolution:
    """One certified solution: a row of SearchResult, built on request."""

    N: int
    m: tuple
    chi: tuple
    delta: tuple
    residual: float
    delta_threshold: Fraction


class SolutionRows(Sequence):
    """The solutions of a SearchResult as JumpSolution rows, each one built
    when it is read."""

    def __init__(self, result: "SearchResult"):
        self._result = result

    def __len__(self) -> int:
        return len(self._result.N)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        r = self._result
        p = r.chi[i]
        return JumpSolution(r.N[i], tuple(col[i] for col in r.m),
                            tuple((p >> j) & 1 for j in range(r.h)),
                            tuple(col[i] for col in r.delta), r.residual[i], r.delta_threshold)


_JSON_CHUNK = 1 << 14   # characters of solution rows per write call of write_json


@dataclass
class SearchResult:
    """The certified solutions as columns, in increasing N, and gates: the
    number of close candidates each gate stopped, and the number it
    certified, by gate name (_GATES).

    Solution i is N[i] (a Python int, exact at any size); chi[i], its h
    vertex bits packed (bit j is chi_j); m[k][i] and delta[k][i] for each
    path k; and residual[i].  Every solution has the threshold
    delta_threshold.  A search builds no object per solution: those objects
    and their tuples cost more than the batch gates, and kept the cyclic GC
    busy.  solutions reads the rows as JumpSolutions; write_json prints
    the solutions array's JSON text straight from the columns, and to_json
    builds its dicts.
    """

    N: list
    chi: list
    m: list
    delta: list
    residual: list
    h: int
    delta_threshold: Fraction
    gates: dict
    params: dict = field(default_factory=dict)

    @property
    def solutions(self) -> SolutionRows:
        return SolutionRows(self)

    def extend(self, more: "SearchResult") -> None:
        """Append the solutions of more, a search of larger N, and add its
        gate counts."""
        for col, add in zip((self.N, self.chi, self.residual, *self.m, *self.delta),
                            (more.N, more.chi, more.residual, *more.m, *more.delta)):
            col += add
        for name, count in more.gates.items():
            self.gates[name] += count

    def to_json(self) -> dict:
        """The JSON object, one dict per solution; the solutions at one
        vertex share its chi list."""
        threshold = str(self.delta_threshold)
        chis = {p: [(p >> j) & 1 for j in range(self.h)] for p in set(self.chi)}
        solutions = [{"N": N, "m": list(m), "chi": chis[p], "delta": list(d),
                      "residual": r, "delta_threshold": threshold}
                     for N, p, m, d, r in zip(self.N, self.chi, zip(*self.m),
                                              zip(*self.delta), self.residual)]
        return {"solutions": solutions, "gates": self.gates, "params": self.params}

    def write_json(self, write, newline: str) -> None:
        """The text of json.dumps(self.to_json()["solutions"], sort_keys=True,
        indent=2) as write calls, with newline the line break and indentation
        of the array's own level; no dict or list is built per solution.
        cli._dump_json writes the object around it.

        Each solution is one %-format of its column values in a row template
        that holds the indentation, the sorted keys and the quoted threshold
        (a Fraction's str needs no escapes), with one cached chi text per
        distinct packed value.  The ints print as int.__repr__ and the
        residual, a finite float, as float.__repr__, as json.dumps prints
        them.  Rows go out about _JSON_CHUNK characters per write call.
        """
        if not self.N:
            write("[]")
            return
        row = newline + "  "  # a solution's own level
        key = row + "  "      # its keys
        item = key + "  "     # their list items

        def array(texts):
            return "[" + item + ("," + item).join(texts) + key + "]"

        ints = array(["%d"] * len(self.m))
        template = (row + "{" + key + '"N": %d,' + key + '"chi": %s,' + key + '"delta": '
                    + ints + "," + key + f'"delta_threshold": "{self.delta_threshold}",'
                    + key + '"m": ' + ints + "," + key + '"residual": %r' + row + "}")
        chis = {p: array([str((p >> j) & 1) for j in range(self.h)]) for p in set(self.chi)}
        rows = map(template.__mod__, zip(self.N, map(chis.__getitem__, self.chi),
                                         *self.delta, *self.m, self.residual))
        first = next(rows)
        write("[" + first)
        step = max(1, _JSON_CHUNK // len(first))
        while chunk := ",".join(islice(rows, step)):
            write("," + chunk)
        write(newline + "]")


def default_M(paths) -> int:
    """lcm of the denominators of all rational mean indices and all rational
    S^- angles, so that every m_k theta/pi with rational theta/pi is integral."""
    dens = [1]
    for data in paths:
        rec = path_record(data)
        dens += [x.fraction.denominator for x in (rec.mean, *rec.angles) if x.is_rational]
    return lcm(*dens)


def default_delta(paths) -> Fraction:
    mu_max = max(path_record(d).C for d in paths)
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
    recs = [path_record(data) for data in paths]
    for rec in recs:
        if not (rec.mean > Scalar.rational(0)):
            raise JumpError(f"mean index must be positive, got {float(rec.mean):.6g}")
    if M is None:
        M = default_M(paths)
    if M < 1:
        raise JumpError("M must be a positive integer")
    if M0 is None:
        M0 = M
    if M0 < 1:
        raise JumpError("M0 must be a positive integer")
    coords = [retag(rec.inv_mean(M)) for rec in recs]
    coords += [retag(ang / rec.mean) for rec in recs for ang in rec.angles]
    return JumpVector(q=len(paths), mu=tuple(rec.C for rec in recs), coords=tuple(coords),
                      M=M, M0=M0, mean_indices=tuple(rec.mean for rec in recs))


# ----- stage 1: integer-scaled fractional-part filter -----------------------

_WRAP = 1 << 64  # numpy uint64 arithmetic is exact mod 2**64


def _scaled_coord(s: Scalar, F: int) -> int:
    """X of the coordinate s at F fraction bits: floor(s 2**F) for an
    irrational s, ceil(s 2**F) for a rational one, whose N X then lies less
    than N above N s 2**F: the bound that _stage1's proof uses."""
    if s.is_rational:
        fr = s.fraction
        return -(-(fr.numerator << F) // fr.denominator)
    return s._fixed(F)[0]


def _window(F: int, eps_int: int, N_last: int):
    """(E, window) of the prefilter of the N <= N_last (_scan_chunk)."""
    E = -(-eps_int >> (F - 64))
    return E, 2 * E + N_last


def _scan_chunk(first_step, n_steps, step_N, Xs, F, eps_int):
    """(steps, n): the steps j, increasing, of the N = (first_step + j)
    step_N, 0 <= j < n, that a numpy uint64 prefilter keeps, as a uint64
    array: every such N whose residues N X mod 2**F all lie within eps_int
    of 0 or 2**F, and some others.  The window is that of the last of all
    n_steps steps, and n <= n_steps is as far as the first coordinate's
    hits reach: _window_hits gives at most 2 _CERTIFY_BATCH of them, so
    n = n_steps for a range of at most _CHUNK steps with no more hits than
    that.  Each further coordinate tests the steps kept so far."""
    N0 = first_step * step_N
    N_last = N0 + (n_steps - 1) * step_N
    # Prefilter on the top 64 of the F >= fixed_bits(30) = 249 fraction bits,
    # s = F - 64 > 0.  X is reduced mod 2**F first, so that Xh < 2**64: an
    # integer-valued coordinate has X = 2**F.  With Xh = (X mod 2**F) >> s,
    # the exact top bits (N X mod 2**F) >> s exceed N Xh mod 2**64 by
    # floor(N (X mod 2**s) / 2**s), which lies in [0, N), so by at most
    # N_last.  A residue within eps_int of 0 or 2**F has its top bits within
    # E = ceil(eps_int / 2**s) of 0 mod 2**64, so every such N has
    # (N Xh + E + N_last) mod 2**64 < 2 E + N_last.  When that window
    # covers the whole circle, every N is kept.
    s = F - 64
    E, window = _window(F, eps_int, N_last)
    cap = 2 * _CERTIFY_BATCH
    if window >= _WRAP:
        n = min(n_steps, cap)
        return np.arange(n, dtype=np.uint64), n
    mask = (1 << F) - 1
    steps = n = None
    for X in Xs:
        Xh = (X & mask) >> s
        start = (N0 * Xh + E + N_last) % _WRAP
        inc = step_N * Xh % _WRAP
        if steps is None:
            steps, n = _window_hits(start, inc, window, n_steps, cap)
        else:
            steps = steps[steps * np.uint64(inc) + np.uint64(start) < np.uint64(window)]
    return steps, n


# ----- the steps in a window, listed by a continued-fraction stride -----------
#
# The steps j < L with x_j = (start + j inc) mod 2**64 < W (W < 2**64), after
# Slater (1967): take a convergent p/q of inc / 2**64 (scalars.convergents)
# and d = q inc - p 2**64.  In the residue class r < q, x_(r + k q) =
# x_r + k d mod 2**64 moves by d per step k.  While the class moves no more
# than the gap 2**64 - W in all, |d| (K - 1) <= 2**64 - W over its K steps,
# it cannot leave the window and come back, which takes more than the gap:
# its hits form one interval of k.
# For d > 0 that is [0, floor((W - 1 - x_r) / d) + 1) when x_r < W, and
# [floor((2**64 - 1 - x_r) / d) + 1, floor((2**64 + W - 1 - x_r) / d) + 1)
# else, that is, where x_r + k d has wrapped and is still below 2**64 + W;
# both uppers are floor(((W - 1 - x_r) mod 2**64) / d) + 1.  d < 0 is the
# mirror image: x -> W - 1 - x maps the window onto itself and d to -d;
# d = 0 keeps a class in or out of the window.  So the classes give the hits
# in O(q + hits), two uint64 divisions per class.  _stride takes the first
# convergent whose classes hold all L steps; q is then about sqrt(L) for a
# typical inc.  When that q would exceed _CHUNK (a large partial quotient,
# or a window of nearly the whole circle), it takes the last convergent
# with q <= _CHUNK and lists the steps in pieces, each as long as its
# classes can hold.  Pieces shorter than _CHUNK would cost more than testing
# each step, and so would a range of at most _CHUNK steps: then one chunk is
# tested.  Classes of a piece shorter than q hold one step each.
#
# The hits are as many as the steps in the worst case (an integer or
# rational coordinate, whose residues take few values), so _window_hits
# counts each piece's hits before it lists them, and stops at a cap.


def _stride(inc: int, window: int, n_steps: int):
    """(q, d, length): a stride q <= _CHUNK and its d (the comment above),
    and the length of the pieces of the n_steps steps that its classes
    list."""
    gap = _WRAP - window
    for p, q in convergents(inc, _WRAP):
        if q > _CHUNK:
            break
        d = q * inc - p * _WRAP
        # a class of K <= gap // |d| + 1 steps moves |d| (K - 1) <= gap
        found = q, d, q * (gap // abs(d) + 1) if d else n_steps
        if found[2] >= n_steps:
            break
    return found


def _classes(x0: int, inc: int, q: int, d: int, W, L: int):
    """(r, lo, count): the residue classes r < n = min(q, L) of L steps
    from the residue x0 (the comment above); class r holds the hits
    r + k n, lo <= k < lo + count, as uint64, uint64 and int64 arrays."""
    n, one = min(q, L), np.uint64(1)
    r = np.arange(n, dtype=np.uint64)
    x = np.uint64(x0) + r * np.uint64(inc)
    K = (np.uint64(L - 1) - r) // np.uint64(n) + one    # the steps of class r
    if d == 0:
        lo, hi = np.zeros(n, np.uint64), np.where(x < W, K, np.uint64(0))
    else:
        if d < 0:
            x = W - one - x
        a = np.uint64(abs(d))
        lo = np.where(x < W, np.uint64(0), ~x // a + one)
        hi = np.minimum((W - one - x) // a, K - one) + one
    return r, lo, np.where(hi > lo, hi - lo, np.uint64(0)).astype(np.int64)


def _window_hits(start: int, inc: int, window: int, n_steps: int, cap: int):
    """(hits, n): the steps j, 0 <= j < n, with (start + j inc) mod 2**64 <
    window, increasing, as a uint64 array, for ints 0 <= start, inc < 2**64,
    0 < window < 2**64 and cap >= 1; 0 < n <= n_steps, and there are at most
    cap hits.  A range of at most _CHUNK steps, or one whose stride lists
    pieces shorter than _CHUNK, has one chunk tested step by step, cut at
    the cap.  Any other is listed by the classes of _stride, in one numpy
    pass over them per piece, then sorted, up to the end of the range or
    the cap: a piece that would take the hits past the cap is shortened
    until they fit, and ends the list."""
    if n_steps > _CHUNK:
        q, d, length = _stride(inc, window, n_steps)
    W = np.uint64(window)
    if n_steps <= _CHUNK or length < _CHUNK:
        j = np.arange(min(n_steps, _CHUNK), dtype=np.uint64)
        hits = j[j * np.uint64(inc) + np.uint64(start) < W]
        return (hits, len(j)) if len(hits) <= cap else (hits[:cap], int(hits[cap]))
    pieces, total, j0 = [], 0, 0
    while j0 < n_steps and total < cap:
        L = min(length, n_steps - j0)
        x0 = (start + j0 * inc) % _WRAP
        r, lo, count = _classes(x0, inc, q, d, W, L)
        fits = total + count.sum() <= cap
        while (c := int(count.sum())) > cap - total:
            # to the steps that would hold the room left if the hits were
            # spread evenly, and at least by half
            L = min(L // 2, L * (cap - total) // c)
            r, lo, count = _classes(x0, inc, q, d, W, L)
        n = min(q, L)
        # class r lists j0 + r + k n for lo <= k < lo + count, at the places
        # from before = count[:r].sum() on of the hits (uint64 arithmetic
        # wraps)
        before = (np.cumsum(count) - count).astype(np.uint64)
        hits = np.repeat(np.uint64(j0) + r + (lo - before) * np.uint64(n), count)
        hits += np.arange(0, len(hits) * n, n, dtype=np.uint64)
        if n > 1:
            hits.sort()
        pieces.append(hits)
        total, j0 = total + len(hits), j0 + L
        if not fits:
            break
    return (pieces[0] if len(pieces) == 1 else np.concatenate(pieces)), j0


# ----- exact gates -----------------------------------------------------------
#
# Every decision below is made on integers or Fractions.  An irrational x is
# read as X = floor(x 2**F), F = fixed_bits(dps); then (m X) mod 2**F is within
# |m| + 1 of {m x} 2**F (the storage error is far below a unit, see scalars),
# and the guard band of Scalar.mul_frac keeps it away from the wrap-around.  A
# comparison that lands within its slack of the boundary raises
# PrecisionError, as a floor inside the guard band does.


def compute_m(N: int, path_k: PathIndexData, chi_k: int, M: int) -> int:
    """m_k = ([N / (M ihat_k)] + chi_k) M; errors when the result is not positive.

    The floor is the guarded mul_floor of the path's cached 1/(M ihat_k)."""
    if N < 1:
        raise JumpError("N must be positive")
    m = (path_record(path_k).inv_mean(M).mul_floor(N) + chi_k) * M
    if m <= 0:
        raise JumpError(f"m_k = {m} <= 0 at N = {N}")
    return m


def _frac_below(x: Scalar, m: int, delta: Fraction, dps: int) -> bool:
    """{m x} < delta for an irrational x, with slack |m| + 2 (units of 2**-F)."""
    num, den = delta.numerator, delta.denominator
    slack = (abs(m) + 2) * den
    r, F = x.mul_frac(m, fixed_bits(dps))
    gap = r * den - (num << F)
    if gap < -slack:
        return True
    if gap > slack:
        return False
    raise PrecisionError(f"{{{m} * {x!r}}} is within {abs(m) + 2} * 2**-{F} of {delta}")


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _checked_delta(delta) -> Fraction:
    """delta as a Fraction; JumpError unless it lies in (0, 1/2)."""
    delta = _as_fraction(delta)
    if not (0 < delta < Fraction(1, 2)):
        raise JumpError("delta must lie in (0, 1/2)")
    return delta


def delta_k(path_k: PathIndexData, m_k: int, delta) -> int:
    """Delta_k: the number of S^- angles with 0 < {m_k theta/pi} < delta."""
    if not (0 < delta < 1):
        raise JumpError("delta must lie in (0,1)")
    return _delta_count(path_k, m_k, _as_fraction(delta), get_precision())


def _delta_count(path_k: PathIndexData, m_k: int, delta: Fraction, dps: int) -> int:
    total = 0
    for ang in path_record(path_k).angles:
        if ang.is_rational:
            fr = m_k * ang.fraction
            if 0 < fr - fr.numerator // fr.denominator < delta:
                total += 1
        elif _frac_below(ang, m_k, delta, dps):
            total += 1
    return total


def _condition_339a_340(path_k: PathIndexData, m_k: int, delta, dps: int) -> bool:
    """min({m theta/pi}, 1-{m theta/pi}) < delta for every unit eigenvalue
    angle, and m theta/pi integral for rational theta/pi."""
    delta = _as_fraction(delta)
    for ang in path_record(path_k).angles:
        if ang.is_rational:
            if (m_k * ang.fraction).denominator != 1:
                return False  # rational angle must land on an integer
        # 1 - {m x} = {-m x} for irrational x
        elif not (_frac_below(ang, m_k, delta, dps) or _frac_below(ang, -m_k, delta, dps)):
            return False
    return True


def _residual(v: JumpVector, N: int, bits, dps: int):
    """Max-norm distance of {N v} from the vertex bits, the nearest vertex
    of each coordinate when bits is None, scaled by 2**F.

    Returns (worst, slack, F, packed), F = fixed_bits(dps) and packed the
    vertex bits (bit j is chi_j): the distance times 2**F lies within slack
    of worst.  Rational coordinates are exact (Fractions); p/q is nearest
    vertex 1 when 2 (N p mod q) > q.  Each irrational one is read once as
    r = (N X) mod 2**F, X as in Scalar._fixed, within N of {N x} 2**F for
    the stored x (the storage error adds N |x| 2**(F - F_s) units), so
    slack is N, or 0 when there is none or when the largest irrational
    distance plus N is at most a rational one: worst is then exact.  An
    irrational coordinate is nearest vertex 1 when r >= 2**(F - 1).  An r
    inside the guard band of Scalar.mul_frac (guard_tol) raises mul_frac's
    PrecisionError.
    """
    F = fixed_bits(dps)
    one = 1 << F
    tol = guard_tol(F, N)
    worst = irr = packed = 0
    for i, coord in enumerate(v.coords):
        if coord.is_rational:
            fr = coord.fraction
            q = fr.denominator
            d = (N * fr.numerator) % q
            b = 2 * d > q if bits is None else bits[i]
            if b:
                d = q - d
            dist = Fraction(d << F, q) if d else 0
        else:
            r = (N * coord._fixed(F)[0]) & (one - 1)
            if r < tol or r > one - tol:
                coord.mul_frac(N, F)   # inside the guard band: raises
            b = r >> (F - 1) if bits is None else bits[i]
            dist = one - r if b else r
            if dist > irr:
                irr = dist
        packed |= b << i
        if dist > worst:
            worst = dist
    # an irrational distance is never 0: r = 0 lies in the guard band
    return worst, N if irr and irr + N > worst else 0, F, packed


def _closer_than(worst, slack: int, F: int, eps: Fraction):
    """True / False when the residual bounds of _residual decide
    distance < eps, None when eps lies within the slack."""
    gap = worst * eps.denominator - (eps.numerator << F)
    if gap + slack * eps.denominator < 0:
        return True
    if gap - slack * eps.denominator >= 0:
        return False
    return None


def _close(v: JumpVector, bits, eps: Fraction, eps_floor: int, dps: int, N: int):
    """(N, packed vertex bits, residual) when {N v} lies within eps of the
    vertex bits (the nearest one when bits is None), else None, from one
    read of _residual at dps: close at once when worst + slack < eps_floor
    = floor(eps 2**F), else as _closer_than decides; PrecisionError when
    eps lies within the slack.  The residual is worst / 2**F as a float.

    The reference decision of stage 1: _windows makes it for a chunk's
    survivors at once, and hands those it cannot prove to this one."""
    worst, slack, F, packed = _residual(v, N, bits, dps)
    if not worst < eps_floor - slack:
        close = _closer_than(worst, slack, F, eps)
        if close is None:
            raise PrecisionError(f"residual at N = {N} is within {slack} * 2**-{F} of eps")
        if not close:
            return None
    return N, packed, float(worst / (1 << F))


# ----- stage 1 on 128-bit windows ----------------------------------------------
#
# _close of a batch of survivors at once, in numpy, for N < 2**64, h <= 64
# and rational denominators q < 2**32.  Let s = F - 128 (>= 121, as
# F >= fixed_bits(30)).  An irrational coordinate, X as in _residual, has
# Xw = (X mod 2**F) >> s < 2**128 and the window W = N Xw mod 2**128, as
# two uint64 words from _top and _mulhi (32-bit limbs, Knuth 4.3.1).  As
# X mod 2**F = Xw 2**s + low with 0 <= low < 2**s, the read
# r = N X mod 2**F of _residual is W 2**s + N low: r lies in
# [W 2**s, (W + N) 2**s) unless W + N wraps, the carry N low / 2**s being
# below N.  A rational p/q has the exact residue d = N p mod q, and its
# distance d' / q from the vertex (d' = d or q - d) lies in units of 2**-128
# in [floor(d' 2**128 / q), that + 1], four 32-bit digits of long division.
# So each distance times 2**F lies in [lo 2**s, hi 2**s], and _close's
# decision is proven where
#
# - every irrational A <= W and W + N <= B, without wrapping, for
#   A 2**s >= tol and B 2**s <= 2**F - tol, tol = guard_tol(F, N): r
#   misses the guard band;
# - with chi auto, no irrational [W, W + N] holds 2**127: the nearest
#   vertex of r is that of W;
# - either every hi < floor(eps 2**128), and it is close: worst + slack <
#   (hi + 1) 2**s <= eps 2**F, as slack <= N < 2**s; or some
#   lo > ceil(eps 2**128), or a rational distance exceeds 1/2, and it is
#   not: worst - slack >= eps 2**F;
# - when close, the largest lo and the largest hi round to the same float,
#   which is then the residual: rounding is monotone.
#
# Every other survivor goes to _close, in increasing N, so a PrecisionError
# keeps its text and its first N.


def _below(x, c: int):
    """x < c for the (high, low) uint64 words x of 128-bit values and an
    int 0 <= c < 2**128."""
    c1, c0 = np.uint64(c >> 64), np.uint64(c & (_WRAP - 1))
    return (x[0] < c1) | ((x[0] == c1) & (x[1] < c0))


def _add(x, y):
    """x + y mod 2**128 for 128-bit words x and a uint64 (or bool) array y."""
    low = x[1] + y
    return x[0] + (low < x[1]), low


def _negate(x):
    """2**128 - x mod 2**128 for 128-bit words x."""
    return np.uint64(0) - x[0] - (x[1] != 0), np.uint64(0) - x[1]


def _to_float(x):
    """The floats nearest (x1 2**64 + x0) / 2**128, ties to even, for the
    128-bit words x = (x1, x0).  numpy's uint64 -> float is correctly
    rounded; a shift by 64 gives 0."""
    x1, x0 = x
    # k = (the bit length of x, or one more) - 64, clipped to [0, 64]: x >> k
    # has 63 or 64 bits, or is x itself
    k = np.frexp(np.where(x1 > 0, x1, x0).astype(float))[1] + np.where(x1 > 0, 0, -64)
    k = np.clip(k, 0, 64).astype(np.uint64)
    # x >> k with a sticky last bit for the bits shifted out, which then
    # rounds as x does
    head = (x1 << (np.uint64(64) - k)) | (x0 >> k) | ((x0 << (np.uint64(64) - k)) != 0)
    return np.ldexp(head.astype(float), k.astype(np.int64) - 128)


def _windows(v: JumpVector, bits, eps: Fraction, N, F: int):
    """(close, packed, residual, undecided) of the survivors N, a uint64
    array in increasing N: _close's decision, vertex bits and residual, as
    arrays, proven on 128-bit windows (the comment above) where undecided
    is False."""
    s = F - 128
    tol = guard_tol(F, int(N[-1]))
    band_lo, band_hi = -(-tol >> s), (((1 << F) - tol) >> s) + 1
    eps_lo = (eps.numerator << 128) // eps.denominator
    eps_hi = 1 - (-eps.numerator << 128) // eps.denominator   # ceil + 1
    K = len(N)
    close, far, undecided = np.ones(K, bool), np.zeros(K, bool), np.zeros(K, bool)
    packed = np.zeros(K, np.uint64)
    lo_f, hi_f = np.zeros(K), np.zeros(K)
    for i, c in enumerate(v.coords):
        if c.is_rational:
            fr = c.fraction
            q = np.uint64(fr.denominator)
            d = N % q * np.uint64(fr.numerator % fr.denominator) % q
            b = d + d > q if bits is None else bits[i]
            d = np.where(b, q - d, d)
            off = d + d > q     # beyond 1/2: not close
            far |= off
            t, digits = np.where(off, np.uint64(0), d), []
            for _ in range(4):
                t = t << np.uint64(32)
                digits.append(t // q)
                t = t % q
            lo = (digits[0] << np.uint64(32) | digits[1], digits[2] << np.uint64(32) | digits[3])
            hi = _add(lo, t != 0)
        else:
            X = c._fixed(F)[0]
            W0, Xw0, _ = _top(N, X << 64, F)
            W = (_top(N, X, F)[0] + _mulhi(N, Xw0), W0)
            U = _add(W, N)
            undecided |= _below(W, band_lo) | ~_below(U, band_hi) | (U[0] < W[0])
            near = W[0] >> np.uint64(63)
            if bits is None:
                b = near
                undecided |= U[0] >> np.uint64(63) != near
            else:
                b = bits[i]
            lo = tuple(np.where(b, n, w) for n, w in zip(_negate(U), W))
            hi = tuple(np.where(b, n, u) for n, u in zip(_negate(W), U))
        packed |= np.asarray(b, np.uint64) << np.uint64(i)
        far |= ~_below(lo, eps_hi)
        close &= _below(hi, eps_lo)
        lo_f, hi_f = np.maximum(lo_f, _to_float(lo)), np.maximum(hi_f, _to_float(hi))
    close &= ~far
    undecided |= ~(close | far) | (close & (lo_f != hi_f))
    return close, packed, lo_f, undecided


def _certify_exact(v: JumpVector, paths, N: int, packed: int, delta: Fraction, dps: int):
    """Gates (b)-(d) of one close candidate, its chi bits packed, in big
    integers: the gate code of _batch_gates, and (ms, deltas) of a solution,
    else None."""
    # (b) rational mean indices demand exact divisibility of N
    for mi in v.mean_indices:
        if mi.is_rational and (Fraction(N) / (v.M * mi.fraction)).denominator != 1:
            return _SKIP, None
    try:
        ms = tuple(compute_m(N, paths[k], (packed >> k) & 1, v.M) for k in range(v.q))
    except JumpError:
        return _M_FAIL, None
    # (d) angle conditions
    if not all(_condition_339a_340(paths[k], ms[k], delta, dps) for k in range(v.q)):
        return _ANGLE_FAIL, None
    # (c) the identity gate, exact integers
    deltas = tuple(_delta_count(paths[k], ms[k], delta, dps) for k in range(v.q))
    if any(I_value(paths[k], ms[k]) != N + deltas[k] for k in range(v.q)):
        return _ID_FAIL, None
    return _SOLVED, (ms, deltas)


# ----- batched gates on uint64 top bits ---------------------------------------
#
# Stage 1 has decided closeness; the gates that need m_k are decided for all
# candidates at once on numpy uint64 arrays.  For an irrational x with
# X = floor(x 2**F) and a multiplier 1 <= w < 2**50 (N for the floor of
# N / (M ihat_k), or some m_k), let s = F - 64 (>= 185, as F >= 249),
# Xh = (X mod 2**F) >> s, rh = w Xh mod 2**64 and H = floor(w Xh / 2**64).
# As X mod 2**F = Xh 2**s + low with 0 <= low < 2**s, whenever
#
#     1 <= rh <= 2**64 - 1 - w                                    ("ok")
#
# the residue r = w X mod 2**F equals rh 2**s + w low, so
#
#     r in [rh 2**s, (rh + w) 2**s),   2**F - r in ((2**64 - rh - w) 2**s, (2**64 - rh) 2**s],
#     floor(w X / 2**F) = w (X >> F) + H,
#
# and r lies in [2**s, 2**F - 2**s], clear of the guard band of _guard, whose
# tolerance 2**F / 10**30 + w + 3 is below 2**s: no exact gate would raise.
# An angle gate compares value +- slack with delta 2**F (delta < 1/2), for
# slack <= w + 2 < 2**s.  With value in [lo 2**s, hi 2**s] it is decided
#
#     below when hi < floor(delta 2**64),   above when lo > ceil(delta 2**64),
#
# for then value + slack < (hi + 1) 2**s <= delta 2**F, resp.
# value - slack > (lo - 1) 2**s >= delta 2**F.  Rational quantities are exact
# integer residues.  A candidate that is not ok, or undecided, at a gate it
# reaches goes to _certify_exact, in candidate order, so the solutions and
# the gate codes are those of the exact gates on every candidate.  So do
# candidates with N >= _batch_limit(), where N, every m_k or an int64 sum
# could leave the range these bounds assume, or whose q chi bits of m_k do
# not fit a uint64.

_LIMIT = 1 << 50
_ONES = np.uint64(_WRAP - 1)
_M32 = np.uint64(0xFFFFFFFF)
# gate codes, in the order of the gates; _SKIP is a divisibility miss and
# _EXACT a candidate the exact gates decide
_SKIP, _M_FAIL, _ANGLE_FAIL, _ID_FAIL, _SOLVED, _EXACT = range(6)
_GATES = ("divisibility", "m_nonpositive", "angle", "identity", "certified")


def _mulhi(a, b: int):
    """floor(a b / 2**64) for a uint64 array a and 0 <= b < 2**64, exactly,
    from 32-bit limbs (every partial product is below 2**64)."""
    a0, a1 = a & _M32, a >> np.uint64(32)
    b0, b1 = np.uint64(b & 0xFFFFFFFF), np.uint64(b >> 32)
    lo, m1, m2 = a0 * b0, a1 * b0, a0 * b1
    mid = (lo >> np.uint64(32)) + (m1 & _M32) + (m2 & _M32)
    return a1 * b1 + (m1 >> np.uint64(32)) + (m2 >> np.uint64(32)) + (mid >> np.uint64(32))


def _top(w, X: int, F: int):
    """(rh, Xh, ok) of the comment above for the uint64 multipliers w."""
    Xh = (X & ((1 << F) - 1)) >> (F - 64)
    rh = w * np.uint64(Xh)
    return rh, Xh, (rh != 0) & (rh <= _ONES - w)


def _batch_limit(v: JumpVector, recs, F: int) -> int:
    """N below which the batch is exact: N and every m_k < 2**50, every
    rational modulus < 2**32 and every |I(k, m_k)| < 2**63; 0 when some
    constant is out of range or q > 64."""
    limit = _LIMIT if v.q <= 64 else 0
    unit = _LIMIT // v.M - 2   # N / (M ihat_k) < unit keeps m_k < 2**50
    moduli = [(v.M * mi.fraction).numerator for mi in v.mean_indices if mi.is_rational]
    for rec, data in recs:
        y = rec.inv_mean(v.M)
        if y.is_rational:
            p, q = y.fraction.numerator, y.fraction.denominator
            moduli += [p, q]
            limit = min(limit, unit * q // p)
        else:
            limit = min(limit, (unit << F) // (y._fixed(F)[0] + 1))
        moduli += [a.fraction.denominator for a in rec.angles if a.is_rational]
        # |I(k, m)| <= m (|i1 + S+(1) - C| + 2 C), as 0 <= E(m theta/pi) <= 2m
        if abs(data.i1 + rec.s_plus - rec.C) + 2 * rec.C >= 1 << 13:
            limit = 0
    if any(q >= 1 << 32 for q in moduli):
        return 0
    return max(limit, 0)


def _batch_gates(v: JumpVector, recs, N, packed, delta: Fraction, F: int):
    """Gates (b)-(d) of the close candidates N, a uint64 array, whose chi
    bits of m_k are packed, another.

    Returns (code, ms, deltas): code[i] is one of _SKIP, _M_FAIL,
    _ANGLE_FAIL, _ID_FAIL, _SOLVED, _EXACT; ms and deltas are q x K int64
    arrays, meaningful for the candidates that reach the gate reading them.
    """
    K = len(N)
    if not K:  # the constants fit in uint64 only when _batch_limit() > 0
        return np.zeros(0, np.int8), *[np.zeros((len(recs), 0), np.int64)] * 2
    exact = np.zeros(K, bool)
    live = np.ones(K, bool)
    Dlo, Dhi = floor(delta * _WRAP), ceil(delta * _WRAP)

    # (b) divisibility: N / (M ihat_k) integral for rational ihat_k
    for mi in v.mean_indices:
        if mi.is_rational:
            live &= N % np.uint64((v.M * mi.fraction).numerator) == 0

    # m_k = ([N / (M ihat_k)] + chi_k) M, not positive only when both terms are 0
    q = len(recs)
    ms = np.zeros((q, K), np.uint64)
    m_fail = np.zeros(K, bool)
    for k, (rec, _) in enumerate(recs):
        y = rec.inv_mean(v.M)
        if y.is_rational:
            p, d = np.uint64(y.fraction.numerator), np.uint64(y.fraction.denominator)
            fl = (N // d) * p + (N % d) * p // d
        else:
            X = y._fixed(F)[0]
            rh, Xh, ok = _top(N, X, F)
            fl = N * np.uint64(X >> F) + _mulhi(N, Xh)
            exact |= live & ~ok
        ms[k] = (fl + ((packed >> np.uint64(k)) & np.uint64(1))) * np.uint64(v.M)
        m_fail |= ms[k] == 0
    live &= ~exact
    m_fail &= live
    live &= ~m_fail

    # (d) angles: m_k theta/pi integral for rational angles, within delta of
    # an integer for irrational ones; (c) Delta_k and I(k, m_k)
    passed = live.copy()
    deltas = np.zeros((q, K), np.int64)
    id_fail = np.zeros(K, bool)   # I(k, m_k) != N + Delta_k for some k
    for k, (rec, data) in enumerate(recs):
        m = ms[k]
        # I(k, m) = m (i1 + S+(1) - C) + the E(m theta/pi) of every S^- angle
        I = m.astype(np.int64) * (data.i1 + rec.s_plus - rec.C)
        for ang in rec.angles:
            if ang.is_rational:
                num, den = ang.fraction.numerator, ang.fraction.denominator
                passed &= (m % np.uint64(den)) * np.uint64(num % den) % np.uint64(den) == 0
                # E(m theta/pi) = m theta/pi where the gate passes: an integer
                I += (m // np.uint64(den) * np.uint64(num)).astype(np.int64)
                continue
            X = ang._fixed(F)[0]
            rh, Xh, ok = _top(m, X, F)
            comp = np.uint64(0) - rh
            below, above = rh + m < Dlo, rh > Dhi          # {m x} vs delta
            cbelow, cabove = comp < Dlo, comp - m > Dhi    # {-m x} vs delta
            exact |= passed & ~(ok & (below | (above & (cbelow | cabove))))
            passed &= below | cbelow
            deltas[k] += below
            # E(m theta/pi) = floor + 1 for an irrational theta
            I += (m * np.uint64(X >> F) + _mulhi(m, Xh) + np.uint64(1)).astype(np.int64)
        id_fail |= I != N.astype(np.int64) + deltas[k]
    passed &= ~exact
    angle_fail = live & ~passed & ~exact
    id_fail &= passed

    code = np.full(K, _SKIP, np.int8)
    code[exact] = _EXACT
    code[m_fail] = _M_FAIL
    code[angle_fail] = _ANGLE_FAIL
    code[id_fail] = _ID_FAIL
    code[passed & ~id_fail] = _SOLVED
    return code, ms.astype(np.int64), deltas


def _certify(v: JumpVector, N, packed, residual, paths, delta: Fraction,
             dps: int) -> SearchResult:
    """The certified solutions of the close stage-1 candidates N, with
    their packed vertex bits and residuals, arrays in increasing N as
    _stage1 yields them, as SearchResult columns in the same order, with
    gates: the number of candidates at each gate code, by gate name
    (_GATES).  A solution keeps its candidate's residual."""
    F = fixed_bits(dps)
    recs = [(path_record(paths[k]), paths[k]) for k in range(v.q)]
    n_batch = int(np.searchsorted(N, _batch_limit(v, recs, F)))
    # the batch reads the q chi bits of m_k; _batch_limit is 0 when q > 64
    code, ms, deltas = _batch_gates(v, recs, N[:n_batch].astype(np.uint64), (
        packed[:n_batch] & ((1 << v.q) - 1)).astype(np.uint64), delta, F)
    code = np.concatenate([code, np.full(len(N) - n_batch, _EXACT, np.int8)])
    # the exact gates, in candidate order
    exact = {}   # candidate index -> (ms, deltas) of an exact solution
    for i in np.flatnonzero(code == _EXACT).tolist():
        code[i], out = _certify_exact(v, paths, int(N[i]), int(packed[i]), delta, dps)
        if out is not None:
            exact[i] = out
    if exact:   # merge them in by candidate index, as Python ints of any size
        ms, deltas = (np.concatenate([a.astype(object), np.zeros(
            (v.q, len(N) - n_batch), object)], axis=1) for a in (ms, deltas))
        for i, (m, d) in exact.items():
            ms[:, i], deltas[:, i] = m, d
    s = np.flatnonzero(code == _SOLVED)
    return SearchResult(
        N=N[s].tolist(), chi=packed[s].tolist(), m=ms[:, s].tolist(),
        delta=deltas[:, s].tolist(), residual=residual[s].tolist(),
        h=v.h, delta_threshold=delta,
        gates=dict(zip(_GATES, np.bincount(code, minlength=len(_GATES)).tolist())))


_CHUNK = 1 << 15            # steps of N tested at once, and the largest stride listed
_CERTIFY_BATCH = 1 << 15    # prefilter survivors decided and certified at once; a
                            # segment lists at most twice as many (_scan_chunk)


def _stage1(v: JumpVector, explicit_bits, eps: Fraction, N_max: int, dps: int):
    """The close candidates of N = M0, 2 M0, ... <= N_max: arrays (N,
    packed vertex bits, residual) in increasing N, yielded as the scan
    reaches them: a batch for each _CERTIFY_BATCH prefilter survivors
    (_scan_chunk), and one for the rest, which may be empty.  N is uint64
    when N_max < 2**64 and packed when h <= 64, else they hold Python
    ints.  _windows decides a batch's survivors at once, and _close those
    it leaves undecided, so the candidates are _close's.  An irrational
    coordinate the scan cannot read at dps raises PrecisionError; a
    rational one may have any denominator.

    A range of at most _CHUNK steps is one segment, and each of its steps
    is tested.  A longer one is cut into segments of
    ceil(_CERTIFY_BATCH 2**64 / window) steps, at least _CHUNK, for the
    prefilter window of the whole range, so that each segment expects
    about _CERTIFY_BATCH steps in the first coordinate's window.  Those
    steps are listed, not tested: the residue classes of a continued-
    fraction stride q (_window_hits) give them in O(q + hits), q about the
    square root of the segment's steps.  A segment whose first coordinate
    has more than 2 _CERTIFY_BATCH hits (a rational coordinate with a
    small denominator, say) ends at that many or fewer, and the next one
    starts there, so a segment's arrays stay bounded by its hits.  Each
    segment's window is that of its last N, which covers every N of the
    segment, so the proof below holds for segments of any length."""
    F = fixed_bits(dps)
    Xs = [_scaled_coord(c, F) for c in v.coords]
    # The prefilter keeps every N that _close accepts.  _close accepts only
    # worst + slack < eps 2**F, for the worst distance from the vertex times
    # 2**F.  Let c be the distance of N X mod 2**F from 0 mod 2**F, for the
    # X of one coordinate.  An irrational coordinate's X is _residual's
    # read, so c is at most its term of worst.  A rational p/q is read as
    # ceil(p 2**F / q), so N X lies less than N above N p 2**F / q, whose
    # distance from 0 mod 2**F is at most the exact term; so c is below
    # worst + N.  Either way c < eps 2**F + N_max < eps_int, the window of
    # the prefilter, and _close decides each survivor exactly.
    eps_floor = int(eps * (1 << F))
    eps_int = eps_floor + N_max + 2
    windows = v.h <= 64 and all(
        c.fraction.denominator < 1 << 32 for c in v.coords if c.is_rational)

    def decide(N):
        K = len(N)
        if windows and K and N.dtype != object:
            close, packed, residual, undecided = _windows(v, explicit_bits, eps, N, F)
        else:
            close, packed, residual, undecided = (np.zeros(K, bool), np.zeros(
                K, np.uint64 if v.h <= 64 else object), np.zeros(K), np.ones(K, bool))
        for i in np.flatnonzero(undecided).tolist():
            c = _close(v, explicit_bits, eps, eps_floor, dps, int(N[i]))
            close[i] = c is not None
            if close[i]:
                packed[i], residual[i] = c[1], c[2]
        return N[close], packed[close], residual[close]

    held, count = [np.zeros(0, np.uint64)], 0
    total_steps = N_max // v.M0
    # segments that each expect about _CERTIFY_BATCH hits of the first
    # coordinate at the window of the whole range, the widest of any
    # segment; a segment that holds more than 2 _CERTIFY_BATCH ends early
    size = max(_CHUNK, -(-_CERTIFY_BATCH * _WRAP // _window(F, eps_int, N_max)[1]))
    first = 1
    while first <= total_steps:
        steps, n_steps = _scan_chunk(first, min(size, total_steps - first + 1), v.M0, Xs, F,
                                     eps_int)
        if len(steps):
            N0 = first * v.M0
            held.append(np.uint64(N0) + steps * np.uint64(v.M0)
                        if N0 + (n_steps - 1) * v.M0 < _WRAP else N0 + steps.astype(object) * v.M0)
            count += len(steps)
        first += n_steps
        if count >= _CERTIFY_BATCH:
            N = np.concatenate(held)
            done = count - count % _CERTIFY_BATCH
            for i in range(0, done, _CERTIFY_BATCH):
                yield decide(N[i:i + _CERTIFY_BATCH])
            held, count = [N[done:]], count - done
    yield decide(np.concatenate(held))


def search_N(v: JumpVector, chi, eps: float, N_max: int, paths, delta,
             workers: int = 1) -> SearchResult:
    """Enumerate N = M0, 2 M0, ... <= N_max and keep certified jump solutions.

    chi is a bit tuple of length h, or "auto" to accept every vertex the
    orbit actually approaches (the nearest vertex is tested for each N).
    Gates, in order: max-norm closeness |{N v} - chi| < eps, decided by the
    stage-1 scan; then, for the close candidates in the batches the scan
    yields (_certify), divisibility (N/(M ihat_k) in Z for rational mean
    indices), m_nonpositive (every m_k > 0), angle (the near-integrality of
    every m_k theta/pi) and identity (I(k, m_k) = N + Delta_k).  So at most
    _CERTIFY_BATCH candidates are decided and certified at a time, from
    fewer than 3 _CERTIFY_BATCH survivors held at once: fewer than
    _CERTIFY_BATCH left from earlier segments, and at most 2 _CERTIFY_BATCH
    of one segment.  Stage 1 tests each N of a range of at most _CHUNK
    steps; in a longer range it lists the N in the first
    coordinate's window from a continued-fraction stride q, in
    O(q + hits) per segment rather than one test per N (_stage1).  The
    result holds the solutions as columns in increasing N, and counts, by
    gate name (_GATES), the close candidates each of these four stopped,
    and the certified ones.  An empty result is a valid outcome.  workers
    is accepted and ignored: the scan runs in the calling process.
    """
    paths = list(paths)
    delta = _checked_delta(delta)
    if not (0 < eps < 0.5):
        raise JumpError("eps must lie in (0, 1/2)")
    explicit_bits = None
    if chi != "auto":
        explicit_bits = tuple(int(b) for b in chi)
        if len(explicit_bits) != v.h:
            raise JumpError(f"chi needs {v.h} bits, got {len(explicit_bits)}")
        if any(b not in (0, 1) for b in explicit_bits):
            raise JumpError("chi bits must be 0 or 1")

    dps = get_precision()
    batches = _stage1(v, explicit_bits, Fraction(eps), N_max, dps)
    result = _certify(v, *next(batches), paths, delta, dps)
    for batch in batches:
        result.extend(_certify(v, *batch, paths, delta, dps))
    result.params = {"eps": eps, "delta": str(delta), "M": v.M, "M0": v.M0,
                     "N_max": N_max, "chi": "auto" if explicit_bits is None else list(explicit_bits)}
    return result


# ----- consequences of a verified solution -----------------------------------


def varrho(paths, n: int) -> int:
    """min over paths of [(i1 + 2 S^+(1) - nu1 + n) / 2]."""
    paths = list(paths)
    if not paths:
        raise JumpError("need at least one path")
    return min((data.i1 + 2 * path_record(data).s_plus - data.decomp.nu_one + n) // 2
               for data in paths)


def theorem211_report(sol: JumpSolution, paths, n: int) -> dict:
    """Locate j(s) for s = 1..varrho_n by the interval condition
    i <= 2N - 2s + n <= i + nu - 1 at the doubled iterates, then check the
    index identity, the two-sided s bounds, the ordering of the products
    m_k ihat_k, and the chi monotonicity.  Ambiguities are flagged, not
    resolved.  The report is its JSON object; "ok" says that it found no
    problem and both orderings hold."""
    paths = list(paths)
    N = sol.N
    rho = varrho(paths, n)
    i2 = [index_iterate(paths[k], 2 * sol.m[k]) for k in range(len(paths))]
    nu2 = [nullity_iterate(paths[k], 2 * sol.m[k]) for k in range(len(paths))]
    spc = [path_record(p).s_plus + path_record(p).C for p in paths]
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

    # ordering of ([N/(M D)] + chi) M D = m_k ihat_k, strictly decreasing in s;
    # Scalar comparison is exact for rationals, at storage precision otherwise
    prods = {k: sol.m[k] * mean_index(paths[k]) for _, k in assigned}
    ordering_ok = all(prods[k2] < prods[k1]
                      for (_, k1), (_, k2) in zip(assigned, assigned[1:]))
    chi_ok = all(sol.chi[k2] <= sol.chi[k1]
                 for (_, k1), (_, k2) in zip(assigned, assigned[1:]))
    return {"N": N, "varrho_n": rho, "entries": entries, "ordering_ok": ordering_ok,
            "chi_monotone_ok": chi_ok, "problems": problems,
            "ok": not problems and ordering_ok and chi_ok}


REPORT_SOLUTIONS = 25  # solutions given a theorem-2.11 report, by default


def search_report(paths, N_max: int, chi="auto", eps=None, delta=None, M=None, M0=None,
                  reports: int = REPORT_SOLUTIONS) -> dict:
    """The search over a path collection as the object that jump-search and
    ellipsoid print: the jump vector, varrho_n at n = the largest
    half-dimension, the SearchResult itself (printed by cli._dump_json; its
    to_json is the same JSON as dicts), and the theorem-2.11 report of each
    of the first `reports` solutions.  delta and eps default to default_delta
    and default_eps, M and M0 to build_jump_vector's; a parameter out of
    range raises JumpError."""
    paths = list(paths)
    v = build_jump_vector(paths, M=M, M0=M0)
    delta = default_delta(paths) if delta is None else _checked_delta(delta)
    if eps is None:
        eps = default_eps(paths, v.M, delta)
        if not (0 < eps < 0.5):
            raise JumpError(f"the default eps = delta / (4 M max mean index) is {eps!r} "
                            "at this delta, outside (0, 1/2)")
    result = search_N(v, chi, eps=eps, N_max=N_max, paths=paths, delta=delta)
    n = max(p.decomp.n for p in paths)
    return {
        "jump_vector": v.to_json(),
        "varrho_n": varrho(paths, n),
        "search": result,
        "theorem211": [theorem211_report(sol, paths, n) for sol in result.solutions[:reports]],
    }


_RATIO_DENOMINATOR_BOUND = 10 ** 6


def mean_ratio_classify(paths) -> list:
    """Pairwise mean-index ratio matrix from detect_rational: the exact
    fraction when both tags are rational, whatever its denominator, else
    continued-fraction detection up to _RATIO_DENOMINATOR_BOUND."""
    paths = list(paths)
    means = [mean_index(d) for d in paths]
    out = []
    for a in means:
        row = []
        for b in means:
            fr = detect_rational(a / b, max_denominator=_RATIO_DENOMINATOR_BOUND)
            if fr is not None:
                row.append({"type": "rational", "value": f"{fr.numerator}/{fr.denominator}"})
            else:
                row.append({"type": "irrational",
                            "up_to_denominator": _RATIO_DENOMINATOR_BOUND})
        out.append(row)
    return out
