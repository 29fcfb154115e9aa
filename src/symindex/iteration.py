"""Closed-form index, nullity and mean-index iteration from normal-form data.

A path's monodromy is described by a :class:`NormalFormDecomposition`
(block counts plus angle lists); together with the base index i(gamma,1)
this determines the whole iteration sequence m -> (i(gamma,m), nu(gamma,m))
through two independent closed forms (one written directly in block counts,
one through splitting numbers), which the test suite holds against each
other and against the geometric crossing-count oracle.  A decomposition is
checked once, when it is built, so the formulas take it as valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import (
    Scalar,
    floor_E_frac_phi,
    get_precision,
    scalar_from_json,
    scalar_to_json,
)

__all__ = [
    "DecompositionError",
    "NormalFormDecomposition",
    "PathIndexData",
    "PathRecord",
    "SplittingPair",
    "ValidationReport",
    "floor_E_frac_phi",
    "splitting_numbers",
    "C_of_M",
    "S_plus_one",
    "index_iterate",
    "index_iterate_via_splitting",
    "nullity_iterate",
    "mean_index",
    "I_value",
    "path_record",
    "s_minus_angles",
    "validate",
    "unit_spectrum",
]


class DecompositionError(ValueError):
    pass


ONE = Scalar.rational(1)
TWO = Scalar.rational(2)
ZERO = Scalar.rational(0)


def _check_angle(x: Scalar, who: str):
    if not isinstance(x, Scalar):
        raise DecompositionError(f"{who}: angles must be Scalars (theta/pi), got {type(x)}")
    if not (ZERO < x < TWO):
        raise DecompositionError(f"{who}: theta/pi must lie in (0,2), got {x!r}")
    if x == ONE:
        raise DecompositionError(f"{who}: theta/pi = 1 belongs to the -1 eigenvalue blocks")


@dataclass(frozen=True)
class NormalFormDecomposition:
    """Block counts and angle lists of a monodromy normal form.

    n        : half-dimension
    p_minus  : N1(1,1) blocks     p_zero : I2 blocks      p_plus : N1(1,-1)
    q_minus  : N1(-1,1) blocks    q_zero : -I2 blocks     q_plus : N1(-1,-1)
    thetas   : rotation angles theta_j/pi, one per R block (r of them)
    alphas   : angles of nontrivial N2 blocks (r* of them, each 4x4)
    betas    : angles of trivial N2 blocks (r0 of them, each 4x4)
    k        : hyperbolic block count (eigenvalues off the unit circle)

    The counts satisfy n = p- + p0 + p+ + q- + q0 + q+ + r + 2 r* + 2 r0 + k.
    The constructor checks that, non-negative counts and every angle, and
    raises DecompositionError: an instance is valid once built.
    """

    n: int
    p_minus: int = 0
    p_zero: int = 0
    p_plus: int = 0
    q_minus: int = 0
    q_zero: int = 0
    q_plus: int = 0
    thetas: tuple = ()
    alphas: tuple = ()
    betas: tuple = ()
    k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(self.thetas))
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "betas", tuple(self.betas))
        self.check()

    @property
    def r(self) -> int:
        return len(self.thetas)

    @property
    def r_star(self) -> int:
        return len(self.alphas)

    @property
    def r_zero(self) -> int:
        return len(self.betas)

    @property
    def nu_one(self) -> int:
        """nu(gamma, 1) = p- + 2 p0 + p+, derived rather than taken as input."""
        return self.p_minus + 2 * self.p_zero + self.p_plus

    def count_sum(self) -> int:
        return (self.p_minus + self.p_zero + self.p_plus
                + self.q_minus + self.q_zero + self.q_plus
                + self.r + 2 * self.r_star + 2 * self.r_zero + self.k)

    def check(self):
        """Raise DecompositionError when the decomposition is invalid; run
        once, by the constructor."""
        counts = (self.p_minus, self.p_zero, self.p_plus,
                  self.q_minus, self.q_zero, self.q_plus, self.k)
        if any(c < 0 for c in counts):
            raise DecompositionError("block counts must be non-negative")
        if self.count_sum() != self.n:
            raise DecompositionError(f"count sum {self.count_sum()} != n = {self.n}")
        for who, angles in (("thetas", self.thetas), ("alphas", self.alphas),
                            ("betas", self.betas)):
            for x in angles:
                _check_angle(x, who)

    # ----- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p_minus": self.p_minus, "p_zero": self.p_zero, "p_plus": self.p_plus,
            "q_minus": self.q_minus, "q_zero": self.q_zero, "q_plus": self.q_plus,
            "thetas": [scalar_to_json(x) for x in self.thetas],
            "alphas": [scalar_to_json(x) for x in self.alphas],
            "betas": [scalar_to_json(x) for x in self.betas],
            "k": self.k,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "NormalFormDecomposition":
        def angles(key):
            # an angle that is not a scalar object is left for check to reject
            return tuple(scalar_from_json(x) if isinstance(x, dict) else x
                         for x in obj.get(key, []))

        return cls(
            n=int(obj["n"]),
            p_minus=int(obj.get("p_minus", 0)),
            p_zero=int(obj.get("p_zero", 0)),
            p_plus=int(obj.get("p_plus", 0)),
            q_minus=int(obj.get("q_minus", 0)),
            q_zero=int(obj.get("q_zero", 0)),
            q_plus=int(obj.get("q_plus", 0)),
            thetas=angles("thetas"),
            alphas=angles("alphas"),
            betas=angles("betas"),
            k=int(obj.get("k", 0)),
        )


@dataclass(frozen=True)
class PathIndexData:
    """A decomposition plus the base index i(gamma, 1).

    The base index is an input: the closed forms never determine it, the
    geometric oracle supplies it for concrete paths.  convex_mode switches
    on the extra checks available for monodromies of convex-energy orbits.
    """

    decomp: NormalFormDecomposition
    i1: int
    convex_mode: bool = False

    def to_json(self) -> dict:
        out = self.decomp.to_json()
        out["schema_version"] = 1
        out["i1"] = self.i1
        out["convex_mode"] = self.convex_mode
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "PathIndexData":
        return cls(decomp=NormalFormDecomposition.from_json(obj),
                   i1=int(obj["i1"]),
                   convex_mode=bool(obj.get("convex_mode", False)))


@dataclass(frozen=True)
class PathRecord:
    """The per-path constants the formulas and the jump gates share.

    Built once per PathIndexData (and again only when the working precision
    changes): S^+(1), C(M), the mean index, the S^- angles, and 1/(M ihat)
    for each M asked for.  Irrational values are Scalars, so each keeps its
    fixed-point form cached.
    """

    dps: int
    s_plus: int
    C: int
    mean: Scalar
    angles: tuple
    _inv_mean: dict = field(default_factory=dict, repr=False, compare=False)

    def inv_mean(self, M: int) -> Scalar:
        """1 / (M ihat), computed once per M."""
        inv = self._inv_mean.get(M)
        if inv is None:
            inv = self._inv_mean[M] = ONE / (M * self.mean)
        return inv


def path_record(data: PathIndexData) -> PathRecord:
    """The PathRecord of data, cached on it."""
    rec = data.__dict__.get("_record")
    if rec is not None and rec.dps == get_precision():
        return rec
    d = data.decomp
    mean = Scalar.rational(data.i1 + d.p_minus + d.p_zero - d.r)
    for th in d.thetas:
        mean = mean + th
    rec = PathRecord(dps=get_precision(), s_plus=S_plus_one(d), C=C_of_M(d),
                     mean=mean, angles=tuple(s_minus_angles(d)))
    object.__setattr__(data, "_record", rec)
    return rec


def s_minus_angles(decomp) -> list:
    """The angles theta/pi in (0,2) carrying positive S^-, with multiplicity.

    Order: rotation angles as given, then one angle 1 per -I2 / N1(-1,-1)
    block, then for each nontrivial N2 its angle and the conjugate 2 - angle.
    This fixed order defines the coordinate layout of the jump vector.
    """
    out = list(decomp.thetas)
    out += [ONE] * (decomp.q_zero + decomp.q_plus)
    for al in decomp.alphas:
        out.append(al)
        out.append(TWO - al)
    return out


@dataclass(frozen=True)
class SplittingPair:
    s_plus: int
    s_minus: int

    def as_tuple(self):
        return (self.s_plus, self.s_minus)


# ----- elementary pieces ------------------------------------------------


def _even(m: int) -> int:
    # (1 + (-1)^m) / 2
    return 1 if m % 2 == 0 else 0


def _ceil_frac(fr: Fraction) -> int:
    return -((-fr).numerator // fr.denominator)


def _E_half(x: Scalar, m: int) -> int:
    """E(m * x / 2) for an angle x = theta/pi."""
    if x.is_rational:
        return _ceil_frac(Fraction(m) * x.fraction / 2)
    # irrational: m*x/2 is never an integer, so E = floor + 1
    return x.mul_div_floor(m, 2) + 1


def _E_full(x: Scalar, m: int) -> int:
    """E(m * x) for an angle x = theta/pi."""
    if x.is_rational:
        return _ceil_frac(Fraction(m) * x.fraction)
    return x.mul_floor(m) + 1


def _phi_half(x: Scalar, m: int) -> int:
    """phi(m * x / 2): 0 when m*x/2 is an integer, else 1."""
    if x.is_rational:
        fr = x.fraction
        return 0 if (m * fr.numerator) % (2 * fr.denominator) == 0 else 1
    return 1


def angles_equal(a: Scalar, b: Scalar) -> bool:
    """Tag-respecting angle equality; within-tag irrational comparison uses
    the storage precision (values constructed independently never collide)."""
    if a.is_rational != b.is_rational:
        return False
    if a.is_rational:
        return a.fraction == b.fraction
    diff = abs(a - b)
    return float(diff) < 1e-40


# ----- splitting numbers (table rows summed by diamond additivity) -------


def splitting_numbers(decomp: NormalFormDecomposition, omega) -> SplittingPair:
    """S^+-/S^- of the realized monodromy at omega.

    omega is 1 or -1 (the real unit eigenvalues) or a Scalar angle theta/pi
    in (0,2) for e^(i theta).  Per-block table rows are summed; the
    conjugation rule S^+-(conj omega) = S^-+(omega) is built in through the
    paired angle entries.
    """
    if omega == 1 and not isinstance(omega, Scalar):
        s = decomp.p_minus + decomp.p_zero
        return SplittingPair(s, s)
    if omega == -1 and not isinstance(omega, Scalar):
        s = decomp.q_zero + decomp.q_plus
        return SplittingPair(s, s)
    if not isinstance(omega, Scalar):
        raise DecompositionError("omega must be +-1 or a Scalar angle theta/pi")
    if omega == ZERO:
        s = decomp.p_minus + decomp.p_zero
        return SplittingPair(s, s)
    if omega == ONE:
        s = decomp.q_zero + decomp.q_plus
        return SplittingPair(s, s)
    _check_angle(omega, "omega")
    s_plus = 0
    s_minus = 0
    for th in decomp.thetas:
        if angles_equal(omega, th):
            s_minus += 1          # (0,1) at the rotation eigenvalue itself
        if angles_equal(omega, TWO - th):
            s_plus += 1           # conjugate eigenvalue: (1,0)
    for al in decomp.alphas:
        if angles_equal(omega, al) or angles_equal(omega, TWO - al):
            s_plus += 1           # nontrivial N2 contributes (1,1) on both
            s_minus += 1
    # trivial N2 blocks contribute (0,0); hyperbolic blocks never hit U
    return SplittingPair(s_plus, s_minus)


def C_of_M(decomp: NormalFormDecomposition) -> int:
    """Sum of S^- over all unit eigenvalue angles in (0, 2 pi)."""
    return decomp.q_zero + decomp.q_plus + decomp.r + 2 * decomp.r_star


def S_plus_one(decomp: NormalFormDecomposition) -> int:
    """S^+ at omega = 1: the N1(1,1) and I2 blocks."""
    return decomp.p_minus + decomp.p_zero


def unit_spectrum(decomp: NormalFormDecomposition):
    """Unit-circle eigenvalues as (theta/pi, algebraic multiplicity) pairs.

    The real eigenvalues appear as theta/pi = 0 (eigenvalue 1) and 1
    (eigenvalue -1); every complex angle is reported together with its
    conjugate 2 - theta/pi.
    """
    entries = []
    plus_mult = 2 * (decomp.p_minus + decomp.p_zero + decomp.p_plus)
    if plus_mult:
        entries.append((ZERO, plus_mult))
    minus_mult = 2 * (decomp.q_minus + decomp.q_zero + decomp.q_plus)
    if minus_mult:
        entries.append((ONE, minus_mult))
    for th in decomp.thetas:
        entries.append((th, 1))
        entries.append((TWO - th, 1))
    for al in decomp.alphas:
        entries.append((al, 2))
        entries.append((TWO - al, 2))
    for be in decomp.betas:
        entries.append((be, 2))
        entries.append((TWO - be, 2))
    # aggregate duplicates, deterministic order by numeric value
    merged = []
    for ang, mult in entries:
        for i, (a0, m0) in enumerate(merged):
            if angles_equal(ang, a0):
                merged[i] = (a0, m0 + mult)
                break
        else:
            merged.append((ang, mult))
    merged.sort(key=lambda t: float(t[0]))
    return merged


# ----- iteration formulas -------------------------------------------------


def index_iterate(data: PathIndexData, m: int) -> int:
    """i(gamma, m) from the block counts.

    i(gamma,m) = m (i1 + p- + p0 - r) + 2 sum_j E(m theta_j / 2pi)
                 - r - p- - p0 - (1+(-1)^m)/2 (q0 + q+)
                 + 2 (sum_j phi(m alpha_j / 2pi) - r*)
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    d = data.decomp
    total = m * (data.i1 + d.p_minus + d.p_zero - d.r)
    total += 2 * sum(_E_half(x, m) for x in d.thetas)
    total -= d.r + d.p_minus + d.p_zero
    total -= _even(m) * (d.q_zero + d.q_plus)
    total += 2 * (sum(_phi_half(x, m) for x in d.alphas) - d.r_star)
    return total


def index_iterate_via_splitting(data: PathIndexData, m: int) -> int:
    """i(gamma, m) through splitting numbers; must agree with index_iterate.

    i(gamma,m) = m (i1 + S+(1) - C(M))
                 + 2 sum_theta E(m theta / 2pi) S^-(e^(i theta))
                 - (S+(1) + C(M))
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    rec = path_record(data)
    d = data.decomp
    sp, C = rec.s_plus, rec.C
    total = m * (data.i1 + sp - C)
    esum = 0
    for th in d.thetas:
        esum += _E_half(th, m)                  # S^- = 1 at theta_j
    if d.q_zero or d.q_plus:
        esum += _E_half(ONE, m) * (d.q_zero + d.q_plus)   # angle pi
    for al in d.alphas:
        # nontrivial N2: S^- = 1 at both alpha and 2 pi - alpha, and
        # E(m (2 - alpha)/2) = m - [m alpha / 2]
        esum += _E_half(al, m)
        esum += m - al.mul_div_floor(m, 2)
    total += 2 * esum
    total -= sp + C
    return total


def nullity_iterate(data: PathIndexData, m: int) -> int:
    """nu(gamma, m); nu(gamma,1) is derived from the decomposition.

    nu(gamma,m) = nu1 + (1+(-1)^m)/2 (q- + 2 q0 + q+) + 2 (r + r* + r0)
                  - 2 (sum phi(m theta_j/2pi) + sum phi(m alpha_j/2pi)
                       + sum phi(m beta_j/2pi))
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    d = data.decomp
    total = d.nu_one
    total += _even(m) * (d.q_minus + 2 * d.q_zero + d.q_plus)
    total += 2 * (d.r + d.r_star + d.r_zero)
    phi_sum = sum(_phi_half(x, m) for x in d.thetas)
    phi_sum += sum(_phi_half(x, m) for x in d.alphas)
    phi_sum += sum(_phi_half(x, m) for x in d.betas)
    total -= 2 * phi_sum
    return total


def mean_index(data: PathIndexData) -> Scalar:
    """Mean index per period: i1 + p- + p0 - r + sum theta_j/pi.

    Rational exactly when every rotation angle is rational."""
    return path_record(data).mean


def I_value(data: PathIndexData, m: int) -> int:
    """The half-iterate combination used by the jump identity.

    I(m) = m (i1 + S+(1) - C(M)) + sum_theta E(m theta/pi) S^-(e^(i theta));
    satisfies 2 I(m) - (S+(1) + C(M)) = i(gamma, 2m).
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    rec = path_record(data)
    d = data.decomp
    total = m * (data.i1 + rec.s_plus - rec.C)
    esum = 0
    for th in d.thetas:
        esum += _E_full(th, m)
    esum += m * (d.q_zero + d.q_plus)           # E(m * 1) = m at angle pi
    for al in d.alphas:
        esum += _E_full(al, m)
        # E(m (2 - alpha)) = 2m - floor(m alpha)
        esum += 2 * m - al.mul_floor(m)
    total += esum
    return total


# ----- validation -----------------------------------------------------------


@dataclass
class ValidationReport:
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_json(self) -> dict:
        return {"ok": self.ok, "problems": list(self.problems)}


_SINGLE_BLOCK_PARITY = {
    # field name -> required parity of i1 for a decomposition consisting of
    # that single block; hyperbolic blocks put no constraint.
    "p_minus": "odd",   # N1(1,1)
    "p_zero": "odd",    # I2
    "p_plus": "even",   # N1(1,-1)
    "q_minus": "odd",   # N1(-1,1)
    "q_zero": "odd",    # -I2
    "q_plus": "odd",    # N1(-1,-1)
}


def validate(data: PathIndexData) -> ValidationReport:
    """Diagnostics, not exceptions: single-block parity violations of i1 and
    convex-mode requirements (the counts and angles were checked when the
    decomposition was built)."""
    rep = ValidationReport()
    d = data.decomp
    # parity is only pinned down for single-block decompositions
    counts = {
        "p_minus": d.p_minus, "p_zero": d.p_zero, "p_plus": d.p_plus,
        "q_minus": d.q_minus, "q_zero": d.q_zero, "q_plus": d.q_plus,
    }
    nonzero = [(name, c) for name, c in counts.items() if c]
    block_total = sum(c for _, c in nonzero) + d.r + d.r_star + d.r_zero + d.k
    if block_total == 1:
        if d.r == 1:
            want = "odd"
        elif d.r_star == 1 or d.r_zero == 1:
            want = "even"
        elif d.k == 1:
            want = None
        else:
            want = _SINGLE_BLOCK_PARITY[nonzero[0][0]]
        if want is not None:
            got = "odd" if data.i1 % 2 else "even"
            if got != want:
                rep.problems.append(
                    f"single-block decomposition requires i1 {want}, got {data.i1}")

    if data.convex_mode:
        if d.p_minus < 1:
            rep.problems.append("convex mode requires p_minus >= 1")
        if data.i1 < d.n:
            rep.problems.append(f"convex mode requires i1 >= n, got {data.i1} < {d.n}")
        if d.n >= 2:
            mi = mean_index(data)
            if not (mi > TWO):
                rep.problems.append(f"convex mode with n >= 2 requires mean index > 2, got {float(mi):.6f}")
    return rep
