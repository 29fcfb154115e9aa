"""Tagged real numbers: exact rationals and high-precision irrationals.

The iteration formulas are discontinuous at integer values of m*theta/pi,
so rationality must be tracked structurally, never inferred from numeric
closeness.  A :class:`Scalar` is either an exact :class:`fractions.Fraction`
or an irrational: an mpmath value stored at the S = 2D + 15 digits that
scalar_to_json prints, D the working precision, which is F_s = 385 bits at
D = 50.  It is read once, as X_s = floor(x 2**F_s).  Floors, rationality,
equality, order and hash read shifts of X_s; a read past F_s raises
PrecisionError.  The working read X at F = fixed_bits(D) = 315 bits is
within a unit 2**-F of the stored value, which is within about |x| 2**-F_s
of the true one, so (m X) mod 2**F lies within |m| + 1 of {m x} 2**F while
|m x| < 2**70.  This is the only module that imports mpmath.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp
from mpmath.libmp import dps_to_prec, to_fixed

__all__ = [
    "PrecisionError",
    "Scalar",
    "convergents",
    "get_precision",
    "set_precision",
    "detect_rational",
    "fixed_bits",
    "format_multiple",
    "guard_tol",
    "parse_scalar",
    "retag",
    "scalar_to_json",
    "scalar_from_json",
]

# Working decimal digits for irrational arithmetic, never below 30; library
# callers tune it with set_precision, the CLI with --precision.
_MIN_PRECISION = 30
_DEFAULT_PRECISION = 50

# An irrational m*theta/pi closer than 1e-30 to an integer cannot be
# resolved and raises PrecisionError instead of silently flooring.
GUARD_BAND_DIGITS = 30
_GUARD_BAND = 10 ** GUARD_BAND_DIGITS


class PrecisionError(ArithmeticError):
    """A floor/ceil decision fell inside the ambiguity guard band."""


_precision = _DEFAULT_PRECISION


def get_precision() -> int:
    """Current working precision in decimal digits."""
    return _precision


def set_precision(digits: int) -> None:
    if digits < _MIN_PRECISION:
        raise ValueError(f"precision must be >= {_MIN_PRECISION}, got {digits}")
    global _precision
    _precision = int(digits)


def fixed_bits(dps: int) -> int:
    """Fraction bits F of the fixed-point form used at ``dps`` working digits:
    the guard band plus ten digits of headroom, and 16 spare bits."""
    return 16 + int(3.33 * (dps + GUARD_BAND_DIGITS + 10))


def _storage_dps() -> int:
    # irrationals are stored at the 2D + 15 digits scalar_to_json prints,
    # 70 bits past the working read's fixed_bits(D) at D = 50
    return 2 * get_precision() + 15


def _isqrt_exact(n: int):
    r = math.isqrt(int(n))
    return r if r * r == n else None


class Scalar:
    """A real number that knows whether it is rational.

    Exactly one of ``_frac`` (a Fraction) and ``_mpf`` (an mpmath float) is
    set.  Arithmetic keeps the rational tag when both operands are rational
    and otherwise produces an irrational-tagged result computed at storage
    precision, whose F_s (``_bits``) is the least of the storage bits and of
    its operands'.  The integer read X_s is cached (``_Xs``), so a single
    Scalar can be swept over large iterate ranges cheaply.
    """

    __slots__ = ("_frac", "_mpf", "_bits", "_Xs")

    def __init__(self, frac=None, mpf_value=None, bits=None):
        if (frac is None) == (mpf_value is None):
            raise ValueError("exactly one of frac/mpf_value must be given")
        self._frac = frac
        self._mpf = mpf_value
        if mpf_value is not None and bits is None:
            bits = dps_to_prec(_storage_dps())
        self._bits = bits
        self._Xs = None

    # ----- constructors -------------------------------------------------

    @classmethod
    def rational(cls, p, q=1) -> "Scalar":
        return cls(frac=Fraction(p, q))

    @classmethod
    def from_fraction(cls, fr) -> "Scalar":
        return cls(frac=Fraction(fr))

    @classmethod
    def irrational(cls, value) -> "Scalar":
        """Wrap an irrational value given as mpf, str or float."""
        with mp.workdps(_storage_dps()):
            v = +mp.mpf(value)
        return cls(mpf_value=v)

    @classmethod
    def sqrt(cls, k) -> "Scalar":
        """sqrt(k) for non-negative rational k; rational when k is a perfect square."""
        fr = Fraction(k)
        if fr < 0:
            raise ValueError("sqrt of negative value")
        num_r = _isqrt_exact(fr.numerator)
        den_r = _isqrt_exact(fr.denominator)
        if num_r is not None and den_r is not None:
            return cls.rational(num_r, den_r)
        with mp.workdps(_storage_dps()):
            v = mp.sqrt(mp.mpf(fr.numerator)) / mp.sqrt(mp.mpf(fr.denominator))
        return cls(mpf_value=v)

    @classmethod
    def golden(cls) -> "Scalar":
        with mp.workdps(_storage_dps()):
            v = (1 + mp.sqrt(5)) / 2
        return cls(mpf_value=v)

    # ----- predicates and conversions -----------------------------------

    @property
    def is_rational(self) -> bool:
        return self._frac is not None

    @property
    def fraction(self) -> Fraction:
        if self._frac is None:
            raise ValueError("irrational-tagged scalar has no exact fraction")
        return self._frac

    def mpf(self, dps: int | None = None):
        """The value as an mpmath float at the requested precision."""
        dps = dps or get_precision()
        with mp.workdps(dps):
            if self._frac is not None:
                return mp.mpf(self._frac.numerator) / self._frac.denominator
            return +self._mpf

    def __float__(self) -> float:
        if self._frac is not None:
            return float(self._frac)
        return float(self._mpf)

    def __repr__(self) -> str:
        if self._frac is not None:
            return f"Scalar({self._frac})"
        return f"Scalar(~{mpmath.nstr(self._mpf, 20)})"

    # ----- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar(frac=Fraction(x))
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    def _binop(self, other, op) -> "Scalar":
        other = self._coerce(other)
        if self._frac is not None and other._frac is not None:
            return Scalar(frac=op(self._frac, other._frac))
        dps = _storage_dps()
        bits = min([dps_to_prec(dps)] + [s._bits for s in (self, other) if s._frac is None])
        with mp.workdps(dps):
            return Scalar(mpf_value=op(self.mpf(dps), other.mpf(dps)), bits=bits)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        if self._frac is not None:
            return Scalar(frac=-self._frac)
        return 0 - self   # at storage precision, not mpmath's 53-bit default

    # ----- comparisons ---------------------------------------------------

    def _cmp_value(self, other) -> int:
        """Sign of self - other: exact for two rationals, else read in
        integers at the fewer F_s of the irrationals, and 0 when the
        difference lies within the precision floor 10**-(S - 8)."""
        other = self._coerce(other)
        if self._frac is not None and other._frac is not None:
            a, b = self._frac, other._frac
            return (a > b) - (a < b)
        # each side as n / (q 2**F): X at F bits over 1, or p 2**F over q
        F = min(s._bits for s in (self, other) if s._frac is None)
        (a, qa), (b, qb) = [(s._fixed(F)[0], 1) if s._frac is None else
                            (s._frac.numerator << F, s._frac.denominator) for s in (self, other)]
        d = a * qb - b * qa
        return 0 if abs(d) * 10 ** (_storage_dps() - 8) < (qa * qb) << F else (d > 0) - (d < 0)

    def __lt__(self, other):
        return self._cmp_value(other) < 0

    def __le__(self, other):
        return self._cmp_value(other) <= 0

    def __gt__(self, other):
        return self._cmp_value(other) > 0

    def __ge__(self, other):
        return self._cmp_value(other) >= 0

    def __eq__(self, other):
        """Equality dispatches on the tag: a rational never equals an
        irrational, two rationals compare exactly, and two irrationals are
        equal when _cmp_value reads 0, so x, 2 - (2 - x) and (7 x) / 7 are
        equal and values that differ above the floor are not."""
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        return self.is_rational == other.is_rational and self._cmp_value(other) == 0

    def __hash__(self):
        # irrational equality is a tolerance, which only a constant hash
        # respects; no caller keys a dict by an irrational
        return hash(self._frac) if self._frac is not None else 0

    # ----- floors with guard band ---------------------------------------

    def _fixed(self, bits: int | None = None):
        """(X, F) with X = floor(value * 2**F) of the stored value: X_s
        shifted right by F_s - F.  F defaults to fixed_bits(get_precision());
        a read at F > F_s raises PrecisionError."""
        F = fixed_bits(get_precision()) if bits is None else bits
        shift = self._bits - F
        if shift < 0:
            raise PrecisionError(f"{self!r} was stored with {self._bits} fraction bits, "
                                 f"too few for a read at {F}; make it at a higher precision")
        X = self._Xs
        if X is None:
            X = self._Xs = int(to_fixed(self._mpf._mpf_, self._bits))
        return X >> shift, F

    def mul_frac(self, m: int, bits: int | None = None):
        """(r, F) with r = (m X) mod 2**F for an irrational, X as in _fixed.

        {m * self} * 2**F lies within |m| of r.  Raises PrecisionError when
        m * self is within the guard band of an integer, like mul_floor, so
        r never sits near the wrap-around at 0 = 2**F.
        """
        X, F = self._fixed(bits)
        r = (int(m) * X) & ((1 << F) - 1)
        _guard(r, F, m, 1, self)
        return r, F

    def mul_floor(self, m: int) -> int:
        """floor(m * self), exact for rationals, guarded for irrationals."""
        if self._frac is not None:
            fr = m * self._frac
            return fr.numerator // fr.denominator
        X, F = self._fixed()
        q, r = divmod(int(m) * X, 1 << F)
        _guard(r, F, m, 1, self)
        return q

    def mul_div_floor(self, m: int, d: int) -> int:
        """floor(m * self / d) for integers m and d > 0, guarded like mul_floor."""
        if d <= 0:
            raise ValueError("d must be positive")
        if self._frac is not None:
            fr = Fraction(m, d) * self._frac
            return fr.numerator // fr.denominator
        X, F = self._fixed()
        q, r = divmod(int(m) * X, d << F)
        _guard(r, F, m, d, self)
        return q

    def floor(self) -> int:
        return self.mul_floor(1)


@lru_cache(maxsize=64)
def _band(F: int, d: int) -> int:
    """1e-30 of d * 2**F, rounded down: a division of a number of about F
    bits, computed once per (F, d)."""
    return (d << F) // _GUARD_BAND


def guard_tol(F: int, m: int, d: int = 1) -> int:
    """Half-width of the guard band of a remainder of m * X modulo d * 2**F,
    X as in Scalar._fixed: 1e-30 of d * 2**F plus the truncation error."""
    return _band(F, d) + abs(m) + d + 2


def _guard(r: int, F: int, m: int, d: int, x: Scalar) -> None:
    """Raise PrecisionError when the remainder r of m * X modulo d * 2**F
    lies within the guard band (guard_tol) of 0 or d * 2**F."""
    tol = guard_tol(F, m, d)
    if r < tol or r > (d << F) - tol:
        what = f"{m} * {x!r}" if d == 1 else f"{m}/{d} * {x!r}"
        raise PrecisionError(
            f"{what} is within 1e-{GUARD_BAND_DIGITS} of an integer; "
            "increase precision or fix the rationality tag")


def convergents(num: int, den: int):
    """The convergents (p, q) of the continued fraction of num / den, den > 0,
    in order: p/q in lowest terms, q > 0, from floor(num / den) / 1 to
    num / den itself."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    while den:
        a, r = divmod(num, den)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        yield p1, q1
        num, den = den, r


def detect_rational(value: Scalar, max_denominator: int = 10 ** 6):
    """Detect a rational p/q hiding in an irrational-tagged Scalar.

    Runs the continued fraction of X_s / 2**F_s, the storage read of
    Scalar._fixed, in integers (convergents), and accepts the first
    convergent p/q with q <= max_denominator and |X_s/2**F_s - p/q| below
    the precision floor 10**-(storage digits - 8), decided exactly as
    |X_s q - p 2**F_s| 10**(storage digits - 8) < 2**F_s q.  X_s/2**F_s is
    within 2**-F_s (about 1e-9 of the floor) of the value.  Returns a
    Fraction or None; a rational-tagged Scalar returns its fraction.  A genuine quadratic
    irrational at 50+ digit storage never false-positives: its best
    approximations with q <= 1e6 miss by ~1e-13, far above the floor.
    """
    if value.is_rational:
        return value.fraction
    X, F = value._fixed(value._bits)
    one, scale = 1 << F, 10 ** (_storage_dps() - 8)
    for p, q in convergents(X, one):
        if q > max_denominator:
            return None
        if abs(X * q - p * one) * scale < one * q:
            return Fraction(p, q)
    return None


def retag(s: Scalar) -> Scalar:
    """s with its rationality tag re-derived: an irrational-tagged value that
    detect_rational finds equal to some p/q comes back rational."""
    fr = None if s.is_rational else detect_rational(s)
    return s if fr is None else Scalar.from_fraction(fr)


def format_multiple(x: Scalar, m: int) -> str:
    """m * x as text: p/q for a rational, 30 significant digits of the
    product at working precision for an irrational."""
    if x.is_rational:
        fr = x.fraction * m
        return f"{fr.numerator}/{fr.denominator}"
    with mp.workdps(get_precision()):
        return mpmath.nstr(x.mpf() * m, 30)


_SQRT_RE = re.compile(r"^sqrt\(?(\d+)\)?$")


def parse_scalar(text) -> Scalar:
    """Parse a scalar literal: 'p/q', integers, decimals, 'sqrtK', 'phi'.

    Plain decimals are exact decimal fractions and therefore tagged rational;
    irrationality must be declared via sqrtK/phi or an explicit
    {"irrational": "..."} JSON object.
    """
    if isinstance(text, Scalar):
        return text
    if isinstance(text, int):
        return Scalar.rational(text)
    if isinstance(text, float):
        return Scalar(frac=Fraction(text))
    if isinstance(text, dict):
        return scalar_from_json(text)
    s = str(text).strip().lower()
    if s in ("phi", "golden"):
        return Scalar.golden()
    m = _SQRT_RE.match(s)
    if m:
        return Scalar.sqrt(int(m.group(1)))
    try:
        return Scalar(frac=Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse scalar literal {text!r}") from exc


def scalar_to_json(s: Scalar) -> dict:
    if s.is_rational:
        return {"rational": f"{s.fraction.numerator}/{s.fraction.denominator}"}
    return {"irrational": mpmath.nstr(s.mpf(_storage_dps()), _storage_dps())}


def scalar_from_json(obj: dict) -> Scalar:
    """scalar_to_json's object: "rational" holds a JSON string p/q, q != 0,
    and "irrational" a JSON string of a decimal; any other value, a JSON
    number or a bool too, raises ValueError naming the key.  So does an
    "irrational" decimal that detect_rational finds equal to some p/q with
    q <= 1e6: its floors would fall in the guard band."""
    for key, read, form in (("rational", Scalar.from_fraction, "p/q with q != 0"),
                            ("irrational", Scalar.irrational, "of a decimal")):
        if key in obj:
            try:
                if type(obj[key]) is str:
                    x = read(obj[key])
                    break
            except (ValueError, ZeroDivisionError):
                pass
            raise ValueError(f"{key} must be a JSON string {form}, got {json.dumps(obj[key])}")
    else:
        raise ValueError(f"scalar object needs a 'rational' or 'irrational' key: {obj!r}")
    fr = None if x.is_rational else detect_rational(x)
    if fr is not None:
        pq = f"{fr.numerator}/{fr.denominator}"
        raise ValueError(f"irrational {json.dumps(obj['irrational'])} equals {pq} within "
                         f"1e-{_storage_dps() - 8}; tag it {{\"rational\": \"{pq}\"}}")
    return x
