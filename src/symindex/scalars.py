"""Tagged real numbers: exact rationals and high-precision irrationals.

The iteration formulas are discontinuous at integer values of m*theta/pi,
so rationality must be tracked structurally, never inferred from numeric
closeness.  A :class:`Scalar` is either an exact :class:`fractions.Fraction`
or an irrational carrying an mpmath value stored with a generous number of
digits (twice the working precision plus headroom, so that results can be
re-verified at doubled precision later).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import to_fixed

__all__ = [
    "PrecisionError",
    "Scalar",
    "floor_E_frac_phi",
    "get_precision",
    "set_precision",
    "detect_rational",
    "fixed_bits",
    "parse_scalar",
    "scalar_to_json",
    "scalar_from_json",
]

# Working decimal digits for irrational arithmetic, never below 30; library
# callers tune it with set_precision, the CLI with --precision or the
# SYMINDEX_PRECISION environment variable.
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
    # irrationals are stored with headroom for doubled-precision re-checks
    return 2 * get_precision() + 15


def _isqrt_exact(n: int):
    r = math.isqrt(int(n))
    return r if r * r == n else None


class Scalar:
    """A real number that knows whether it is rational.

    Exactly one of ``_frac`` (a Fraction) and ``_mpf`` (an mpmath float) is
    set.  Arithmetic keeps the rational tag when both operands are rational
    and otherwise produces an irrational-tagged result computed at storage
    precision.  Floors of irrationals go through an exact fixed-point cache
    with a guard band, so a single Scalar can be swept over large iterate
    ranges cheaply.
    """

    __slots__ = ("_frac", "_mpf", "_fixed_cache")

    def __init__(self, frac=None, mpf_value=None):
        if (frac is None) == (mpf_value is None):
            raise ValueError("exactly one of frac/mpf_value must be given")
        self._frac = frac
        self._mpf = mpf_value
        self._fixed_cache = None

    # ----- constructors -------------------------------------------------

    @classmethod
    def rational(cls, p, q=1) -> "Scalar":
        return cls(frac=Fraction(p, q))

    @classmethod
    def from_fraction(cls, fr) -> "Scalar":
        return cls(frac=Fraction(fr))

    @classmethod
    def irrational(cls, value, dps: int | None = None) -> "Scalar":
        """Wrap an irrational value given as mpf, str or float."""
        dps = dps or _storage_dps()
        with mp.workdps(dps):
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
        with mp.workdps(dps):
            return Scalar(mpf_value=op(self.mpf(dps), other.mpf(dps)))

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
        return Scalar(mpf_value=-self._mpf)

    def __abs__(self):
        if self._frac is not None:
            return Scalar(frac=abs(self._frac))
        return Scalar(mpf_value=abs(self._mpf))

    # ----- comparisons ---------------------------------------------------

    def _cmp_value(self, other) -> int:
        other = self._coerce(other)
        if self._frac is not None and other._frac is not None:
            a, b = self._frac, other._frac
        else:
            dps = _storage_dps()
            a, b = self.mpf(dps), other.mpf(dps)
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp_value(other) < 0

    def __le__(self, other):
        return self._cmp_value(other) <= 0

    def __gt__(self, other):
        return self._cmp_value(other) > 0

    def __ge__(self, other):
        return self._cmp_value(other) >= 0

    def __eq__(self, other):
        """Equality dispatches on the tag: a rational never equals an irrational."""
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        if self.is_rational != other.is_rational:
            return False
        if self.is_rational:
            return self._frac == other._frac
        return self._mpf == other._mpf

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        if self._frac is not None:
            return hash(self._frac)
        return hash(self._mpf)

    # ----- floors with guard band ---------------------------------------

    def _fixed(self, bits: int | None = None):
        """(X, F) with X = floor(value * 2**F), exact from the stored mpf.

        F defaults to fixed_bits(get_precision()); the last pair is cached."""
        F = fixed_bits(get_precision()) if bits is None else bits
        cache = self._fixed_cache
        if cache is None or cache[1] != F:
            cache = self._fixed_cache = (int(to_fixed(self._mpf._mpf_, F)), F)
        return cache

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

    def ceil(self) -> int:
        if self._frac is not None:
            return -((-self._frac).numerator // self._frac.denominator)
        return -(-self).floor()

    def frac_part(self):
        """{x} = x - [x]; Fraction for rationals, mpf otherwise."""
        if self._frac is not None:
            return self._frac - self.floor()
        with mp.workdps(_storage_dps()):
            return self.mpf(_storage_dps()) - self.floor()


def _guard(r: int, F: int, m: int, d: int, x: Scalar) -> None:
    """Raise PrecisionError when the remainder r of m * X modulo d * 2**F
    lies within the guard band (plus truncation error) of 0 or d * 2**F."""
    tol = ((d << F) // _GUARD_BAND) + abs(m) + d + 2
    if r < tol or r > (d << F) - tol:
        what = f"{m} * {x!r}" if d == 1 else f"{m}/{d} * {x!r}"
        raise PrecisionError(
            f"{what} is within 1e-{GUARD_BAND_DIGITS} of an integer; "
            "increase precision or fix the rationality tag")


def floor_E_frac_phi(x):
    """Return ([x], E(x), {x}, phi(x)) for the floor/ceiling function pair.

    [x] is the greatest integer <= x, E(x) the least integer >= x,
    {x} = x - [x], and phi(x) = E(x) - [x] (1 unless x is an integer).
    Exact on int/Fraction/float inputs; guarded on irrational Scalars.
    """
    if isinstance(x, Scalar):
        fl = x.floor()
        ce = x.ceil()
        return fl, ce, x.frac_part(), ce - fl
    if isinstance(x, float):
        x = Fraction(x)  # floats are exact binary rationals
    if isinstance(x, (int, Fraction)):
        fr = Fraction(x)
        fl = fr.numerator // fr.denominator
        ce = -((-fr).numerator // fr.denominator)
        return fl, ce, fr - fl, ce - fl
    raise TypeError(f"unsupported type {type(x).__name__}")


def detect_rational(value, max_denominator: int = 10 ** 6, tol_dps: int | None = None):
    """Detect a rational p/q hiding in a high-precision value.

    Runs the continued-fraction expansion and accepts a convergent p/q with
    q <= max_denominator whose residual is below the precision floor
    (10**-(storage digits - 8) by default).  Returns a Fraction or None.
    A genuine quadratic irrational at 50+ digit storage never false-positives:
    its best approximations with q <= 1e6 miss by ~1e-13, far above the floor.
    """
    if isinstance(value, Scalar):
        if value.is_rational:
            return value.fraction
        v = value.mpf(_storage_dps())
    else:
        v = value
    dps = tol_dps or (_storage_dps() - 8)
    with mp.workdps(_storage_dps()):
        tol = mp.mpf(10) ** (-dps)
        x = mp.mpf(v)
        p0, q0, p1, q1 = 1, 0, int(mp.floor(x)), 1
        if abs(x - p1) < tol:
            return Fraction(p1)
        y = x - p1
        for _ in range(200):
            if y == 0:
                break
            y = 1 / y
            a = int(mp.floor(y))
            p0, p1 = p1, a * p1 + p0
            q0, q1 = q1, a * q1 + q0
            if q1 > max_denominator:
                return None
            if abs(x - mp.mpf(p1) / q1) < tol:
                return Fraction(p1, q1)
            y = y - a
    return None


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
    if "rational" in obj:
        return Scalar(frac=Fraction(obj["rational"]))
    if "irrational" in obj:
        return Scalar.irrational(obj["irrational"])
    raise ValueError(f"scalar object needs a 'rational' or 'irrational' key: {obj!r}")
