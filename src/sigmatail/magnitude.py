"""Extended-range positive numbers stored in the log10 domain.

A ``Magnitude`` holds the base-10 logarithm of a strictly positive real (or
an explicit zero flag), so values like 1e-276 and 1e+272 are ordinary
first-class quantities: products, quotients, integer powers and comparisons
are exact log10 arithmetic and never underflow or overflow.

This is the only representation probabilities and occurrence periods travel
in between modules.  Addition is deliberately not provided; sums that matter
numerically happen in ordinary floats before values are lifted here.
"""

from __future__ import annotations

import functools
import math
import re

from .errors import DomainError, ParseError, finite_real

# Exponent guard: far beyond anything composable from double inputs, but
# finite so log10_value never degrades into inf/nan silently.
LOG10_CAP = 1e15

# ASCII only: \d would also match other scripts' digits, which the nonzero
# test in parse() does not recognise
_NUMBER_RE = re.compile(r"^\s*([+-]?)(\d+(?:\.\d*)?|\.\d+)(?:[eE]([+-]?\d+))?\s*$", re.ASCII)


def _checked_log10(value: float) -> float:
    if not math.isfinite(value):
        raise DomainError("log10 value must be finite")
    if abs(value) > LOG10_CAP:
        raise DomainError(
            f"exponent out of supported range: |log10| = {abs(value):.6g} > {LOG10_CAP:g}"
        )
    return float(value)


@functools.total_ordering
class Magnitude:
    """A nonnegative real represented by its base-10 logarithm.

    Use :func:`from_real`, :func:`from_sci` or :func:`parse` to construct
    instances; ``Magnitude(L)`` itself means "the value whose log10 is L".
    Arithmetic is ``*``, ``/``, :meth:`recip` and :func:`pow_int`; the six
    comparisons order by value, zero below every positive value.  A float
    operand raises TypeError, except in ``==`` and ``!=``, where it is unequal.
    """

    __slots__ = ("_log10", "_zero")

    def __init__(self, log10_value: float = 0.0, *, zero: bool = False):
        if zero:
            self._log10 = 0.0
            self._zero = True
        else:
            self._log10 = _checked_log10(log10_value)
            self._zero = False

    @property
    def log10_value(self) -> float:
        """Base-10 logarithm of the represented value (0.0 for the zero value)."""
        return self._log10

    @property
    def is_zero(self) -> bool:
        return self._zero

    def as_float(self) -> float:
        """The represented value as an ordinary float.

        Raises DomainError when the value falls outside double range.
        """
        if self._zero:
            return 0.0
        try:
            v = 10.0 ** self._log10
        except OverflowError:
            v = math.inf
        if v == 0.0 or math.isinf(v):
            raise DomainError(
                f"value 10^{self._log10:.6g} is not representable as a float"
            )
        return v

    def recip(self) -> "Magnitude":
        if self._zero:
            raise DomainError("reciprocal of zero")
        return Magnitude(-self._log10)

    def sci_parts(self) -> tuple[float, int]:
        """(mantissa, exponent10) with mantissa in [1, 10), or (0.0, 0) for zero."""
        if self._zero:
            return 0.0, 0
        exp = math.floor(self._log10)
        mant = 10.0 ** (self._log10 - exp)
        if mant >= 10.0:
            mant /= 10.0
            exp += 1
        elif mant < 1.0:
            mant *= 10.0
            exp -= 1
        return mant, int(exp)

    # arithmetic -----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Magnitude):
            return NotImplemented
        if self._zero or other._zero:
            return ZERO
        return Magnitude(self._log10 + other._log10)

    def __truediv__(self, other):
        if not isinstance(other, Magnitude):
            return NotImplemented
        if other._zero:
            raise DomainError("division by zero")
        if self._zero:
            return ZERO
        return Magnitude(self._log10 - other._log10)

    # ordering: total_ordering derives <=, > and >= from == and < ----------

    def __eq__(self, other):
        if not isinstance(other, Magnitude):
            return NotImplemented
        return (self._zero, self._log10) == (other._zero, other._log10)

    def __lt__(self, other):
        if not isinstance(other, Magnitude):
            return NotImplemented
        return (not self._zero, self._log10) < (not other._zero, other._log10)

    def __hash__(self):
        return hash((self._zero, self._log10))

    def __repr__(self):
        return f"Magnitude({format_sci(self, 6)!r})"

    def __str__(self):
        return format_sci(self, 6)


ZERO = Magnitude(zero=True)
ONE = Magnitude(0.0)


def from_real(v: float) -> Magnitude:
    """Lift an ordinary nonnegative float into the log10 domain."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DomainError(f"expected a real number, got {type(v).__name__}")
    v = finite_real(v, "value must be finite")
    if v < 0.0:
        raise DomainError("negative values are not representable")
    if v == 0.0:
        return ZERO
    return Magnitude(math.log10(v))


def from_sci(mantissa: float, exponent: int) -> Magnitude:
    """Magnitude of mantissa * 10**exponent with mantissa in [1, 10)."""
    mantissa = finite_real(mantissa, "mantissa must be a finite real")
    if not 1.0 <= mantissa < 10.0:
        raise DomainError(f"mantissa {mantissa!r} outside [1, 10)")
    if isinstance(exponent, bool) or not isinstance(exponent, int):
        raise DomainError("exponent must be an integer")
    if abs(exponent) > LOG10_CAP:
        raise DomainError("exponent out of supported range")
    return Magnitude(math.log10(mantissa) + exponent)


def pow_int(a: Magnitude, n: int) -> Magnitude:
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError("exponent must be an integer")
    if a.is_zero:
        if n > 0:
            return ZERO
        raise DomainError("zero may only be raised to a positive power")
    if n == 0:
        return ONE
    return Magnitude(a.log10_value * n)


def format_sci(a: Magnitude, sig_digits: int = 4) -> str:
    """Render as ``M.MM...e±E``: mantissa rounded half-to-even to
    ``sig_digits``, lowercase ``e``, signed exponent without leading zeros.
    """
    if isinstance(sig_digits, bool) or not isinstance(sig_digits, int) or not 1 <= sig_digits <= 17:
        raise DomainError("sig_digits must be an integer in [1, 17]")
    decimals = sig_digits - 1
    if a.is_zero:
        mant_text = f"{0.0:.{decimals}f}"
        return f"{mant_text}e+0"
    mant, exp = a.sci_parts()
    mant_text = f"{mant:.{decimals}f}"
    if float(mant_text) >= 10.0:
        exp += 1
        mant_text = f"{mant / 10.0:.{decimals}f}"
    sign = "+" if exp >= 0 else "-"
    return f"{mant_text}e{sign}{abs(exp)}"


def parse(text: str) -> Magnitude:
    """Read scientific (``3.057e-138``) or plain decimal (``43.956``) text.

    Exponents may lie far outside double range; the mantissa and exponent
    are combined in the log10 domain, never through a float conversion of
    the whole number.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected text, got {type(text).__name__}")
    m = _NUMBER_RE.match(text)
    if not m:
        raise ParseError(f"not a number: {text!r}")
    sign, mant_text, exp_text = m.groups()
    if not any(c in "123456789" for c in mant_text):
        return ZERO
    if sign == "-":
        raise DomainError(f"negative values are not representable: {text!r}")
    mant = float(mant_text)
    if mant == 0.0 or math.isinf(mant):
        # Digit strings beyond float range (hundreds of digits); Decimal
        # takes the log exactly enough.
        from decimal import Decimal

        log10_mant = float(Decimal(mant_text).log10())
    else:
        log10_mant = math.log10(mant)
    # float() reads an exponent of any length (one past the float range as
    # +-inf, out of range below) and rounds it as a float + int sum would
    value = log10_mant + (float(exp_text) if exp_text else 0.0)
    if abs(value) > LOG10_CAP:
        raise DomainError(f"exponent out of supported range in {text!r}")
    return Magnitude(value)
