"""Extended-range nonnegative numbers stored in the log10 domain.

A ``Magnitude`` holds the base-10 logarithm of a nonnegative real, -inf for
zero, so values like 1e-276 and 1e+272 are ordinary first-class quantities:
products, quotients, integer powers and comparisons are exact log10
arithmetic and never underflow or overflow.

This is the only representation probabilities and occurrence periods travel
in between modules.  Addition is deliberately not provided; sums that matter
numerically happen in ordinary floats before values are lifted here.
"""

import math

from .errors import DomainError, ParseError, finite_real

# Exponent guard: far beyond anything composable from double inputs, but
# finite so log10_value never degrades into inf/nan silently.
LOG10_CAP = 1e15


def _out_of_range(log10_value: float) -> DomainError:
    return DomainError(
        f"exponent out of supported range: |log10| = {abs(log10_value):.6g} > {LOG10_CAP:g}")


class Magnitude:
    """A nonnegative real represented by its base-10 logarithm.

    Use :func:`from_real`, :func:`from_sci` or :func:`parse` to construct
    instances; ``Magnitude(L)`` itself means "the value whose log10 is L",
    zero for L = -inf.  Arithmetic is ``*``, ``/`` and :func:`pow_int`; the six
    comparisons order by value, zero below every positive value; ``a > b``
    and ``a >= b`` are Python's reflected ``b < a`` and ``b <= a``.  A float
    operand raises TypeError, except in ``==`` and ``!=``, where it is unequal.
    """

    __slots__ = ("_log10",)

    def __init__(self, log10_value: float = 0.0):
        value = -math.inf  # zero; a caller's np.float64 -inf is not kept
        if not isinstance(log10_value, float) or log10_value != value:
            value = finite_real(log10_value, "log10 value must be finite")
            if abs(value) > LOG10_CAP:
                raise _out_of_range(value)
        self._log10 = value

    @property
    def log10_value(self) -> float:
        """Base-10 logarithm of the represented value (-inf for zero)."""
        return self._log10

    @property
    def is_zero(self) -> bool:
        return self._log10 == -math.inf

    def as_float(self) -> float:
        """The represented value as an ordinary float.

        Raises DomainError when the value falls outside double range.
        """
        if self._log10 == -math.inf:
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

    def sci_parts(self) -> tuple[float, int]:
        """(mantissa, exponent10) with mantissa in [1, 10), or (0.0, 0) for zero."""
        if self._log10 == -math.inf:
            return 0.0, 0
        exp = math.floor(self._log10)
        mant = 10.0 ** (self._log10 - exp)  # >= 1, as the fraction is >= 0
        if mant >= 10.0:  # the fraction rounded up to 1
            mant /= 10.0
            exp += 1
        return mant, int(exp)

    # arithmetic -----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Magnitude):
            return NotImplemented
        return Magnitude(self._log10 + other._log10)

    def __truediv__(self, other):
        if not isinstance(other, Magnitude):
            return NotImplemented
        if other._log10 == -math.inf:
            raise DomainError("division by zero")
        return Magnitude(self._log10 - other._log10)

    # ordering: a > b is Python's reflected b < a, and a >= b is b <= a -----

    def __eq__(self, other):
        if not isinstance(other, Magnitude):
            return NotImplemented
        return self._log10 == other._log10

    def __lt__(self, other):
        if not isinstance(other, Magnitude):
            return NotImplemented
        return self._log10 < other._log10

    def __le__(self, other):
        if not isinstance(other, Magnitude):
            return NotImplemented
        return self._log10 <= other._log10

    def __hash__(self):
        return hash(self._log10)

    def __repr__(self):
        return f"Magnitude({format_sci(self, 6)!r})"

    def __str__(self):
        return format_sci(self, 6)


ZERO = Magnitude(-math.inf)
ONE = Magnitude(0.0)


def _check_magnitude(value, name: str) -> None:
    if not isinstance(value, Magnitude):
        raise DomainError(f"{name} must be a Magnitude")


def from_real(v: float) -> Magnitude:
    """Lift an ordinary nonnegative float into the log10 domain."""
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
    _check_magnitude(a, "a")
    if a.is_zero:
        if n > 0:
            return ZERO
        raise DomainError("zero may only be raised to a positive power")
    if n == 0:
        return ONE
    num, den = a.log10_value.as_integer_ratio()
    try:
        value = num * n / den  # the exact product rounded once, for an n of any size
    except OverflowError:
        value = math.inf
    if abs(value) > LOG10_CAP:  # inf too, which Magnitude would read as zero
        raise _out_of_range(value)
    return Magnitude(value)


def format_sci(a: Magnitude, sig_digits: int = 4) -> str:
    """Render as ``M.MM...e±E``: mantissa rounded half-to-even to
    ``sig_digits``, lowercase ``e``, signed exponent without leading zeros.
    """
    if isinstance(sig_digits, bool) or not isinstance(sig_digits, int) or not 1 <= sig_digits <= 17:
        raise DomainError("sig_digits must be an integer in [1, 17]")
    _check_magnitude(a, "a")
    decimals = sig_digits - 1
    mant, exp = a.sci_parts()  # (0.0, 0) for zero, printed as 0.000e+0
    mant_text = f"{mant:.{decimals}f}"
    if float(mant_text) >= 10.0:
        exp += 1
        mant_text = f"{mant / 10.0:.{decimals}f}"
    sign = "+" if exp >= 0 else "-"
    return f"{mant_text}e{sign}{abs(exp)}"


# the number syntax of parse and of the audit loader: [+-] digits[.[digits]]
# or .digits, then [(e|E)[+-]digits], in ASCII; float() alone would also take
# blanks, underscores, other scripts' digits, inf and nan
_NUMBER = rb"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"


def read_numbers(cells: list) -> list:
    """float(cell) of each cell whose bytes are a number in that syntax, and
    NaN for the others.  float() reads them all at once if no cell holds a
    byte outside 0-9, the signs, the dot and e or E, as float() refuses each
    string of those bytes that the syntax does; else each is matched."""
    if not b"".join(cells).translate(None, b"0123456789+-.eE"):
        try:
            return list(map(float, cells))
        except ValueError:
            pass
    import re  # here, so that the math commands load no re

    return [float(cell) if re.fullmatch(_NUMBER, cell) else math.nan for cell in cells]


def parse(text: str) -> Magnitude:
    """Read scientific (``3.057e-138``) or plain decimal (``43.956``) text.

    Exponents may lie far outside double range; the mantissa and exponent
    are combined in the log10 domain, never through a float conversion of
    the whole number.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected text, got {type(text).__name__}")
    # a number between ASCII blanks: strip() with no argument would also
    # take Unicode spaces
    body = text.strip(" \t\n\r\f\v")
    if math.isnan(read_numbers([body.encode("ascii", "replace")])[0]):
        raise ParseError(f"not a number: {text!r}")
    sign = body[:1] if body[:1] in ("+", "-") else ""
    mant_text, _, exp_text = body[len(sign):].replace("E", "e").partition("e")
    if not mant_text.strip("0."):
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
