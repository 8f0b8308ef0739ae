"""Exception types, and the one real-number check, shared across the package."""

import math


class DomainError(ValueError):
    """Input lies outside the mathematical domain an operation supports."""


class ParseError(ValueError):
    """Text cannot be read as a number in scientific or plain decimal form."""


def finite_real(x, message: str) -> float:
    """``x`` as a float if it is an int or a float, not a bool, and finite as
    a float; otherwise DomainError(message).  An int beyond the float range
    is not finite, so it fails here and not with float()'s OverflowError."""
    if type(x) is float or isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            v = float(x)
        except OverflowError:
            v = math.inf
        if math.isfinite(v):
            return v
    raise DomainError(message)
