"""The binomial tail P(X >= m) in the log domain (Loader 2000, "Fast and
Accurate Computation of Binomial Probabilities"): how improbable a count of
k-sigma days is under the Gaussian model.  Only ``math``, so no numpy.
"""

import math

from .errors import DomainError
from .magnitude import LN10, ONE, Magnitude, _check_magnitude, from_real

# the relative error's bound against 50-digit mpmath, n up to 1e7
REL_TOL = 2e-11

# counts up to here are exact as floats
_MAX_N = 2 ** 53

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# stirlerr(n) = ln n! - ln(sqrt(2 pi n) (n / e)^n), to double precision
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _stirlerr(n: float) -> float:
    """The table up to 15, then the Stirling series, whose first omitted
    term is below 1.2e-16 from n = 16."""
    if n <= 15.0:
        return _STIRLERR[int(n)]
    r2 = 1.0 / (n * n)
    return (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188)))) / n


def _bd0(x: float, mean: float, ln_mean: float) -> float:
    """x ln(x / mean) + mean - x for x >= 1: by a series near the mean, where
    the two sides cancel, and from ln(mean) where the mean underflows."""
    if abs(x - mean) < 0.1 * (x + mean):
        v = (x - mean) / (x + mean)
        s = (x - mean) * v
        term = 2.0 * x * v
        v *= v
        j = 3.0
        while True:
            term *= v
            s_next = s + term / j
            if s_next == s:
                return s
            s = s_next
            j += 2.0
    if mean < 1e-300:
        return x * (math.log(x) - ln_mean) + mean - x
    return x * math.log(x / mean) + mean - x


def _ln_binom_pmf(j: float, n: float, p: float, q: float, ln_p: float, ln_q: float) -> float:
    """ln P(X = j) for X ~ Binomial(n, p) and j >= 1 by Loader's saddle-point
    form, with no cancellation between log-gammas of ~n ln n."""
    if j == n:
        return n * ln_p
    ln_n = math.log(n)
    return (_stirlerr(n) - _stirlerr(j) - _stirlerr(n - j)
            - _bd0(j, n * p, ln_n + ln_p) - _bd0(n - j, n * q, ln_n + ln_q)
            - _HALF_LN_2PI - 0.5 * math.log(j * ((n - j) / n)))


def _ln_tail(n: float, m: int, p: float, q: float, ln_p: float, ln_q: float) -> float:
    """ln P(X >= m) for X ~ Binomial(n, p) and m > n p, where the terms
    shrink from m upward."""
    j, term, total = float(m), 1.0, 1.0
    ratio = p / q
    while j < n and term >= 1e-17 * total:
        term *= (n - j) / (j + 1.0) * ratio
        total += term
        j += 1.0
    return _ln_binom_pmf(float(m), n, p, q, ln_p, ln_q) + math.log(total)


def binomial_tail_at_least(n: int, m: int, p) -> Magnitude:
    """P(X >= m) for X ~ Binomial(n, p), in the log domain, so values like
    1e-270 or 1e-9000 do not underflow.  For n up to 1e7 it is within
    REL_TOL relative down to 1e-3000, and its log within 1e-13 relative below.

    One term comes from Loader's saddle-point form; the rest of the short
    side follows by the ratio of neighbouring terms, outward from it, until a
    term falls below 1e-17 of the sum: O(sqrt(n p q)) work, not O(m).  A
    short head is 1 - P(n - X >= n - m + 1), the upper tail of n - X.
    ``p`` is a Magnitude in (0, 1); n is at most 2^53.
    """
    if isinstance(n, bool) or isinstance(m, bool) or not isinstance(n, int) or not isinstance(m, int):
        raise DomainError("n and m must be integers")
    if not 0 <= m <= n:
        raise DomainError(f"need 0 <= m <= n, got m={m}, n={n}")
    if n > _MAX_N:
        raise DomainError(f"n must be at most 2**53, got {n}")
    _check_magnitude(p, "p")
    if p.is_zero or p.log10_value >= 0.0:
        raise DomainError("p must lie strictly in (0, 1)")
    if m == 0:
        return ONE

    ln_p = p.log10_value * LN10
    p_f = math.exp(ln_p)
    q_f = -math.expm1(ln_p)
    ln_q = math.log1p(-p_f) if p_f < 0.5 else math.log(q_f)
    n_f = float(n)
    if m <= n_f * p_f:
        return from_real(1.0 - math.exp(_ln_tail(n_f, n - m + 1, q_f, p_f, ln_q, ln_p)))
    return Magnitude(min(_ln_tail(n_f, m, p_f, q_f, ln_p, ln_q) / LN10, 0.0))
