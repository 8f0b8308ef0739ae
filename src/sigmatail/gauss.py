"""Gaussian upper-tail probabilities for k-sigma events.

``gauss_tail(k, mode=...)`` is the one entry point.  Two production modes
cover the whole range of k:

* ``exact`` (k <= 9.5): ``0.5 * erfc(k / sqrt(2))``.  The complementary
  error function keeps full relative precision where evaluating
  ``1 - cdf(k)`` in working precision would cancel to zero around k = 8.
* ``asymptotic`` (k >= 8): the large-argument expansion of erfc evaluated
  entirely in the log10 domain, with the alternating correction series
  summed in ordinary floats and truncated at its smallest term.  Valid to
  k = 1e6.

``auto``, the default, takes ``exact`` up to k = 9 and ``asymptotic``
beyond.  A third mode, ``paper_appendix``, reproduces a legacy fixed
four-term variant of the expansion whose cubic correction term carries a
plus sign instead of the alternating minus; it exists so published figures
computed that way can be regenerated bit-for-bit and diffed against the
production series (the two differ by about 30/k^6 relative, e.g. 3e-5 at
k = 10).

Probabilities convert to expected-occurrence periods (days, years at a
configurable trading-day convention), streak odds, and back from periods to
sigma levels.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, finite_real
from .magnitude import Magnitude, from_real, pow_int

SQRT2 = math.sqrt(2.0)
DEFAULT_DAYS_PER_YEAR = 250
MAX_K = 1.0e6

# auto mode switches paths here: erfc is comfortably accurate below, and the
# series' optimal-truncation floor is already ~1e-16 relative above.
AUTO_SWITCH_K = 9.0
EXACT_MAX_K = 9.5
ASYMPTOTIC_MIN_K = 8.0

# Series terms are dropped once below this relative size.
REL_TERM_FLOOR = 1e-18

# log10(e)/2 as a two-double split, so -(k^2/2)*log10(e) carries no constant
# error even when k^2 reaches 1e12.
_HALF_LOG10E_HI = 0.2171472409516259
_HALF_LOG10E_LO = 5.491598251083825e-18
_HALF_LOG10_2PI = 0.3990899341790575
_LN10 = math.log(10.0)

# truncation_bound: |first omitted term| / |partial sum| (0 on the exact path)
SeriesDiagnostics = namedtuple("SeriesDiagnostics", "path terms_used truncation_bound")


class TailResult(namedtuple("TailResult", "k probability days_per_year diagnostics")):
    """What ``gauss_tail`` computes; ``percent`` and the periods derive from ``probability``."""

    __slots__ = ()

    @property
    def percent(self) -> Magnitude:
        return self.probability * _HUNDRED

    @property
    def occurrence_days(self) -> Magnitude:
        return occurrence_days(self.probability)

    @property
    def occurrence_years(self) -> Magnitude:
        return occurrence_years(self.probability, self.days_per_year)


# ---------------------------------------------------------------------------
# compensated double arithmetic helpers

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """Dekker product: (hi, lo) with hi + lo == a*b exactly."""
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def _neumaier_sum(terms) -> float:
    """Compensated sum: accurate to ~1 ulp of the true total."""
    s = 0.0
    c = 0.0
    for t in terms:
        tmp = s + t
        if abs(s) >= abs(t):
            c += (s - tmp) + t
        else:
            c += (t - tmp) + s
        s = tmp
    return s + c


def _neg_half_ksq_log10e(k: float) -> tuple[float, float, float, float]:
    """-(k^2/2)*log10(e) as four addends whose compensated sum is exact to
    ~1 ulp; k^2 itself is formed without rounding via a Dekker product."""
    k2_hi, k2_lo = _two_prod(k, k)
    a_hi, a_lo = _two_prod(k2_hi, _HALF_LOG10E_HI)
    return (-a_hi, -a_lo, -k2_hi * _HALF_LOG10E_LO, -k2_lo * _HALF_LOG10E_HI)


# ---------------------------------------------------------------------------
# evaluation paths

def _series_sum(k: float) -> tuple[float, int, float]:
    """Correction factor S = sum_n (-1)^n (2n-1)!! / k^(2n), optimally truncated.

    Returns (S, terms_used, truncation_bound).  The series is divergent;
    terms are added while strictly shrinking and above REL_TERM_FLOOR
    relative to the partial sum, and the first omitted term bounds the error
    (alternating series).
    """
    u = 1.0 / (k * k)  # == 1/(2 y^2)
    s = 1.0
    term = 1.0
    terms_used = 1
    n = 1
    while True:
        cand = -term * (2 * n - 1) * u
        if abs(cand) >= abs(term) or abs(cand) <= REL_TERM_FLOOR * s:
            return s, terms_used, abs(cand) / s
        s += cand
        term = cand
        terms_used += 1
        n += 1


def _log10_tail(k: float, s: float) -> float:
    """log10 of the tail p = exp(-y^2) / (2 y sqrt(pi)) * S, y = k/sqrt(2),
    for a correction factor S, assembled as
    log10 p = -(k^2/2) log10(e) - log10(k) - log10(2 pi)/2 + log10(S)."""
    return _neumaier_sum((*_neg_half_ksq_log10e(k), -math.log10(k), -_HALF_LOG10_2PI,
                          math.log10(s)))


def _log10_tail_series(k: float) -> tuple[float, int, float]:
    """(log10 p, terms_used, truncation_bound) via the asymptotic expansion."""
    s, terms_used, bound = _series_sum(k)
    return _log10_tail(k, s), terms_used, bound


def _log10_tail_fixed4(k: float) -> tuple[float, int, float]:
    """(log10 p, 4, bound) via the legacy fixed four-term correction
    1 - u + 3u^2 + 15u^3 (note the non-alternating cubic sign), u = 1/k^2;
    the bound is the nominal size of the next true series term."""
    u = 1.0 / (k * k)
    s4 = 1.0 + u * (-1.0 + u * (3.0 + u * 15.0))
    return _log10_tail(k, s4), 4, 105.0 * u ** 4 / s4


def _log10_tail_erfc(k: float) -> tuple[float, int, float]:
    return math.log10(0.5 * math.erfc(k / SQRT2)), 0, 0.0


# path: (log10 tail -> (log10 p, terms_used, truncation_bound), lowest k, highest k)
_PATHS = {
    "exact": (_log10_tail_erfc, 0.0, EXACT_MAX_K),
    "asymptotic": (_log10_tail_series, ASYMPTOTIC_MIN_K, MAX_K),
    "paper_appendix": (_log10_tail_fixed4, ASYMPTOTIC_MIN_K, MAX_K),
}
_MODES = (*_PATHS, "auto")


def _log10_tail_auto(k: float) -> tuple[str, float, int, float]:
    """(path, log10 p, terms_used, truncation_bound) on the path auto mode
    takes: exact up to AUTO_SWITCH_K, asymptotic beyond."""
    path = "exact" if k <= AUTO_SWITCH_K else "asymptotic"
    return (path, *_PATHS[path][0](k))


# log10 p at the top of the range: the longest period sigma_for_period inverts
_LOG10_TAIL_AT_MAX_K = _log10_tail_auto(MAX_K)[1]


def _validate_k(k) -> float:
    k = finite_real(k, "k must be a finite real")
    if k < 0.0:  # -0.0 passes
        raise DomainError("k must be nonnegative")
    return k


def _validate_dpy(days_per_year) -> int:
    if isinstance(days_per_year, bool) or not isinstance(days_per_year, int):
        raise DomainError("days_per_year must be an integer")
    if days_per_year < 1:
        raise DomainError("days_per_year must be >= 1")
    return days_per_year


_HUNDRED = from_real(100.0)


def gauss_tail(k: float, *, mode: str = "auto",
               days_per_year: int = DEFAULT_DAYS_PER_YEAR) -> TailResult:
    """Upper-tail probability of the standard normal at k, 0 <= k <= 1e6.

    ``exact`` covers [0, 9.5] with relative error <= 1e-12 against a
    high-precision reference, and is never computed as 1 - cdf(k): that
    subtraction loses every significant digit near k = 8.  ``asymptotic``
    and ``paper_appendix`` cover [8, 1e6]; their correction series is
    summed in ordinary floats (it stays within (0.9, 1]) and everything
    exponent-sized lives in the log10 domain, so the result survives k = 25
    and far beyond.  ``auto`` takes ``exact`` for k <= 9 and ``asymptotic``
    beyond; the two agree to <= 1e-9 relative on the overlap."""
    k = _validate_k(k)
    if k > MAX_K:
        raise DomainError(f"k = {k:g} exceeds the supported range (k <= {MAX_K:g})")
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
    days_per_year = _validate_dpy(days_per_year)
    if mode == "auto":
        path, log10_p, terms_used, bound = _log10_tail_auto(k)
    else:
        path = mode
        tail, k_lo, k_hi = _PATHS[path]
        if not k_lo <= k <= k_hi:  # only exact stops short of MAX_K, and auto goes on
            raise DomainError(f"{path} path covers {k_lo:g} <= k <= {k_hi:g}; got {k:g}"
                              + (" (use auto mode)" if k > k_hi else ""))
        log10_p, terms_used, bound = tail(k)
    return TailResult(k, Magnitude(log10_p), days_per_year,
                      SeriesDiagnostics(path, terms_used, bound))


# ---------------------------------------------------------------------------
# conversions

def occurrence_days(p: Magnitude) -> Magnitude:
    """Expected-occurrence period in days: 1/p."""
    if p.is_zero:
        raise DomainError("occurrence period of a zero probability")
    return p.recip()


def occurrence_years(p: Magnitude, days_per_year: int = DEFAULT_DAYS_PER_YEAR) -> Magnitude:
    days_per_year = _validate_dpy(days_per_year)
    return occurrence_days(p) / from_real(days_per_year)


def streak_probability(p: Magnitude, m: int) -> Magnitude:
    """Probability of m independent consecutive occurrences: p**m."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise DomainError("streak length must be a positive integer")
    return pow_int(p, m)


def sigma_for_period(years: Magnitude, days_per_year: int = DEFAULT_DAYS_PER_YEAR) -> float:
    """Invert the occurrence mapping: the k whose expected-occurrence period
    equals ``years``.  Newton on log10 p(k) inside a shrinking [lo, hi]
    bracket on [0, 1e6], bisecting whenever a step leaves it; |dk| <= 1e-9.
    It takes 5 tail evaluations for periods below about 10**3.5 years, 4
    below about 10**380, and 3 beyond."""
    days_per_year = _validate_dpy(days_per_year)
    if not isinstance(years, Magnitude):
        raise DomainError("years must be a Magnitude")
    if years.is_zero:
        raise DomainError("period must be positive")
    target = -(years.log10_value + math.log10(days_per_year))  # log10 of target p
    log_half = math.log10(0.5)
    if target > log_half:
        raise DomainError(
            "period shorter than the k=0 occurrence period (2 trading days)"
        )
    if target < _LOG10_TAIL_AT_MAX_K:
        raise DomainError(f"period beyond the supported range (k <= {MAX_K:g})")
    lo, hi = 0.0, MAX_K
    # start from the asymptote's leading term, above the root: log10 p is
    # concave, so the Newton steps then approach the root from above
    k = min(math.sqrt(max(-2.0 * target * _LN10, 1.0)), MAX_K)
    while True:
        log10_p = _log10_tail_auto(k)[1]
        if log10_p > target:
            lo = k
        else:
            hi = k
        # d log10 p / dk = -phi(k) / (p ln 10), with phi the normal density
        log10_phi = -k * k * _HALF_LOG10E_HI - _HALF_LOG10_2PI
        step = (log10_p - target) * _LN10 / 10.0 ** (log10_phi - log10_p)
        if abs(step) <= 2.5e-10:
            return k + step
        k += step
        if not lo < k < hi:
            k = 0.5 * (lo + hi)
        if hi - lo <= 1e-9:
            return k
