"""Shared fixtures: high-precision oracles and synthetic series builders."""

import math
from datetime import date, timedelta

import numpy as np
import pytest
from mpmath import mp

from sigmatail.audit import Series
from sigmatail.studentt import REL_TOL


def tail_log10_oracle(k, dps=50):
    """log10 of the Gaussian upper tail at k, from a >=50-digit erfc."""
    with mp.workdps(dps):
        return mp.log10(mp.erfc(mp.mpf(k) / mp.sqrt(2)) / 2)


def tail_oracle(k, dps=50):
    with mp.workdps(dps):
        return mp.erfc(mp.mpf(k) / mp.sqrt(2)) / 2


def binom_tail_oracle(n, m, p, dps=50):
    """P(X >= m) via the regularized incomplete beta (independent of the
    package's log-gamma summation)."""
    with mp.workdps(dps):
        if m == 0:
            return mp.mpf(1)
        return mp.betainc(mp.mpf(m), mp.mpf(n - m + 1), 0, mp.mpf(p), regularized=True)


def t_tail_ln_oracle(k, nu, standardized=True):
    """ln of the Student-t upper tail at k.  For nu <= 1e4 the regularized
    incomplete beta at 50 digits; above that, where mpmath's betainc does not
    converge, quadrature of the density's tail taken relative to its value at
    t, with the working precision raised by log10(nu) digits."""
    with mp.workdps(50 + max(0, int(math.log10(nu)))):
        nu_ = mp.mpf(nu)
        t = mp.mpf(k) * (mp.sqrt(nu_ / (nu_ - 2)) if standardized else 1)
        if t == 0:
            return mp.log(mp.mpf(0.5))
        if nu <= 1e4:
            return mp.log(mp.betainc(nu_ / 2, mp.mpf(0.5), 0, nu_ / (nu_ + t * t),
                                     regularized=True) / 2)
        w = nu_ + t * t
        h = (nu_ + 1) / 2
        ln_density_at_t = (mp.loggamma(h) - mp.loggamma(nu_ / 2) - mp.log(nu_ * mp.pi) / 2
                           - h * mp.log1p(t * t / nu_))
        # break points on the scale of the integrand's fall from u = 0
        scale = min(w / (t * (nu_ + 1)), mp.sqrt(w / (nu_ + 1)))
        points = [mp.mpf(0)] + [scale * mp.mpf(2) ** i for i in range(-2, 12)] + [mp.inf]
        with mp.workdps(30):
            rest = mp.quad(lambda u: mp.exp(-h * mp.log1p(u * (2 * t + u) / w)), points)
        return ln_density_at_t + mp.log(rest)


def binom_tail_ln_oracle(n, m, log10_p, dps=50):
    """ln P(X >= m) for p = 10**log10_p: the short side summed term by term
    from a 50-digit log-gamma start, to 1e-40 of the sum."""
    with mp.workdps(dps):
        p = mp.power(10, mp.mpf(log10_p))
        q = 1 - p

        def ln_term(j):
            return (mp.loggamma(n + 1) - mp.loggamma(j + 1) - mp.loggamma(n - j + 1)
                    + j * mp.log(p) + (n - j) * mp.log(q))

        eps = mp.mpf(10) ** -40
        head = m <= n * p
        j = m - 1 if head else m
        term = total = mp.mpf(1)
        while (j > 0 if head else j < n) and term >= total * eps:
            if head:
                term *= j * q / ((n - j + 1) * p)
                j -= 1
            else:
                term *= (n - j) * p / ((j + 1) * q)
                j += 1
            total += term
        ln_side = ln_term(m - 1 if head else m) + mp.log(total)
        return mp.log(-mp.expm1(ln_side)) if head else ln_side


def assert_ln_close(got_ln, true_ln, what="", rel=1e-9, ln_rel=1e-13):
    """rel relative while |log10| < 3000; beyond that, where a double's
    log10 carries the result, ln_rel relative on the logarithm."""
    err = abs(mp.mpf(got_ln) - true_ln)
    tol = rel if abs(true_ln) < 3000 * math.log(10) else ln_rel * abs(true_ln)
    assert err <= tol, f"{what}: ln {got_ln!r}, true {mp.nstr(true_ln, 17)}, error {mp.nstr(err, 3)}"


def assert_t_tail_close(got_ln, true_ln, what=""):
    """The bounds student_t_tail states: REL_TOL relative on q, and beyond
    1e-3000 1e-15 relative on its logarithm."""
    assert_ln_close(got_ln, true_ln, what, rel=REL_TOL, ln_rel=1e-15)


def make_series(values, start=date(1985, 1, 1), label="synthetic") -> Series:
    dates = np.datetime64(start, "D") + np.arange(len(values))
    return Series(dates, values, source_label=label)


@pytest.fixture
def write_series_csv(tmp_path):
    def _write(values, name="series.csv", start=date(1985, 1, 1)):
        path = tmp_path / name
        lines = ["date,value"]
        for i, v in enumerate(values):
            lines.append(f"{(start + timedelta(days=i)).isoformat()},{float(v)!r}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path
    return _write


@pytest.fixture
def standard_normal_10k():
    rng = np.random.default_rng(20270)
    return rng.standard_normal(10000)
