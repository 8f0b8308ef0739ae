"""Shared fixtures: high-precision oracles and synthetic series builders."""

from datetime import date, timedelta

import numpy as np
import pytest
from mpmath import mp

from sigmatail.audit import Series


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
