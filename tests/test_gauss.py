import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from conftest import tail_log10_oracle
from sigmatail import gauss
from sigmatail.errors import DomainError
from sigmatail.gauss import (
    SeriesDiagnostics, TailResult, gauss_tail, occurrence_days,
    occurrence_years, sigma_for_period, streak_probability,
)
from sigmatail.magnitude import LN10, ONE, ZERO, Magnitude, format_sci, from_real, parse

# Upper-tail probabilities frozen from a 60-digit erfc evaluation.
TAIL_CHECKPOINTS = {
    0.5: "0.3085375387259868963623",
    1.0: "0.1586552539314570514148",
    1.5: "0.06680720126885806600449",
    2.0: "0.02275013194817920720028",
    2.5: "0.006209665325776135166978",
    3.0: "0.001349898031630094526652",
    3.5: "0.0002326290790355250363499",
    4.0: "0.00003167124183311992125377",
    4.5: "0.000003397673124730060401687",
    5.0: "2.866515718791939116738e-7",
    5.5: "1.898956246588771938385e-8",
    6.0: "9.865876450376981407009e-10",
    6.5: "4.016000583859117808346e-11",
    7.0: "1.279812543885835004384e-12",
    7.5: "3.190891672910896227767e-14",
    8.0: "6.220960574271784123516e-16",
    8.5: "9.479534822203318354151e-18",
    9.0: "1.128588405953840647736e-19",
    9.5: "1.049451507536260749283e-21",
}

# log10 of the tail at high k, same oracle.
LOG10_TAIL = {
    10.0: -23.11805340548607589,
    15.0: -50.43521961427551137,
    20.0: -88.56009534307559192,
    25.0: -137.51474765099552618,
}


class TestExactPath:
    @pytest.mark.parametrize("k,expected", sorted(TAIL_CHECKPOINTS.items()))
    def test_oracle_checkpoints(self, k, expected):
        p = gauss_tail(k, mode="exact").probability.as_float()
        assert p == pytest.approx(float(expected), rel=gauss.EXACT_REL_TOL)

    def test_k0_is_exactly_half(self):
        assert gauss_tail(0.0, mode="exact").probability == from_real(0.5)

    def test_two_sigma_figures(self):
        r = gauss_tail(2.0, mode="exact")
        assert r.percent.as_float() == pytest.approx(2.2750131948, rel=1e-9)
        assert r.occurrence_days.as_float() == pytest.approx(43.9557890159857, rel=1e-10)

    def test_three_sigma_figures(self):
        r = gauss_tail(3.0, mode="exact")
        assert r.probability.as_float() == pytest.approx(1.3498980316e-3, rel=1e-9)
        assert r.occurrence_days.as_float() == pytest.approx(740.796694689918, rel=1e-10)

    def test_diagnostics(self):
        d = gauss_tail(2.0, mode="exact").diagnostics
        assert d == SeriesDiagnostics(path="exact", terms_used=0, truncation_bound=0.0)

    @pytest.mark.parametrize("bad", [-0.5, 9.6, math.inf, math.nan])
    def test_range(self, bad):
        with pytest.raises(DomainError):
            gauss_tail(bad, mode="exact")


class TestAsymptoticPath:
    @pytest.mark.parametrize("k,log10p", sorted(LOG10_TAIL.items()))
    def test_high_sigma_log10(self, k, log10p):
        got = gauss_tail(k, mode="asymptotic").probability.log10_value
        assert got == pytest.approx(log10p, abs=1e-12)

    def test_table_row_25(self):
        r = gauss_tail(25.0, mode="asymptotic")
        assert format_sci(r.percent, 4) == "3.057e-136"
        assert format_sci(r.occurrence_years, 4) == "1.309e+135"

    @pytest.mark.parametrize("k", [9.0, 12.3, 50.0, 137.0, 500.0, 1500.0, 3000.0])
    def test_relative_error_within_1e9(self, k):
        got = gauss_tail(k, mode="asymptotic").probability.log10_value
        dlog10 = abs(got - float(tail_log10_oracle(k)))
        assert dlog10 * math.log(10.0) <= gauss.ASYMPTOTIC_REL_TOL

    @pytest.mark.parametrize("k", [1e4, 1e5, 1e6])
    def test_faithful_rounding_at_extreme_k(self, k):
        # beyond k ~ 3e3 a double log10 cannot resolve 1e-9 relative; the
        # computed value must still sit within 2 ulp of the true log10
        got = gauss_tail(k, mode="asymptotic").probability.log10_value
        dlog10 = abs(got - float(tail_log10_oracle(k)))
        assert dlog10 <= 2.0 * math.ulp(abs(got))

    def test_truncation_bound_small_beyond_9(self):
        for k in [9.0, 9.5, 10.0, 25.0, 100.0]:
            d = gauss_tail(k, mode="asymptotic").diagnostics
            assert d.truncation_bound <= 1e-12
            assert d.terms_used >= 2

    def test_truncation_bound_covers_series_error(self):
        # the alternating-series bound dominates the truncation error; the
        # observed deviation also carries ~1 ulp of log10 representation
        # noise, which the bound cannot see, so it is floored out
        for k in [10.0, 15.0, 20.0, 25.0]:
            r = gauss_tail(k, mode="asymptotic")
            dlog10 = abs(r.probability.log10_value - float(tail_log10_oracle(k)))
            rel_dev = dlog10 * math.log(10.0)
            float_floor = 2.0 * math.ulp(abs(r.probability.log10_value)) * math.log(10.0)
            assert rel_dev <= r.diagnostics.truncation_bound + float_floor

    @pytest.mark.parametrize("bad", [7.9, -1.0, 1.1e6, math.nan])
    def test_range(self, bad):
        with pytest.raises(DomainError):
            gauss_tail(bad, mode="asymptotic")

    def test_series_sum_matches_signed_term_loop(self):
        # the loop that carried each signed term and counted terms apart from n
        def reference(k):
            u = 1.0 / (k * k)
            s, term, terms_used, n = 1.0, 1.0, 1, 1
            while True:
                cand = -term * (2 * n - 1) * u
                if abs(cand) >= abs(term) or abs(cand) <= gauss.REL_TERM_FLOOR * s:
                    return s, terms_used, abs(cand) / s
                s += cand
                term = cand
                terms_used += 1
                n += 1

        rng = np.random.default_rng(20)
        ks = [*(10.0 ** rng.uniform(math.log10(8.0), 6.0, 2000)), *rng.uniform(8.0, 40.0, 500),
              8.0, 9.0, 9.5, 1e6]
        for k in ks:
            assert gauss._series_sum(float(k)) == reference(float(k))


class TestPaperAppendixPath:
    def test_k25_percent(self):
        r = gauss_tail(25.0, mode="paper_appendix")
        assert format_sci(r.percent, 4) == "3.057e-136"
        # printed figure, numeric comparison
        assert abs(r.percent.log10_value - parse("3.0570e-136").log10_value) < 1e-4

    def test_k10_percent(self):
        # frozen from the 60-digit evaluation of the fixed four-term formula
        r = gauss_tail(10.0, mode="paper_appendix")
        assert r.percent.as_float() == pytest.approx(7.62007643901e-22, rel=1e-10)

    def test_gap_vs_production_at_k10(self):
        # the non-alternating cubic sign shifts the result by ~30/k^6
        gap = (gauss_tail(10.0, mode="paper_appendix").probability.log10_value
               - gauss_tail(10.0, mode="asymptotic").probability.log10_value)
        rel = 10.0 ** gap - 1.0
        assert rel == pytest.approx(2.93201e-5, rel=1e-3)

    def test_gap_shrinks_with_k(self):
        gaps = []
        for k in [10.0, 15.0, 25.0, 50.0]:
            d = (gauss_tail(k, mode="paper_appendix").probability.log10_value
                 - gauss_tail(k, mode="asymptotic").probability.log10_value)
            gaps.append(abs(d))
        assert gaps == sorted(gaps, reverse=True)

    def test_diagnostics(self):
        d = gauss_tail(25.0, mode="paper_appendix").diagnostics
        assert d.path == "paper_appendix"
        assert d.terms_used == 4

    def test_range(self):
        with pytest.raises(DomainError):
            gauss_tail(7.0, mode="paper_appendix")


class TestDispatch:
    def test_auto_boundary(self):
        assert gauss_tail(9.0).diagnostics.path == "exact"
        assert gauss_tail(9.0000001).diagnostics.path == "asymptotic"

    def test_k8_occurrence_years(self):
        r = gauss_tail(8.0)
        assert r.occurrence_years.as_float() == pytest.approx(6.429875181242e12, rel=1e-10)
        # printed figure within 0.1%
        assert r.occurrence_years.as_float() == pytest.approx(6.429e12, rel=1e-3)

    def test_k7_occurrence_days(self):
        r = gauss_tail(7.0)
        assert r.occurrence_days.as_float() == pytest.approx(7.81364430890595e11, rel=1e-9)
        # the published 7.76e+11 is ~0.7% off the true value
        assert r.occurrence_days.as_float() == pytest.approx(7.76e11, rel=1e-2)

    def test_k0(self):
        assert gauss_tail(0.0).probability == from_real(0.5)

    def test_mode_passthrough(self):
        assert gauss_tail(10.0, mode="paper_appendix").diagnostics.path == "paper_appendix"
        with pytest.raises(DomainError):
            gauss_tail(10.0, mode="exact")
        with pytest.raises(DomainError):
            gauss_tail(5.0, mode="asymptotic")

    def test_k_ceiling(self):
        with pytest.raises(DomainError):
            gauss_tail(1.0000001e6)

    @pytest.mark.parametrize("mode", ["auto", "exact", "asymptotic", "paper_appendix"])
    def test_k_ceiling_named_in_every_mode(self, mode):
        with pytest.raises(DomainError, match="exceeds the supported range"):
            gauss_tail(1.1e6, mode=mode)

    def test_check_order(self):
        # k, the k ceiling, the mode name, days_per_year, then the mode's range
        with pytest.raises(DomainError, match="exceeds the supported range"):
            gauss_tail(2e6, mode="fast", days_per_year=0)
        with pytest.raises(DomainError, match="^mode must be one of"):
            gauss_tail(20.0, mode="fast", days_per_year=0)
        with pytest.raises(DomainError, match="^days_per_year must be >= 1$"):
            gauss_tail(20.0, mode="exact", days_per_year=0)
        with pytest.raises(DomainError, match="^exact path covers 0 <= k <= 9.5; got 20"):
            gauss_tail(20.0, mode="exact")
        with pytest.raises(DomainError, match="^paper_appendix path covers 8 <= k <= 1e"):
            gauss_tail(7.0, mode="paper_appendix")

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            gauss_tail(2.0, mode="fast")

    @pytest.mark.parametrize("k, mode, message", [
        (9.6, "exact", "exact path covers 0 <= k <= 9.5; got 9.6 (use auto mode)"),
        (1e6, "exact", "exact path covers 0 <= k <= 9.5; got 1e+06 (use auto mode)"),
        (7.0, "asymptotic", "asymptotic path covers 8 <= k <= 1e+06; got 7"),
        (7.999, "paper_appendix", "paper_appendix path covers 8 <= k <= 1e+06; got 7.999"),
        (2e6, "auto", "k = 2e+06 exceeds the supported range (k <= 1e+06)"),
        (2.0, "fast", "mode must be one of ('exact', 'asymptotic', 'paper_appendix', 'auto'), "
                      "got 'fast'"),
    ])
    def test_range_messages_in_full(self, k, mode, message):
        with pytest.raises(DomainError) as exc:
            gauss_tail(k, mode=mode)
        assert str(exc.value) == message

    @pytest.mark.parametrize("mode", ["auto", "exact", "asymptotic", "paper_appendix"])
    @pytest.mark.parametrize("k", [-3.0, -1])
    def test_negative_k_named_in_every_mode(self, k, mode):
        with pytest.raises(DomainError, match="^k must be nonnegative$"):
            gauss_tail(k, mode=mode)

    @pytest.mark.parametrize("mode", ["auto", "exact", "asymptotic", "paper_appendix"])
    @pytest.mark.parametrize("k", [True, False])
    def test_bool_k_rejected_in_every_mode(self, k, mode):
        with pytest.raises(DomainError, match="^k must be a finite real$"):
            gauss_tail(k, mode=mode)

    @pytest.mark.parametrize("mode", ["auto", "exact", "asymptotic", "paper_appendix"])
    @pytest.mark.parametrize("k", [10 ** 400, -10 ** 400], ids=["1e400", "-1e400"])
    def test_int_k_beyond_float_range(self, k, mode):
        with pytest.raises(DomainError, match="^k must be a finite real$"):
            gauss_tail(k, mode=mode)

    def test_negative_zero_is_zero(self):
        r = gauss_tail(-0.0)
        assert r.probability == gauss_tail(0.0).probability
        assert math.copysign(1.0, r.k) == -1.0 and r.diagnostics.path == "exact"

    def test_keyword_evaluation(self):
        r = gauss_tail(k=2.0, days_per_year=250, mode="auto")
        assert isinstance(r, TailResult)
        assert r.occurrence_days.as_float() == pytest.approx(43.9557890159857, rel=1e-10)

    def test_keyword_validation(self):
        with pytest.raises(DomainError):
            gauss_tail(k=-1.0)
        with pytest.raises(DomainError):
            gauss_tail(k=2.0, days_per_year=0)
        with pytest.raises(DomainError):
            gauss_tail(k=2.0, mode="quick")
        with pytest.raises(DomainError, match="^days_per_year must be an integer$"):
            gauss_tail(2.0, days_per_year=True)

    def test_dual_path_agreement_in_overlap(self):
        for k in [9.0, 9.1, 9.2, 9.3, 9.4, 9.5]:
            le = gauss_tail(k, mode="exact").probability.log10_value
            la = gauss_tail(k, mode="asymptotic").probability.log10_value
            assert abs(le - la) * math.log(10.0) <= gauss.OVERLAP_REL_TOL


class TestResultInvariants:
    @pytest.mark.parametrize("k", [0.0, 2.0, 9.0, 25.0, 300.0])
    def test_derived_fields(self, k):
        r = gauss_tail(k, days_per_year=250)
        assert r.percent.log10_value == pytest.approx(r.probability.log10_value + 2.0, abs=1e-12)
        assert r.occurrence_days.log10_value == -r.probability.log10_value
        assert r.occurrence_years.log10_value == pytest.approx(
            r.occurrence_days.log10_value - math.log10(250.0), abs=1e-12)
        assert r.probability <= from_real(0.5)

    def test_days_per_year_convention(self):
        r365 = gauss_tail(2.0, days_per_year=365)
        assert r365.occurrence_years.as_float() == pytest.approx(43.9557890159857 / 365, rel=1e-10)

    def test_stores_only_what_gauss_tail_computes(self):
        assert TailResult._fields == ("k", "probability", "days_per_year", "diagnostics")
        assert SeriesDiagnostics._fields == ("path", "terms_used", "truncation_bound")
        assert gauss_tail(2.0, days_per_year=365).days_per_year == 365

    @given(st.floats(min_value=0.0, max_value=1e6), st.sampled_from([250, 252, 365]))
    def test_periods_are_the_one_conversion(self, k, dpy):
        r = gauss_tail(k, days_per_year=dpy)
        p = r.probability
        assert r.percent.log10_value == (p * from_real(100.0)).log10_value
        assert r.occurrence_days.log10_value == occurrence_days(p).log10_value
        assert r.occurrence_years.log10_value == occurrence_years(p, dpy).log10_value


class TestConversions:
    def test_occurrence_days_two_sigma(self):
        assert occurrence_days(parse("0.02275")).as_float() == pytest.approx(43.956, rel=5e-4)

    def test_occurrence_six_sigma(self):
        p6 = gauss_tail(6.0).probability
        assert occurrence_days(p6).as_float() == pytest.approx(1.013594691794e9, rel=1e-9)
        assert occurrence_years(p6, 250).as_float() == pytest.approx(4.054378767177e6, rel=1e-9)

    def test_occurrence_identity(self):
        assert occurrence_days(ONE).as_float() == 1.0

    def test_occurrence_zero(self):
        with pytest.raises(DomainError):
            occurrence_days(ZERO)

    @pytest.mark.parametrize("text", ["1.5", "1.0000001", "1e300"])
    def test_probability_above_one(self, text):
        p = parse(text)
        for call in (lambda: occurrence_days(p), lambda: occurrence_years(p, 250),
                     lambda: streak_probability(p, 2)):
            with pytest.raises(DomainError, match="^probability must be <= 1$"):
                call()

    def test_probability_one(self):
        assert occurrence_years(ONE, 250).log10_value == -math.log10(250)
        assert streak_probability(ONE, 3) == ONE

    def test_streak(self):
        p = parse("3.057e-136")
        assert format_sci(streak_probability(p, 2), 4) == "9.345e-272"
        assert streak_probability(p, 1) == p
        true_p = parse("3.057e-138")
        assert format_sci(streak_probability(true_p, 2), 4) == "9.345e-276"

    def test_streak_of_true_25_sigma(self):
        p25 = gauss_tail(25.0).probability
        got = streak_probability(p25, 2).log10_value
        assert got == pytest.approx(2 * LOG10_TAIL[25.0], abs=1e-11)

    def test_streak_validation(self):
        with pytest.raises(DomainError):
            streak_probability(ONE, 0)
        with pytest.raises(DomainError):
            streak_probability(ONE, 2.5)


class TestSigmaForPeriod:
    def test_hundred_thousand_years(self):
        # oracle: sqrt(2) * erfinv(1 - 2/(1e5*250)) = 5.36712863993063
        k = sigma_for_period(parse("100000"), 250)
        assert k == pytest.approx(5.36712863993063, abs=1e-7)

    def test_table_row_inversion(self):
        k = sigma_for_period(parse("1.309e+135"), 250)
        assert k == pytest.approx(25.0, abs=1e-3)

    @pytest.mark.parametrize("k", [3.0, 10.0, 25.0])
    def test_round_trip(self, k):
        years = gauss_tail(k).occurrence_years
        assert sigma_for_period(years, 250) == pytest.approx(k, abs=1e-6)

    def test_unattainably_short_period(self):
        # shorter than the k=0 period of 2 trading days
        with pytest.raises(DomainError):
            sigma_for_period(parse("0.004"), 250)

    def test_period_beyond_range(self):
        # longer than the k = 1e6 occurrence period (~1e217147240514 years)
        with pytest.raises(DomainError):
            sigma_for_period(parse("1e+300000000000"), 250)

    def test_zero_years(self):
        with pytest.raises(DomainError):
            sigma_for_period(ZERO, 250)

    def test_plain_float_years(self):
        with pytest.raises(DomainError, match="^years must be a Magnitude$"):
            sigma_for_period(1e5)

    # k near 0, both sides of AUTO_SWITCH_K = 9, and up to k near MAX_K = 1e6;
    # both sides of k = 1.0665 (L = 1.9441), where the Newton start leaves
    # sqrt(2L) for the three-term root, and of each k where the count of
    # tail evaluations drops (test_few_tail_evaluations): 6 -> 5 at 0.709,
    # 5 -> 4 at that switch, 4 -> 3 at 1.928, 3 -> 2 at 8.740 and 2 -> 1
    # at 153.11
    SWEEP_K = [0.0, 1e-6, 1e-3, 0.05, 0.5, 0.70, 0.72, 1.0, 1.066, 1.0667, 1.92,
               1.935, 2.5, 5.367, 8.5, 8.73, 8.75, 8.999999, 9.0, 9.000001, 9.5, 12.0, 25.0,
               40.0, 100.0, 153.0, 153.2, 1e3, 1e4, 1e5, 999_990.0, 1e6 - 1e-3]

    @pytest.mark.parametrize("k", SWEEP_K)
    def test_matches_mpmath_root(self, k):
        years = Magnitude(-float(tail_log10_oracle(k)) - math.log10(250))
        target = -(years.log10_value + math.log10(250))  # what the inverse solves for
        with mp.workdps(50):
            root = mp.findroot(lambda x: tail_log10_oracle(x) - target, mp.mpf(k)) if k else mp.mpf(0)
            abs_tol, rel_tol = gauss.INVERSE_TOL
            assert abs(mp.mpf(sigma_for_period(years, 250)) - root) <= abs_tol + rel_tol * abs(root)

    # (highest log10 years, the most tail evaluations the inversion may make
    # up to there); the count falls as the three-term start nears the root:
    # 6 below about 10**-1.78 years, 3 up to 10**15.5 and 1 from 10**5091
    MAX_CALLS = [(-1.78, 6), (-1.56, 5), (-0.83, 4), (15.5, 3), (5090.0, 2), (math.inf, 1)]

    @pytest.mark.parametrize("log10_years", [math.log10(2 / 250), -2.09, -2.0, -1.78, -1.77,
                                             -1.56, -1.55, -0.83, -0.82, 0.0, 0.5, 1.0, 2.0,
                                             5.0, 10.0, 15.5, 15.6, 30.0, 100.0, 1e3, 5090.0,
                                             5092.0, 1e4, 1e5, 5e5, 1e8, 2e11])
    def test_few_tail_evaluations(self, monkeypatch, log10_years):
        tail, calls = gauss._log10_tail_auto, []

        def counted(k):
            calls.append(k)
            return tail(k)

        monkeypatch.setattr(gauss, "_log10_tail_auto", counted)
        sigma_for_period(Magnitude(log10_years), 250)
        # the Newton steps; the range check reads a constant
        max_calls = next(n for top, n in self.MAX_CALLS if log10_years <= top)
        assert 1 <= len(calls) <= max_calls

    def test_matches_bracketed_newton(self):
        # the loop that kept Newton inside a shrinking [lo, hi] bracket and
        # bisected whenever a step left it
        def reference(log10_years, dpy):
            target = -(log10_years + math.log10(dpy))
            lo, hi = 0.0, gauss.MAX_K
            two_l = -2.0 * target * LN10
            a = math.log(2.0 * math.pi * two_l)
            k2 = two_l - a + (a - 2.0) / two_l
            k = min(math.sqrt(k2 if k2 > 1.0 else two_l), gauss.MAX_K)
            while True:
                log10_p = gauss._log10_tail_auto(k)[1]
                if log10_p > target:
                    lo = k
                else:
                    hi = k
                log10_phi = -k * k * gauss._HALF_LOG10E_HI - gauss._HALF_LOG10_2PI
                step = (log10_p - target) * LN10 / 10.0 ** (log10_phi - log10_p)
                if abs(step) <= 2.5e-10:
                    return k + step
                k += step
                if not lo < k < hi:
                    k = 0.5 * (lo + hi)
                if hi - lo <= 1e-9:
                    return k

        def accepted(log10_years, dpy):
            try:
                sigma_for_period(Magnitude(log10_years), dpy)
            except DomainError:
                return False
            return True

        rng = np.random.default_rng(21)
        cases = []
        for dpy in (1, 250, 252, 365, 10**6):
            shortest = math.log10(2.0) - math.log10(dpy)
            longest = -gauss._LOG10_TAIL_AT_MAX_K - math.log10(dpy)
            # the first 10 accepted doubles inward from each end of the domain
            for x, inward in ((shortest, math.inf), (longest, -math.inf)):
                while not accepted(x, dpy):
                    x = math.nextafter(x, inward)
                for _ in range(10):
                    cases.append((x, dpy))
                    x = math.nextafter(x, inward)
            cases += [(float(x), dpy) for x in rng.uniform(shortest, longest, 1000)]
            cases += [(-gauss._log10_tail_auto(float(k))[1] - math.log10(dpy), dpy)
                      for k in 10.0 ** rng.uniform(-6.0, 6.0, 2000)]
        # both sides of the auto-mode switch at k = 9
        cases += [(-gauss._log10_tail_auto(float(k))[1] - math.log10(250), 250)
                  for k in rng.uniform(9.0 - 1e-6, 9.0 + 1e-6, 2000)]
        for x, dpy in cases:
            assert sigma_for_period(Magnitude(x), dpy) == reference(x, dpy), (x, dpy)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(gauss, "_MAX_NEWTON_STEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge"):
            sigma_for_period(parse("100000"), 250)


class TestOrderProperties:
    def test_monotone_decreasing_sampled(self):
        rng = np.random.default_rng(118)
        ks = np.sort(10.0 ** rng.uniform(0.0, 4.0, 400))
        logs = [gauss_tail(float(k)).probability.log10_value for k in ks]
        for a, b in zip(logs, logs[1:]):
            assert a > b

    def test_mills_ratio_bounds_sampled(self):
        # phi(k)*(1/k - 1/k^3) < p < phi(k)/k, checked in the scaled form
        # k*p/phi(k) in (1 - 1/k^2, 1), which double precision can resolve
        # over the whole range (the raw log10 subtraction cannot beyond
        # k ~ 500: the lower gap shrinks like 1.3/k^4)
        rng = np.random.default_rng(118)
        ks = 10.0 ** rng.uniform(0.0, 4.0, 400)
        for k in ks:
            k = float(k)
            if k == 1.0:
                continue
            if k <= 9.0:
                p = gauss_tail(k).probability.as_float()
                ratio = k * p * math.exp(0.5 * k * k) * math.sqrt(2.0 * math.pi)
            else:
                ratio = gauss._series_sum(k)[0]
            assert 1.0 - 1.0 / (k * k) < ratio < 1.0


@given(st.floats(min_value=0.0, max_value=9.5), st.floats(min_value=0.0, max_value=9.5))
def test_monotonicity_property_exact_path(k1, k2):
    if k1 == k2:
        return
    lo, hi = sorted([k1, k2])
    assert gauss_tail(lo, mode="exact").probability >= gauss_tail(hi, mode="exact").probability


@given(st.floats(min_value=8.0, max_value=1e6), st.floats(min_value=8.0, max_value=1e6))
def test_monotonicity_property_asymptotic_path(k1, k2):
    if k1 == k2:
        return
    lo, hi = sorted([k1, k2])
    assert (gauss_tail(lo, mode="asymptotic").probability.log10_value
            >= gauss_tail(hi, mode="asymptotic").probability.log10_value)
