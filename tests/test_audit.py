import csv
import math
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import binom_tail_oracle, make_series
from sigmatail import _kernels, audit, gauss
from sigmatail.audit import (
    AuditReport, FlaggedDay, Moments, Series, binomial_tail_at_least,
    build_report, estimate_moments, flag_events, load_series, report_as_dict,
    sigma_scores,
)
from sigmatail.errors import DomainError
from sigmatail.magnitude import ONE, from_real, parse

P6 = 9.865876450376981407009e-10  # Gaussian tail at k=6, frozen oracle


class TestLoadSeries:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2007-08-09,-0.031\n2007-08-10,0.012\n")
        s = load_series(path)
        assert len(s) == 2
        assert (s.dates[0], s.values[0]) == (np.datetime64("2007-08-09"), -0.031)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2007-08-09,-0.031\n\n2007-08-10,0.012\n")
        assert len(load_series(path)) == 2

    def test_duplicate_date_names_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2007-08-09,1\n2007-08-09,2\n")
        with pytest.raises(DomainError, match="row 3"):
            load_series(path)

    def test_decreasing_date_names_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2007-08-09,1\n2007-08-08,2\n")
        with pytest.raises(DomainError, match="row 3"):
            load_series(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("day,pnl\n2007-08-09,1\n")
        with pytest.raises(DomainError, match="header"):
            load_series(path)

    def test_bad_value_names_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2007-08-09,1\n2007-08-10,oops\n")
        with pytest.raises(DomainError, match="row 3"):
            load_series(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2007-08-09,nan\n")
        with pytest.raises(DomainError, match="row 2"):
            load_series(path)

    def test_bad_date_names_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n09/08/2007,1\n")
        with pytest.raises(DomainError, match="row 2"):
            load_series(path)

    def test_empty_and_headerless(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(DomainError):
            load_series(path)
        path.write_text("date,value\n")
        with pytest.raises(DomainError, match="no data"):
            load_series(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2007-08-09,1,extra\n")
        with pytest.raises(DomainError, match="row 2"):
            load_series(path)

    def test_utf8_bom_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"\xef\xbb\xbfdate,value\n2007-08-09,1\n")
        s = load_series(path)
        assert len(s) == 1 and s.values[0] == 1.0


def reference_load_series(path):
    """The row-by-row ``csv`` loader that the block-wise one replaced, kept
    as the oracle: (dates, values) as lists, or a DomainError."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty file") from None
        if [c.strip().lower() for c in header] != ["date", "value"]:
            raise DomainError(f"{path}: row 1: header must be 'date,value'")
        prev = None
        for rownum, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DomainError(f"{path}: row {rownum}: expected 2 fields, got {len(row)}")
            try:
                d = date.fromisoformat(row[0].strip())
            except ValueError:
                raise DomainError(f"{path}: row {rownum}: bad date {row[0]!r}") from None
            try:
                v = float(row[1])
            except ValueError:
                raise DomainError(f"{path}: row {rownum}: bad value {row[1]!r}") from None
            if not math.isfinite(v):
                raise DomainError(f"{path}: row {rownum}: non-finite value {row[1]!r}")
            if prev is not None and d <= prev:
                raise DomainError(
                    f"{path}: row {rownum}: date {d.isoformat()} not after previous row"
                )
            rows.append((d, v))
            prev = d
    if not rows:
        raise DomainError(f"{path}: no data rows")
    return [d for d, _ in rows], [v for _, v in rows]


def _outcome(loader, path):
    try:
        return loader(path)
    except DomainError as exc:
        return str(exc)


def _columns(path):
    s = load_series(path)
    return s.dates.tolist(), s.values.tolist()


def _daily_rows(n, start=date(2000, 1, 1)):
    return [f"{(start + timedelta(days=i)).isoformat()},{i * 0.25 - 3}" for i in range(n)]


# a list holds the data rows after a "date,value" header, a string the whole
# file; a tuple puts its row first in the second block of daily rows ("dup"
# repeats the date before it)
DIFFERENTIAL_FILES = {
    "quoted fields": ['"2007-08-09","1.5"', '2007-08-10,"-2"', '"2007-08-11",3'],
    "quote inside a field": ['2007-08-09,1"', '2007-08-10,2'],
    "text after a closing quote": ['"2007-08-09"x,1'],
    "CRLF": "date,value\r\n2007-08-09,1\r\n2007-08-10,2\r\n",
    "lone CR": "date,value\r2007-08-09,1\r2007-08-10,2\r",
    "quoted and padded header": '"Date", value \n2007-08-09,1\n',
    "whitespace-only lines": ["2007-08-09,1", "   ", "\t", "", "2007-08-10,2", " "],
    "padded fields": [" 2007-08-09 , 1.5 ", "\t2007-08-10\t,\t2\t", "\u00a02007-08-11,3\u00a0"],
    "basic and week dates": ["20070811,1", "2007-W32-7,2"],
    "underscore and plus": ["2007-08-09,1_000", "2007-08-10,+1e-3"],
    "February 30": ["2007-02-30,1"],
    "year zero": ["0000-01-01,1"],
    "nan": ["2007-08-09,nan"],
    "inf": ["2007-08-09,1", "2007-08-10,inf"],
    "overflow": ["2007-08-09,1e400"],
    "three fields": ["2007-08-09,1", "2007-08-10,2,3"],
    "one field then three": ["2007-08-09", "20070810,20070811,3"],
    "empty fields": [","],
    "two bad rows": ["2007-08-09,1", "2007-08-10,oops", "2007-13-01,2"],
    "order before a parse error": ["2007-08-09,1", "2007-08-08,2", "2007-08-10,oops"],
    "no final newline": "date,value\n2007-08-09,1\n2007-08-10,2",
    "blank line at the end": ["2007-08-09,1", "2007-08-10,2", ""],
    "bad value on the first row of block 2": ("2099-01-01,oops",),
    "date backwards across blocks": ("1999-12-31,1",),
    "duplicate date across blocks": ("dup",),
}


def _differential_text(name, block_rows):
    spec = DIFFERENTIAL_FILES[name]
    if isinstance(spec, tuple):
        rows = _daily_rows(block_rows + 3)
        rows[block_rows] = rows[block_rows - 1] if spec[0] == "dup" else spec[0]
        return "date,value\n" + "\n".join(rows) + "\n"
    if isinstance(spec, str):
        return spec
    return "date,value\n" + "\n".join(spec) + "\n"


class TestLoaderDifferential:
    """load_series against the row-by-row reference: equal (dates, values)
    or an equal DomainError message, at several block sizes."""

    @pytest.mark.parametrize("block_rows", [1, 2, audit._BLOCK_ROWS])
    @pytest.mark.parametrize("name", list(DIFFERENTIAL_FILES))
    def test_same_outcome_as_reference(self, tmp_path, monkeypatch, name, block_rows):
        monkeypatch.setattr(audit, "_BLOCK_ROWS", block_rows)
        path = tmp_path / "s.csv"
        path.write_bytes(_differential_text(name, block_rows).encode("utf-8"))
        want = _outcome(reference_load_series, path)
        assert _outcome(_columns, path) == want

    @pytest.mark.parametrize("block_rows", [1, 2, audit._BLOCK_ROWS])
    def test_line_break_in_quoted_field_names_its_row(self, tmp_path, monkeypatch, block_rows):
        # the reference reads the record across both lines; load_series
        # refuses it, and names the row where it starts
        monkeypatch.setattr(audit, "_BLOCK_ROWS", block_rows)
        path = tmp_path / "s.csv"
        path.write_text('date,value\n2007-08-09,1\n"2007-08-10\n",2\n2007-08-11,3\n')
        assert len(reference_load_series(path)[0]) == 3
        with pytest.raises(DomainError, match=r"row 3: line break inside a quoted field"):
            load_series(path)


class TestSeriesValidation:
    def test_rejects_non_dates(self):
        with pytest.raises(DomainError):
            Series(np.array(["2007-08-09"]), np.array([1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Series(np.array(["2007-08-09"], "datetime64[D]"), np.array([math.inf]))

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            Series(np.array(["2007-08-10", "2007-08-09"], "datetime64[D]"), np.array([1.0, 2.0]))


class TestEstimateMoments:
    def test_full_sample_hand_arithmetic(self):
        # 15 zeros and 15 twos: mean 1, variance 30/29
        s = make_series([0.0, 2.0] * 15)
        m = estimate_moments(s)
        assert m.sample_mean == pytest.approx(1.0, abs=1e-15)
        assert m.sample_stdev == pytest.approx(math.sqrt(30.0 / 29.0), rel=1e-14)
        assert m.scored.all()
        assert np.all(m.mean == m.sample_mean)

    def test_full_sample_minimum_size(self):
        with pytest.raises(DomainError):
            estimate_moments(make_series([0.0, 2.0]))

    def test_law_of_large_numbers(self, standard_normal_10k):
        m = estimate_moments(make_series(standard_normal_10k))
        assert abs(m.sample_mean) < 0.05
        assert abs(m.sample_stdev - 1.0) < 0.03

    def test_constant_series_unscored_with_warning(self):
        s = make_series([3.14] * 40)
        with pytest.warns(UserWarning, match="zero stdev"):
            m = estimate_moments(s)
        assert not m.scored.any()

    def test_rolling_strictly_trailing(self):
        rng = np.random.default_rng(5)
        s = make_series(rng.normal(0.5, 2.0, 200))
        m = estimate_moments(s, window=50)
        x = s.values
        assert not m.scored[:50].any()
        assert m.scored[50:].all()
        # day 120 sees exactly days 70..119
        assert m.mean[120] == pytest.approx(x[70:120].mean(), abs=1e-12)
        assert m.stdev[120] == pytest.approx(x[70:120].std(ddof=1), rel=1e-12)

    def test_rolling_causality(self):
        rng = np.random.default_rng(6)
        vals = rng.standard_normal(150)
        m1 = estimate_moments(make_series(vals), window=30)
        vals2 = vals.copy()
        vals2[100:] = vals[100:][::-1]  # permute the future
        m2 = estimate_moments(make_series(vals2), window=30)
        # bitwise-identical past, not merely approximately equal
        assert np.array_equal(m1.mean[:101], m2.mean[:101], equal_nan=True)
        assert np.array_equal(m1.stdev[:101], m2.stdev[:101], equal_nan=True)

    def test_rolling_minimum_window(self):
        s = make_series(np.arange(100.0))
        with pytest.raises(DomainError):
            estimate_moments(s, window=19)
        with pytest.raises(DomainError):
            estimate_moments(s, window=25.0)

    def test_window_longer_than_series(self):
        s = make_series(np.arange(30.0))
        m = estimate_moments(s, window=40)
        assert not m.scored.any()


class TestKernels:
    def test_numba_numpy_agree_with_bruteforce(self, monkeypatch):
        rng = np.random.default_rng(11)
        x = rng.normal(0.01, 0.5, 300)
        w = 20
        results = {}
        for mode in ("numpy", "numba") if _kernels.HAVE_NUMBA else ("numpy",):
            monkeypatch.setenv(_kernels.ENV_VAR, mode)
            assert _kernels.kernel_choice() == mode
            results[mode] = _kernels.rolling_moments(x, w)
        for t in [w, 57, 150, 299]:
            want_mean = x[t - w:t].mean()
            want_std = x[t - w:t].std(ddof=1)
            for mode, (means, stds) in results.items():
                assert means[t] == pytest.approx(want_mean, abs=1e-12), mode
                assert stds[t] == pytest.approx(want_std, abs=1e-12), mode

    def test_env_flag_validation(self, monkeypatch):
        monkeypatch.setenv(_kernels.ENV_VAR, "gpu")
        with pytest.raises(DomainError):
            _kernels.kernel_choice()

    def test_numba_refresh_matches_numpy_on_long_series(self, monkeypatch):
        if not _kernels.HAVE_NUMBA:
            pytest.skip("numba not installed")
        rng = np.random.default_rng(12)
        x = rng.normal(0.0, 1.0, 3000)
        monkeypatch.setenv(_kernels.ENV_VAR, "numba")
        mb, sb = _kernels.rolling_moments(x, 250)
        monkeypatch.setenv(_kernels.ENV_VAR, "numpy")
        mn, sn = _kernels.rolling_moments(x, 250)
        assert np.nanmax(np.abs(mb - mn)) < 1e-12
        assert np.nanmax(np.abs(sb - sn)) < 1e-12


class TestFlagEvents:
    def test_two_sigma_count_near_expected(self, standard_normal_10k):
        s = make_series(standard_normal_10k)
        m = estimate_moments(s)
        flagged, observed = flag_events(s, m, 2.0, "loss")
        assert observed == len(flagged)
        assert 0.7 <= observed / 227.5 <= 1.3

    def test_threshold_above_max_empty(self, standard_normal_10k):
        s = make_series(standard_normal_10k)
        m = estimate_moments(s)
        flagged, observed = flag_events(s, m, 30.0, "loss")
        assert flagged == [] and observed == 0

    def test_injected_deep_loss_flagged_despite_contamination(self, standard_normal_10k):
        vals = standard_normal_10k.copy()
        vals[5000] = -25.0
        s = make_series(vals)
        m = estimate_moments(s)
        flagged, _ = flag_events(s, m, 20.0, "loss")
        assert [f.date for f in flagged] == [s.dates[5000].tolist()]
        # estimator contamination shrinks the score below the raw -25
        assert -25.0 < flagged[0].sigma_score <= -20.0

    def test_loss_side_ignores_gains(self):
        vals = np.concatenate([np.zeros(15), np.ones(15), [8.0], [-8.0]])
        s = make_series(vals)
        m = estimate_moments(s)
        flagged, observed = flag_events(s, m, 3.0, "loss")
        assert observed == 1 and flagged[0].sigma_score < 0
        flagged_both, observed_both = flag_events(s, m, 3.0, "both")
        assert observed_both == 2

    def test_scores_rounded_to_4_decimals(self, standard_normal_10k):
        s = make_series(standard_normal_10k)
        m = estimate_moments(s)
        flagged, _ = flag_events(s, m, 2.0, "loss")
        for f in flagged:
            assert f.sigma_score == round(f.sigma_score, 4)

    def test_validation(self, standard_normal_10k):
        s = make_series(standard_normal_10k[:100])
        m = estimate_moments(s)
        with pytest.raises(DomainError):
            flag_events(s, m, 0.0, "loss")
        with pytest.raises(DomainError):
            flag_events(s, m, 2.0, "upper")

    def test_bool_threshold_rejected(self, standard_normal_10k):
        s = make_series(standard_normal_10k[:100])
        with pytest.raises(DomainError):
            flag_events(s, estimate_moments(s), True, "loss")
        with pytest.raises(DomainError):
            build_report(s, threshold_k=True)


class TestBinomialTail:
    def test_certain_event(self):
        assert binomial_tail_at_least(250, 0, from_real(0.5)) == ONE

    def test_one_of_fortyfour(self):
        got = binomial_tail_at_least(44, 1, from_real(0.02275))
        assert got.as_float() == pytest.approx(0.636712980420511, rel=1e-9)

    def test_two_25_sigma_days_among_250(self):
        got = binomial_tail_at_least(250, 2, parse("3.057e-138"))
        assert got.log10_value == pytest.approx(-270.53629976244403, abs=4e-10)

    def test_cluster_of_three_six_sigma_days(self):
        got = binomial_tail_at_least(500, 3, from_real(P6))
        assert got.as_float() == pytest.approx(1.98863693e-20, rel=1e-8)

    def test_cluster_of_four_six_sigma_days(self):
        got = binomial_tail_at_least(500, 4, from_real(P6))
        assert got.as_float() == pytest.approx(2.437740989e-27, rel=1e-8)

    def test_bulk_values_against_incomplete_beta_oracle(self):
        for n, m, p in [(10000, 227, 0.02275), (10000, 260, 0.02275),
                        (300, 150, 0.5), (50, 49, 0.9)]:
            got = binomial_tail_at_least(n, m, from_real(p)).as_float()
            want = float(binom_tail_oracle(n, m, p))
            assert got == pytest.approx(want, rel=1e-9), (n, m, p)

    def test_million_trials_against_scipy(self):
        import scipy.special as sp
        for n, m, p in [(1_000_000, 500500, 0.5), (1_000_000, 1100, 1e-3),
                        (1_000_000, 900, 1e-3)]:
            got = binomial_tail_at_least(n, m, from_real(p)).as_float()
            want = float(sp.bdtrc(m - 1, n, p))
            assert got == pytest.approx(want, rel=1e-9), (n, m, p)

    def test_monotone_in_m(self):
        vals = [binomial_tail_at_least(100, m, from_real(0.1)).log10_value
                for m in [1, 5, 10, 20, 50]]
        assert vals == sorted(vals, reverse=True)

    def test_monotone_in_p(self):
        vals = [binomial_tail_at_least(100, 10, from_real(p)).log10_value
                for p in [0.01, 0.05, 0.1, 0.3]]
        assert vals == sorted(vals)

    def test_validation(self):
        with pytest.raises(DomainError):
            binomial_tail_at_least(10, 11, from_real(0.5))
        with pytest.raises(DomainError):
            binomial_tail_at_least(10, -1, from_real(0.5))
        with pytest.raises(DomainError):
            binomial_tail_at_least(10, 2, from_real(0.0))
        with pytest.raises(DomainError):
            binomial_tail_at_least(10, 2, from_real(1.0))
        with pytest.raises(DomainError):
            binomial_tail_at_least(10.0, 2, from_real(0.5))


class TestBuildReport:
    def test_seeded_normal_two_sigma(self, standard_normal_10k):
        report = build_report(make_series(standard_normal_10k), threshold_k=2.0)
        assert isinstance(report, AuditReport)
        assert report.n_days == 10000
        assert report.expected_count == pytest.approx(10000 * 0.02275013194817921, rel=1e-9)
        assert abs(report.observed_count - 227.5) <= 3 * math.sqrt(10000 * 0.02275 * 0.97725)
        p = report.p_value_at_least_observed.as_float()
        assert 0.01 <= p <= 0.99

    def test_no_events_pvalue_one(self, standard_normal_10k):
        report = build_report(make_series(standard_normal_10k[:500]), threshold_k=10.0)
        assert report.observed_count == 0
        assert report.p_value_at_least_observed == ONE

    def test_injected_cluster_of_three(self, standard_normal_10k):
        vals = standard_normal_10k[:500].copy()
        vals[[100, 101, 102]] = -8.0
        report = build_report(make_series(vals), threshold_k=6.0)
        assert report.observed_count == 3
        want = binom_tail_oracle(497 + 3, 3, P6)
        assert report.p_value_at_least_observed.log10_value == pytest.approx(
            float(want.log10() if hasattr(want, "log10") else math.log10(want)), abs=1e-6)

    def test_both_side_doubles_model(self, standard_normal_10k):
        s = make_series(standard_normal_10k)
        loss = build_report(s, threshold_k=2.0, side="loss")
        both = build_report(s, threshold_k=2.0, side="both")
        assert both.expected_count == pytest.approx(2 * loss.expected_count, rel=1e-12)
        assert both.observed_count >= loss.observed_count

    def test_rolling_report(self, standard_normal_10k):
        report = build_report(make_series(standard_normal_10k[:2000]),
                              threshold_k=2.0, window=250)
        assert report.window == 250
        # only days with a complete trailing window are scored
        assert report.expected_count == pytest.approx(
            (2000 - 250) * 0.02275013194817921, rel=1e-9)

    def test_astronomical_threshold(self, standard_normal_10k):
        report = build_report(make_series(standard_normal_10k), threshold_k=25.0)
        assert report.expected_count == pytest.approx(1e4 * 3.0566967e-138, rel=1e-6)
        assert report.observed_count == 0
        assert report.p_value_at_least_observed == ONE

    def test_threshold_beyond_float_range(self, standard_normal_10k):
        # k=40 has log10 p ~ -350; the expected count collapses to float zero
        report = build_report(make_series(standard_normal_10k), threshold_k=40.0)
        assert report.expected_count == 0.0
        assert report.p_value_at_least_observed == ONE


class TestReportDict:
    def test_exact_field_names(self, standard_normal_10k):
        report = build_report(make_series(standard_normal_10k[:1000]), threshold_k=2.0)
        d = report_as_dict(report)
        assert set(d) == {
            "n_days", "mean", "stdev", "window", "threshold_k", "side",
            "flagged", "expected_count", "observed_count",
            "p_value_at_least_observed",
        }
        assert d["window"] is None
        assert d["p_value_at_least_observed"].keys() == {"mantissa", "exponent10"}
        first = d["flagged"][0]
        assert set(first) == {"date", "sigma_score"}
        date.fromisoformat(first["date"])

    def test_tiny_pvalue_survives_json(self, standard_normal_10k):
        import json
        vals = standard_normal_10k[:500].copy()
        vals[[7, 8, 9, 10]] = -9.0
        report = build_report(make_series(vals), threshold_k=6.0)
        blob = json.loads(json.dumps(report_as_dict(report)))
        pv = blob["p_value_at_least_observed"]
        assert pv["exponent10"] < -20
