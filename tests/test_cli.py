import argparse
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from sigmatail import cli

# Verified against the 60-digit oracle before freezing.
GOLDEN_TABLE_CSV = """\
k,percent,occurrence_days,occurrence_years
3,1.350e-1,7.408e+2,2.963e+0
4,3.167e-3,3.157e+4,1.263e+2
5,2.867e-5,3.489e+6,1.395e+4
6,9.866e-8,1.014e+9,4.054e+6
7,1.280e-10,7.814e+11,3.125e+9
"""

# table --ks 0,3,8.5,9.5,25,1e6 --dpy 252 --digits 6 in the other three
# formats: k = 0 and 3 on the exact path, 8.5 in the overlap, 9.5 on the
# asymptotic path, and the far tail
GOLDEN_TABLE_KS = "0,3,8.5,9.5,25,1e6"
GOLDEN_TABLE = {
    "text": """\
k      percent                occurrence_days        occurrence_years
0      5.00000e+1             2.00000e+0             7.93651e-3
3      1.34990e-1             7.40797e+2             2.93967e+0
8.5    9.47953e-16            1.05490e+17            4.18613e+14
9.5    1.04945e-19            9.52879e+20            3.78126e+18
25     3.05670e-136           3.27151e+137           1.29822e+135
1e+06  9.44074e-217147240957  1.05924e+217147240958  4.20336e+217147240955
""",
    "md": """\
| k | percent | occurrence_days | occurrence_years |
| --- | --- | --- | --- |
| 0 | 5.00000e+1 | 2.00000e+0 | 7.93651e-3 |
| 3 | 1.34990e-1 | 7.40797e+2 | 2.93967e+0 |
| 8.5 | 9.47953e-16 | 1.05490e+17 | 4.18613e+14 |
| 9.5 | 1.04945e-19 | 9.52879e+20 | 3.78126e+18 |
| 25 | 3.05670e-136 | 3.27151e+137 | 1.29822e+135 |
| 1e+06 | 9.44074e-217147240957 | 1.05924e+217147240958 | 4.20336e+217147240955 |
""",
    "json": (
        '{"days_per_year": 252, "rows": ['
        '{"k": 0.0, "occurrence_days": {"exponent10": 0, "mantissa": 2.0}, '
        '"occurrence_years": {"exponent10": -3, "mantissa": 7.936507936507936}, '
        '"percent": {"exponent10": 1, "mantissa": 4.999999999999999}}, '
        '{"k": 3.0, "occurrence_days": {"exponent10": 2, "mantissa": 7.407966946899169}, '
        '"occurrence_years": {"exponent10": 0, "mantissa": 2.939669423372685}, '
        '"percent": {"exponent10": -1, "mantissa": 1.3498980316300961}}, '
        '{"k": 8.5, "occurrence_days": {"exponent10": 17, "mantissa": 1.0549040841727353}, '
        '"occurrence_years": {"exponent10": 14, "mantissa": 4.186127318145769}, '
        '"percent": {"exponent10": -16, "mantissa": 9.479534822203371}}, '
        '{"k": 9.5, "occurrence_days": {"exponent10": 20, "mantissa": 9.528787112304421}, '
        '"occurrence_years": {"exponent10": 18, "mantissa": 3.7812647271049245}, '
        '"percent": {"exponent10": -19, "mantissa": 1.049451507536264}}, '
        '{"k": 25.0, "occurrence_days": {"exponent10": 137, "mantissa": 3.2715054716156597}, '
        '"occurrence_years": {"exponent10": 135, "mantissa": 1.2982164569903607}, '
        '"percent": {"exponent10": -136, "mantissa": 3.0566967063825263}}, '
        '{"k": 1000000.0, '
        '"occurrence_days": {"exponent10": 217147240958, "mantissa": 1.059238838674002}, '
        '"occurrence_years": {"exponent10": 217147240955, "mantissa": 4.203356170404541}, '
        '"percent": {"exponent10": -217147240957, "mantissa": 9.440741440824059}}]}\n'
    ),
}

# context 25 --baseline-years 1e5, every line; the particle ratios divide by
# the built-in bounds 1e73 and 1e85
GOLDEN_CONTEXT_25 = """\
k: 25
percent: 3.057e-136 %
occurrence_years: 1.309e+135
vs end of the last Ice Age (years): x1.309e+131 .. x1.309e+131
vs emergence of Homo sapiens (years): x1.309e+129 .. x1.309e+129
vs origin of multicellular life (years): x2.181e+126 .. x2.181e+126
vs time since the Big Bang (years): x1.091e+125 .. x9.347e+124
vs particles in the universe (count): x1.309e+62 .. x1.309e+50  [unit mismatch: years vs count]
vs single lottery win odds (count): x3.272e+141 .. x3.272e+141  [unit mismatch: years vs count]
lottery: between 21 and 22 consecutive wins
order gap vs baseline: 130
"""


# The prob stderr line for every (k, mode) the mode accepts; y is k / sqrt(2).
DIAGNOSTICS_GOLDEN = {
    ("-0", "exact"): "path=exact y=-0.0 terms_used=0 truncation_bound=0.000e+00",
    ("0", "exact"): "path=exact y=0.0 terms_used=0 truncation_bound=0.000e+00",
    ("2", "exact"): "path=exact y=1.414213562373095 terms_used=0 truncation_bound=0.000e+00",
    ("8", "exact"): "path=exact y=5.65685424949238 terms_used=0 truncation_bound=0.000e+00",
    ("9", "exact"): "path=exact y=6.363961030678928 terms_used=0 truncation_bound=0.000e+00",
    ("9.5", "exact"): "path=exact y=6.717514421272201 terms_used=0 truncation_bound=0.000e+00",
    ("8", "asymptotic"):
        "path=asymptotic y=5.65685424949238 terms_used=33 truncation_bound=1.844e-14",
    ("9", "asymptotic"):
        "path=asymptotic y=6.363961030678928 terms_used=41 truncation_bound=3.696e-18",
    ("9.5", "asymptotic"):
        "path=asymptotic y=6.717514421272201 terms_used=29 truncation_bound=9.806e-19",
    ("10", "asymptotic"):
        "path=asymptotic y=7.071067811865475 terms_used=25 truncation_bound=5.901e-19",
    ("25", "asymptotic"):
        "path=asymptotic y=17.677669529663685 terms_used=10 truncation_bound=7.210e-20",
    ("1e3", "asymptotic"):
        "path=asymptotic y=707.1067811865474 terms_used=4 truncation_bound=1.050e-22",
    ("1e6", "asymptotic"):
        "path=asymptotic y=707106.7811865475 terms_used=2 truncation_bound=3.000e-24",
    ("8", "paper_appendix"):
        "path=paper_appendix y=5.65685424949238 terms_used=4 truncation_bound=6.353e-06",
    ("9", "paper_appendix"):
        "path=paper_appendix y=6.363961030678928 terms_used=4 truncation_bound=2.468e-06",
    ("9.5", "paper_appendix"):
        "path=paper_appendix y=6.717514421272201 terms_used=4 truncation_bound=1.600e-06",
    ("10", "paper_appendix"):
        "path=paper_appendix y=7.071067811865475 terms_used=4 truncation_bound=1.060e-06",
    ("25", "paper_appendix"):
        "path=paper_appendix y=17.677669529663685 terms_used=4 truncation_bound=6.892e-10",
    ("1e3", "paper_appendix"):
        "path=paper_appendix y=707.1067811865474 terms_used=4 truncation_bound=1.050e-22",
    ("1e6", "paper_appendix"):
        "path=paper_appendix y=707106.7811865475 terms_used=4 truncation_bound=1.050e-46",
    ("-0", "auto"): "path=exact y=-0.0 terms_used=0 truncation_bound=0.000e+00",
    ("0", "auto"): "path=exact y=0.0 terms_used=0 truncation_bound=0.000e+00",
    ("2", "auto"): "path=exact y=1.414213562373095 terms_used=0 truncation_bound=0.000e+00",
    ("8", "auto"): "path=exact y=5.65685424949238 terms_used=0 truncation_bound=0.000e+00",
    ("9", "auto"): "path=exact y=6.363961030678928 terms_used=0 truncation_bound=0.000e+00",
    ("9.5", "auto"):
        "path=asymptotic y=6.717514421272201 terms_used=29 truncation_bound=9.806e-19",
    ("10", "auto"):
        "path=asymptotic y=7.071067811865475 terms_used=25 truncation_bound=5.901e-19",
    ("25", "auto"):
        "path=asymptotic y=17.677669529663685 terms_used=10 truncation_bound=7.210e-20",
    ("1e3", "auto"):
        "path=asymptotic y=707.1067811865474 terms_used=4 truncation_bound=1.050e-22",
    ("1e6", "auto"):
        "path=asymptotic y=707106.7811865475 terms_used=2 truncation_bound=3.000e-24",
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class CountingOut(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def run_counted(argv):
    """Exit code, stdout text and the number of writes to stdout."""
    out = CountingOut()
    code = cli.main(argv, out=out, err=io.StringIO())
    return code, out.getvalue(), out.writes


class TestProb:
    def test_two_sigma(self):
        code, out, err = run_cli(["prob", "2"])
        assert code == 0
        assert out == (
            "k: 2\n"
            "probability: 2.275e-2\n"
            "percent: 2.275e+0 %\n"
            "occurrence_days: 4.396e+1\n"
            "occurrence_years: 1.758e-1\n"
        )
        assert "path=exact" in err

    def test_25_sigma(self):
        code, out, err = run_cli(["prob", "25"])
        assert code == 0
        assert "percent: 3.057e-136 %" in out
        assert "occurrence_years: 1.309e+135" in out
        assert "path=asymptotic" in err

    def test_zero(self):
        code, out, _ = run_cli(["prob", "0"])
        assert code == 0
        assert "probability: 5.000e-1" in out

    def test_mode_and_digits(self):
        code, out, err = run_cli(["prob", "10", "--mode", "paper_appendix", "--digits", "6"])
        assert code == 0
        assert "percent: 7.62008e-22 %" in out
        assert "path=paper_appendix" in err

    def test_mode_out_of_range_is_domain_error(self):
        code, out, err = run_cli(["prob", "25", "--mode", "exact"])
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    def test_k_ceiling(self):
        code, _, err = run_cli(["prob", "2000000"])
        assert code == 3
        assert "error:" in err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["prob"])
        assert exc.value.code == 2

    def test_dpy_zero(self):
        assert run_cli(["prob", "2", "--dpy", "0"]) == (3, "", "error: --dpy must be >= 1\n")

    def test_digits_bound(self):
        code, _, err = run_cli(["prob", "2", "--digits", "16"])
        assert code == 3

    @pytest.mark.parametrize("argv", [["prob", "--", "-3"], ["table", "--ks=-1,2"]])
    def test_negative_k_names_the_sign(self, argv):
        assert run_cli(argv) == (3, "", "error: k must be nonnegative\n")

    def test_negative_zero_is_zero(self):
        code, out, err = run_cli(["prob", "--", "-0.0"])
        assert code == 0
        assert out == (
            "k: -0\n"
            "probability: 5.000e-1\n"
            "percent: 5.000e+1 %\n"
            "occurrence_days: 2.000e+0\n"
            "occurrence_years: 8.000e-3\n"
        )
        assert "path=exact y=-0.0" in err

    @pytest.mark.parametrize("k, mode", sorted(DIAGNOSTICS_GOLDEN))
    def test_diagnostics_line_golden(self, k, mode):
        code, _, err = run_cli(["prob", "--mode", mode, "--", k])
        assert code == 0
        assert err == f"diagnostics: {DIAGNOSTICS_GOLDEN[k, mode]}\n"

    def test_golden_bytes(self):
        assert run_cli(["prob", "25", "--mode", "asymptotic", "--digits", "15"]) == (
            0,
            "k: 25\n"
            "probability: 3.05669670638253e-138\n"
            "percent: 3.05669670638253e-136 %\n"
            "occurrence_days: 3.27150547161566e+137\n"
            "occurrence_years: 1.30860218864626e+135\n",
            "diagnostics: path=asymptotic y=17.677669529663685 terms_used=10 "
            "truncation_bound=7.210e-20\n",
        )


class TestTable:
    def test_golden_csv(self):
        code, out, _ = run_cli(["table", "--ks", "3,4,5,6,7", "--format", "csv"])
        assert code == 0
        assert out == GOLDEN_TABLE_CSV

    @pytest.mark.parametrize("fmt", sorted(GOLDEN_TABLE))
    def test_golden_formats(self, fmt):
        argv = ["table", "--ks", GOLDEN_TABLE_KS, "--dpy", "252", "--digits", "6", "--format", fmt]
        assert run_cli(argv) == (0, GOLDEN_TABLE[fmt], "")

    def test_high_sigma_rows(self):
        code, out, _ = run_cli(["table", "--ks", "10,15,20,25", "--dpy", "250", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].split(",")[1] == "7.620e-22"
        assert lines[4].split(",") == ["25", "3.057e-136", "3.272e+137", "1.309e+135"]

    def test_byte_stability(self):
        a = run_cli(["table", "--ks", "3,4,5,6,7"])
        b = run_cli(["table", "--ks", "3,4,5,6,7"])
        assert a == b

    def test_json_structure(self):
        code, out, _ = run_cli(["table", "--ks", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["days_per_year"] == 250
        row = payload["rows"][0]
        assert row["k"] == 2.0
        assert row["percent"]["exponent10"] == 0
        assert row["percent"]["mantissa"] == pytest.approx(2.2750131948, rel=1e-9)
        assert row["occurrence_years"]["exponent10"] == -1

    def test_md_format(self):
        code, out, _ = run_cli(["table", "--ks", "3", "--format", "md"])
        assert code == 0
        assert out.splitlines()[0] == "| k | percent | occurrence_days | occurrence_years |"
        assert "| 3 | 1.350e-1 | 7.408e+2 | 2.963e+0 |" in out

    def test_text_format_aligned(self):
        code, out, _ = run_cli(["table", "--ks", "3,25"])
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("k ")
        assert "percent" in header and "occurrence_years" in header

    def test_bad_ks(self):
        code, _, err = run_cli(["table", "--ks", "3;4"])
        assert code == 3

    def test_empty_ks(self):
        assert run_cli(["table", "--ks", ","]) == (3, "", "error: --ks list is empty\n")

    def test_dpy_changes_years_only(self):
        _, out250, _ = run_cli(["table", "--ks", "2", "--format", "csv"])
        _, out365, _ = run_cli(["table", "--ks", "2", "--format", "csv", "--dpy", "365"])
        row250 = out250.strip().splitlines()[1].split(",")
        row365 = out365.strip().splitlines()[1].split(",")
        assert row250[:3] == row365[:3]
        assert row250[3] != row365[3]


class TestOccurrence:
    def test_from_probability(self):
        code, out, _ = run_cli(["occurrence", "--p", "0.02275"])
        assert code == 0
        assert "occurrence_days: 4.396e+1" in out
        assert "occurrence_years: 1.758e-1" in out

    def test_from_k(self):
        code, out, _ = run_cli(["occurrence", "8"])
        assert code == 0
        assert "probability: 6.221e-16" in out
        assert "occurrence_years: 6.430e+12" in out

    @pytest.mark.parametrize("argv, expected", [
        (["occurrence", "8"],
         "probability: 6.221e-16\noccurrence_days: 1.607e+15\noccurrence_years: 6.430e+12\n"),
        (["occurrence", "--p", "0.02275"],
         "occurrence_days: 4.396e+1\noccurrence_years: 1.758e-1\n"),
    ], ids=["k", "p"])
    def test_golden_bytes(self, argv, expected):
        assert run_cli(argv) == (0, expected, "")

    def test_requires_exactly_one(self):
        assert run_cli(["occurrence"])[0] == 3
        assert run_cli(["occurrence", "2", "--p", "0.5"])[0] == 3

    def test_probability_above_one(self):
        assert run_cli(["occurrence", "--p", "1.5"]) == (3, "", "error: probability must be <= 1\n")

    def test_probability_one(self):
        code, out, _ = run_cli(["occurrence", "--p", "1"])
        assert code == 0
        assert "occurrence_days: 1.000e+0\n" in out

    def test_tiny_probability_text(self):
        # inverting the literal 4-digit probability, not the k=25 tail, so
        # the mantissa lands at 1.3085 rather than 1.3086
        code, out, _ = run_cli(["occurrence", "--p", "3.057e-138", "--digits", "4"])
        assert code == 0
        assert "occurrence_years: 1.308e+135" in out


class TestStreak:
    def test_two_consecutive_25_sigma_days(self):
        code, out, _ = run_cli(["streak", "25", "--days", "2"])
        assert code == 0
        assert "probability: 9.343e-276" in out
        assert "9.343e-272" in out  # percent-power note

    def test_single_day_is_plain_tail(self):
        code, out, _ = run_cli(["streak", "25", "--days", "1"])
        assert code == 0
        assert "probability: 3.057e-138" in out

    def test_golden_bytes(self):
        assert run_cli(["streak", "25", "--days", "2"]) == (
            0,
            "probability: 9.343e-276\n"
            "note: percent-power variant gives 9.343e-272 "
            "(raises the percent form to the power instead of the probability)\n",
            "",
        )

    def test_invalid_days(self):
        assert run_cli(["streak", "25", "--days", "0"])[0] == 3

    def test_no_dpy_option(self, capsys):
        # streak prints only probabilities, which no days-per-year changes
        with pytest.raises(SystemExit) as exc:
            run_cli(["streak", "5", "--days", "2", "--dpy", "250"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dpy 250" in capsys.readouterr().err

    def test_percent_power_overflow_leaves_stdout_empty(self):
        # 0.5**7e14 fits the log10 range but the percent form 50**7e14 does
        # not: the command fails before printing either line
        code, out, err = run_cli(["streak", "0", "--days", "700000000000000"])
        assert code == 3
        assert out == ""
        assert err.startswith("error: exponent out of supported range")

    @pytest.mark.parametrize("days", [10 ** 308, 10 ** 309], ids=["to-minus-inf", "past-float"])
    def test_days_past_the_cap(self, days):
        # 5-sigma odds to the 1e308th power overflow a float product, which
        # printed a probability of zero; past the float range they raised
        assert run_cli(["streak", "5", "--days", str(days)]) == (
            3, "", "error: exponent out of supported range: |log10| = inf > 1e+15\n")


class TestLottery:
    def test_true_25_sigma(self):
        code, out, _ = run_cli(["lottery", "--p", "3.057e-138"])
        assert code == 0
        assert out == "between 21 and 22 consecutive wins\n"

    def test_consecutive_figure(self):
        code, out, _ = run_cli(["lottery", "--p", "9.345e-272"])
        assert out == "between 42 and 43 consecutive wins\n"

    def test_custom_win_prob(self):
        code, out, _ = run_cli(["lottery", "--p", "1e-6", "--win-prob", "1e-3"])
        assert out == "between 2 and 3 consecutive wins\n"

    def test_parse_error_exit_3(self):
        code, _, err = run_cli(["lottery", "--p", "not-a-number"])
        assert code == 3
        assert "error:" in err


class TestInvert:
    def test_hundred_thousand_years(self):
        code, out, _ = run_cli(["invert", "--years", "100000"])
        assert code == 0
        assert out.startswith("k ≈ ")
        k = float(out.split()[-1])
        assert 5.36 <= k <= 5.38

    def test_magnitude_text_years(self):
        code, out, _ = run_cli(["invert", "--years", "1.309e+135"])
        k = float(out.split()[-1])
        assert k == pytest.approx(25.0, abs=1e-3)

    def test_unattainable(self):
        assert run_cli(["invert", "--years", "0.001"])[0] == 3

    @pytest.mark.parametrize("years, expected", [
        ("100000", "k ≈ 5.3671\n"),
        ("1e5", "k ≈ 5.3671\n"),
        ("1.309e+135", "k ≈ 25.0000\n"),
        ("1e300000", "k ≈ 1175.3919\n"),
    ])
    def test_golden_bytes(self, years, expected):
        assert run_cli(["invert", "--years", years]) == (0, expected, "")


class TestContext:
    def test_25_sigma_story(self):
        code, out, _ = run_cli(["context", "25", "--baseline-years", "1e5"])
        assert code == 0
        assert "percent: 3.057e-136 %" in out
        assert "occurrence_years: 1.309e+135" in out
        assert "[unit mismatch: years vs count]" in out
        assert "lottery: between 21 and 22 consecutive wins" in out
        assert "order gap vs baseline: 130" in out

    def test_golden_bytes(self):
        assert run_cli(["context", "25", "--baseline-years", "1e5"]) == (0, GOLDEN_CONTEXT_25, "")

    def test_five_sigma_vs_ice_age(self):
        code, out, _ = run_cli(["context", "5"])
        assert code == 0
        line = next(l for l in out.splitlines() if "Ice Age" in l)
        assert "x1.395e+0" in line

    def test_custom_refs_file(self, tmp_path):
        refs = tmp_path / "refs.csv"
        refs.write_text("dog years,years,7,7\n", encoding="utf-8")
        code, out, _ = run_cli(["context", "3", "--refs", str(refs)])
        assert code == 0
        assert "vs dog years (years)" in out
        assert "Ice Age" not in out

    @pytest.mark.parametrize("baseline, message", [
        ("0", "error: --baseline-years must be positive\n"),
        ("abc", "error: not a number: 'abc'\n"),
        ("-5", "error: negative values are not representable: '-5'\n"),
    ], ids=["zero", "abc", "negative"])
    def test_bad_baseline_prints_nothing(self, baseline, message):
        assert run_cli(["context", "3", f"--baseline-years={baseline}"]) == (3, "", message)

    def test_refs_not_utf8_exit_3(self, tmp_path):
        refs = tmp_path / "refs.csv"
        refs.write_bytes(b"caf\xe9 years,years,7,7\n")
        code, out, err = run_cli(["context", "3", "--refs", str(refs)])
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "not UTF-8 text" in err

    def test_refs_bom_before_comment(self, tmp_path):
        refs = tmp_path / "refs.csv"
        refs.write_bytes("\ufeff# dog years\ndog years,years,7,7\n".encode("utf-8"))
        code, out, err = run_cli(["context", "3", "--refs", str(refs)])
        assert code == 0 and err == ""
        assert "vs dog years (years)" in out

    def test_refs_strip_only_spaces_and_tabs(self, tmp_path):
        # as the audit loader does: a no-break space is refused here, as
        # parse() refuses it on the command line
        refs = tmp_path / "refs.csv"
        refs.write_text(" dog years\t, years ,7,7 \na,years,\u00a01e5\u00a0,2e5\n",
                        encoding="utf-8")
        message = f"error: {refs}: line 2: not a number: '\\xa01e5\\xa0'\n"
        assert run_cli(["context", "10", "--refs", str(refs)]) == (3, "", message)
        assert run_cli(["lottery", "--p", "\u00a01e-5"])[0] == 3
        refs.write_text(" dog years\t, years ,7,7 \n", encoding="utf-8")
        code, out, err = run_cli(["context", "3", "--refs", str(refs)])
        assert code == 0 and err == "" and "vs dog years (years)" in out

    def test_ratio_past_cap_prints_nothing(self, tmp_path):
        # 1e6 sigma recurs every 10**(2.17e11) years: the ratio to a bound
        # of 1e-999999999999999 years is past LOG10_CAP
        refs = tmp_path / "refs.csv"
        refs.write_text("tiny,years,1e-999999999999999,1e-999999999999999\n", encoding="utf-8")
        code, out, err = run_cli(["context", "1000000", "--refs", str(refs)])
        assert (code, out) == (3, "")
        assert err.startswith("error: exponent out of supported range")


HUGE_EXPONENT = "1e" + "9" * 400  # past the float range, not only LOG10_CAP


class TestHugeExponent:
    @pytest.mark.parametrize("argv", [
        ["occurrence", "--p", HUGE_EXPONENT],
        ["invert", "--years", HUGE_EXPONENT],
        ["lottery", "--p", HUGE_EXPONENT],
        ["lottery", "--p", "1e-5", "--win-prob", HUGE_EXPONENT],
        ["context", "3", "--baseline-years", HUGE_EXPONENT],
    ], ids=["occurrence-p", "invert-years", "lottery-p", "lottery-win-prob", "baseline-years"])
    def test_one_error_line(self, argv):
        message = f"error: exponent out of supported range in {HUGE_EXPONENT!r}\n"
        assert run_cli(argv) == (3, "", message)

    def test_refs_line(self, tmp_path):
        refs = tmp_path / "refs.csv"
        refs.write_text(f"# huge\nbig,years,1,{HUGE_EXPONENT}\n", encoding="utf-8")
        message = f"error: {refs}: line 2: exponent out of supported range in {HUGE_EXPONENT!r}\n"
        assert run_cli(["context", "3", "--refs", str(refs)]) == (3, "", message)


class TestTtail:
    def test_standardized_nu3(self):
        code, out, _ = run_cli(["ttail", "25", "--nu", "3", "--standardized"])
        assert code == 0
        assert "t_tail: 1.356e-5" in out
        assert "gap_vs_gaussian: 132" in out

    def test_moderate_k_no_gap_line(self):
        code, out, _ = run_cli(["ttail", "2", "--nu", "3"])
        assert code == 0
        assert "t_tail: 6.966e-2" in out
        assert "gap_vs_gaussian" not in out

    def test_invalid_nu(self):
        assert run_cli(["ttail", "2", "--nu", "2", "--standardized"])[0] == 3

    def test_golden_bytes(self):
        assert run_cli(["ttail", "25", "--nu", "3", "--standardized"]) == (
            0, "t_tail: 1.356e-5\ngap_vs_gaussian: 132\n", "")

    def test_golden_bytes_no_gap_line(self):
        assert run_cli(["ttail", "2", "--nu", "3"]) == (0, "t_tail: 6.966e-2\n", "")

    def test_one_t_tail_per_call(self, monkeypatch):
        from sigmatail import studentt

        calls = []
        real = studentt.student_t_tail
        monkeypatch.setattr(studentt, "student_t_tail",
                            lambda *args: calls.append(args) or real(*args))
        assert run_cli(["ttail", "25", "--nu", "3"])[0] == 0
        assert len(calls) == 1

    def test_gap_error_leaves_stdout_empty(self):
        # the t tail at k = 2e6 exists, but the Gaussian tail of the gap does not
        assert run_cli(["ttail", "2e6", "--nu", "3"]) == (
            3, "", "error: k = 2e+06 exceeds the supported range (k <= 1e+06)\n")


def _write_fixture(path, values, start=date(1985, 1, 1)):
    lines = ["date,value"]
    for i, v in enumerate(values):
        lines.append(f"{(start + timedelta(days=i)).isoformat()},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_golden_csv(path, seed=2011, rows=20_000):
    """A P&L-like series built from ``random.Random(seed).random()`` with
    +, -, *, / and sqrt alone, all correctly rounded, so that the file is the
    same on every platform: two-sided Pareto innovations (tail index 2),
    GARCH(1,1)-style clustered volatility, a stretch of 10x volatility, and
    values written by repr, so that the small ones are in exponent form."""
    rng = random.Random(seed)
    var = 1e-4
    lines = ["date,value"]
    day = date(1990, 1, 1)
    for i in range(rows):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        z = sign * (math.sqrt(1.0 / (1.0 - rng.random())) - 1.0)
        sig = math.sqrt(var) * (10.0 if 12_000 <= i < 12_400 else 1.0)
        lines.append(f"{(day + timedelta(days=i)).isoformat()},{2e-4 + sig * z!r}")
        var = 2e-6 + 0.05 * var * min(z * z, 4.0) + 0.9 * var
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestAudit:
    @pytest.fixture
    def fixture_csv(self, tmp_path):
        rng = np.random.default_rng(20270)
        path = tmp_path / "fix.csv"
        _write_fixture(path, rng.standard_normal(2000))
        return path

    def test_text_report(self, fixture_csv):
        code, out, _ = run_cli(["audit", str(fixture_csv), "--threshold", "2"])
        assert code == 0
        assert "n_days: 2000" in out
        assert "side: loss" in out
        assert "observed_count:" in out
        assert "expected_count: 45.5003" in out
        assert "p_value_at_least_observed:" in out
        assert "assume independent days" in out

    def test_field_past_csv_limit_exit_3(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("date,value\n2000-01-03," + "1" * 200_000 + "\n", encoding="utf-8")
        message = f"error: {path}: row 2: non-finite value {'1' * 200_000!r}\n"
        assert run_cli(["audit", str(path)]) == (3, "", message)

    def test_non_finite_moments_are_null(self, tmp_path):
        # one day has no stdev (NaN), which JSON has no number for
        path = tmp_path / "one.csv"
        path.write_text("date,value\n2020-01-01,1.5\n", encoding="utf-8")

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        code, out, err = run_cli(["audit", str(path), "--window", "20", "--format", "json"])
        payload = json.loads(out, parse_constant=refuse)
        assert (code, err, payload["mean"], payload["stdev"]) == (0, "", 1.5, None)
        assert "stdev: nan\n" in run_cli(["audit", str(path), "--window", "20"])[1]

    def test_json_report(self, fixture_csv):
        code, out, _ = run_cli(["audit", str(fixture_csv), "--threshold", "3", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n_days"] == 2000
        assert payload["threshold_k"] == 3.0
        assert payload["side"] == "loss"
        assert {"mantissa", "exponent10"} == payload["p_value_at_least_observed"].keys()

    def test_rolling_window_flag(self, fixture_csv):
        code, out, _ = run_cli(["audit", str(fixture_csv), "--threshold", "2",
                                "--window", "250", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["window"] == 250

    def test_both_side(self, fixture_csv):
        code, out, _ = run_cli(["audit", str(fixture_csv), "--threshold", "2",
                                "--side", "both", "--format", "json"])
        payload = json.loads(out)
        assert payload["expected_count"] == pytest.approx(2000 * 2 * 0.02275013, rel=1e-5)

    def test_both_side_model_rounding_to_one(self, fixture_csv):
        code, out, err = run_cli(["audit", str(fixture_csv), "--threshold", "1e-20",
                                  "--side", "both"])
        assert (code, err) == (0, "")
        assert "expected_count: 2000\n" in out
        assert "p_value_at_least_observed: 1.000e+0\n" in out

    def test_malformed_file_exit_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,value\n1985-01-01,1.0\n1985-01-01,2.0\n")
        code, _, err = run_cli(["audit", str(path)])
        assert code == 3
        assert "row 3" in err

    def test_missing_file_exit_3(self, tmp_path):
        code, _, err = run_cli(["audit", str(tmp_path / "absent.csv")])
        assert code == 3

    def test_not_utf8_exit_3(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"date,value\n1985-01-01,1.0\n1985-01-02,caf\xe9\n")
        code, out, err = run_cli(["audit", str(path)])
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "not UTF-8 text" in err

    def test_side_choices_match_audit(self):
        from sigmatail import audit

        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        side = next(a for a in subparsers.choices["audit"]._actions if a.dest == "side")
        assert tuple(side.choices) == audit._SIDES

    def test_byte_stability(self, fixture_csv):
        a = run_cli(["audit", str(fixture_csv), "--threshold", "2"])
        b = run_cli(["audit", str(fixture_csv), "--threshold", "2"])
        assert a == b

    # sha256 of stdout for the golden CSV, read by its relative name
    @pytest.mark.parametrize("argv, sha256", [
        (["--window", "250", "--threshold", "2", "--side", "both", "--format", "json"],
         "617e5fa2d8095097b518bedcb092d3772acf757976f4325cf6ca78145249c769"),
        (["--threshold", "4", "--side", "loss"],
         "082c6d367f351544aae5fc2a554440436bdfcfc8909d9929afb9c6ab797ed0e9"),
        (["--window", "250", "--threshold", "3", "--side", "both"],
         "9c2f5bfd45a23e4b9ca9bd89331275d92cba97d52d40cb20a5e83e58a094e1c2"),
    ], ids=["rolling-json", "full-text", "rolling-both-text"])
    def test_stdout_golden(self, tmp_path, monkeypatch, argv, sha256):
        monkeypatch.chdir(tmp_path)
        _write_golden_csv(tmp_path / "golden.csv")
        code, out, err = run_cli(["audit", "golden.csv", *argv])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_zero_stdev_days_warn_on_one_line(self, tmp_path, fmt):
        # days 41..50 see 20 trailing zeros
        from sigmatail import audit

        path = tmp_path / "flat.csv"
        _write_fixture(path, np.r_[np.random.default_rng(5).standard_normal(21), np.zeros(30)])
        code, out, err = run_cli(["audit", str(path), "--window", "20", "--format", fmt])
        assert code == 0
        assert err == "warning: 10 day(s) with zero stdev left unscored\n"
        # scored: 51 days, less 20 with no history and 10 with zero stdev
        if fmt == "text":
            assert out.startswith(f"source: {path}\nn_days: 51\nn_scored: 21\n")
            assert "warning" not in out
            return
        with pytest.warns(UserWarning, match="zero stdev"):
            report = audit.build_report(audit.load_series(path), threshold_k=2.0, window=20)
        assert report.n_scored == 21
        assert out == audit.report_json(report) + "\n"


class TestEnvironment:
    def test_days_per_year_not_read_from_environment(self, monkeypatch, capsys):
        # --dpy is the one way to set the trading-day convention
        monkeypatch.setenv("SIGMATAIL_DAYS_PER_YEAR", "365")
        code, out, _ = run_cli(["prob", "2"])
        assert code == 0
        assert "occurrence_years: 1.758e-1" in out  # 43.9558 / 250
        with pytest.raises(SystemExit):
            run_cli(["prob", "--help"])
        assert "(default 250)" in capsys.readouterr().out


DPY_PAST_FLOAT = str(10 ** 400)


class TestFailureLeavesStdoutEmpty:
    """A command either succeeds or prints nothing to stdout: main writes a
    handler's lines in one write after it returns, and --dpy is checked once,
    so an integer past the float range is a valid --dpy."""

    @pytest.mark.parametrize("argv", [
        ["prob", "2"], ["table", "--ks", "3,4"], ["occurrence", "8"],
        ["streak", "25", "--days", "2"], ["lottery", "--p", "1e-30"],
        ["invert", "--years", "1e6"], ["context", "25", "--baseline-years", "1e5"],
        ["ttail", "25", "--nu", "3"], ["audit", "<series>", "--window", "20"],
    ], ids=lambda argv: argv[0])
    def test_success_writes_stdout_once(self, tmp_path, argv):
        series = tmp_path / "series.csv"
        _write_fixture(series, np.random.default_rng(3).standard_normal(40))
        argv = [str(series) if a == "<series>" else a for a in argv]
        code, out, writes = run_counted(argv)
        assert code == 0 and out.endswith("\n")
        assert writes == 1

    @pytest.mark.parametrize("argv, line", [
        (["prob", "2"], "occurrence_years: 4.396e-399"),
        (["table", "--ks", "2", "--format", "csv"], "2,2.275e+0,4.396e+1,4.396e-399"),
        (["occurrence", "2"], "occurrence_years: 4.396e-399"),
        (["occurrence", "--p", "0.5"], "occurrence_years: 2.000e-400"),
        (["context", "2"], "occurrence_years: 4.396e-399"),
    ], ids=["prob", "table", "occurrence-k", "occurrence-p", "context"])
    def test_dpy_past_float_range(self, argv, line):
        code, out, _ = run_cli([*argv, "--dpy", DPY_PAST_FLOAT])
        assert code == 0
        assert line in out.splitlines()

    def test_seeded_sweep(self, tmp_path):
        rng = random.Random(2011)
        values = ("0", "2", "25", "1e6", "1e-999999999999999", "1e+999999999999999")
        dpys = ("1", "250", str(10 ** 9), DPY_PAST_FLOAT)
        refs = []
        for i, (low, high) in enumerate([("1e-999999999999999", "1e-999999999999999"),
                                         ("1e+999999999999999", "1e+999999999999999"),
                                         ("1e-999999999999999", "1e+999999999999999")]):
            path = tmp_path / f"refs{i}.csv"
            path.write_text(f"a,years,{low},{high}\nb,count,{low},{high}\n", encoding="utf-8")
            refs.append(str(path))
        series = tmp_path / "series.csv"
        _write_fixture(series, np.random.default_rng(3).standard_normal(40))

        def value():
            return rng.choice(values)

        def maybe(*option):
            return list(option) if rng.random() < 0.5 else []

        argvs = {
            "prob": lambda: ["prob", value(), *maybe("--dpy", rng.choice(dpys))],
            "table": lambda: ["table", "--ks", f"{value()},{value()}",
                              "--format", rng.choice(("text", "json")),
                              *maybe("--dpy", rng.choice(dpys))],
            "occurrence": lambda: [*rng.choice((["occurrence", value()],
                                                ["occurrence", "--p", value()])),
                                   *maybe("--dpy", rng.choice(dpys))],
            "streak": lambda: ["streak", value(), "--days",
                               rng.choice(("1", "2", "700000000000000"))],
            "lottery": lambda: ["lottery", "--p", value(), *maybe("--win-prob", value())],
            "invert": lambda: ["invert", "--years", value(),
                               *maybe("--dpy", rng.choice(dpys))],
            "context": lambda: ["context", value(), *maybe("--refs", rng.choice(refs)),
                                *maybe("--baseline-years", value()),
                                *maybe("--dpy", rng.choice(dpys))],
            "ttail": lambda: ["ttail", value(), "--nu", value(), *maybe("--standardized")],
            "audit": lambda: ["audit", str(series), *maybe("--window", "20"),
                              "--threshold", value(), "--format", rng.choice(("text", "json")),
                              *maybe("--dpy", rng.choice(dpys))],
        }
        codes = {0: 0, 3: 0}
        for _ in range(3000):
            argv = argvs[rng.choice(list(argvs))]()
            code, out, writes = run_counted(argv)
            assert code in codes, argv
            assert code == 0 or out == "", argv
            assert writes == (code == 0), argv
            codes[code] += 1
        assert min(codes.values()) > 300  # both outcomes are well sampled


class TestParserReuse:
    """A well-formed argv builds no parser; main builds argparse's once per
    process for the argvs that argparse must read, and looks the handler up
    by name on every call."""

    ARGVS = (["prob", "2"], ["table", "--ks", "3,4"], ["occurrence", "--p", "1e-6"],
             ["streak", "3", "--days", "2"], ["lottery", "--p", "1e-30"],
             ["invert", "--years", "1e6"], ["context", "5"], ["ttail", "4", "--nu", "3"],
             ["prob", "25", "--mode", "exact"], ["table", "--ks", "x"])
    # a value joined by "=", a positional after "--", an abbreviated option
    ARGPARSE_ARGVS = (["table", "--ks=3,4"], ["prob", "--", "-0.0"],
                      ["occurrence", "--p", "1e-6", "--dig", "3"])

    def test_parsers_built_once(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        for i in range(50):
            assert run_cli(self.ARGVS[i % len(self.ARGVS)])[0] in (0, 3)
        assert built == []
        for i in range(30):
            assert run_cli(self.ARGPARSE_ARGVS[i % len(self.ARGPARSE_ARGVS)])[0] == 0
        assert len(built) == 10  # the top level and nine subcommands, once

    def test_handler_looked_up_at_call_time(self, monkeypatch):
        assert run_cli(["prob", "2"])[0] == 0
        calls = []
        monkeypatch.setattr(cli, "_cmd_prob", lambda args, err: calls.append(args.k) or [])
        assert run_cli(["prob", "2.5"]) == (0, "", "")
        assert calls == [2.5]


class TestEntryPoint:
    def test_module_invocation(self):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "sigmatail", "prob", "2"],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(root / "src"),
                 "PYTHONDONTWRITEBYTECODE": "1"},
            cwd=root,
        )
        assert proc.returncode == 0
        assert "probability: 2.275e-2" in proc.stdout
        assert "path=exact" in proc.stderr
