import csv
import io
import json
import math
import random
import re
import sys
import time
import tracemalloc
import warnings
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from conftest import assert_ln_close, binom_tail_ln_oracle, binom_tail_oracle, make_series
from sigmatail import _kernels, audit, cli, gauss, magnitude
from sigmatail.audit import (
    AuditReport, FlaggedDays, Moments, Series, build_report, estimate_moments,
    flag_events, load_series, report_as_dict, report_json, sigma_scores,
)
from sigmatail.binomial import REL_TOL, binomial_tail_at_least
from sigmatail.errors import DomainError
from sigmatail.magnitude import ONE, Magnitude, format_sci, from_real, parse

P6 = 9.865876450376981407009e-10  # Gaussian tail at k=6, frozen oracle


def _binomial_sweep():
    """(n, m, log10 p) on both branches: n up to 1e7 (and 1e10), p from near
    1 down to 1e-300 and, as a Magnitude, 1e-400."""
    cases = []
    for n in (1, 10, 250, 10_000, 400_000, 1_000_000, 10_000_000):
        for log10_p in (-1e-12, -0.01, -0.3, -2.0, -8.0, -40.0, -300.0, -400.0):
            mean = n * 10.0 ** log10_p
            above = {min(n, math.floor(mean * f) + d) for f in (1.0, 1.02, 1.5, 4.0) for d in (1, 2)}
            below = {max(1, math.floor(mean * f)) for f in (0.3, 0.98, 1.0)} if mean >= 1 else set()
            cases += [(n, m, log10_p) for m in sorted(above | below | {n})]
    # a head whose terms need ln(1 - p) to full relative precision at p = 2e-10
    return cases + [(10 ** 10, m, math.log10(2e-10)) for m in (1, 2, 3)]


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

    @pytest.mark.parametrize("text, message", [
        ("date,value\n2007-08-09,1\n2007-08-10," + "1" * 200_000 + "\n",
         "row 3: non-finite value '1111"),
        ("date,value\n2007-08-09,\"1" + "1" * 200_000 + "\"\n", "row 2: non-finite value '1111"),
        ("date," + "v" * 200_000 + "\n2007-08-09,1\n", "row 1: header must be 'date,value'"),
    ], ids=["bulk-block", "rows-block", "header"])
    def test_field_past_csv_limit_names_row(self, tmp_path, text, message):
        # a field of 200,000 characters, past csv's default field limit:
        # plain, quoted, and in the header
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(DomainError, match=message):
            load_series(path)

    @pytest.mark.parametrize("row, fault, text", [
        ("20200105,1.5", "bad date", "20200105"),
        ("2020-W02-1,1.5", "bad date", "2020-W02-1"),
        ("2020-01-06,1_000", "bad value", "1_000"),
        ("2020-01-06,\u0661\u0662", "bad value", "\u0661\u0662"),
        ("\u00a02020-01-06,1.5", "bad date", "\u00a02020-01-06"),
        ("2020-01-06,1.5\u3000", "bad value", "1.5\u3000"),
        ("2020-01-06,\f1.5", "bad value", "\f1.5"),
        ("2020-01-06,inf", "bad value", "inf"),
        ("2020-01-06,-Infinity", "bad value", "-Infinity"),
        ("2020-01-06,nan", "bad value", "nan"),
        ('"2020-01-06,1.5"', "bad date", '"2020-01-06'),
        ('2020-01-06,"1"5', "bad value", '"1"5'),
    ], ids=["basic date", "week date", "underscore", "Arabic-Indic digits",
            "no-break space", "ideographic space", "form feed", "inf", "-Infinity", "nan",
            "row quoted as a whole", "text after a closing quote"])
    def test_refused_form_names_its_row(self, tmp_path, row, fault, text):
        # forms that float(), date.fromisoformat() or csv read, and the loader
        # does not: a comma always separates fields, inside quotes too, and
        # a pair of quotes must close at the field's end; a field is shown
        # as the parser saw it, less padding and a closed pair of quotes
        path = tmp_path / "s.csv"
        path.write_text(f"date,value\n2020-01-01,1\n{row}\n2020-01-07,2\n", encoding="utf-8")
        with pytest.raises(DomainError) as exc:
            load_series(path)
        assert str(exc.value) == f"{path}: row 3: {fault} {text!r}"

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

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"date,value\n2007-08-09,1\n2007-08-10,caf\xe9\n")
        with pytest.raises(DomainError, match="not UTF-8 text"):
            load_series(path)

    def test_peak_memory_of_a_load(self, tmp_path, monkeypatch):
        # The loader writes each block straight into the columns it hands
        # over, so the floor is the result plus one block's working set:
        # at 16K-character blocks, little more than the result.
        monkeypatch.setattr(audit, "_BLOCK_CHARS", 2 ** 14)
        rng = np.random.default_rng(3)
        path = tmp_path / "s.csv"
        _write_cells(path, map(repr, (rng.standard_normal(300_000) * 0.01).tolist()),
                     start=date(1000, 1, 1))
        load_series(path)  # the second load is measured
        tracemalloc.start()
        try:
            s = load_series(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s) == 300_000
        assert peak <= 1.2 * (s.dates.nbytes + s.values.nbytes)

    @pytest.mark.parametrize("stage, bound", [
        (lambda s, m: estimate_moments(s, 250), 3.75),
        (lambda s, m: flag_events(s, m, 2.0, "both"), 1.6),
        (lambda s, m: flag_events(s, m, 2.0, "loss"), 1.6),
    ], ids=["estimate_moments", "flag_events", "flag_events_loss"])
    def test_peak_memory_after_a_load(self, stage, bound):
        # the rolling moments are written in place and every day is scored
        # unmasked, so each stage holds a few columns of n doubles at once
        n = 100_000
        s = make_series(np.random.default_rng(3).standard_normal(n) * 0.01)
        moments = estimate_moments(s, 250)
        stage(s, moments)  # the second call is measured
        tracemalloc.start()
        try:
            stage(s, moments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * n


# the date and number syntax load_series reads, written apart from it
_REFERENCE_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_REFERENCE_VALUE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _reference_shown(field):
    """A field as written, less the blanks at its ends and next to each of
    its quotes, then less a pair of quotes that opens and closes it with no
    quote between: as the loader's messages show it."""
    field = '"'.join(part.strip(" \t") for part in field.split('"'))
    if len(field) > 1 and field[0] == field[-1] == '"' and field.count('"') == 2:
        return field[1:-1]
    return field


def reference_load_series(path):
    """A row-by-row ``csv`` loader, kept as the oracle: (dates, values) as
    lists, or a DomainError.  Fields lose their ASCII blanks at both ends,
    dates must be YYYY-MM-DD and values ASCII decimals with an optional
    exponent (no inf, nan, underscore or other blank).  A bad field is
    shown from the text of its record, cut at every comma."""
    rows, record = [], []  # the lines of the record csv read last

    def lines(fh):
        for line in fh:
            record.append(line)
            yield line

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(lines(fh))
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty file") from None
        if [c.strip().lower() for c in header] != ["date", "value"]:
            raise DomainError(f"{path}: row 1: header must be 'date,value'")
        prev = None
        record.clear()
        for rownum, row in enumerate(reader, start=2):
            shown = [_reference_shown(f) for f in "".join(record).rstrip("\r\n").split(",")]
            record.clear()
            if not row or (len(row) == 1 and not row[0].strip(" \t")):
                continue
            if len(row) != 2:
                raise DomainError(f"{path}: row {rownum}: expected 2 fields, got {len(row)}")
            day, value = (field.strip(" \t") for field in row)
            try:
                d = date.fromisoformat(_REFERENCE_DATE.fullmatch(day)[0])
            except (TypeError, ValueError):
                raise DomainError(f"{path}: row {rownum}: bad date {shown[0]!r}") from None
            if not _REFERENCE_VALUE.fullmatch(value):
                raise DomainError(f"{path}: row {rownum}: bad value {shown[1]!r}")
            v = float(value)
            if not math.isfinite(v):
                raise DomainError(f"{path}: row {rownum}: non-finite value {shown[1]!r}")
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
        dates, values = loader(path)
    except DomainError as exc:
        return str(exc)
    return dates, [v.hex() for v in values]  # bit for bit: -0.0 is not 0.0


def _columns(path):
    """The loaded columns, once checked to be read-only and to pass
    Series(...)'s checks of a caller's arrays unchanged, bit for bit."""
    s = load_series(path)
    checked = Series(s.dates, s.values)
    assert np.array_equal(checked.dates, s.dates)
    assert np.array_equal(_bits(checked.values), _bits(s.values))
    assert not (s.dates.flags.writeable or s.dates.base.flags.writeable or s.values.flags.writeable)
    return s.dates.tolist(), s.values.tolist()


def _daily_rows(n, start=date(2000, 1, 1)):
    return [f"{(start + timedelta(days=i)).isoformat()},{i * 0.25 - 3}" for i in range(n)]


# a list holds the data rows after a "date,value" header, a string the whole
# file; a tuple puts its row first in the second block of daily rows ("dup"
# repeats the date before it), found as load_series reads blocks: so many
# characters, then the rest of the line
DIFFERENTIAL_FILES = {
    "quoted fields": ['"2007-08-09","1.5"', '2007-08-10,"-2"', '"2007-08-11",3'],
    "quote inside a field": ['2007-08-09,1"', '2007-08-10,2'],
    "text after a closing quote": ['"2007-08-09"x,1'],
    "padded text after a closing quote": ['2007-08-09, "1" 5 '],
    "padded and quoted bad date": [' " 2007-08-0x " ,1'],
    "a quote that closes no field": ['2007-08-09",1'],
    "quoted blank lines": ["2007-08-09,1", '""', '" "', "2007-08-10,2"],
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
    "exponent forms": ["2007-08-09,1e-05", "2007-08-10,-2.5E+3"],
    "negative zeros": ["2007-08-09,-0", "2007-08-10,-0.0"],
    "exact double midpoints": ["2007-08-09,9007199254740993", "2007-08-10,4503599627370496.5"],
    # each m / 10**f rounds to a long double halfway between two doubles,
    # and rounding that again to double gives the wrong one
    "long double on a midpoint": ["2007-08-09,0.004421418633654283", "2007-08-10,-0.02500582813493968"],
    "19 and 21 significant digits": ["2007-08-09,1234567890123456789",
                                     "2007-08-10,-0.123456789012345678901"],
    "bare dots": ["2007-08-09,.5", "2007-08-10,5.", "2007-08-11,-.5"],
    "a sign alone": ["2007-08-09,1", "2007-08-10,-"],
    "a dot alone": ["2007-08-09,."],
    "two dots": ["2007-08-09,1.2.3"],
    "Arabic-Indic digits": ["2007-08-09,\u0661\u0662"],
    "no-break space, then an exponent": ["2007-08-09,1\u00a0", "2007-08-10,11e5"],
    "form feed in a field": ["2007-08-09,1\f", "", "2007-08-10,2\f2007-08-11"],
    "line separator in a field": ["2007-08-09,1\u2028", "2007-08-10,2\u20282007-08-11,3"],
    "leap days and the last date": ["2000-02-29,1", "2004-02-29,2", "9999-12-31,3"],
    "February 29, 1900": ["1900-02-28,1", "1900-02-29,2"],
    "April 31": ["2007-04-31,1"],
    "month 13": ["2007-13-01,1"],
    "day 0": ["2007-08-00,1"],
    "bad value on the first row of block 2": ("2099-01-01,oops",),
    "date backwards across blocks": ("1999-12-31,1",),
    "duplicate date across blocks": ("dup",),
}


def _differential_text(name, block_chars):
    spec = DIFFERENTIAL_FILES[name]
    if isinstance(spec, tuple):
        rows = _daily_rows(block_chars // 10 + 4)
        starts = np.cumsum([0] + [len(row) + 1 for row in rows])
        k = int(np.argmax(starts > block_chars))  # the first row of block 2
        rows = rows[:k + 3]
        rows[k] = rows[k - 1] if spec[0] == "dup" else spec[0]
        return "date,value\n" + "\n".join(rows) + "\n"
    if isinstance(spec, str):
        return spec
    return "date,value\n" + "\n".join(spec) + "\n"


class TestLoaderDifferential:
    """load_series against the row-by-row reference: equal (dates, values)
    or an equal DomainError message, at several block sizes."""

    @pytest.mark.parametrize("block_chars", [1, 2, 1 << 16])
    @pytest.mark.parametrize("name", list(DIFFERENTIAL_FILES))
    def test_same_outcome_as_reference(self, tmp_path, monkeypatch, name, block_chars):
        monkeypatch.setattr(audit, "_BLOCK_CHARS", block_chars)
        path = tmp_path / "s.csv"
        path.write_bytes(_differential_text(name, block_chars).encode("utf-8"))
        want = _outcome(reference_load_series, path)
        assert _outcome(_columns, path) == want

    @pytest.mark.parametrize("block_chars", [1, 2, 1 << 16])
    def test_line_break_in_quoted_field_names_its_row(self, tmp_path, monkeypatch, block_chars):
        # the reference reads the record across both lines, and refuses the
        # line break in its date; load_series refuses the quote left open,
        # and names the row where it starts
        monkeypatch.setattr(audit, "_BLOCK_CHARS", block_chars)
        path = tmp_path / "s.csv"
        path.write_text('date,value\n2007-08-09,1\n"2007-08-10\n",2\n2007-08-11,3\n')
        assert _outcome(reference_load_series, path).endswith("row 3: bad date '2007-08-10\\n'")
        with pytest.raises(DomainError, match=r"row 3: line break inside a quoted field"):
            load_series(path)

    @pytest.mark.parametrize("line", ['"', ' \t" ', '2007-08-10,"', '"2007-08-10,1',
                                      '"2007-08-10,"1"'])
    def test_quote_left_open_names_its_row(self, tmp_path, line):
        # a line of one quote is no blank line, and a closed pair of quotes
        # in a later field does not close the quote that opens the first
        path = tmp_path / "s.csv"
        path.write_text(f"date,value\n2007-08-09,1\n{line}\n2007-08-11,3\n")
        with pytest.raises(DomainError, match=r"row 3: line break inside a quoted field$"):
            load_series(path)

    @pytest.mark.parametrize("block_chars", [1, 2, 1 << 16])
    @pytest.mark.parametrize("name", [n for n, spec in DIFFERENTIAL_FILES.items()
                                      if isinstance(spec, tuple)])
    def test_across_blocks_row_starts_block_2(self, tmp_path, monkeypatch, name, block_chars):
        monkeypatch.setattr(audit, "_BLOCK_CHARS", block_chars)
        blocks = []
        parse_block = audit._parse_block
        monkeypatch.setattr(audit, "_parse_block", lambda block, *rest: (
            blocks.append(block) or parse_block(block, *rest)))
        path = tmp_path / "s.csv"
        path.write_text(_differential_text(name, block_chars))
        _outcome(_columns, path)
        row = DIFFERENTIAL_FILES[name][0]
        first = blocks[1].split("\n", 1)[0]
        assert first == (blocks[0].splitlines()[-1] if row == "dup" else row)


_MUTATIONS = ["backwards", "duplicate", "inf", "nan", "1e400", "oops", "blank line",
              "quoted field", "0000-01-01"]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 60), at=st.integers(0, 59), mutation=st.sampled_from(_MUTATIONS),
       block_chars=st.sampled_from([1, 2, 16, 64, 1 << 16]))
def test_one_mutated_row_against_reference(csv_path, n, at, mutation, block_chars):
    # the mutated row falls anywhere in a block, its first row included, so
    # the bulk order check meets every block boundary
    rows = _daily_rows(n)
    i = at % n
    day, value = rows[i].split(",")
    if mutation == "backwards":
        rows[i] = f"1999-12-31,{value}"
    elif mutation == "duplicate":
        rows.insert(i + 1, rows[i])
    elif mutation == "blank line":
        rows.insert(i, "")
    elif mutation == "quoted field":
        rows[i] = f'"{day}",{value}'
    elif mutation == "0000-01-01":
        rows[i] = f"{mutation},{value}"
    else:
        rows[i] = f"{day},{mutation}"
    csv_path.write_text("\n".join(["date,value", *rows, ""]))
    with mock.patch.object(audit, "_BLOCK_CHARS", block_chars):
        assert _outcome(_columns, csv_path) == _outcome(reference_load_series, csv_path)


def _scanned_cells(monkeypatch):
    """The cells that load_series leaves to read_numbers: those the bulk
    parser does not read itself."""
    scanned = []
    monkeypatch.setattr(audit, "read_numbers", lambda cells: (
        scanned.extend(cells) or magnitude.read_numbers(cells)))
    return scanned


def _cell_file(path, n, newline="\n", prefix=b""):
    rng = np.random.default_rng(11)
    cells = map(repr, (rng.standard_normal(n) * 0.01).tolist())
    rows = [f"{date(1800, 1, 1) + timedelta(days=i)},{c}" for i, c in enumerate(cells)]
    path.write_bytes(prefix + newline.join(["date,value", *rows, ""]).encode())


class TestBytesLoader:
    """The loader's reading of a file: its line ends, a BOM, the bulk parse
    of CRLF files, and the one read of a file with a bad row, which stops at
    the block that holds it."""

    def test_lone_cr_file_read_in_blocks(self, tmp_path):
        # a file without "\n" is still read a block at a time
        path = tmp_path / "s.csv"
        _cell_file(path, 100_000, newline="\r")
        assert _outcome(_columns, path) == _outcome(reference_load_series, path)
        tracemalloc.start()
        try:
            s = load_series(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s) == 100_000
        assert peak <= 2.5 * (s.dates.nbytes + s.values.nbytes)

    def test_crlf_file_stays_in_bulk(self, tmp_path, monkeypatch):
        # only the cells with an exponent (about 1 in 100) and the long
        # double's midpoints are read one by one, where the long double is exact
        path = tmp_path / "s.csv"
        _cell_file(path, 100_000, newline="\r\n")
        want = _outcome(reference_load_series, path)
        scanned = _scanned_cells(monkeypatch)
        assert _outcome(_columns, path) == want
        if audit._EXACT_LONG_DOUBLE:
            assert 0 < len(scanned) < 2_000

    def test_bom_file_stays_in_bulk(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        _cell_file(path, 1000, prefix=b"\xef\xbb\xbf")
        scanned = _scanned_cells(monkeypatch)
        assert len(load_series(path)) == 1000
        if audit._EXACT_LONG_DOUBLE:
            assert len(scanned) < 20

    def test_long_padding_in_linear_time(self, tmp_path):
        # fields padded with 200,000 blanks, outside and inside quotes: the
        # padding is dropped in one pass, not in one pass per blank
        pad = " " * 200_000
        rows = [f"2007-08-09,{pad}1", f'{pad}"2007-08-10",-2', f'2007-08-11,"{pad}3"',
                f"2007-08-12\t{pad},4{pad}"]
        path = tmp_path / "s.csv"
        path.write_text("date,value\n" + "\n".join(rows) + "\n")
        start = time.perf_counter()
        s = load_series(path)
        assert time.perf_counter() - start < 0.25
        assert s.values.tolist() == [1.0, -2.0, 3.0, 4.0]

    def test_not_utf8_in_a_later_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(audit, "_BLOCK_CHARS", 64)
        path = tmp_path / "s.csv"
        rows = _daily_rows(40)
        rows[30] = rows[30][:11] + "1\udce9"
        path.write_bytes("\n".join(["date,value", *rows, ""]).encode("utf-8", "surrogateescape"))
        with pytest.raises(DomainError) as exc:
            load_series(path)
        assert str(exc.value) == f"{path}: not UTF-8 text (invalid continuation byte)"

    @pytest.mark.parametrize("bad", ["inf", "1e400", "nan", "backwards"])
    def test_bulk_refuses_only_the_block_of_the_bad_row(self, tmp_path, monkeypatch, bad):
        # each of these rows fails one check: the order, the syntax or the
        # finiteness; the bulk parser refuses only the block that holds
        # it, and names row 32
        monkeypatch.setattr(audit, "_BLOCK_CHARS", 64)
        path = tmp_path / "s.csv"
        rows = _daily_rows(40)
        rows[30] = "1999-12-31,1" if bad == "backwards" else f"{rows[30][:10]},{bad}"
        path.write_text("\n".join(["date,value", *rows, ""]))
        parse_block, refused = audit._parse_block, []

        def refusing(block, *rest):
            try:
                return parse_block(block, *rest)
            except DomainError:
                refused.append(block.splitlines())
                raise

        monkeypatch.setattr(audit, "_parse_block", refusing)
        with pytest.raises(DomainError, match="row 32: ") as exc:
            load_series(path)
        assert len(refused) == 1 and rows[30] in refused[0]
        assert str(exc.value) == _outcome(reference_load_series, path)

    @pytest.mark.parametrize("bad", ["abc", "inf", "backwards"])
    def test_a_bad_last_row_is_read_once(self, tmp_path, monkeypatch, bad):
        # the file is opened once, and each of its blocks parsed once
        monkeypatch.setattr(audit, "_BLOCK_CHARS", 64)
        path = tmp_path / "s.csv"
        rows = _daily_rows(40)
        rows[-1] = "1999-12-31,1" if bad == "backwards" else f"{rows[-1][:10]},{bad}"
        path.write_text("\n".join(["date,value", *rows, ""]))
        parse_block, blocks = audit._parse_block, []
        monkeypatch.setattr(audit, "_parse_block", lambda block, *rest: (
            blocks.append(block) or parse_block(block, *rest)))
        monkeypatch.setattr(audit, "open", mock.Mock(wraps=open), raising=False)
        with pytest.raises(DomainError, match="row 41: ") as exc:
            load_series(path)
        assert "".join(blocks) == "\n".join([*rows, ""]) and audit.open.call_count == 1
        assert str(exc.value) == _outcome(reference_load_series, path)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 40), data=st.data(), block_chars=st.sampled_from([*range(1, 10), 64]))
    def test_mixed_line_ends_against_reference(self, csv_path, n, data, block_chars):
        # every line, the header included, ends in its own "\n", "\r\n" or
        # "\r", and the last may have none
        lines = ["date,value", *_daily_rows(n)]
        ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                                  max_size=len(lines)))
        if data.draw(st.booleans()):
            ends[-1] = ""
        csv_path.write_bytes("".join(a + b for a, b in zip(lines, ends)).encode())
        with mock.patch.object(audit, "_BLOCK_CHARS", block_chars):
            assert _outcome(_columns, csv_path) == _outcome(reference_load_series, csv_path)


def _write_cells(path, cells, start=date(2000, 1, 1)):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,value\n")
        fh.writelines(f"{start + timedelta(days=i)},{c}\n" for i, c in enumerate(cells))


def _bits(values) -> list[int]:
    return np.asarray(values, np.float64).view(np.int64).tolist()


# cells whose long double quotient m / 10**f lies halfway between two
# doubles: exactly (2**53 + 1, 2**52 + 1/2, -(2**53 + 1), 2**54 + 2), or, on
# x87, after rounding to 64 bits (the last two)
_MIDPOINT_CELLS = ["9007199254740993", "4503599627370496.5", "-9007199254740993.0",
                   "18014398509481986", "0.004421418633654283", "-0.02500582813493968"]


@st.composite
def _decimal_cells(draw):
    """Decimal text: a sign, 1 to 22 digits, a dot anywhere or none, and an
    optional exponent."""
    digits = draw(st.text("0123456789", min_size=1, max_size=22))
    dot = draw(st.none() | st.integers(0, len(digits)))
    text = draw(st.sampled_from(["", "-"])) + (digits if dot is None
                                                else digits[:dot] + "." + digits[dot:])
    exponent = draw(st.sampled_from(["", "e", "E"]))
    if exponent:
        text += exponent + draw(st.sampled_from(["", "+", "-"])) + str(draw(st.integers(0, 30)))
    return text


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bulk") / "s.csv"


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), block_chars=st.sampled_from([1, 2, 64, 1 << 16]))
def test_padded_and_quoted_fields_load_as_plain(csv_path, data, n, block_chars):
    # each field padded with blanks, outside and inside one pair of quotes
    # or without them; the first row of block 2 has both fields quoted
    cells = data.draw(st.lists(_decimal_cells(), min_size=n, max_size=n))
    plain = [(str(date(2000, 1, 1) + timedelta(days=i)), cell) for i, cell in enumerate(cells)]
    blanks = st.text(" \t", max_size=3)

    def dressed(field, quoted):
        if quoted:
            field = '"' + data.draw(blanks) + field + data.draw(blanks) + '"'
        return data.draw(blanks) + field + data.draw(blanks)

    rows = [",".join(dressed(f, data.draw(st.booleans())) for f in row) for row in plain]
    starts = np.cumsum([0] + [len(row) + 1 for row in rows])[:-1]
    if starts[-1] > block_chars:  # the row that starts block 2
        k = int(np.argmax(starts > block_chars))
        rows[k] = ",".join(dressed(f, True) for f in plain[k])
    with mock.patch.object(audit, "_BLOCK_CHARS", block_chars):
        csv_path.write_text("\n".join(["date,value", *map(",".join, plain), ""]))
        want = _outcome(_columns, csv_path)
        csv_path.write_text("\n".join(['"date", value', *rows, ""]))
        assert _outcome(_columns, csv_path) == want
    assert isinstance(want, tuple)


class TestBulkParser:
    """The bulk parser of load_series against float() bit for bit, and
    against date.toordinal, with the long double path on and forced off."""

    @pytest.mark.parametrize("long_double", [True, False])
    @settings(max_examples=150, deadline=None)
    @given(cells=st.lists(_decimal_cells() | st.sampled_from(_MIDPOINT_CELLS), min_size=1,
                          max_size=40))
    @example(cells=_MIDPOINT_CELLS)
    def test_decimal_text_as_float(self, csv_path, long_double, cells):
        _write_cells(csv_path, cells)
        with mock.patch.object(audit, "_EXACT_LONG_DOUBLE",
                               audit._EXACT_LONG_DOUBLE and long_double):
            values = load_series(csv_path).values
        assert np.array_equal(_bits(values), _bits([float(c) for c in cells]))

    @pytest.mark.parametrize("long_double", [True, False])
    def test_repr_of_random_bit_patterns(self, tmp_path, monkeypatch, long_double):
        # half across the whole exponent range, half with the exponents that
        # repr writes without one (1e-4 <= |x| < 1e16)
        rng = np.random.default_rng(2011)
        bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64, endpoint=False)
        bits[::2] = (bits[::2] & np.uint64(0x800FFFFFFFFFFFFF)) | (
            rng.integers(1009, 1076, 50_000).astype(np.uint64) << np.uint64(52))
        x = bits.view(np.float64)
        cells = [repr(v) for v in x[np.isfinite(x)].tolist()]
        path = tmp_path / "s.csv"
        _write_cells(path, cells, start=date(1700, 1, 1))
        monkeypatch.setattr(audit, "_EXACT_LONG_DOUBLE", audit._EXACT_LONG_DOUBLE and long_double)
        values = load_series(path).values
        assert np.array_equal(_bits(values), _bits([float(c) for c in cells]))

    def test_day_ordinals_of_whole_years(self, tmp_path, monkeypatch):
        days = [date(y, 1, 1) + timedelta(days=i) for y in (1, 4, 100, 400, 1900, 2000, 9999)
                for i in range(date(y, 12, 31).timetuple().tm_yday)]
        path = tmp_path / "s.csv"
        path.write_text("date,value\n" + "".join(f"{d.isoformat()},1\n" for d in days))
        dates = load_series(path).dates
        epoch = date(1970, 1, 1).toordinal()
        assert (dates.astype(np.int64) + epoch).tolist() == [d.toordinal() for d in days]

    @pytest.mark.skipif(not audit._EXACT_LONG_DOUBLE, reason="every row goes to float() here")
    def test_plain_17_digit_decimals_never_call_float(self, tmp_path, monkeypatch):
        # A 17-digit repr is the 17-digit decimal nearest its double, within
        # 0.45 ulp of it, so its long double quotient is never a midpoint.
        rng = random.Random(17)
        cells = []
        while len(cells) < 10_000:
            cell = repr(rng.uniform(-10.0, 10.0))
            if "e" not in cell and len(cell.lstrip("-").replace(".", "").lstrip("0")) == 17:
                cells.append(cell)
        path = tmp_path / "s.csv"
        _write_cells(path, cells)
        scanned = _scanned_cells(monkeypatch)
        values = load_series(path).values
        assert not scanned
        assert np.array_equal(_bits(values), _bits([float(c) for c in cells]))

    @pytest.mark.skipif(not audit._EXACT_LONG_DOUBLE, reason="every row goes to float() here")
    def test_exact_midpoints_go_to_float(self, tmp_path, monkeypatch):
        # m / 10**f exactly halfway between two doubles, which the long
        # double's low bits show, and cells next to them, which are doubles
        # or round clear of a midpoint
        midpoints = _MIDPOINT_CELLS[:4]
        cells = [*midpoints, "9007199254740992", "9007199254740994", "4503599627370496.75",
                 "4503599627370496.25", "-9007199254740992.0", "18014398509481987"]
        path = tmp_path / "s.csv"
        _write_cells(path, cells)
        scanned = _scanned_cells(monkeypatch)
        values = load_series(path).values
        assert scanned == [c.encode() for c in midpoints]
        assert np.array_equal(_bits(values), _bits([float(c) for c in cells]))


class TestLoadedSeries:
    def test_loader_hands_over_its_columns(self, tmp_path, monkeypatch):
        monkeypatch.setattr(audit.Series, "__post_init__", mock.Mock(side_effect=AssertionError))
        for rows in (["2007-08-09,1.5", "2007-08-10,-2"], ['"2007-08-09",1.5', "2007-08-10,-2"]):
            path = tmp_path / "s.csv"
            path.write_text("date,value\n" + "\n".join(rows) + "\n")
            s = load_series(path)
            assert s.dates.tolist() == [date(2007, 8, 9), date(2007, 8, 10)]
            assert s.values.tolist() == [1.5, -2.0] and s.source_label == str(path)

    def test_caller_arrays_are_copied(self):
        dates = np.array(["2007-08-09", "2007-08-10"], "datetime64[D]")
        values = np.array([1.5, -2.0])
        s = Series(dates, values)
        assert not np.shares_memory(s.dates, dates) and not np.shares_memory(s.values, values)
        dates[0], values[0] = np.datetime64("2007-08-01"), 7.0
        assert s.dates.tolist() == [date(2007, 8, 9), date(2007, 8, 10)]
        assert s.values.tolist() == [1.5, -2.0]
        assert dates.flags.writeable and values.flags.writeable
        assert len(Series(dates[:0], values[:0])) == 0

    @pytest.mark.parametrize("block_chars", [64, 2 ** 14])
    @pytest.mark.parametrize("kind", ["rows get shorter", "quoted first row",
                                      "leading blank lines"])
    def test_columns_sized_to_the_rows(self, tmp_path, monkeypatch, kind, block_chars):
        # the columns are sized at the first block with rows, from its rows
        # per character; grown where the rest holds more rows than that
        # foretells (19-digit values, then "1"); and shrunk to the rows at
        # the end, with no capacity left behind
        monkeypatch.setattr(audit, "_BLOCK_CHARS", block_chars)
        long_rows = block_chars // 31 + 2  # more than the first block holds
        rows = _daily_rows(long_rows + block_chars // 4)
        lead = ""
        if kind == "rows get shorter":
            rows = [r[:11] + ("1" * 19 if i < long_rows else "1") for i, r in enumerate(rows)]
        elif kind == "quoted first row":
            rows[0] = f'"{rows[0][:10]}",{rows[0][11:]}'
        else:
            lead = "\n" * (block_chars + 10)
        path = tmp_path / "s.csv"
        path.write_text("date,value\n" + lead + "\n".join(rows) + "\n")
        assert _outcome(_columns, path) == _outcome(reference_load_series, path)
        s = load_series(path)
        assert s.values.flags.owndata and s.dates.base.flags.owndata
        assert s.values.size == s.dates.base.size == len(rows)


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

    def test_rejects_non_numeric_values(self):
        with pytest.raises(DomainError, match="values must be real numbers, got <U1"):
            Series(np.array(["2007-08-09"], "datetime64[D]"), ["a"])

    @pytest.mark.parametrize("dates, values", [
        (["2007-08-09", "2007-08-10"], [1.0]),
        ([["2007-08-09", "2007-08-10"]], [[1.0, 2.0]]),
    ], ids=["length mismatch", "2-D"])
    def test_rejects_bad_shapes(self, dates, values):
        with pytest.raises(DomainError, match="dates and values must be 1-D and of equal length"):
            Series(np.array(dates, "datetime64[D]"), np.array(values))


class TestFlaggedDaysValidation:
    """A library caller's columns are checked when FlaggedDays is built, so
    report_json never meets days it cannot write."""

    @pytest.mark.parametrize("dates, scores, message", [
        (np.array(["2007-08-09", "2007-08-10"], "datetime64[D]"), [2.5],
         "^dates and scores must be 1-D and of equal length$"),
        (np.array([["2007-08-09"]], "datetime64[D]"), [[2.5]],
         "^dates and scores must be 1-D and of equal length$"),
        (np.array(["2007-08-09T12:00:00"], "datetime64[s]"), [2.5],
         r"^dates must be datetime64\[D\], got datetime64\[s\]$"),
        (np.array(["2007-08-09", "NaT"], "datetime64[D]"), [2.5, -3.0],
         r"^flagged day 1 \(NaT\): dates must lie within 0001-01-01..9999-12-31$"),
        (np.array(["-0001-12-31"], "datetime64[D]"), [2.5],
         r"^flagged day 0 \(-001-12-31\): dates must lie within 0001-01-01..9999-12-31$"),
        (np.array(["2007-08-09"], "datetime64[D]"), ["2.5"],
         "^scores must be real numbers, got <U3$"),
    ], ids=["length mismatch", "2-D", "seconds", "NaT", "before year 1", "str scores"])
    def test_rejected_when_built(self, dates, scores, message):
        with pytest.raises(DomainError, match=message):
            FlaggedDays(dates, scores)

    def test_caller_arrays_are_copied_read_only(self):
        dates = np.array(["2007-08-09", "2007-08-10"], "datetime64[D]")
        scores = np.array([2, -3])
        flagged = FlaggedDays(dates, scores)
        assert flagged.scores.dtype == np.float64 and flagged.scores.tolist() == [2.0, -3.0]
        assert not np.shares_memory(flagged.dates, dates)
        assert not flagged.dates.flags.writeable and not flagged.scores.flags.writeable
        dates[0] = np.datetime64("2007-08-01")
        assert flagged.dates.tolist() == [date(2007, 8, 9), date(2007, 8, 10)]

    def test_unordered_and_non_finite_accepted(self):
        # report_json writes a non-finite score as null; order is flag_events' promise
        flagged = FlaggedDays(np.array(["2007-08-10", "2007-08-09"], "datetime64[D]"),
                              [math.nan, -math.inf])
        assert len(flagged) == 2


class TestEstimateMoments:
    def test_full_sample_hand_arithmetic(self):
        # 15 zeros and 15 twos: mean 1, variance 30/29
        s = make_series([0.0, 2.0] * 15)
        m = estimate_moments(s)
        assert m.sample_mean == pytest.approx(1.0, abs=1e-15)
        assert m.sample_stdev == pytest.approx(math.sqrt(30.0 / 29.0), rel=1e-14)
        assert m.scored.all()
        assert np.all(m.mean == m.sample_mean)
        # one read-only scalar each, seen as n days
        for column, value in ((m.mean, m.sample_mean), (m.stdev, m.sample_stdev)):
            assert column.shape == (30,) and column.strides == (0,) and not column.flags.writeable
            assert column[0] == value

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


def two_pass_oracle(x, w):
    """Trailing-window mean and stdev by the two-pass formula over
    ``sliding_window_view``, in chunks of windows to bound memory."""
    means = np.full(x.size, np.nan)
    stds = np.full(x.size, np.nan)
    for a in range(0, x.size - w, 4096):
        b = min(a + 4096, x.size - w)
        win = np.lib.stride_tricks.sliding_window_view(x[a:b + w - 1], w)
        means[a + w:b + w] = win.mean(axis=1)
        stds[a + w:b + w] = win.std(axis=1, ddof=1)
    return means, stds


class TestKernels:
    def test_agrees_with_bruteforce(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0.01, 0.5, 300)
        w = 20
        means, stds = _kernels.rolling_moments(x, w)
        for t in [w, 57, 150, 299]:
            assert means[t] == pytest.approx(x[t - w:t].mean(), abs=1e-12)
            assert stds[t] == pytest.approx(x[t - w:t].std(ddof=1), abs=1e-12)

    @pytest.mark.parametrize("w", [20, 250])
    def test_regime_shift_matches_two_pass_oracle(self, w):
        # volatility 1e-4 -> 1 -> 1e-4: a running sum would carry the loud
        # regime's rounding into every quiet window after it
        rng = np.random.default_rng(w)
        n = 12_007
        vol = np.full(n, 1e-4)
        vol[n // 3:2 * n // 3] = 1.0
        x = rng.normal(0.0, 1.0, n) * vol
        x -= x[:w].mean()
        means, stds = _kernels.rolling_moments(x, w)
        want_means, want_stds = two_pass_oracle(x, w)
        assert np.all(np.isnan(means[:w])) and np.all(np.isnan(stds[:w]))
        assert np.max(np.abs(stds[w:] / want_stds[w:] - 1.0)) <= 1e-12
        assert np.max(np.abs(means[w:] - want_means[w:])) <= 1e-15

    @pytest.mark.parametrize("w", [2, 3, 20])
    @pytest.mark.parametrize("blocks, rest", [(1, 0), (1, 1), (2, -1), (2, 0), (2, 1), (3, 7)])
    def test_edge_sizes_match_bruteforce(self, w, blocks, rest):
        n = blocks * w + rest
        x = np.random.default_rng(n).normal(0.3, 2.0, n)
        means, stds = _kernels.rolling_moments(x, w)
        assert means.shape == stds.shape == (n,)
        assert np.all(np.isnan(means[:w])) and np.all(np.isnan(stds[:w]))
        for t in range(w, n):
            assert means[t] == pytest.approx(x[t - w:t].mean(), abs=1e-12)
            assert stds[t] == pytest.approx(x[t - w:t].std(ddof=1), abs=1e-12)


def _audit_parts(values, window):
    """The moments, two-sided flagged days and report of a series, with
    warnings raised as errors."""
    series = make_series(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = estimate_moments(series, window)
        return (moments, flag_events(series, moments, 2.0, "both"),
                build_report(series, threshold_k=2.0, window=window, side="both"))


def _assert_scaled(want, got, k):
    """Every moment of got is that of want times 2**k, exactly, and the
    scores, flagged days and report are the same."""
    (want_m, want_days, want_report), (got_m, got_days, got_report) = want, got
    for column in ("mean", "stdev", "sample_mean", "sample_stdev"):
        assert np.array_equal(getattr(got_m, column), getattr(want_m, column) * 2.0 ** k,
                              equal_nan=True), (column, k)
    assert np.array_equal(got_m.scored, want_m.scored), k
    assert np.array_equal(got_days.dates, want_days.dates), k
    assert np.array_equal(got_days.scores, want_days.scores), k
    for field in ("observed_count", "expected_count", "p_value_at_least_observed"):
        assert getattr(got_report, field) == getattr(want_report, field), (field, k)


def _normal_scales(x, stdev):
    """Every k for which each nonzero value x * 2**k and each finite nonzero
    stdev * 2**k is a normal double.  A subnormal stdev holds fewer than 53
    bits, so the scores it divides cannot keep theirs (left open)."""
    v = np.concatenate([x, stdev])
    exponents = np.frexp(v[np.isfinite(v) & (v != 0)])[1]  # |v| in [2**(e - 1), 2**e)
    return range(-1021 - int(exponents.min()), 1024 - int(exponents.max()) + 1)


class TestScaleInvariance:
    """x and x * 2**k for every k that keeps each value a normal double,
    among them k = -565 and 531 (values near 1e-170 and 1e160, whose squares
    under- and overflow) and 1022 (max |x| 2**k within a factor 2 of the
    largest double, where sums of the values overflow): every moment scales
    by 2**k exactly, and the scores, flagged days and report are the same."""

    @pytest.mark.parametrize("window", [None, 50])
    @pytest.mark.parametrize("k", [-565, 531, 1022])
    def test_moments_scale_exactly(self, window, k):
        x = np.random.default_rng(3).standard_normal(300)
        want = _audit_parts(x, window)
        _assert_scaled(want, _audit_parts(x * 2.0 ** k, window), k)
        assert want[0].scored.sum() == 300 - (window or 0) and len(want[1]) > 5

    @pytest.mark.parametrize("window", [None, 50])
    def test_every_normal_scale(self, window):
        x = np.random.default_rng(3).standard_normal(300)
        want = _audit_parts(x, window)
        scales = _normal_scales(x, want[0].stdev)
        assert (scales.start, scales.stop) == (-1014, 1023)
        for k in scales:
            _assert_scaled(want, _audit_parts(x * 2.0 ** k, window), k)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), n=st.integers(60, 200),
           spread=st.floats(0, 40), offset=st.sampled_from([0.0, 1.0, 1e3, 1e8, -1e12, 2.0 ** 40]),
           window=st.sampled_from([None, 20, 50]))
    def test_drawn_series_scale_exactly(self, data, seed, n, spread, offset, window):
        # |noise| spans up to 2**40; an offset far above it leaves a stdev
        # many orders below the mean
        rng = np.random.default_rng(seed)
        x = offset + rng.standard_normal(n) * np.exp2(rng.uniform(0, spread, n))
        want = _audit_parts(x, window)
        scales = _normal_scales(x, want[0].stdev)
        k = data.draw(st.integers(scales.start, scales.stop - 1), label="k")
        _assert_scaled(want, _audit_parts(x * 2.0 ** k, window), k)

    @pytest.mark.parametrize("window", [None, 50])
    def test_subnormal_values(self, window):
        # the scale that would bring them near the top of the range, about
        # 2**1064, is not a double; the moments are subnormal, ~14 bits
        values = np.random.default_rng(3).standard_normal(300) * 2.0 ** -1060
        m = estimate_moments(make_series(values), window)
        assert m.scored.sum() == 300 - (window or 0)
        want = np.std(values * 2.0 ** 1000, ddof=1) * 2.0 ** -1000
        assert m.sample_stdev == pytest.approx(want, rel=1e-4)

    @pytest.mark.parametrize("args", [[], ["--window", "50", "--format", "json"]],
                             ids=["text", "rolling-json"])
    @pytest.mark.parametrize("factor", [1e-170, 1e160, 4.25e307])
    def test_cli_audit_of_tiny_and_huge_values(self, write_series_csv, args, factor):
        # unscaled, the squares of these values underflow to a zero stdev
        # (every day unscored) or overflow ("overflow encountered in square"),
        # and near the largest double so do the sums of the values
        x = np.random.default_rng(3).standard_normal(300)
        runs = []
        for name, values in (("x.csv", x), ("scaled.csv", x * factor)):
            out, err = io.StringIO(), io.StringIO()
            assert cli.main(["audit", str(write_series_csv(values, name)), *args],
                            out=out, err=err) == 0
            assert err.getvalue() == ""
            runs.append(out.getvalue())
        if args:
            want, got = map(json.loads, runs)
        else:  # the summary lines after "source:", then the flagged days
            want, got = (dict(line.split(": ", 1) for line in run.splitlines()[1:13])
                         for run in runs)
            assert runs[0].splitlines()[13:] == runs[1].splitlines()[13:]
        for key in ("mean", "stdev"):
            assert float(got.pop(key)) == pytest.approx(float(want.pop(key)) * factor, rel=1e-12)
        assert got == want

    @pytest.mark.parametrize("window", [None, 50])
    def test_scores_where_x_minus_mean_overflows(self, window):
        # values near 1.5 * 2**1023, within a factor 2 of the largest double,
        # with one day at -1.25 * 2**1023, whose x - mean passes it
        x = 1.5 + 0.01 * np.random.default_rng(11).standard_normal(300)
        x[280] = -1.25
        series, scaled = make_series(x), make_series(x * 2.0 ** 1023)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want, got = (sigma_scores(s, estimate_moments(s, window)) for s in (series, scaled))
            want_days, got_days = (flag_events(s, estimate_moments(s, window), 3.0)
                                   for s in (series, scaled))
        mean = float(estimate_moments(scaled, window).mean[280])
        assert math.isinf(float(scaled.values[280]) - mean)
        assert np.array_equal(got, want, equal_nan=True)
        assert got_days.dates.tolist() == want_days.dates.tolist()
        assert got_days.scores.tolist() == want_days.scores.tolist()
        assert got_days.dates[-1] == series.dates[280]

    @pytest.mark.parametrize(("args", "want"), [
        ([], "  2000-10-07  -17.2182\n"),
        (["--window", "50", "--format", "json"],
         '{"date": "2000-10-07", "sigma_score": -242.5783}'),
    ], ids=["text", "rolling-json"])
    def test_cli_audit_where_x_minus_mean_overflows(self, write_series_csv, args, want):
        # near 1.2e308 a day at -1e308 is 2.2e308 below the mean: its score
        # once printed as -inf, and in JSON as -Infinity
        x = 1.2e308 + np.random.default_rng(11).standard_normal(300) * 1e306
        x[280] = -1e308
        path = write_series_csv(x, start=date(2000, 1, 1))
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(["audit", str(path), "--threshold", "3", *args], out=out, err=err) == 0
        assert err.getvalue() == ""
        assert want in out.getvalue() and "inf" not in out.getvalue().lower()
        if args:
            json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(name))


class TestFlagEvents:
    def test_two_sigma_count_near_expected(self, standard_normal_10k):
        s = make_series(standard_normal_10k)
        m = estimate_moments(s)
        flagged = flag_events(s, m, 2.0, "loss")
        assert isinstance(flagged, FlaggedDays)
        assert 0.7 <= len(flagged) / 227.5 <= 1.3

    def test_threshold_above_max_empty(self, standard_normal_10k):
        s = make_series(standard_normal_10k)
        m = estimate_moments(s)
        assert len(flag_events(s, m, 30.0, "loss")) == 0

    def test_injected_deep_loss_flagged_despite_contamination(self, standard_normal_10k):
        vals = standard_normal_10k.copy()
        vals[5000] = -25.0
        s = make_series(vals)
        m = estimate_moments(s)
        flagged = flag_events(s, m, 20.0, "loss")
        assert flagged.dates.tolist() == [s.dates[5000].tolist()]
        # estimator contamination shrinks the score below the raw -25
        assert -25.0 < flagged.scores[0] <= -20.0

    def test_loss_side_ignores_gains(self):
        vals = np.concatenate([np.zeros(15), np.ones(15), [8.0], [-8.0]])
        s = make_series(vals)
        m = estimate_moments(s)
        flagged = flag_events(s, m, 3.0, "loss")
        assert len(flagged) == 1 and flagged.scores[0] < 0
        assert len(flag_events(s, m, 3.0, "both")) == 2

    def test_scores_rounded_to_4_decimals(self, standard_normal_10k):
        s = make_series(standard_normal_10k)
        m = estimate_moments(s)
        flagged = flag_events(s, m, 2.0, "loss")
        for v in flagged.scores.tolist():
            assert v == round(v, 4)

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

    @pytest.mark.parametrize("k", [10 ** 400, math.inf], ids=["1e400", "inf"])
    def test_threshold_beyond_float_range_rejected(self, standard_normal_10k, k):
        s = make_series(standard_normal_10k[:100])
        with pytest.raises(DomainError, match="^threshold_k must be positive and finite$"):
            flag_events(s, estimate_moments(s), k, "loss")
        with pytest.raises(DomainError, match="^threshold_k must be positive and finite$"):
            build_report(s, threshold_k=k)

    def test_columns_and_items(self, standard_normal_10k):
        s = make_series(standard_normal_10k)
        flagged = flag_events(s, estimate_moments(s), 2.0, "both")
        assert flagged.dates.dtype == np.dtype("datetime64[D]")
        assert flagged.scores.dtype == np.float64
        assert not flagged.dates.flags.writeable and not flagged.scores.flags.writeable
        assert len(flagged) == flagged.dates.size == flagged.scores.size > 0
        # the days are read from the columns: there is no item view
        with pytest.raises(TypeError):
            flagged[0]
        with pytest.raises(TypeError):
            iter(flagged)


class TestBinomialTail:
    def test_certain_event(self):
        assert binomial_tail_at_least(250, 0, from_real(0.5)) == ONE

    def test_one_of_fortyfour(self):
        got = binomial_tail_at_least(44, 1, from_real(0.02275))
        assert got.as_float() == pytest.approx(0.636712980420511, rel=REL_TOL)

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
            assert got == pytest.approx(want, rel=REL_TOL), (n, m, p)

    def test_million_trials_against_mpmath(self):
        for n, m, p in [(1_000_000, 500500, 0.5), (1_000_000, 1100, 1e-3),
                        (1_000_000, 900, 1e-3)]:
            got = binomial_tail_at_least(n, m, from_real(p)).as_float()
            want = float(mp.exp(binom_tail_ln_oracle(n, m, math.log10(p))))
            assert got == pytest.approx(want, rel=REL_TOL), (n, m, p)

    @pytest.mark.parametrize(("n", "m", "log10_p"), _binomial_sweep())
    def test_sweep_against_mpmath(self, n, m, log10_p):
        got = binomial_tail_at_least(n, m, Magnitude(log10_p)).log10_value * math.log(10.0)
        assert_ln_close(got, binom_tail_ln_oracle(n, m, log10_p), f"({n}, {m}, 1e{log10_p})",
                        rel=REL_TOL)

    def test_trillion_trials_near_the_mean(self):
        # ~2.4e5 terms (8 standard deviations) on each branch, not the 1e9
        # of the whole head; the two tails differ by P(X = m)
        n, p = 10 ** 12, 1e-3
        m = round(n * p)
        start = time.perf_counter()
        at_least_m = binomial_tail_at_least(n, m, from_real(p)).as_float()
        above_m = binomial_tail_at_least(n, m + 1, from_real(p)).as_float()
        assert time.perf_counter() - start < 2.0
        with mp.workdps(40):
            pmf = float(mp.exp(mp.loggamma(n + 1) - mp.loggamma(m + 1) - mp.loggamma(n - m + 1)
                               + m * mp.log(mp.mpf(p)) + (n - m) * mp.log1p(-mp.mpf(p))))
        assert at_least_m - above_m == pytest.approx(pmf, rel=1e-5)
        assert 0.5 < at_least_m < 0.51

    def test_plain_float_p_is_refused(self):
        with pytest.raises(DomainError, match="^p must be a Magnitude$"):
            binomial_tail_at_least(250, 2, 1e-3)
        assert format_sci(binomial_tail_at_least(250, 2, from_real(1e-3)), 6) == "2.64259e-2"

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
        with pytest.raises(DomainError, match="2\\*\\*53"):
            binomial_tail_at_least(2 ** 53 + 1, 2, from_real(0.5))


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

    @pytest.mark.parametrize("window", [None, 250], ids=["full", "rolling"])
    @pytest.mark.parametrize("side", ["loss", "both"])
    def test_report_reproduces_itself(self, standard_normal_10k, window, side):
        """The p-value and the expected count follow from the report's own
        n_scored and p_model."""
        r = build_report(make_series(standard_normal_10k[:2000]), threshold_k=2.0,
                         window=window, side=side)
        assert r.n_scored == 2000 - (window or 0)
        tail = gauss.gauss_tail(2.0).probability
        assert r.p_model == (tail * from_real(2.0) if side == "both" else tail) < ONE
        assert r.p_value_at_least_observed == binomial_tail_at_least(
            r.n_scored, r.observed_count, r.p_model)
        assert r.expected_count == r.n_scored * 10.0 ** r.p_model.log10_value

    def test_both_sided_model_rounding_to_one(self, standard_normal_10k):
        # 2 P(Z >= 1e-20) rounds to 1, so every scored day is surely flagged
        report = build_report(make_series(standard_normal_10k[:500]), threshold_k=1e-20,
                              side="both")
        assert report.p_value_at_least_observed == ONE
        assert report.expected_count == 500


class TestReportDict:
    def test_exact_field_names(self, standard_normal_10k):
        report = build_report(make_series(standard_normal_10k[:1000]), threshold_k=2.0)
        d = report_as_dict(report)
        assert set(d) == set(AuditReport._fields)
        assert d["window"] is None
        assert d["p_value_at_least_observed"].keys() == {"mantissa", "exponent10"}
        assert d["p_model"].keys() == {"mantissa", "exponent10"}
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


class TestRound4:
    """audit._round4 against round(x, 4), bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=False),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=2 ** 52 / 1e4, max_value=1e20),
        st.integers(-2 ** 40, 2 ** 40).map(lambda j: (2 * j + 1) / 32),  # exact ties
        st.integers(-10 ** 15, 10 ** 15).map(lambda j: (2 * j + 1) / 20000),  # near ties
        st.integers(-10 ** 12, 10 ** 12).map(lambda j: math.nextafter((2 * j + 1) / 32, math.inf)),
    ), max_size=50))
    @example([0.03125, -0.03125, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              math.inf, -math.inf, 2 ** 52 / 1e4, -2 ** 52 / 1e4, 1e12, -1e12, 1.7e308,
              2.00005, -2.00005, 0.00005, -0.00005])
    def test_matches_round(self, xs):
        x = np.array(xs, np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = audit._round4(x)
        assert _bits(got) == _bits([round(v, 4) for v in xs])


class TestIsoDates:
    @pytest.mark.parametrize("year", [1, 4, 100, 400, 1900, 2000, 9999])
    def test_every_day_of_year(self, year):
        days = np.arange(np.datetime64(date(year, 1, 1), "D"),
                         np.datetime64(date(year, 12, 31), "D") + 1)
        text = audit._iso_dates(days)
        assert text.shape == (days.size, 10)
        assert text.tobytes() == "".join(d.isoformat() for d in days.tolist()).encode()


def _reference_json(series: Series, window, threshold_k: float, side: str) -> str:
    """The report text as it was built before the flagged days became
    columns: round() and isoformat() per day, a list of dicts, one dumps."""
    report = build_report(series, threshold_k=threshold_k, window=window, side=side)
    scores = sigma_scores(series, estimate_moments(series, window))
    hit = (scores <= -threshold_k) if side == "loss" else (np.abs(scores) >= threshold_k)
    flagged = [{"date": d.isoformat(), "sigma_score": _json_score(round(v, 4))}
               for d, v in zip(series.dates[hit].tolist(), scores[hit].tolist())]
    mant, exp10 = report.p_value_at_least_observed.sci_parts()
    model_mant, model_exp10 = report.p_model.sci_parts()
    return json.dumps({
        "n_days": report.n_days, "n_scored": int(np.count_nonzero(~np.isnan(scores))),
        "mean": _json_score(report.mean), "stdev": _json_score(report.stdev),
        "window": report.window, "threshold_k": report.threshold_k, "side": report.side,
        "flagged": flagged, "p_model": {"mantissa": model_mant, "exponent10": model_exp10},
        "expected_count": report.expected_count, "observed_count": report.observed_count,
        "p_value_at_least_observed": {"mantissa": mant, "exponent10": exp10},
    }, sort_keys=True)


def _json_score(v: float):
    """A sigma score as report_json writes it: null where not finite."""
    return v if math.isfinite(v) else None


def _refuse(constant):
    raise ValueError(f"not JSON: {constant}")


class TestReportJson:
    def _check(self, series, window, threshold_k, side):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UserWarning)  # zero-stdev days
            report = build_report(series, threshold_k=threshold_k, window=window, side=side)
            text = report_json(report)
            expected = _reference_json(series, window, threshold_k, side)
        assert text == expected
        assert json.dumps(report_as_dict(report), sort_keys=True) == text
        return json.loads(text, parse_constant=_refuse)["flagged"]

    def test_many_days(self, standard_normal_10k):
        flagged = self._check(make_series(standard_normal_10k, start=date(1899, 12, 1)),
                              250, 2.0, "both")
        assert len(flagged) > 400

    def test_no_flagged_days(self, standard_normal_10k):
        assert self._check(make_series(standard_normal_10k), None, 30.0, "loss") == []

    def test_infinite_score(self):
        # the window's stdev is ~5e-161, so 1e150 scores beyond the float range
        vals = np.array([1e-160, 0.0] * 10 + [1e150] + [0.0] * 30)
        flagged = self._check(make_series(vals), 20, 2.0, "both")
        assert flagged == [{"date": "1985-01-21", "sigma_score": None}]

    def test_score_past_float_range_is_null(self):
        # a stdev of ~1e-300 puts a day at -1e10 beyond the float range: the
        # day stays flagged and counted, and its score is written as null
        vals = np.random.default_rng(1).standard_normal(300) * 1e-300
        vals[280] = -1e10
        series = make_series(vals, start=date(2000, 1, 1))
        flagged = self._check(series, 50, 2.0, "loss")
        assert {"date": "2000-10-07", "sigma_score": None} in flagged
        assert build_report(series, threshold_k=2.0, window=50).observed_count == len(flagged) == 7

    def test_negative_zero_score(self):
        vals = np.array([1.0, -1.0] * 10 + [-1e-7] + [0.0] * 30)
        flagged = self._check(make_series(vals), 20, 1e-9, "loss")
        assert len(flagged) == 1 and math.copysign(1.0, flagged[0]["sigma_score"]) == -1.0


class TestHandBuiltReport:
    """A report a library caller builds by hand is checked by report_json,
    its one writer: a field of a type build_report never gives raises
    DomainError naming it, not json's or numpy's errors."""

    FIELDS = dict(n_days=1, n_scored=1, mean=0.0, stdev=1.0, window=None, threshold_k=2.0,
                  side="loss", flagged=FlaggedDays(np.array(["2007-08-09"], "datetime64[D]"),
                                                   [2.5]),
                  p_model=ONE, expected_count=1.0, observed_count=1, p_value_at_least_observed=ONE)

    @pytest.mark.parametrize("field, value", [
        ("n_days", np.int64(1)), ("n_scored", 1.0), ("observed_count", True),
        ("window", np.int64(50)), ("window", False), ("mean", "0"), ("stdev", None),
        ("threshold_k", np.float32(2.0)), ("side", None), ("expected_count", 1),
        ("p_model", 0.5), ("p_value_at_least_observed", 1.0),
        ("flagged", [{"date": "2007-08-09", "sigma_score": 2.5}]),
    ], ids=["numpy n_days", "float n_scored", "bool observed_count", "numpy window",
            "bool window", "str mean", "None stdev", "float32 threshold_k", "None side",
            "int expected_count", "float p_model", "float p-value", "list flagged"])
    def test_field_of_wrong_type(self, field, value):
        report = AuditReport(**{**self.FIELDS, field: value})
        with pytest.raises(DomainError, match=f"^AuditReport.{field} cannot be a "):
            report_json(report)

    @pytest.mark.parametrize("window", [None, 50])
    def test_valid_report_written(self, window):
        text = report_json(AuditReport(**{**self.FIELDS, "window": window}))
        assert json.loads(text)["flagged"] == [{"date": "2007-08-09", "sigma_score": 2.5}]


_SCORE_EDGES = [0.0, -0.0, 1e-4, -1e-4, 0.5, 1.0, -1.0, 10.25, -100.001, 1234.5,
                 123456789012.0, 450359962737.0496, -450359962737.0496, 450359962737.0497,
                 2 ** 52 / 1e4, math.nextafter(2 ** 52 / 1e4, 0.0), 999999999999.9999,
                 math.inf, -math.inf, 1.7e308, -1.7e308, 2.00005, -2.00005, 0.00005]


def _flagged_json(dates: list, scores: list) -> str:
    """json.dumps of a report built around these flagged days, one dict per
    day, with every other field fixed."""
    return json.dumps({
        "n_days": len(scores), "n_scored": len(scores), "mean": 0.0, "stdev": 1.0,
        "window": None, "threshold_k": 2.0, "side": "both",
        "flagged": [{"date": d.isoformat(), "sigma_score": _json_score(v)}
                    for d, v in zip(dates, scores)],
        "p_model": {"mantissa": 1.0, "exponent10": 0},
        "expected_count": 1.0, "observed_count": len(scores),
        "p_value_at_least_observed": {"mantissa": 1.0, "exponent10": 0},
    }, sort_keys=True)


class TestFlaggedText:
    """report_json, which writes the flagged days as a matrix of bytes,
    against json.dumps of one dict per day, for scores as flag_events makes
    them (rounded by _round4)."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.dates(date(1, 1, 1), date(9999, 12, 31)),
        st.one_of(
            st.floats(allow_nan=False),
            st.floats(min_value=-1e4, max_value=1e4),
            st.integers(-10 ** 16, 10 ** 16).map(lambda j: j / 1e4),  # 1-12 integer digits
            st.integers(-10 ** 12, 10 ** 12).map(lambda j: j / 10),  # trailing zeros
            st.integers(-10 ** 13, 10 ** 13).map(lambda j: j / 100),
            st.integers(-2 ** 40, 2 ** 40).map(lambda j: (2 * j + 1) / 32),  # exact ties
            st.integers(-10 ** 15, 10 ** 15).map(lambda j: (2 * j + 1) / 20000),  # near ties
            st.floats(min_value=2 ** 52 / 1e4 * 0.999, max_value=2 ** 52 / 1e4 * 1.001),
            st.sampled_from(_SCORE_EDGES)),
    ), min_size=1, max_size=40))
    @example([(date(1, 1, 1), v) for v in _SCORE_EDGES] + [(date(9999, 12, 31), -0.0)])
    def test_matches_json_dumps(self, days):
        dates = np.array([d for d, _ in days], "datetime64[D]")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scores = audit._round4(np.array([v for _, v in days], np.float64))
            report = AuditReport(n_days=len(days), n_scored=len(days), mean=0.0, stdev=1.0,
                                 window=None, threshold_k=2.0, side="both",
                                 flagged=FlaggedDays(dates, scores), p_model=ONE,
                                 expected_count=1.0, observed_count=len(days),
                                 p_value_at_least_observed=ONE)
            text = report_json(report)
        assert text == _flagged_json(dates.tolist(), scores.tolist())
        json.loads(text, parse_constant=_refuse)

    _UNROUNDED = [0.12345, math.pi, 0.30000000000000004, math.nan, -math.nan,
                  5e-324, -0.0, 1e16, math.inf, -math.inf]

    @pytest.mark.parametrize("scores", [[v] for v in _UNROUNDED]
                             + [[-12.5, *_UNROUNDED, 3.0], [*_UNROUNDED[::-1], 7.25]])
    def test_unrounded_scores_keep_json_text(self, scores):
        """FlaggedDays built directly, as a library caller may, with scores
        that _round4 never touched: those not rounded to 4 places keep
        json's own text, null where not finite, beside rounded ones in the
        same matrix."""
        dates = np.datetime64("1999-12-30") + np.arange(len(scores))
        flagged = FlaggedDays(dates, np.array(scores, np.float64))
        report = AuditReport(n_days=len(scores), n_scored=len(scores), mean=0.0, stdev=1.0,
                             window=None, threshold_k=2.0, side="both", flagged=flagged,
                             p_model=ONE, expected_count=1.0, observed_count=len(scores),
                             p_value_at_least_observed=ONE)
        text = report_json(report)
        assert text == _flagged_json(dates.tolist(), scores)
        json.loads(text, parse_constant=_refuse)


def test_rolling_json_audit_makes_no_object_per_day(write_series_csv):
    """A 1e5-row rolling JSON audit calls isoformat() for no day, and round()
    only for the rows _round4 cannot settle from x * 1e4."""
    rng = np.random.default_rng(7)
    path = write_series_csv(rng.standard_normal(100_000))
    args = ["audit", str(path), "--window", "250", "--threshold", "2", "--side", "both",
            "--format", "json"]
    calls = {"isoformat": 0, "round": 0}

    def count(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) in calls:
            calls[arg.__name__] += 1

    out = io.StringIO()
    sys.setprofile(count)
    try:
        code = cli.main(args, out=out)
    finally:
        sys.setprofile(None)
    assert code == 0
    series = load_series(path)
    scores = sigma_scores(series, estimate_moments(series, 250))
    y = scores[np.abs(scores) >= 2.0] * 1e4
    fallback = np.count_nonzero((np.abs(y - np.rint(y)) == 0.5) | ~(np.abs(y) < 2.0 ** 52))
    assert len(json.loads(out.getvalue())["flagged"]) > 4000
    assert calls == {"isoformat": 0, "round": fallback}
