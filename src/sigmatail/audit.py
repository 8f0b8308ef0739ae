"""Sigma-event auditing of daily P&L / return series.

Pipeline: load a date,value CSV, estimate per-day moments (full-sample or
strictly trailing rolling window), sigma-score each day, flag threshold
exceedances, and quantify how improbable the observed count is under the
Gaussian model via a log-domain binomial tail that survives astronomically
small probabilities.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
import warnings
from collections import namedtuple
from dataclasses import dataclass
from datetime import date

import numpy as np

from . import _kernels, gauss
from .errors import DomainError, finite_real
from .magnitude import Magnitude, from_real

LN10 = math.log(10.0)

MIN_FULL_SAMPLE = 30
MIN_WINDOW = 20

_SIDES = ("loss", "both")


# bytes read per block: bounds the loader's working set on large files;
# larger blocks parsed no faster and left more freed heap resident
_BLOCK_CHARS = 1 << 18
_LINE_END = re.compile(rb"\r\n?|\n")  # as text mode ends lines

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
# the range of datetime.date, which flagged days are reported as
_FIRST_DAY = np.datetime64(date.min, "D")
_LAST_DAY = np.datetime64(date.max, "D")

# The bulk parser reads the bytes of a block as little-endian 64-bit words,
# 8 characters each, and works on all the words of a column at once.
_BYTES = 0x0101010101010101  # times a byte value: that byte in all eight places
_HIGH_BITS = np.uint64(0x80 * _BYTES)
_LOW_BITS = np.uint64(0x7F * _BYTES)


def _word(chars: bytes) -> np.uint64:
    return np.uint64(int.from_bytes(chars, "little"))


_DATE_ZEROS = _word(b"0000-00-")  # XOR leaves the digits 0..9 and the dashes 0
_DATE_MAX = _word(b"\x09\x09\x09\x09\x00\x09\x09\x00")
_DAY_ZEROS = _word(b"00,")
_DAY_MAX = _word(b"\x09\x09\x00")
# calendar tables: by the four year digits, and by the two month digits plus
# 100 in a leap year (year 0 counts as one, and Series rejects its dates)
_YEARS = np.arange(10000)
_YEAR_ROW = 100 * ((_YEARS % 4 == 0) & ((_YEARS % 100 != 0) | (_YEARS % 400 == 0)))
_DAYS_BEFORE_YEAR = ((_YEARS - 1) * 365 + (_YEARS - 1) // 4 - (_YEARS - 1) // 100
                     + (_YEARS - 1) // 400)
_MONTH_DAYS = np.zeros((2, 100), np.int64)
_MONTH_DAYS[:, 1:13] = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_MONTH_DAYS[1, 2] = 29
_DAYS_BEFORE_MONTH = (np.cumsum(_MONTH_DAYS, axis=1) - _MONTH_DAYS).ravel()
_MONTH_DAYS = _MONTH_DAYS.ravel()

# value cells of up to this many characters, three words, are parsed in
# bulk; longer ones go to float()
_CELL_WIDTH = 24
# for each of the three words of a cell, a mask of the bytes in column k and
# after, for k = 0.._CELL_WIDTH
_KEEP = [np.array([2 ** 64 - 256 ** min(max(k - 8 * j, 0), 8) for k in range(_CELL_WIDTH + 1)],
                  np.uint64) for j in range(3)]
# times a word with a 1 in the byte of a dot and 0 elsewhere, the top byte
# is the number of cell columns after the dot, for each of the three words
_COLUMNS_AFTER = [_word(bytes(range(8 * (2 - j), 8 * (3 - j)))) for j in range(3)]
_POW10_U64 = np.array([10 ** f if f < 20 else 2 ** 64 - 1 for f in range(_CELL_WIDTH + 1)],
                      np.uint64)  # capped above every 19-digit integer
# Clinger's fast path needs a long double whose significand holds every
# mantissa below 1e19 and every 10**f below 10**_CELL_WIDTH exactly: x87
# extended (64 bits) or IEEE quad (113 bits), not double or double-double;
# the midpoint test needs it in 16 bytes, the low 64 significand bits first
_NMANT = np.finfo(np.longdouble).nmant
_EXACT_LONG_DOUBLE = _NMANT in (63, 112) and np.longdouble(0).nbytes == 16 and np.little_endian
_POW10 = np.cumprod(np.r_[1, np.full(_CELL_WIDTH - 1, 10)].astype(np.longdouble))
_DIVISORS = np.concatenate([_POW10, -_POW10])  # 10**f at f, -10**f at _CELL_WIDTH + f
# the significand bits of a long double below those of a double, and their
# value at a midpoint between two doubles: a one, then zeros
_BELOW_DOUBLE = np.uint64(2 ** (_NMANT - 52) - 1)
_MIDPOINT = np.uint64(2 ** (_NMANT - 52) // 2)


@dataclass(frozen=True, eq=False)
class Series:
    """Date-ordered observations of a single daily quantity, held as two
    read-only columns: ``dates`` (datetime64[D], strictly increasing) and
    ``values`` (finite float64).  Both are copied and validated once, here."""

    dates: np.ndarray
    values: np.ndarray
    source_label: str = ""

    def __post_init__(self):
        dates = np.array(self.dates)
        if dates.dtype != np.dtype("datetime64[D]"):
            raise DomainError(f"dates must be datetime64[D], got {dates.dtype}")
        values = np.asarray(self.values)
        if values.dtype.kind not in "iuf":
            raise DomainError(f"values must be real numbers, got {values.dtype}")
        values = values.astype(np.float64)
        if dates.ndim != 1 or dates.shape != values.shape:
            raise DomainError("dates and values must be 1-D and of equal length")
        finite = np.isfinite(values)
        in_order = (dates >= _FIRST_DAY) & (dates <= _LAST_DAY)  # also False for NaT
        in_order[1:] &= dates[1:] > dates[:-1]
        bad = np.flatnonzero(~(finite & in_order))
        if bad.size:
            i = int(bad[0])
            what = ("non-finite value" if not finite[i]
                    else f"dates must be strictly increasing, within {_FIRST_DAY}..{_LAST_DAY}")
            raise DomainError(f"observation {i} ({dates[i]}): {what}")
        dates.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


def load_series(path) -> Series:
    """Parse a CSV with header ``date,value``: ISO-8601 dates, finite floats.

    The file must be UTF-8; a byte-order mark is skipped.  Errors name the
    first offending row (1-based, header is row 1).  The bytes are read in
    blocks of whole lines, each line end made "\\n" as in text mode; a block
    of plain ``YYYY-MM-DD,value`` lines is parsed in bulk, and any other
    (quoted fields, blank lines, a bad row) is decoded and read row by row
    with ``csv``.  Series alone checks that values are finite and dates
    increase; a file that fails any check is read again row by row."""
    try:
        return Series(*_read_columns(path, bulk=True), source_label=str(path))
    except DomainError as exc:
        rejected = exc
    _read_columns(path, bulk=False)  # raises at the first bad row
    raise rejected


def _read_columns(path, bulk: bool):
    """(dates, values) of the rows: each block by _parse_block if ``bulk``,
    and otherwise, or where that returns None, by _parse_rows."""
    day_blocks, value_blocks = [], []
    try:
        with open(path, "rb") as fh:
            header = _rest_of_line(fh).removeprefix(b"\xef\xbb\xbf").decode()  # skip a BOM
            if not header:
                raise DomainError(f"{path}: empty file")
            try:
                fields = next(csv.reader([header]))
            except csv.Error:  # such as a field past csv.field_size_limit()
                fields = []
            if [c.strip().lower() for c in fields] != ["date", "value"]:
                raise DomainError(f"{path}: row 1: header must be 'date,value'")
            first_row, last_day = 2, 0  # day ordinals start at 1
            while block := fh.read(_BLOCK_CHARS) + _rest_of_line(fh):
                if b"\r" in block:  # end the lines as text mode does
                    block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                columns = bulk and _parse_block(block)
                days, values = columns or _parse_rows(path, block.decode(), first_row, last_day)
                if days.size:
                    day_blocks.append(days)
                    value_blocks.append(values)
                    last_day = int(days[-1])
                first_row += days.size if columns else block.count(b"\n")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not day_blocks:
        raise DomainError(f"{path}: no data rows")
    # Free each list of blocks as soon as it is joined, and shift the days in
    # place: Series copies both columns again, so every array held here adds
    # to the high-water mark.
    days = np.concatenate(day_blocks)
    day_blocks.clear()
    days -= _EPOCH_ORDINAL
    values = np.concatenate(value_blocks)
    value_blocks.clear()
    return days.view("datetime64[D]"), values


def _rest_of_line(fh) -> bytes:
    """The bytes of the binary file ``fh`` to the end of the line, "\\n",
    "\\r\\n" or a lone "\\r" as in text mode, found in its look-ahead buffer:
    a file of lone-"\\r" lines is never read whole."""
    line = bytearray()
    while (ahead := fh.peek()) and not (end := _LINE_END.search(ahead)):
        line += fh.read(len(ahead))
    line += fh.read(end.end() if ahead else 0)
    # a "\r" that ended the buffer may be the first half of a "\r\n"
    return bytes(line + fh.read(line.endswith(b"\r") and fh.peek(1).startswith(b"\n")))


def _parse_block(block: bytes):
    """(day ordinals, values) of a block of bytes whose lines all have the
    syntax of plain ``YYYY-MM-DD,value`` rows; None for any other block.

    The block is parsed as one array of bytes, padded so that every line has
    _CELL_WIDTH bytes before its newline and 16 from its start."""
    raw = np.frombuffer(b"\n" * _CELL_WIDTH + block + b"\n" * (not block.endswith(b"\n"))
                        + bytes(8), np.uint8)
    ends = np.flatnonzero(raw[_CELL_WIDTH:-8] == ord("\n")) + _CELL_WIDTH
    starts = np.r_[_CELL_WIDTH, ends[:-1] + 1]
    width = ends - starts - len("YYYY-MM-DD,")  # of each value cell
    if width.min() < 1 or (days := _day_ordinals(raw, starts)) is None:
        return None
    values, slow = _decimal_values(raw, ends, width)
    slow = np.flatnonzero(slow)
    stops = ends[slow] - _CELL_WIDTH  # in block
    try:
        values[slow] = [float(block[a:b]) for a, b in zip((stops - width[slow]).tolist(),
                                                          stops.tolist())]
    except ValueError:
        return None
    return days, values


def _words(raw: np.ndarray, offsets: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` little-endian 8-byte words of ``raw`` from each offset,
    the first byte the low byte: the j-th word of every offset in row j."""
    rows = np.ndarray((raw.size + 1 - 8 * count,), f"V{8 * count}", raw, strides=(1,))[offsets]
    return rows.view("<u8").reshape(-1, count).T.copy()


def _over(words: np.ndarray, limits: np.uint64) -> np.ndarray:
    """Nonzero where some byte of a word exceeds the same byte of ``limits``
    (each at most 0x7F): the sums of the low 7 bits cannot carry."""
    return (((words & _LOW_BITS) + (_LOW_BITS - limits)) | words) & _HIGH_BITS


def _zero_bytes(words: np.ndarray) -> np.ndarray:
    """1 in each byte of a word that is 0, and 0 in the others."""
    return ~(((words & _LOW_BITS) + _LOW_BITS) | words | _LOW_BITS) >> np.uint64(7)


def _digits(words: np.ndarray, steps: int = 3) -> np.ndarray:
    """The numbers that words of eight digit values 0..9 spell, the low byte
    the most significant digit: pairs, fours, then eights of digits are
    joined in all the words at once; after 1 or 2 steps, 2 or 4 digits."""
    for n, mask in ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0xFFFFFFFF))[:steps]:
        words = (words * np.uint64(10 ** n) + (words >> np.uint64(8 * n))) & np.uint64(mask)
    return words


def _day_ordinals(raw: np.ndarray, starts: np.ndarray):
    """The ``date.toordinal`` of the ``YYYY-MM-DD,`` at each start in
    ``raw``, from year 0 on; None unless every one is a date so written."""
    ymd, dd = _words(raw, starts, 2)
    ymd ^= _DATE_ZEROS  # "YYYY-MM-"
    dd = (dd & np.uint64(0xFFFFFF)) ^ _DAY_ZEROS  # "DD,"
    if np.any(_over(ymd, _DATE_MAX) | _over(dd, _DAY_MAX)):
        return None
    ym = _digits(ymd, 2).view(np.int64)  # the year, then 10 times the month
    year = ym & 0xFFFF
    month = _YEAR_ROW[year] + (ym >> 32) // 10
    day = (_digits(dd, 1) & np.uint64(0xFF)).view(np.int64)
    if not np.all((day >= 1) & (day <= _MONTH_DAYS[month])):
        return None
    return _DAYS_BEFORE_YEAR[year] + _DAYS_BEFORE_MONTH[month] + day


def _decimal_values(raw: np.ndarray, ends: np.ndarray, width: np.ndarray):
    """float64 values of the decimal cells in ``raw`` that end just before
    ``ends`` and are ``width`` characters long, and a mask of the rows whose
    values are left to float(): cells longer than _CELL_WIDTH, cells with
    other characters than a leading '-', digits and one '.', and cells with
    20 or more digits from the first nonzero one, the dot included.

    A cell is read as an integer mantissa m and the number f of its digits
    after the dot, and its value is m / 10**f, computed in long double, where
    both are exact, and rounded to double (Clinger 1990).  That equals
    float(cell), which rounds the exact quotient once, unless the long
    double lies exactly halfway between two doubles: a midpoint has 54
    significant bits, so is itself a long double, and none can lie between
    the quotient and the long double nearest to it.  Those rows, told by
    the long double's significand bits below a double's, are left to float()
    too.  Every quotient is 0 or at least 1e-23, so none is subnormal."""
    w = _CELL_WIDTH
    neg = raw[ends - width] == ord("-")
    lead = w - np.minimum(width, w) + neg  # column of the first character after the sign
    dots = after = bad = 0
    eights = []
    for j, word in enumerate(_words(raw, ends - w, 3)):
        word ^= np.uint64(ord("0") * _BYTES)
        keep = _KEEP[j][lead]
        dot = _zero_bytes(word ^ np.uint64(0x1E * _BYTES)) & keep  # "." is "0" ^ 0x1E
        word &= keep & ~(dot * np.uint64(0xFF))
        dots = dots + ((dot * np.uint64(_BYTES)) >> np.uint64(56))
        after = after + ((dot * _COLUMNS_AFTER[j]) >> np.uint64(56))
        bad = bad | _over(word, np.uint64(9 * _BYTES))
        eights.append(_digits(word))
    # the digits with the dot read as 0, below 1e19 if the first eight are
    # below 1000: s = 10 m - 9 r, r the part after the dot
    s = (eights[0] * np.uint64(10 ** 8) + eights[1]) * np.uint64(10 ** 8) + eights[2]
    f = np.where(dots == 1, after, 0).astype(np.intp)  # digits after the dot
    r = s % _POW10_U64[np.where(dots == 1, f, w)]
    m = (s - r) // np.uint64(10) + r
    slow = ((width > w) | (width == neg + dots) | (dots > 1) | (bad != 0)
            | (eights[0] >= np.uint64(1000)))
    if _EXACT_LONG_DOUBLE:
        q = m.astype(np.longdouble) / _DIVISORS[f + w * neg]
        values = q.astype(np.float64)
        slow |= (q.view(np.uint64)[::2] & _BELOW_DOUBLE) == _MIDPOINT
    else:
        values = np.zeros(m.size)
        slow[:] = True
    return values, slow


def _parse_rows(path, text: str, first_row: int, last_day: int):
    """The block ``text`` read row by row: blank rows are skipped and the
    first bad row raises.  A record may not span lines."""
    lines = io.StringIO(text).readlines()  # split at "\n" only, as the file was
    days, values = [], []
    # a record still open after the block's last line takes this extra line,
    # so it shows as spanning two lines
    reader = csv.reader(itertools.chain(lines, ["\n"] if lines[-1].endswith("\n") else []))
    try:
        for rownum, row in zip(range(first_row, first_row + len(lines)), reader):
            if reader.line_num != rownum - first_row + 1:
                raise DomainError(f"{path}: row {rownum}: line break inside a quoted field")
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
            if d.toordinal() <= last_day:
                raise DomainError(
                    f"{path}: row {rownum}: date {d.isoformat()} not after previous row"
                )
            last_day = d.toordinal()
            days.append(last_day)
            values.append(v)
    except csv.Error as exc:  # such as a field past csv.field_size_limit()
        raise DomainError(f"{path}: row {first_row + reader.line_num - 1}: {exc}") from None
    return np.array(days, dtype=np.int64), np.array(values, dtype=np.float64)


# Per-day estimated mean and stdev, plus which days are scorable: ``scored``
# is False where history is missing or stdev == 0.
Moments = namedtuple("Moments", "mean stdev scored sample_mean sample_stdev")


def estimate_moments(series: Series, window: int | None = None) -> Moments:
    """Sample mean and Bessel-corrected stdev per day.

    window=None uses the full sample (requires n >= 30) for every day;
    an integer window >= 20 uses only the trailing ``window`` observations,
    so day t never sees itself or the future.  Days with no complete
    history, or a zero stdev, are unscored (with a warning for the latter).
    """
    x = series.values
    n = x.size
    sample_mean = float(np.mean(x)) if n else math.nan
    sample_stdev = float(np.std(x, ddof=1)) if n > 1 else math.nan

    if window is None:
        if n < MIN_FULL_SAMPLE:
            raise DomainError(
                f"full-sample moments need >= {MIN_FULL_SAMPLE} observations, got {n}"
            )
        means = np.broadcast_to(sample_mean, n)
        stds = np.broadcast_to(sample_stdev, n)
        scored = np.full(n, True)
    else:
        if isinstance(window, bool) or not isinstance(window, int):
            raise DomainError("window must be an integer or None")
        if window < MIN_WINDOW:
            raise DomainError(f"rolling window must be >= {MIN_WINDOW}, got {window}")
        means, stds = _kernels.rolling_moments(x, window)
        scored = ~np.isnan(stds)

    zero_std = scored & (stds == 0.0)
    if np.any(zero_std):
        warnings.warn(
            f"{int(zero_std.sum())} day(s) with zero stdev left unscored",
            stacklevel=2,
        )
        scored = scored & ~zero_std
    return Moments(means, stds, scored, sample_mean, sample_stdev)


FlaggedDay = namedtuple("FlaggedDay", "date sigma_score")


@dataclass(frozen=True, eq=False)
class FlaggedDays:
    """The flagged days of an audit as two read-only columns of equal
    length: ``dates`` (datetime64[D]) and ``scores`` (float64, rounded to 4
    decimals).  Indexing with an int and iterating yield FlaggedDay items,
    which are made only then; a slice is again FlaggedDays."""

    dates: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.scores.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FlaggedDays(self.dates[i], self.scores[i])
        return FlaggedDay(self.dates[i].item(), float(self.scores[i]))

    def __iter__(self):
        return map(FlaggedDay, self.dates.tolist(), self.scores.tolist())


def sigma_scores(series: Series, moments: Moments) -> np.ndarray:
    """(value - mean) / stdev per day; NaN where unscored, and +-inf where
    the quotient overflows (a stdev near the bottom of the float range)."""
    # every day is divided, unscored ones too (their stdev may be NaN or 0),
    # and then set to NaN
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.subtract(series.values, moments.mean)
        out /= moments.stdev
    out[~moments.scored] = np.nan
    return out


def flag_events(series: Series, moments: Moments, threshold_k: float,
                side: str = "loss") -> FlaggedDays:
    """Days whose sigma score breaches the threshold, in date order.

    side="loss" flags score <= -k (losses only); side="both" flags
    |score| >= k.  The days come back as two read-only columns, dates and
    scores rounded to 4 decimals exactly as ``round(score, 4)``; no object
    per day is made.
    """
    bad_k = "threshold_k must be positive and finite"
    k = finite_real(threshold_k, bad_k)
    if not k > 0.0:
        raise DomainError(bad_k)
    if side not in _SIDES:
        raise DomainError(f"side must be one of {_SIDES}, got {side!r}")
    scores = sigma_scores(series, moments)
    # unscored days have NaN scores, which compare False
    hit = scores <= -k
    if side == "both":
        hit |= scores >= k
    i = np.flatnonzero(hit)
    dates, rounded = series.dates[i], _round4(scores[i])
    dates.flags.writeable = False
    rounded.flags.writeable = False
    return FlaggedDays(dates, rounded)


def _round4(x: np.ndarray) -> np.ndarray:
    """``round(v, 4)`` of each element, bit for bit.

    round() gives the double nearest to n / 10**4, n the integer nearest to
    the exact product v * 10**4 (ties to even).  With y = v * 1e4 rounded
    and r = rint(y), r / 1e4 is that double, as r is an exact integer, unless
    y is itself a half-integer: below 2**52 every half-integer is a double,
    so none can lie strictly between the exact product and y, the double
    nearest to it.  Those elements, and y not finite or at least 2**52, go
    to round()."""
    with np.errstate(invalid="ignore", over="ignore"):
        y = x * 1e4
        r = np.rint(y)
        hard = np.flatnonzero((np.abs(y - r) == 0.5) | ~(np.abs(y) < 2.0 ** 52))
    out = r / 1e4
    out[hard] = [round(v, 4) for v in x[hard].tolist()]
    return out


# ---------------------------------------------------------------------------
# binomial tail in the log domain (Loader 2000, "Fast and Accurate Computation
# of Binomial Probabilities")

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
    """ln P(X = j) for X ~ Binomial(n, p) by Loader's saddle-point form, with
    no cancellation between log-gammas of ~n ln n."""
    if j == 0.0:
        return n * ln_q
    if j == n:
        return n * ln_p
    ln_n = math.log(n)
    return (_stirlerr(n) - _stirlerr(j) - _stirlerr(n - j)
            - _bd0(j, n * p, ln_n + ln_p) - _bd0(n - j, n * q, ln_n + ln_q)
            - _HALF_LN_2PI - 0.5 * math.log(j * ((n - j) / n)))


def binomial_tail_at_least(n: int, m: int, p) -> Magnitude:
    """P(X >= m) for X ~ Binomial(n, p), in the log domain, so values like
    1e-270 or 1e-9000 come out to ~2e-11 relative instead of underflowing.

    One term comes from Loader's saddle-point form; the rest of the short
    side follows by the ratio of neighbouring terms, outward from it, until a
    term falls below 1e-17 of the sum: O(sqrt(n p q)) work, not O(m).
    ``p`` may be a Magnitude or a plain float in (0, 1); n is at most 2^53.
    """
    if isinstance(n, bool) or isinstance(m, bool) or not isinstance(n, int) or not isinstance(m, int):
        raise DomainError("n and m must be integers")
    if not 0 <= m <= n:
        raise DomainError(f"need 0 <= m <= n, got m={m}, n={n}")
    if n > _MAX_N:
        raise DomainError(f"n must be at most 2**53, got {n}")
    if not isinstance(p, Magnitude):
        p = from_real(p)
    if p.is_zero or p.log10_value >= 0.0:
        raise DomainError("p must lie strictly in (0, 1)")
    if m == 0:
        return from_real(1.0)

    ln_p = p.log10_value * LN10
    p_f = math.exp(ln_p)
    q_f = -math.expm1(ln_p)
    ln_q = math.log1p(-p_f) if p_f < 0.5 else math.log(q_f)
    n_f = float(n)

    if m <= n_f * p_f:
        # the head is the short side: P(X >= m) = 1 - P(X <= m-1), summed
        # downward from m-1, where the terms shrink
        j, term, total = m - 1, 1.0, 1.0
        ratio = q_f / p_f
        while j > 0 and term >= 1e-17 * total:
            term *= j / (n_f - j + 1.0) * ratio
            total += term
            j -= 1
        head = math.exp(_ln_binom_pmf(float(m - 1), n_f, p_f, q_f, ln_p, ln_q)) * total
        return from_real(1.0 - head)

    # the terms shrink from m upward, since m > n p
    j, term, total = m, 1.0, 1.0
    ratio = p_f / q_f
    while j < n and term >= 1e-17 * total:
        term *= (n_f - j) / (j + 1.0) * ratio
        total += term
        j += 1
    ln_tail = _ln_binom_pmf(float(m), n_f, p_f, q_f, ln_p, ln_q) + math.log(total)
    return Magnitude(min(ln_tail / LN10, 0.0))


# window is None for full-sample moments; flagged is a FlaggedDays
AuditReport = namedtuple("AuditReport", "n_days mean stdev window threshold_k side flagged "
                         "expected_count observed_count p_value_at_least_observed")


def build_report(series: Series, *, threshold_k: float, window: int | None = None,
                 side: str = "loss") -> AuditReport:
    """Run the whole audit: moments, flags, expected count, binomial p-value.

    The expected count and p-value treat days as independent; volatility
    clustering is deliberately out of scope and renderers state the
    assumption."""
    moments = estimate_moments(series, window)
    flagged = flag_events(series, moments, threshold_k, side)
    observed = len(flagged)
    n_scored = int(moments.scored.sum())

    tail = gauss.gauss_tail(float(threshold_k)).probability
    p_model = tail * from_real(2.0) if side == "both" else tail
    expected = n_scored * (10.0 ** p_model.log10_value if p_model.log10_value > -320 else 0.0)

    if n_scored == 0 or observed == 0:
        p_value = from_real(1.0)
    else:
        p_value = binomial_tail_at_least(n_scored, observed, p_model)

    return AuditReport(
        n_days=len(series),
        mean=moments.sample_mean,
        stdev=moments.sample_stdev,
        window=window,
        threshold_k=float(threshold_k),
        side=side,
        flagged=flagged,
        expected_count=expected,
        observed_count=observed,
        p_value_at_least_observed=p_value,
    )


def report_as_dict(report: AuditReport) -> dict:
    """Stable machine-readable form; field names match AuditReport, and the
    p-value travels as a mantissa/exponent10 pair so tiny values survive.
    It is read back from report_json, so the two cannot disagree."""
    return json.loads(report_json(report))


def report_json(report: AuditReport) -> str:
    """The report as one line of JSON with sorted keys; each flagged day is
    ``{"date": "YYYY-MM-DD", "sigma_score": score}``, the score in json's
    float text.  The flagged days are written as one matrix of bytes, a row
    per day, and decoded once."""
    mant, exp10 = report.p_value_at_least_observed.sci_parts()
    text = json.dumps({
        "n_days": report.n_days,
        "mean": report.mean,
        "stdev": report.stdev,
        "window": report.window,
        "threshold_k": report.threshold_k,
        "side": report.side,
        "flagged": [],
        "expected_count": report.expected_count,
        "observed_count": report.observed_count,
        "p_value_at_least_observed": {"mantissa": mant, "exponent10": exp10},
    }, sort_keys=True)
    if not len(report.flagged):
        return text
    return text.replace('"flagged": []', f'"flagged": [{_flagged_text(report.flagged)}]', 1)


# "0000".."9999" as little-endian words, and the digits of each that its
# text keeps after a dot: up to the last nonzero one, and at least one
_NUMBERS = np.arange(10000, dtype=np.int16)
_FOUR_DIGITS = (_NUMBERS[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
                + ord("0")).astype(np.uint8).view("<u4").ravel()
_FRACTION_DIGITS = 4 - sum(_NUMBERS % 10 ** j == 0 for j in (1, 2, 3))
_TENS = 10 ** np.arange(1, 12)
# a row: '{"date": "', the date, '", "sigma_score": ', the score field, '}, '
_DATE_COLUMN = len('{"date": "')
_SCORE_COLUMN = _DATE_COLUMN + len('YYYY-MM-DD", "sigma_score": ')
_SCORE_WIDTH = 18  # "-", 12 digits below 2**52 / 1e4, ".", 4 digits


def _flagged_text(flagged: FlaggedDays) -> str:
    """The text between the brackets of ``json.dumps`` of the days as a list
    of ``{"date": d.isoformat(), "sigma_score": v}`` dicts.

    A score v whose |v| * 1e4 rounds to an integer n below 2**52 with
    n / 1e4 == |v| is written as the decimal n / 10**4: the 4-digit groups
    of n from a table, less the leading zeros of its integer part and the
    trailing zeros of its fraction, one digit kept of each.  That is repr(v),
    the shortest text that rounds to v: no other decimal of 15 digits or
    fewer rounds to the same double as n / 10**4, and at 16 digits (|v| from
    1e11) decimals of 4 places lie 1e-4 apart, more than the spacing of
    doubles below 2**39, so no two of them round to one double.  Other
    scores (not finite, larger, or not rounded to 4 places) keep json's
    text, one by one."""
    scores = flagged.scores
    with np.errstate(invalid="ignore", over="ignore"):
        n = np.rint(np.abs(scores) * 1e4)
        slow = np.flatnonzero(~((n < 2.0 ** 52) & (n / 1e4 == np.abs(scores))))
    texts = [json.dumps(v).encode() for v in scores[slow].tolist()]
    width = max([_SCORE_WIDTH, *map(len, texts)])
    n[slow] = 0.0
    whole, fraction = np.divmod(n.astype(np.int64), 10_000)
    rows = np.tile(np.frombuffer(b'{"date": "YYYY-MM-DD", "sigma_score": '
                                 + b"0" * width + b"}, ", np.uint8), (len(flagged), 1))
    rows[:, _DATE_COLUMN:_DATE_COLUMN + 10] = _iso_dates(flagged.dates)
    digits = np.empty((len(flagged), 4), "<u4")  # four groups of 4 digits
    for j, group in enumerate((whole // 10 ** 8, whole // 10 ** 4 % 10 ** 4,
                               whole % 10 ** 4, fraction)):
        digits[:, j] = _FOUR_DIGITS[group]
    digits = digits.view(np.uint8)
    field = rows[:, _SCORE_COLUMN:_SCORE_COLUMN + width]
    field[:, 1:13] = digits[:, :12]
    field[:, 13] = ord(".")
    field[:, 14:18] = digits[:, 12:]
    # the field keeps its columns start..stop-1: the sign just before the
    # first digit of the integer part (which has one digit more than it has
    # powers of ten from 10 up to it), the dot, and the fraction's digits
    start = 11 - np.searchsorted(_TENS, whole, side="right")
    negative = np.signbit(scores)
    field[negative, start[negative]] = ord("-")
    start += ~negative
    stop = 14 + _FRACTION_DIGITS[fraction]
    if texts:
        field[slow] = np.frombuffer(b"".join(t.ljust(width) for t in texts),
                                    np.uint8).reshape(-1, width)
        start[slow], stop[slow] = 0, list(map(len, texts))
    keep = np.ones(rows.shape, bool)
    columns = np.arange(width)
    keep[:, _SCORE_COLUMN:_SCORE_COLUMN + width] = ((columns >= start[:, None])
                                                    & (columns < stop[:, None]))
    keep[-1, -2:] = False  # the last day has no ", "
    return rows[keep].tobytes().decode("ascii")


# "00".."99", "-00-".."-12-" and "00  ".."31  " as little-endian words, so
# that a day's "YYYY-MM-DD  " is three words: two pairs of year digits, then
# the month's and the day's
_TWO_DIGITS = np.frombuffer("".join(map("%02d".__mod__, range(100))).encode(),
                            "<u2").astype("<u4")
_MONTH_TEXT = np.frombuffer("".join(map("-%02d-".__mod__, range(13))).encode(), "<u4")
_DAY_TEXT = np.frombuffer("".join(map("%02d  ".__mod__, range(32))).encode(), "<u4")


def _iso_dates(days: np.ndarray) -> np.ndarray:
    """``date.isoformat()`` of each datetime64[D] day in years 1..9999, as
    a row of 10 ASCII bytes: year, month and day by Hinnant's
    civil_from_days, written into one array."""
    z = days.view(np.int64) + 719468  # days since 0000-03-01
    era = z // 146097  # 400-year eras
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)  # from March 1st
    mp = (5 * doy + 2) // 153  # months from March
    day = doy - (153 * mp + 2) // 5 + 1
    month = np.where(mp < 10, mp + 3, mp - 9)
    year = era * 400 + yoe + (month <= 2)
    text = np.empty((days.size, 3), "<u4")
    text[:, 0] = _TWO_DIGITS[year // 100] | _TWO_DIGITS[year % 100] << 16
    text[:, 1] = _MONTH_TEXT[month]
    text[:, 2] = _DAY_TEXT[day]
    return text.view(np.uint8)[:, :10]
