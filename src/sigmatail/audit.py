"""Sigma-event auditing of daily P&L / return series.

Pipeline: load a date,value CSV, estimate per-day moments (full-sample or
strictly trailing rolling window), sigma-score and flag each day, and take
the log-domain binomial tail (``binomial``) of the flagged count over the
n_scored days at the Gaussian model's p_model, both kept in the report.
"""

import json
import math
import os
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import _kernels, gauss
from .binomial import binomial_tail_at_least
from .errors import DomainError, finite_real
from .magnitude import ONE, Magnitude, from_real, read_numbers, sci_json

MIN_FULL_SAMPLE = 30
MIN_WINDOW = 20

_SIDES = ("loss", "both")


# characters read per block, then the rest of the line: bounds the loader's
# working set on large files; larger blocks parsed no faster and left more
# heap resident (1e6 rows: 46 MB after a load at 2**18 characters, 49 MB at
# 2**20, 55 MB at 2**22)
_BLOCK_CHARS = 1 << 18

# the range of datetime.date, which flagged days are reported as
_FIRST_DAY = np.datetime64("0001-01-01")
_LAST_DAY = np.datetime64("9999-12-31")

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
_STOPS = np.isin(np.arange(256), list(b',\n"'))  # by byte value: where padding ends
# the calendar, in days from 1970-01-01 as datetime64[D]: tables by the four
# year digits, and by the two month digits plus 100 in a leap year (year 0
# counts as one, and is refused)
_YEARS = np.arange(10000)
_YEAR_ROW = 100 * ((_YEARS % 4 == 0) & ((_YEARS % 100 != 0) | (_YEARS % 400 == 0)))
_DAYS_BEFORE_YEAR = ((_YEARS - 1) * 365 + (_YEARS - 1) // 4 - (_YEARS - 1) // 100
                     + (_YEARS - 1) // 400)
_DAYS_BEFORE_YEAR -= _DAYS_BEFORE_YEAR[1970] + 1  # now the last day of the year before
_MONTH_DAYS = np.zeros((2, 100), np.int64)
_MONTH_DAYS[:, 1:13] = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_MONTH_DAYS[1, 2] = 29
_DAYS_BEFORE_MONTH = (np.cumsum(_MONTH_DAYS, axis=1) - _MONTH_DAYS).ravel()
# MMDD of each day of the year as a number: from 0 in a common year, 365 in a leap one
_MONTH_AND_DAY = np.array([100 * m + d for row in _MONTH_DAYS for m in range(1, 13)
                           for d in range(1, row[m] + 1)])
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
    """Daily observations in two read-only columns: ``dates`` (datetime64[D],
    strictly increasing) and ``values`` (finite float64).  A caller's arrays
    are copied and checked here; ``load_series`` hands over columns it checked."""

    dates: np.ndarray
    values: np.ndarray
    source_label: str = ""

    def __post_init__(self):
        dates, values, in_order = _columns(self, "values")
        finite = np.isfinite(values)
        in_order[1:] &= dates[1:] > dates[:-1]
        bad = np.flatnonzero(~(finite & in_order))
        if bad.size:
            i = int(bad[0])
            what = ("non-finite value" if not finite[i]
                    else f"dates must be strictly increasing, within {_FIRST_DAY}..{_LAST_DAY}")
            raise DomainError(f"observation {i} ({dates[i]}): {what}")

    def __len__(self) -> int:
        return self.values.size


def _columns(record, name: str):
    """Puts read-only copies of the dates and the column ``name`` in the
    record, once the rules Series and FlaggedDays share hold: datetime64[D]
    dates, real numbers (kept as float64), 1-D columns of equal length.
    Returns both, and a mask of the dates in range (False for NaT)."""
    dates = np.array(record.dates)
    if dates.dtype != np.dtype("datetime64[D]"):
        raise DomainError(f"dates must be datetime64[D], got {dates.dtype}")
    values = np.asarray(getattr(record, name))
    if values.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be real numbers, got {values.dtype}")
    values = values.astype(np.float64)
    if dates.ndim != 1 or dates.shape != values.shape:
        raise DomainError(f"dates and {name} must be 1-D and of equal length")
    dates.flags.writeable = values.flags.writeable = False
    record.__dict__.update({"dates": dates, name: values})
    return dates, values, (dates >= _FIRST_DAY) & (dates <= _LAST_DAY)


def load_series(path) -> Series:
    """Parse a CSV with header ``date,value``: one row per day, each date
    ``YYYY-MM-DD`` (years 0001-9999) and later than the row before it, each
    value finite and written [+-] digits[.[digits]] or .digits, then
    [(e|E)[+-]digits], in ASCII.  A field may be padded with blanks (space
    and tab) and wrapped in one pair of quotes; a line of blanks is skipped.

    The file must be UTF-8; a byte-order mark is skipped.  Errors name the
    first offending row (1-based, header is row 1), though a byte that is
    not UTF-8 a few KB below a bad row is met first, as the decoder reads
    ahead.  The file is read once, in text mode ("\\r\\n" and "\\r" read as
    "\\n"), in blocks of whole lines, and each block is parsed in bulk.
    Each block's rows go straight into the two columns handed over, sized
    at the first block with rows from the file's size and that block's rows
    per character, grown in place if the rest holds more, and shrunk to the
    rows at the end."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            header = fh.readline()
            if not header:
                raise DomainError(f"{path}: empty file")
            line = np.frombuffer(("\n" + header.rstrip("\n") + "\n").encode(), np.uint8)
            if _unpadded(line).tobytes().lower() != b"\ndate,value\n":
                raise DomainError(f"{path}: row 1: header must be 'date,value'")
            first_row, last_day = 2, int(_DAYS_BEFORE_YEAR[1])  # the day before 0001-01-01
            n, chars = 0, len(header)
            days, values = np.empty(0, np.int64), np.empty(0)
            while block := fh.read(_BLOCK_CHARS) + fh.readline():
                chars += len(block)
                block_days, block_values, lines = _parse_block(block, last_day, path, first_row)
                if k := block_days.size:
                    if n + k > days.size:
                        # the rows so far and the rest at this block's rows per character,
                        # plus 1/32: bytes are never fewer than characters, so this errs high
                        rest = max(os.fstat(fh.fileno()).st_size - chars, 0)
                        days.resize((n + k + rest * k // len(block)) * 33 // 32, refcheck=False)
                        values.resize(days.size, refcheck=False)
                    days[n:n + k], values[n:n + k] = block_days, block_values
                    n += k
                    last_day = int(block_days[-1])
                first_row += lines
                del block_days, block_values  # not held while the next block is parsed
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not n:
        raise DomainError(f"{path}: no data rows")
    # No caller holds these arrays, so they shrink in place, and the blocks
    # were checked as read, so Series(...)'s copy and checks are skipped.
    days.resize(n, refcheck=False)
    values.resize(n, refcheck=False)
    days.flags.writeable = values.flags.writeable = False
    series = object.__new__(Series)
    series.__dict__.update(dates=days.view("datetime64[D]"), values=values, source_label=str(path))
    return series


def _parse_block(block: str, last_day: int, path, first_row: int):
    """(days, values, lines) of a block of whole lines, which starts on row
    ``first_row`` of the file ``path``: the columns of its rows, whose days
    (from 1970-01-01) increase from after ``last_day``, and its line count.
    A line that is empty, or left empty by _unpadded(), is skipped, and the
    first bad row raises DomainError.

    The block is padded as text, then encoded once to the array of UTF-8
    bytes it is parsed as: each line has _CELL_WIDTH bytes before its
    newline and 16 after its start.  All rows are read at once."""
    buf = "".join(("\n" * _CELL_WIDTH, block, "\n" * (not block.endswith("\n")), "\0" * 16)).encode()
    raw = np.frombuffer(buf, np.uint8)
    if " " in block or "\t" in block or '"' in block:
        raw = _unpadded(raw)
        buf = raw.tobytes()
    ends = np.flatnonzero(raw == ord("\n"))[_CELL_WIDTH:]  # past the padding's newlines
    starts = np.concatenate(([_CELL_WIDTH], ends[:-1] + 1))
    rows = starts < ends
    if not rows.all():
        starts, ends = starts[rows], ends[rows]
    days, date_ok = _day_ordinals(raw, starts)
    width = np.maximum(ends - starts - 11, 0)  # of each value cell
    values, slow = _decimal_values(raw, ends, width)
    slow = np.flatnonzero(slow)
    values[slow] = read_numbers([buf[a:b] for a, b in zip((ends[slow] - width[slow]).tolist(),
                                                          ends[slow].tolist())])
    # the value of a cell that is not a number is NaN, and of one that
    # overflows inf; no other cell can be either
    bad = ~date_ok | (days <= np.concatenate(([last_day], days))[:-1])
    bad[slow] |= ~np.isfinite(values[slow])
    if bad.any():
        i = int(np.argmax(bad))
        line = int(np.flatnonzero(rows)[i])  # in the block
        fault = _fault(buf[starts[i]:ends[i]].decode(), date_ok[i], values[i], int(days[i]))
        raise DomainError(f"{path}: row {first_row + line}: {fault}")
    return days, values, rows.size


def _unpadded(raw: np.ndarray) -> np.ndarray:
    """``raw`` less the padding of its fields: each run of blanks that
    touches a comma, a newline or a quote, then each pair of quotes that
    opens a field and closes it.  Other blanks and quotes stay, and fail
    the checks."""
    at = np.flatnonzero((raw == ord(" ")) | (raw == ord("\t")))
    if at.size:
        first = np.concatenate(([True], np.diff(at) != 1))  # of a run of blanks
        last = np.concatenate((first[1:], [True]))
        touch = _STOPS[raw[at[first] - 1]] | _STOPS[raw[at[last] + 1]]
        raw = np.delete(raw, at[touch[np.cumsum(first) - 1]])
    quote = raw == ord('"')
    if quote.any():  # a pair: two quotes next to each other among the quotes, commas
        # and newlines, the first just after a comma or newline, the second just before one
        at = np.flatnonzero(quote | (raw == ord(",")) | (raw == ord("\n")))
        q, next_to = quote[at], np.diff(at) == 1
        k = np.flatnonzero(q[1:-2] & q[2:-1] & next_to[:-2] & ~q[:-3] & next_to[2:] & ~q[3:]) + 1
        raw = np.delete(raw, np.concatenate((at[k], at[k + 1])))
    return raw


def _fault(line: str, date_ok, value, day: int) -> str:
    """What is wrong with a row that the bulk checks refused: the first of
    an open quote, the field count, the date, the value, its finiteness and
    the date order to fail.  ``line`` is the row as _unpadded() left it, so
    a field is shown as the parser saw it."""
    quote = line.rfind('"')
    if quote >= 0 and line[:quote][-1:] in ("", ","):
        return "line break inside a quoted field"
    fields = line.split(",")
    if len(fields) != 2:
        return f"expected 2 fields, got {len(fields)}"
    if not date_ok:
        return f"bad date {fields[0]!r}"
    if math.isnan(value):
        return f"bad value {fields[1]!r}"
    if math.isinf(value):
        return f"non-finite value {fields[1]!r}"
    return f"date {np.datetime64(day, 'D')} not after previous row"


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
    """The day, from 1970-01-01, of the ``YYYY-MM-DD,`` at each start in
    ``raw``, and a mask of the starts where a date from year 1 is so written."""
    ymd, dd = _words(raw, starts, 2)
    ymd ^= _DATE_ZEROS  # "YYYY-MM-"
    dd = (dd & np.uint64(0xFFFFFF)) ^ _DAY_ZEROS  # "DD,"
    bad = (_over(ymd, _DATE_MAX) | _over(dd, _DAY_MAX)) != 0
    ymd[bad] = dd[bad] = 0  # read as day 0 of month 0 of year 0, which is no date
    ym = _digits(ymd, 2).view(np.int64)  # the year, then 10 times the month
    year = ym & 0xFFFF
    month = _YEAR_ROW[year] + (ym >> 32) // 10
    day = (_digits(dd, 1) & np.uint64(0xFF)).view(np.int64)
    ok = (year > 0) & (day >= 1) & (day <= _MONTH_DAYS[month])
    return _DAYS_BEFORE_YEAR[year] + _DAYS_BEFORE_MONTH[month] + day, ok


def _decimal_values(raw: np.ndarray, ends: np.ndarray, width: np.ndarray):
    """float64 values of the decimal cells in ``raw`` that end just before
    ``ends`` and are ``width`` characters long, and a mask of the rows whose
    values are left to read_numbers(): cells longer than _CELL_WIDTH, cells
    with other characters than a leading '-', digits and one '.', and cells
    with 20 or more digits from the first nonzero one, the dot included.

    A cell is read as an integer mantissa m and the number f of its digits
    after the dot, and its value is m / 10**f, computed in long double, where
    both are exact, and rounded to double (Clinger 1990).  That equals
    float(cell), which rounds the exact quotient once, unless the long
    double lies exactly halfway between two doubles: a midpoint has 54
    significant bits, so is itself a long double, and none can lie between
    the quotient and the long double nearest to it.  Those rows, told by
    the long double's significand bits below a double's, are left to
    read_numbers() too.  Every quotient is 0 or at least 1e-23, so none is
    subnormal."""
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
    sample_mean = sample_stdev = math.nan
    if n:  # scaled as the rolling moments are, against under- and overflow
        scale = _kernels.square_scale(x, n)
        scaled = x * scale
        sample_mean = float(np.mean(scaled)) / scale
        sample_stdev = float(np.std(scaled, ddof=1)) / scale if n > 1 else math.nan
        del scaled  # not held while the rolling moments are taken

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


@dataclass(frozen=True, eq=False)
class FlaggedDays:
    """The flagged days of an audit as two read-only columns of equal
    length: ``dates`` (datetime64[D], in years 1-9999) and ``scores``
    (float64, rounded to 4 decimals by flag_events), copied and checked as
    a Series is, less order and finiteness."""

    dates: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        dates, _, in_range = _columns(self, "scores")
        if not in_range.all():
            i = int(np.argmin(in_range))
            raise DomainError(f"flagged day {i} ({dates[i]}): dates must lie within "
                              f"{_FIRST_DAY}..{_LAST_DAY}")

    def __len__(self) -> int:
        return self.scores.size


def sigma_scores(series: Series, moments: Moments) -> np.ndarray:
    """(value - mean) / stdev per day; NaN where unscored, and +-inf where
    the quotient overflows (a stdev near the bottom of the float range).
    Where value - mean passes the largest double, the score is taken on the
    halves, (value/2 - mean/2) / (stdev/2), which are exact at that size."""
    x, mean, stdev = series.values, moments.mean, moments.stdev
    # every day is divided, unscored ones too (their stdev may be NaN or 0),
    # and then set to NaN
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.subtract(x, mean)
        over = np.flatnonzero(np.isinf(out))
        out /= stdev
        out[over] = (x[over] * 0.5 - mean[over] * 0.5) / (stdev[over] * 0.5)
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
    return FlaggedDays(series.dates[i], _round4(scores[i]))


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


# each field and the type build_report gives it, which report_json checks.  window is
# None for full-sample moments; the p-value is over n_scored days at p_model, the tail
# at threshold_k (twice it for "both")
_REPORT_TYPES = {"n_days": int, "n_scored": int, "mean": float, "stdev": float,
                 "window": (int, type(None)), "threshold_k": float, "side": str,
                 "flagged": FlaggedDays, "p_model": Magnitude, "expected_count": float,
                 "observed_count": int, "p_value_at_least_observed": Magnitude}
AuditReport = namedtuple("AuditReport", _REPORT_TYPES)


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

    p_value = binomial_tail_at_least(n_scored, observed, p_model) if p_model < ONE else ONE

    return AuditReport(
        n_days=len(series),
        n_scored=n_scored,
        mean=moments.sample_mean,
        stdev=moments.sample_stdev,
        window=window,
        threshold_k=float(threshold_k),
        side=side,
        flagged=flagged,
        p_model=p_model,
        expected_count=expected,
        observed_count=observed,
        p_value_at_least_observed=p_value,
    )


def report_as_dict(report: AuditReport) -> dict:
    """Stable machine-readable form, read back from report_json so the two
    cannot disagree; field names match AuditReport, and p_model and the
    p-value travel as mantissa/exponent10 pairs so tiny values survive."""
    return json.loads(report_json(report))


def report_json(report: AuditReport) -> str:
    """The report as one line of JSON, a key per AuditReport field, sorted;
    a mean, stdev or sigma score that is not finite is null, so the text is
    always JSON.  Each flagged day is ``{"date": "YYYY-MM-DD", "sigma_score":
    score}``, the score in json's float text, and the days are written as one
    matrix of bytes, a row per day, and decoded once.  A hand-built report
    with a field of a type build_report never gives (a bool is no int, an
    int no float) raises DomainError naming the field."""
    for (name, kind), value in zip(_REPORT_TYPES.items(), report):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise DomainError(f"AuditReport.{name} cannot be a {type(value).__name__}")
    text = json.dumps({
        **report._asdict(),
        "mean": _finite_or_null(report.mean),
        "stdev": _finite_or_null(report.stdev),
        "flagged": [],
        "p_model": sci_json(report.p_model),
        "p_value_at_least_observed": sci_json(report.p_value_at_least_observed),
    }, sort_keys=True)
    if not len(report.flagged):
        return text
    return text.replace('"flagged": []', f'"flagged": [{_flagged_text(report.flagged)}]', 1)


def _finite_or_null(x: float):
    return x if math.isfinite(x) else None


# "0000".."9999" as little-endian words
_FOUR_DIGITS = (np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
                % 10 + ord("0")).astype(np.uint8).view("<u4").ravel()
# a row: '{"date": "', the date, '", "sigma_score": ', the score field, '}, '
_DATE_COLUMN = len('{"date": "')
_SCORE_COLUMN = _DATE_COLUMN + len('YYYY-MM-DD", "sigma_score": ')
_SCORE_WIDTH = 18  # "-", 12 digits below 2**52 / 1e4, ".", 4 digits
_PLACES = 10 ** np.arange(11, 0, -1)  # of the field's columns 1..11
_FRACTION_PLACES = np.array([1000, 100, 10])  # of its columns 15..17


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
    scores (larger, or not rounded to 4 places) keep json's text one by
    one, null where not finite.  The score field starts as NUL bytes, the
    zeros and the sign that the text leaves out are set to NUL, and one mask
    drops every NUL: no other byte of the text is 0."""
    scores = flagged.scores
    with np.errstate(invalid="ignore", over="ignore"):
        n = np.rint(np.abs(scores) * 1e4)
        slow = np.flatnonzero(~((n < 2.0 ** 52) & (n / 1e4 == np.abs(scores))))
    texts = [json.dumps(_finite_or_null(v)).encode() for v in scores[slow].tolist()]
    width = max([_SCORE_WIDTH, *map(len, texts)])
    n[slow] = 0.0
    whole, fraction = np.divmod(n.astype(np.int64), 10_000)
    rows = np.tile(np.frombuffer(b'{"date": "YYYY-MM-DD", "sigma_score": '
                                 + b"\0" * width + b"}, ", np.uint8), (len(flagged), 1))
    rows[:, _DATE_COLUMN:_DATE_COLUMN + 10] = _iso_dates(flagged.dates)
    digits = np.empty((len(flagged), 4), "<u4")  # four groups of 4 digits
    for j, group in enumerate((whole // 10 ** 8, whole // 10 ** 4 % 10 ** 4,
                               whole % 10 ** 4, fraction)):
        digits[:, j] = _FOUR_DIGITS[group]
    digits = digits.view(np.uint8)
    field = rows[:, _SCORE_COLUMN:_SCORE_COLUMN + width]
    field[:, 0] = np.signbit(scores) * ord("-")
    field[:, 1:13] = digits[:, :12]
    field[:, 13] = ord(".")
    field[:, 14:18] = digits[:, 12:]
    field[:, 1:12] *= whole[:, None] >= _PLACES
    field[:, 15:18] *= fraction[:, None] % _FRACTION_PLACES != 0
    if texts:
        field[slow] = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts),
                                    np.uint8).reshape(-1, width)
    return rows[rows != 0].tobytes()[:-2].decode("ascii")  # the last day has no ", "


def _iso_dates(days: np.ndarray) -> np.ndarray:
    """``date.isoformat()`` of each datetime64[D] day in years 1..9999, as
    a row of 10 ASCII bytes: the year from _DAYS_BEFORE_YEAR, the month and
    day from the day of that year, written into one array."""
    days = days.view(np.int64)
    year = np.searchsorted(_DAYS_BEFORE_YEAR, days) - 1
    day_of_year = days - _DAYS_BEFORE_YEAR[year] - 1 + 365 * (_YEAR_ROW[year] != 0)
    # "YYYY" and "MMDD", kept as "YYYYMMMDDD" with the dashes written over
    text = np.empty((days.size, 2), "<u4")
    text[:, 0], text[:, 1] = _FOUR_DIGITS[year], _FOUR_DIGITS[_MONTH_AND_DAY[day_of_year]]
    text = text.view(np.uint8)[:, [0, 1, 2, 3, 3, 4, 5, 5, 6, 7]]
    text[:, 4] = text[:, 7] = ord("-")
    return text
