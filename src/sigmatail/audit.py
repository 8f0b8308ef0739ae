"""Sigma-event auditing of daily P&L / return series.

Pipeline: load a date,value CSV, estimate per-day moments (full-sample or
strictly trailing rolling window), sigma-score each day, flag threshold
exceedances, and quantify how improbable the observed count is under the
Gaussian model via a log-domain binomial tail that survives astronomically
small probabilities.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple

import numpy as np

from . import _kernels, gauss, magnitude
from .errors import DomainError
from .magnitude import Magnitude, from_real

LN10 = math.log(10.0)

MIN_FULL_SAMPLE = 30
MIN_WINDOW = 20

_SIDES = ("loss", "both")


# lines parsed per block: bounds the loader's working set on large files
_BLOCK_ROWS = 1 << 16

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
# the range of datetime.date, which flagged days are reported as
_FIRST_DAY = np.datetime64(date.min, "D")
_LAST_DAY = np.datetime64(date.max, "D")


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
    first offending row (1-based, header is row 1).  The file is read in
    blocks of lines; a block of plain ``date,value`` lines is parsed in bulk,
    and any other block (quoted fields, blank lines, a bad row) row by row
    with ``csv``, which gives the same result or the same error."""
    day_blocks, value_blocks = [], []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            header = fh.readline()
            if not header:
                raise DomainError(f"{path}: empty file")
            if [c.strip().lower() for c in next(csv.reader([header]))] != ["date", "value"]:
                raise DomainError(f"{path}: row 1: header must be 'date,value'")
            first_row, last_day = 2, 0  # day ordinals start at 1
            while lines := list(itertools.islice(fh, _BLOCK_ROWS)):
                days, values = (_parse_block(lines, last_day)
                                or _parse_rows(path, lines, first_row, last_day))
                if days.size:
                    day_blocks.append(days)
                    value_blocks.append(values)
                    last_day = int(days[-1])
                first_row += len(lines)
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not day_blocks:
        raise DomainError(f"{path}: no data rows")
    days = np.concatenate(day_blocks) - _EPOCH_ORDINAL
    return Series(days.view("datetime64[D]"), np.concatenate(value_blocks), source_label=str(path))


def _parse_block(lines: list[str], last_day: int):
    """(day ordinals, values) of a block whose lines are all plain
    ``date,value`` rows that pass every check, dates after ``last_day``;
    None for any other block."""
    text = "".join(lines)
    if not text.endswith("\n"):
        text += "\n"
    raw = np.frombuffer(text.encode(), np.uint8)
    n = len(lines)
    # exactly one comma on every line, so the cells pair up as rows; a quote,
    # padding around a date or a blank line makes a cell fail to parse
    if raw[(raw == ord(",")) | (raw == ord("\n"))].tobytes() != b",\n" * n:
        return None
    cells = text.replace("\n", ",").split(",")
    try:
        days = np.fromiter(map(date.toordinal, map(date.fromisoformat, cells[0::2])), np.int64, n)
        values = np.fromiter(map(float, cells[1::2]), np.float64, n)
    except ValueError:
        return None
    if not (np.all(np.isfinite(values)) and np.all(np.diff(days, prepend=last_day) > 0)):
        return None
    return days, values


def _parse_rows(path, lines: list[str], first_row: int, last_day: int):
    """The block of ``lines`` read row by row: blank rows are skipped and
    the first bad row raises.  A record may not span lines."""
    days, values = [], []
    # a record still open after the block's last line takes this extra line,
    # so it shows as spanning two lines
    reader = csv.reader(itertools.chain(lines, ["\n"] if lines[-1].endswith("\n") else []))
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
    return np.array(days, dtype=np.int64), np.array(values, dtype=np.float64)


@dataclass(frozen=True)
class Moments:
    """Per-day estimated mean and stdev, plus which days are scorable."""

    mean: np.ndarray
    stdev: np.ndarray
    scored: np.ndarray  # bool; False where history is missing or stdev == 0
    window: int | None
    sample_mean: float
    sample_stdev: float


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
        means = np.full(n, sample_mean)
        stds = np.full(n, sample_stdev)
        scored = np.full(n, True)
    else:
        if isinstance(window, bool) or not isinstance(window, int):
            raise DomainError("window must be an integer or None")
        if window < MIN_WINDOW:
            raise DomainError(f"rolling window must be >= {MIN_WINDOW}, got {window}")
        # center for conditioning; taken from the first window only so past
        # scores never depend on future values, not even in the last ulp
        center = float(np.mean(x[: min(n, window)])) if n else 0.0
        means_c, stds = _kernels.rolling_moments(x - center, window)
        means = means_c + center
        scored = ~np.isnan(stds)

    zero_std = scored & (stds == 0.0)
    if np.any(zero_std):
        warnings.warn(
            f"{int(zero_std.sum())} day(s) with zero stdev left unscored",
            stacklevel=2,
        )
        scored = scored & ~zero_std
    return Moments(means, stds, scored, window, sample_mean, sample_stdev)


class FlaggedDay(NamedTuple):
    date: date
    sigma_score: float


def sigma_scores(series: Series, moments: Moments) -> np.ndarray:
    """(value - mean) / stdev per day; NaN where unscored."""
    x = series.values
    out = np.full(x.size, np.nan)
    m = moments.scored
    out[m] = (x[m] - moments.mean[m]) / moments.stdev[m]
    return out


def flag_events(series: Series, moments: Moments, threshold_k: float,
                side: str = "loss") -> tuple[list[FlaggedDay], int]:
    """Days whose sigma score breaches the threshold.

    side="loss" flags score <= -k (losses only); side="both" flags
    |score| >= k.  Scores are reported rounded to 4 decimals.
    """
    if (isinstance(threshold_k, bool) or not isinstance(threshold_k, (int, float))
            or not float(threshold_k) > 0.0):
        raise DomainError("threshold_k must be positive")
    if side not in _SIDES:
        raise DomainError(f"side must be one of {_SIDES}, got {side!r}")
    k = float(threshold_k)
    scores = sigma_scores(series, moments)
    # unscored days have NaN scores, which compare False
    hit = (scores <= -k) if side == "loss" else (np.abs(scores) >= k)
    i = np.flatnonzero(hit)
    flagged = [FlaggedDay(d, round(s, 4))
               for d, s in zip(series.dates[i].tolist(), scores[i].tolist())]
    return flagged, len(flagged)


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


@dataclass(frozen=True)
class AuditReport:
    n_days: int
    mean: float
    stdev: float
    window: int | None
    threshold_k: float
    side: str
    flagged: list[FlaggedDay]
    expected_count: float
    observed_count: int
    p_value_at_least_observed: Magnitude


def build_report(series: Series, *, threshold_k: float, window: int | None = None,
                 side: str = "loss") -> AuditReport:
    """Run the whole audit: moments, flags, expected count, binomial p-value.

    The expected count and p-value treat days as independent; volatility
    clustering is deliberately out of scope and renderers state the
    assumption."""
    moments = estimate_moments(series, window)
    flagged, observed = flag_events(series, moments, threshold_k, side)
    n_scored = int(moments.scored.sum())

    tail = gauss.gauss_tail(float(threshold_k)).probability
    p_model = magnitude.mul(tail, from_real(2.0)) if side == "both" else tail
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
    p-value travels as a mantissa/exponent10 pair so tiny values survive."""
    mant, exp10 = report.p_value_at_least_observed.sci_parts()
    return {
        "n_days": report.n_days,
        "mean": report.mean,
        "stdev": report.stdev,
        "window": report.window,
        "threshold_k": report.threshold_k,
        "side": report.side,
        "flagged": [
            {"date": f.date.isoformat(), "sigma_score": f.sigma_score}
            for f in report.flagged
        ],
        "expected_count": report.expected_count,
        "observed_count": report.observed_count,
        "p_value_at_least_observed": {"mantissa": mant, "exponent10": exp10},
    }
