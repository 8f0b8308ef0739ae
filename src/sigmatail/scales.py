"""Human-scale context for extended-range numbers: lottery-streak
equivalents, order-of-magnitude gaps, and named reference scales
(geological/cosmological timescales and particle-count estimates)."""

import math
from collections import namedtuple

from .errors import DomainError
from .magnitude import Magnitude, ONE, _check_magnitude, from_real, parse

_KINDS = ("years", "count")


class ReferenceScale(namedtuple("ReferenceScale", "name kind low high")):
    """A named comparison scale, possibly a range (low <= high); ``kind`` is
    "years" or "count"."""

    __slots__ = ()

    def __new__(cls, name: str, kind: str, low: Magnitude, high: Magnitude):
        if kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {kind!r}")
        if not (isinstance(low, Magnitude) and isinstance(high, Magnitude)):
            raise DomainError("reference bounds must be Magnitudes")
        if low.is_zero or high.is_zero:
            raise DomainError("reference bounds must be nonzero")
        if low > high:
            raise DomainError(f"reference {name!r} has low > high")
        return super().__new__(cls, name, kind, low, high)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too


class LotteryModel(namedtuple("LotteryModel", "win_probability")):
    """Single-ticket win probability; defaults to the fair-bet odds of a
    2.5e6-to-1 jackpot."""

    __slots__ = ()

    def __new__(cls, win_probability: Magnitude = from_real(4e-7)):
        if not isinstance(win_probability, Magnitude):
            raise DomainError("win probability must be a Magnitude")
        if win_probability.is_zero or win_probability >= ONE:
            raise DomainError("win probability must lie strictly in (0, 1)")
        return super().__new__(cls, win_probability)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too


DEFAULT_LOTTERY = LotteryModel()

# The built-in comparison table.  Ranges reflect the cited estimates; point
# values carry low == high.
BUILTIN_SCALES: tuple[ReferenceScale, ...] = (
    ReferenceScale("end of the last Ice Age", "years", from_real(1e4), from_real(1e4)),
    ReferenceScale("emergence of Homo sapiens", "years", from_real(1e6), from_real(1e6)),
    ReferenceScale("origin of multicellular life", "years", from_real(6e8), from_real(6e8)),
    ReferenceScale("time since the Big Bang", "years", from_real(1.2e10), from_real(1.4e10)),
    ReferenceScale("particles in the universe", "count", Magnitude(73.0), Magnitude(85.0)),
    ReferenceScale("single lottery win odds", "count", from_real(4e-7), from_real(4e-7)),
)


# ratio_low is value / low, and ratio_high value / high
ReferenceComparison = namedtuple("ReferenceComparison", "name kind ratio_low ratio_high")


def lottery_equivalent(p: Magnitude, model: LotteryModel = DEFAULT_LOTTERY) -> tuple[int, int]:
    """Bracket p between consecutive win-streak probabilities.

    Returns the unique (n, n+1) with q**n >= p > q**(n+1), q the win
    probability; computed in the log10 domain and re-verified there, so the
    exact-power boundary resolves deterministically to the closed left end.
    """
    _check_magnitude(p, "p")
    if not isinstance(model, LotteryModel):
        raise DomainError("model must be a LotteryModel")
    if p.is_zero:
        raise DomainError("probability must be nonzero")
    if p > ONE:
        raise DomainError("probability must be <= 1")
    lq = model.win_probability.log10_value
    lp = p.log10_value
    n = math.floor(lp / lq)
    # guard against float floor slips; lq < 0 so q**n >= p means n*lq >= lp
    while n * lq < lp:
        n -= 1
    while (n + 1) * lq >= lp:
        n += 1
    return n, n + 1


def order_gap(a: Magnitude, b: Magnitude) -> int:
    """floor(log10(a / b)): how many decimal orders a exceeds b by."""
    _check_magnitude(a, "a")
    _check_magnitude(b, "b")
    if a.is_zero or b.is_zero:
        raise DomainError("order gap of zero")
    return math.floor(a.log10_value - b.log10_value)


def compare_to_references(years: Magnitude,
                          refs: tuple[ReferenceScale, ...] = BUILTIN_SCALES
                          ) -> list[ReferenceComparison]:
    """Ratio of ``years`` to each reference's low and high bounds.

    kind="count" references are compared as bare numbers, deliberately
    mixing units; renderers should annotate the mismatch.
    """
    _check_magnitude(years, "years")
    if years.is_zero:
        raise DomainError("years must be nonzero")
    if not refs:
        raise DomainError("reference list is empty")
    return [ReferenceComparison(ref.name, ref.kind, years / ref.low, years / ref.high)
            for ref in refs]


def load_reference_scales(path) -> tuple[ReferenceScale, ...]:
    """Read user-supplied scales: one ``name,kind,low,high`` record per line,
    blank lines and #-comments ignored, bounds in Magnitude text form.  A
    leading byte-order mark is skipped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason})") from None
    scales = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip(" \t\n")
        if not line or line.startswith("#"):
            continue
        parts = [p.strip(" \t") for p in line.split(",")]
        if len(parts) != 4:
            raise DomainError(
                f"{path}: line {lineno}: expected name,kind,low,high"
            )
        name, kind, low_text, high_text = parts
        try:
            scales.append(ReferenceScale(name, kind, parse(low_text), parse(high_text)))
        except (DomainError, ValueError) as exc:
            raise DomainError(f"{path}: line {lineno}: {exc}") from exc
    if not scales:
        raise DomainError(f"{path}: no reference scales found")
    return tuple(scales)
