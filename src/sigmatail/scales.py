"""Human-scale context for extended-range numbers: lottery-streak
equivalents, order-of-magnitude gaps, and named reference scales
(geological/cosmological timescales and particle-count estimates)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError
from .magnitude import Magnitude, ONE, from_real, from_sci, parse

_KINDS = ("years", "count")


@dataclass(frozen=True)
class ReferenceScale:
    """A named comparison scale, possibly a range (low <= high)."""

    name: str
    kind: str  # "years" or "count"
    low: Magnitude
    high: Magnitude

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.low.is_zero or self.high.is_zero:
            raise DomainError("reference bounds must be nonzero")
        if self.low > self.high:
            raise DomainError(f"reference {self.name!r} has low > high")


@dataclass(frozen=True)
class LotteryModel:
    """Single-ticket win probability; defaults to the fair-bet odds of a
    2.5e6-to-1 jackpot."""

    win_probability: Magnitude = field(default_factory=lambda: from_real(4e-7))

    def __post_init__(self):
        q = self.win_probability
        if q.is_zero or q >= ONE:
            raise DomainError("win probability must lie strictly in (0, 1)")


DEFAULT_LOTTERY = LotteryModel()

# The built-in comparison table.  Ranges reflect the cited estimates; point
# values carry low == high.
BUILTIN_SCALES: tuple[ReferenceScale, ...] = (
    ReferenceScale("end of the last Ice Age", "years", from_real(1e4), from_real(1e4)),
    ReferenceScale("emergence of Homo sapiens", "years", from_real(1e6), from_real(1e6)),
    ReferenceScale("origin of multicellular life", "years", from_real(6e8), from_real(6e8)),
    ReferenceScale("time since the Big Bang", "years", from_real(1.2e10), from_real(1.4e10)),
    ReferenceScale("particles in the universe", "count", from_sci(1.0, 73), from_sci(1.0, 85)),
    ReferenceScale("single lottery win odds", "count", from_real(4e-7), from_real(4e-7)),
)


@dataclass(frozen=True)
class ReferenceComparison:
    name: str
    kind: str
    ratio_low: Magnitude   # value / low
    ratio_high: Magnitude  # value / high


def lottery_equivalent(p: Magnitude, model: LotteryModel = DEFAULT_LOTTERY) -> tuple[int, int]:
    """Bracket p between consecutive win-streak probabilities.

    Returns the unique (n, n+1) with q**n >= p > q**(n+1), q the win
    probability; computed in the log10 domain and re-verified there, so the
    exact-power boundary resolves deterministically to the closed left end.
    """
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
    if years.is_zero:
        raise DomainError("years must be nonzero")
    if not refs:
        raise DomainError("reference list is empty")
    out = []
    for ref in refs:
        out.append(ReferenceComparison(
            name=ref.name,
            kind=ref.kind,
            ratio_low=years / ref.low,
            ratio_high=years / ref.high,
        ))
    return out


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
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
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
