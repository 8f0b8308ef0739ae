"""sigmatail: extreme-tail probabilities of k-sigma events, far beyond the
range where fixed-precision evaluation underflows, with conversions to
expected-occurrence periods, streak odds, human-scale comparisons, a
Student-t fat-tail counterfactual, and a daily-series audit pipeline."""

import importlib

from .errors import DomainError, ParseError
from .gauss import (
    SeriesDiagnostics,
    TailResult,
    events_per_year,
    gauss_tail,
    occurrence_days,
    occurrence_years,
    sigma_for_period,
    streak_probability,
)
from .magnitude import (
    Magnitude,
    ONE,
    ZERO,
    format_sci,
    from_real,
    from_sci,
    parse,
    pow_int,
)
from .scales import (
    BUILTIN_SCALES,
    DEFAULT_LOTTERY,
    LotteryModel,
    ReferenceComparison,
    ReferenceScale,
    compare_to_references,
    load_reference_scales,
    lottery_equivalent,
    order_gap,
)

__version__ = "0.1.0"

# audit imports numpy, which costs far more than the rest of the package, and
# only ttail uses studentt; their names load on first access (PEP 562), so
# commands that never touch them never pay for them.
_LAZY = {
    **dict.fromkeys(
        ("AuditReport", "FlaggedDay", "FlaggedDays", "Moments", "Series",
         "binomial_tail_at_least", "build_report", "estimate_moments", "flag_events",
         "load_series", "report_as_dict", "report_json", "sigma_scores"),
        "audit",
    ),
    **dict.fromkeys(("TDistSpec", "gap_vs_gaussian", "student_t_tail"), "studentt"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "AuditReport", "FlaggedDay", "FlaggedDays", "Moments", "Series",
    "binomial_tail_at_least", "build_report", "estimate_moments", "flag_events",
    "load_series", "report_as_dict", "report_json", "sigma_scores",
    "DomainError", "ParseError",
    "SeriesDiagnostics", "TailResult", "events_per_year", "gauss_tail",
    "occurrence_days", "occurrence_years", "sigma_for_period", "streak_probability",
    "Magnitude", "ONE", "ZERO", "format_sci", "from_real", "from_sci", "parse",
    "pow_int",
    "BUILTIN_SCALES", "DEFAULT_LOTTERY", "LotteryModel",
    "ReferenceComparison", "ReferenceScale", "compare_to_references",
    "load_reference_scales", "lottery_equivalent", "order_gap",
    "TDistSpec", "gap_vs_gaussian", "student_t_tail",
    "__version__",
]
