"""sigmatail: extreme-tail probabilities of k-sigma events, far beyond the
range where fixed-precision evaluation underflows, with conversions to
expected-occurrence periods, streak odds, human-scale comparisons, a
Student-t fat-tail counterfactual, and a daily-series audit pipeline."""

import importlib

__version__ = "0.1.0"

# Every public name and the module that defines it.  A name loads its module
# on first access (PEP 562), so a command pays only for the modules it uses:
# audit imports numpy, which costs far more than the rest of the package, so
# the binomial tail that the audit calls lives apart, in binomial.
_EXPORTS = {
    **dict.fromkeys(("DomainError", "ParseError"), "errors"),
    **dict.fromkeys(
        ("SeriesDiagnostics", "TailResult", "gauss_tail", "occurrence_days",
         "occurrence_years", "sigma_for_period", "streak_probability"),
        "gauss",
    ),
    **dict.fromkeys(
        ("Magnitude", "ONE", "ZERO", "format_sci", "from_real", "parse", "pow_int"),
        "magnitude",
    ),
    **dict.fromkeys(
        ("BUILTIN_SCALES", "DEFAULT_LOTTERY", "LotteryModel", "ReferenceComparison",
         "ReferenceScale", "compare_to_references", "load_reference_scales",
         "lottery_equivalent", "order_gap"),
        "scales",
    ),
    **dict.fromkeys(("TDistSpec", "gap_vs_gaussian", "student_t_tail"), "studentt"),
    "binomial_tail_at_least": "binomial",
    **dict.fromkeys(
        ("AuditReport", "FlaggedDays", "Moments", "Series", "build_report", "estimate_moments",
         "flag_events", "load_series", "report_as_dict", "report_json", "sigma_scores"),
        "audit",
    ),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
