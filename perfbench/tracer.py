"""Spans around calls into the package's modules, recorded from outside it.

``install`` replaces each public function at the attribute where its
callers look it up (``cli.format_sci``, ``gauss.gauss_tail``,
``audit._kernels.rolling_moments`` ...) with a wrapper that records a span:
name, start, end, parent span and a few counts taken from the arguments or
the result.  Spans stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

FLOOR_LOG10 = -280.0  # studentt's betainc floor, 1e-280


def _gauss_info(args, result):
    return {"terms": result.diagnostics.terms_used}


def _t_info(args, result):
    return {"below_floor": result.log10_value < FLOOR_LOG10}


def _load_info(args, result):
    return {"rows": len(result), "bytes": os.path.getsize(args[0])}


def _moments_info(args, result):
    scored = int(result.scored.sum())
    return {"scored": scored, "unscored": int(result.scored.size) - scored}


def _report_info(args, result):
    return {"flagged": result.observed_count}


def _kernel_info(args, result):
    # computed from array sizes: one float64 input and two float64 outputs
    return {"bytes_computed": 8 * 3 * len(args[0])}


# (module, attribute, span name, counts taken from the call)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "_cmd_audit", "cli._cmd_audit", None),
    ("cli", "format_sci", "magnitude.format_sci", None),
    ("cli", "parse", "magnitude.parse", None),
    ("cli", "pow_int", "magnitude.pow_int", None),
    ("magnitude", "format_sci", "magnitude.format_sci", None),
    ("gauss", "gauss_tail", "gauss.gauss_tail", _gauss_info),
    ("gauss", "sigma_for_period", "gauss.sigma_for_period", None),
    ("gauss", "occurrence_days", "gauss.occurrence_days", None),
    ("gauss", "occurrence_years", "gauss.occurrence_years", None),
    ("gauss", "streak_probability", "gauss.streak_probability", None),
    ("studentt", "student_t_tail", "studentt.student_t_tail", _t_info),
    ("studentt", "gap_vs_gaussian", "studentt.gap_vs_gaussian", None),
    ("scales", "lottery_equivalent", "scales.lottery_equivalent", None),
    ("scales", "compare_to_references", "scales.compare_to_references", None),
    ("scales", "order_gap", "scales.order_gap", None),
    ("audit", "load_series", "audit.load_series", _load_info),
    ("audit", "build_report", "audit.build_report", _report_info),
    ("audit", "report_as_dict", "audit.report_as_dict", None),
    ("audit", "estimate_moments", "audit.estimate_moments", _moments_info),
    ("audit", "flag_events", "audit.flag_events", None),
    ("audit", "sigma_scores", "audit.sigma_scores", None),
    ("audit", "binomial_tail_at_least", "audit.binomial_tail_at_least", None),
    ("_kernels", "rolling_moments", "kernels.rolling_moments", _kernel_info),
)


class Recorder:
    """Spans as lists ``[name, start, end, parent, info]``; ``parent`` is
    the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, info=None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, info]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if info is not None:
                rec[4] = info(args, result)
            return result
        return traced


def package_modules() -> dict:
    import sigmatail.cli
    from sigmatail import _kernels, audit, gauss, magnitude, scales, studentt

    return {"cli": sigmatail.cli, "gauss": gauss, "studentt": studentt, "scales": scales,
            "magnitude": magnitude, "audit": audit, "_kernels": _kernels}


def install(recorder: Recorder, modules: dict):
    """Install the wrappers; returns a callable that removes them."""
    saved = []
    for mod_name, attr, span_name, info in TARGETS:
        mod = modules[mod_name]
        original = getattr(mod, attr)
        saved.append((mod, attr, original))
        setattr(mod, attr, recorder.wrap(span_name, original, info))

    def uninstall():
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
    return uninstall
