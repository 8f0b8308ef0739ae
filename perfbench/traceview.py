"""Per-layer metrics from the spans of a traced run.

Every traced operation is a root span named ``op``; the package's spans nest
under it (see ``tracer.py``).  A span's self time is its duration minus the
durations of its direct children.  The layer of a span is the module prefix
of its name (``kernels`` for ``sigmatail._kernels``, since a metric name may
not start with ``_``); the self time of an ``op`` span is the part of the
call that no span covers, the harness and any code between the wrapped
functions.  So for every op the layer self times plus the uncovered part add
up to its duration.  Import cost is measured apart, in fresh processes.
"""

from __future__ import annotations

import statistics

LAYERS = ("cli", "gauss", "studentt", "scales", "magnitude", "audit", "kernels")
CLI_SUBCOMMANDS = ("prob", "table", "occurrence", "streak", "lottery", "invert", "context",
                   "ttail", "audit")
# The layers each audit style spends time in.  Its rest_s is the remainder:
# the harness around the call, which no span covers, plus any layer not
# listed here (none at the commit that added this; ``audit_split`` gives
# every layer).  A layer with no time would read 0.0 on every run.
AUDIT_STYLE_LAYERS = {"rolling": ("cli", "gauss", "audit", "kernels"),
                      "full": ("cli", "gauss", "magnitude", "audit")}


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


class Tree:
    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        self.root = [0] * n
        for i, (_, _, _, parent, _) in enumerate(spans):
            self.root[i] = i if parent < 0 else self.root[parent]
            if parent >= 0:
                child[parent] += self.dur[i]
        self.self_time = [self.dur[i] - child[i] for i in range(n)]

    def layer(self, i: int) -> str:
        name = self.spans[i][0]
        return "uncovered" if name == "op" else name.split(".")[0]

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def durations(self, name: str) -> list[float]:
        return [self.dur[i] for i in self.named(name)]

    def info(self, name: str, key: str) -> list:
        return [self.spans[i][4][key] for i in self.named(name) if self.spans[i][4]]

    def op_info(self, i: int) -> dict:
        return self.spans[self.root[i]][4] or {}

    def self_by_op(self) -> dict[int, dict[str, float]]:
        out: dict[int, dict[str, float]] = {}
        for i in range(len(self.spans)):
            per = out.setdefault(self.root[i], {})
            layer = self.layer(i)
            per[layer] = per.get(layer, 0.0) + self.self_time[i]
        return out


def metrics(spans, pairs, imports: dict) -> dict:
    """``pairs`` holds (untraced seconds, traced seconds) for matched halves
    of the run; ``imports`` the fresh-process import probe."""
    t = Tree(spans)
    out: dict[str, tuple[float, str]] = {
        "import.interp_ms": (1e3 * imports["interp_s"], "ms"),
        "import.sigmatail_ms": (1e3 * imports["import_s"], "ms"),
        "import.modules_loaded": (imports["modules"], "count"),
    }

    by_op = t.self_by_op()
    mains = t.named("cli.main")
    for sub in CLI_SUBCOMMANDS:
        xs = [t.dur[i] for i in mains if t.op_info(i).get("sub") == sub]
        out[f"cli.{sub}_ms"] = (1e3 * _median(xs), "ms")
    out["cli.self_ms"] = (1e3 * _median([by_op[t.root[i]].get("cli", 0.0) for i in mains]), "ms")

    def us(name):
        return (1e6 * _median(t.durations(name)), "us")

    out["gauss.gauss_tail_us"] = us("gauss.gauss_tail")
    out["gauss.gauss_tail_calls"] = (len(t.named("gauss.gauss_tail")), "count")
    out["gauss.series_terms"] = (sum(t.info("gauss.gauss_tail", "terms")), "count")
    out["gauss.sigma_for_period_us"] = us("gauss.sigma_for_period")
    out["gauss.sigma_for_period_calls"] = (len(t.named("gauss.sigma_for_period")), "count")
    out["studentt.student_t_tail_us"] = us("studentt.student_t_tail")
    out["studentt.below_floor_share"] = (_mean(t.info("studentt.student_t_tail", "below_floor")),
                                         "share")
    out["scales.lottery_equivalent_us"] = us("scales.lottery_equivalent")
    out["scales.compare_to_references_us"] = us("scales.compare_to_references")
    out["magnitude.format_sci_us"] = us("magnitude.format_sci")
    out["magnitude.format_sci_calls"] = (len(t.named("magnitude.format_sci")), "count")
    out["audit.binomial_tail_at_least_us"] = us("audit.binomial_tail_at_least")

    loads = t.durations("audit.load_series")
    out["audit.load_series_s"] = (_median(loads), "s")
    out["audit.load_MBps"] = (sum(t.info("audit.load_series", "bytes")) / 1e6 / sum(loads)
                              if loads else 0.0, "MB/s")
    out["audit.rows"] = (_median(t.info("audit.load_series", "rows")), "count")
    for stage in ("estimate_moments", "sigma_scores", "flag_events"):
        out[f"audit.{stage}_s"] = (_median(t.durations(f"audit.{stage}")), "s")
    out["audit.build_report_self_s"] = (
        _median([t.self_time[i] for i in t.named("audit.build_report")]), "s")
    out["audit.scored_days"] = (_mean(t.info("audit.estimate_moments", "scored")), "count")
    out["audit.unscored_days"] = (_mean(t.info("audit.estimate_moments", "unscored")), "count")
    out["audit.flagged_days"] = (_mean(t.info("audit.build_report", "flagged")), "count")
    renders = []
    for i in t.named("cli._cmd_audit"):
        inner = sum(t.dur[j] for j in range(i + 1, len(spans))
                    if spans[j][3] == i and spans[j][0] in ("audit.load_series",
                                                            "audit.build_report"))
        renders.append(t.dur[i] - inner)
    out["audit.render_s"] = (_median(renders), "s")
    out["kernels.rolling_moments_s"] = (_median(t.durations("kernels.rolling_moments")), "s")
    out["kernels.bytes_computed"] = (_median(t.info("kernels.rolling_moments",
                                                    "bytes_computed")), "B")

    untraced = sum(u for u, _ in pairs)
    traced = sum(x for _, x in pairs)
    out["trace.overhead_frac"] = (traced / untraced - 1.0 if untraced else 0.0, "frac")
    ops = t.named("op")
    # shares of the workload's own operations, not of the layer pass
    loop = [i for i in ops if not spans[i][4]["pass"]]
    total = sum(t.dur[i] for i in loop)
    out["trace.traced_ops"] = (len(loop), "count")
    out["trace.uncovered_share"] = (sum(by_op[i].get("uncovered", 0.0) for i in loop) / total
                                    if total else 0.0, "share")
    for layer in LAYERS:
        out[f"trace.self_share.{layer}"] = (
            sum(by_op[i].get(layer, 0.0) for i in loop) / total if total else 0.0, "share")
    split = audit_split(spans)
    for style, layers in AUDIT_STYLE_LAYERS.items():
        parts = split[style]
        out[f"trace.audit_{style}_s"] = (parts["total"], "s")
        for layer in layers:
            out[f"trace.audit_{style}.self.{layer}_s"] = (parts[layer], "s")
        out[f"trace.audit_{style}.rest_s"] = (
            parts["total"] - sum(parts[layer] for layer in layers), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def audit_split(spans) -> dict[str, dict[str, float]]:
    """Per audit style, the mean traced time of one audit and its split into
    every layer's self time plus the part no span covers."""
    t = Tree(spans)
    by_op = t.self_by_op()
    out = {}
    for style in AUDIT_STYLE_LAYERS:
        mine = [i for i in t.named("op") if spans[i][4].get("style") == style]
        out[style] = {"total": _mean([t.dur[i] for i in mine])}
        for part in (*LAYERS, "uncovered"):
            out[style][part] = _mean([by_op[i].get(part, 0.0) for i in mine])
    return out
