"""Command-line front end.

Subcommands wrap the library one-to-one; everything prints deterministic,
locale-independent text.  Results go to stdout, diagnostics and errors to
stderr.  Exit codes: 0 success, 2 usage error, 3 domain error.  main alone
decides the status and writes stdout: a handler returns its stdout as a list
of lines, and main writes them in one write after the handler has returned,
so a command that fails leaves stdout empty.  What a handler writes to stderr
(prob's diagnostics line, audit's warnings) comes before its stdout.

days_per_year defaults to 250 and may be overridden per command with --dpy.

One table, COMMANDS, holds every subcommand's positionals and options.  A
well-formed argv is read straight from it: the command, its positionals,
then options by their full names, each given once with its value as its own
token, with no positional or value that starts with "-".  Every other argv
goes to an argparse parser built from the same table: -h, abbreviations,
``--opt=value``, repeats, negative numbers, ``--`` and every usage error,
so their text and exit code 2 are argparse's own.  argparse is imported
and its parser built only then, once per process, so a well-formed command
loads neither (README, "Calling the CLI in-process", has the timings).
"""

import functools
import sys
import warnings
from types import SimpleNamespace

from . import gauss
from .errors import DomainError, ParseError
from .magnitude import format_sci, parse, pow_int, sci_json


def _parse_ks(text: str) -> list[float]:
    try:
        ks = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise DomainError(f"--ks expects a comma-separated list of numbers, got {text!r}") from None
    if not ks:
        raise DomainError("--ks list is empty")
    return ks


def _fmt_k(k: float) -> str:
    return f"{k:g}"


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_prob(args, err):
    r = gauss.gauss_tail(args.k, mode=args.mode, days_per_year=args.dpy)
    d, dg = args.digits, r.diagnostics
    print(f"diagnostics: path={dg.path} y={r.k / gauss.SQRT2!r} terms_used={dg.terms_used} "
          f"truncation_bound={dg.truncation_bound:.3e}", file=err)
    return [
        f"k: {_fmt_k(r.k)}",
        f"probability: {format_sci(r.probability, d)}",
        f"percent: {format_sci(r.percent, d)} %",
        f"occurrence_days: {format_sci(r.occurrence_days, d)}",
        f"occurrence_years: {format_sci(r.occurrence_years, d)}",
    ]


def _cmd_table(args, err):
    results = [gauss.gauss_tail(k, days_per_year=args.dpy) for k in _parse_ks(args.ks)]
    header = ("k", "percent", "occurrence_days", "occurrence_years")  # TailResult attributes
    cells = [[getattr(r, name) for name in header] for r in results]
    if args.format == "json":
        import json

        rows = [dict(zip(header, (k, *map(sci_json, vs)))) for k, *vs in cells]
        return [json.dumps({"days_per_year": args.dpy, "rows": rows}, sort_keys=True)]
    rows = [header, *([_fmt_k(k), *(format_sci(v, args.digits) for v in vs)] for k, *vs in cells)]
    if args.format == "csv":
        return [",".join(row) for row in rows]
    if args.format == "md":
        return [f"| {' | '.join(row)} |" for row in (header, ["---"] * len(header), *rows[1:])]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def _cmd_occurrence(args, err):
    if (args.k is None) == (args.p is None):
        raise DomainError("give exactly one of K or --p")
    d = args.digits
    if args.k is None:
        p, lines = parse(args.p), []
    else:
        p = gauss.gauss_tail(args.k, days_per_year=args.dpy).probability
        lines = [f"probability: {format_sci(p, d)}"]
    return [*lines, f"occurrence_days: {format_sci(gauss.occurrence_days(p), d)}",
            f"occurrence_years: {format_sci(gauss.occurrence_years(p, args.dpy), d)}"]


def _cmd_streak(args, err):
    d, r = args.digits, gauss.gauss_tail(args.k)
    return [
        f"probability: {format_sci(gauss.streak_probability(r.probability, args.days), d)}",
        f"note: percent-power variant gives {format_sci(pow_int(r.percent, args.days), d)} "
        "(raises the percent form to the power instead of the probability)",
    ]


def _cmd_lottery(args, err):
    from . import scales  # only lottery, context and ttail use it

    p = parse(args.p)
    model = scales.LotteryModel(parse(args.win_prob)) if args.win_prob else scales.DEFAULT_LOTTERY
    n_low, n_high = scales.lottery_equivalent(p, model)
    return [f"between {n_low} and {n_high} consecutive wins"]


def _cmd_invert(args, err):
    return [f"k ≈ {gauss.sigma_for_period(parse(args.years), args.dpy):.4f}"]


def _cmd_context(args, err):
    from . import scales

    d = args.digits
    r = gauss.gauss_tail(args.k, days_per_year=args.dpy)
    refs = scales.load_reference_scales(args.refs) if args.refs else scales.BUILTIN_SCALES
    baseline = None if args.baseline_years is None else parse(args.baseline_years)
    if baseline is not None and baseline.is_zero:
        raise DomainError("--baseline-years must be positive")
    lines = [f"k: {_fmt_k(r.k)}", f"percent: {format_sci(r.percent, d)} %",
             f"occurrence_years: {format_sci(r.occurrence_years, d)}"]
    for comp in scales.compare_to_references(r.occurrence_years, refs):
        note = "  [unit mismatch: years vs count]" if comp.kind == "count" else ""
        lines.append(f"vs {comp.name} ({comp.kind}): x{format_sci(comp.ratio_low, d)}"
                     f" .. x{format_sci(comp.ratio_high, d)}{note}")
    n_low, n_high = scales.lottery_equivalent(r.probability)
    lines.append(f"lottery: between {n_low} and {n_high} consecutive wins")
    if baseline is not None:
        lines.append(f"order gap vs baseline: {scales.order_gap(r.occurrence_years, baseline)}")
    return lines


def _cmd_ttail(args, err):
    from . import scales, studentt  # studentt: only this command uses it

    spec = studentt.TDistSpec(nu=args.nu, standardized=args.standardized)
    tail = studentt.student_t_tail(args.k, spec)
    lines = [f"t_tail: {format_sci(tail, args.digits)}"]
    if args.k >= studentt.GAP_MIN_K:
        gap = scales.order_gap(tail, gauss.gauss_tail(args.k).probability)
        lines.append(f"gap_vs_gaussian: {gap}")
    return lines


def _cmd_audit(args, err):
    from . import audit as audit_mod  # loads numpy: only this command pays for it

    series = audit_mod.load_series(args.file)
    with warnings.catch_warnings(record=True) as caught:  # such as zero-stdev days
        warnings.simplefilter("always")
        report = audit_mod.build_report(series, threshold_k=args.threshold,
                                        window=args.window, side=args.side)
    for warning in caught:
        print(f"warning: {warning.message}", file=err)
    if args.format == "json":
        return [audit_mod.report_json(report)]
    d, flagged = args.digits, report.flagged
    p = report.p_model  # for side "both", twice the tail at k
    return [
        f"source: {series.source_label}",
        f"n_days: {report.n_days}",
        f"n_scored: {report.n_scored}",
        f"window: {report.window if report.window is not None else 'full'}",
        f"mean: {report.mean!r}",
        f"stdev: {report.stdev!r}",
        f"threshold_k: {_fmt_k(report.threshold_k)}",
        f"side: {report.side}",
        f"model_tail_percent: {format_sci(p * gauss._HUNDRED, d)} %",
        f"model_occurrence_years: {format_sci(gauss.occurrence_years(p, args.dpy), d)}",
        f"observed_count: {report.observed_count}",
        f"expected_count: {report.expected_count:.6g}",
        f"p_value_at_least_observed: {format_sci(report.p_value_at_least_observed, d)}",
        f"flagged ({min(len(flagged), 20)} of {len(flagged)} shown):",
        *(f"  {day.isoformat()}  {score:+.4f}"
          for day, score in zip(flagged.dates[:20].tolist(), flagged.scores[:20].tolist())),
        "note: expected counts and p-values assume independent days "
        "(no volatility clustering)",
    ]


# ---------------------------------------------------------------------------
# the command table: each subcommand's help, its positionals and its options,
# each with its add_argument keywords.  argparse builds its parser from it,
# and _read_argv reads a well-formed argv straight from it.

_DIGITS = {"type": int, "default": 4,
           "help": "significant digits for printed values (1-15, default 4)"}
_DPY = {"type": int, "default": gauss.DEFAULT_DAYS_PER_YEAR,
        "help": f"trading days per year (default {gauss.DEFAULT_DAYS_PER_YEAR})"}
_K = {"k": {"type": float}}

COMMANDS = {
    "prob": ("tail probability and occurrence period for one k", _K, {
        "--mode": {"choices": gauss._MODES, "default": "auto"},
        "--digits": _DIGITS, "--dpy": _DPY}),
    "table": ("one row per k: percent, occurrence days/years", {}, {
        "--ks": {"required": True, "help": "comma-separated sigma levels, e.g. 3,4,5,6,7"},
        "--format": {"choices": ("text", "csv", "md", "json"), "default": "text"},
        "--digits": _DIGITS, "--dpy": _DPY}),
    "occurrence": ("expected-occurrence period for k or a probability",
                   {"k": {"type": float, "nargs": "?"}}, {
        "--p": {"help": "probability in scientific or decimal text form"},
        "--digits": _DIGITS, "--dpy": _DPY}),
    "streak": ("odds of m consecutive k-sigma days", _K, {
        "--days": {"type": int, "required": True}, "--digits": _DIGITS}),
    "lottery": ("bracket a probability between consecutive-win streaks", {}, {
        "--p": {"required": True},
        "--win-prob": {"help": "single-ticket win probability (default 4e-7)"}}),
    "invert": ("sigma level whose occurrence period matches --years", {}, {
        "--years": {"required": True}, "--dpy": _DPY}),
    "context": ("reference-scale comparisons for a k-sigma event", _K, {
        "--refs": {"help": "file of name,kind,low,high reference scales"},
        "--baseline-years": {"help": "also print the order gap vs this period"},
        "--digits": _DIGITS, "--dpy": _DPY}),
    "ttail": ("Student-t upper tail and gap vs the Gaussian", _K, {
        "--nu": {"type": float, "required": True},
        "--standardized": {"action": "store_true",
                           "help": "rescale to unit variance (sigma units)"},
        "--digits": _DIGITS}),
    "audit": ("sigma-score a date,value CSV and test the event count", {"file": {}}, {
        "--window": {"type": int},
        "--threshold": {"type": float, "default": 2.0},
        # audit._SIDES, spelled out so that reading argv does not import numpy
        "--side": {"choices": ("loss", "both"), "default": "loss"},
        "--format": {"choices": ("text", "json"), "default": "text"},
        "--digits": _DIGITS, "--dpy": _DPY}),
}


@functools.cache
def build_parser():
    """argparse's parser for COMMANDS: it reads every argv that _read_argv
    leaves, and writes the help and the usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="sigmatail",
        description="Extreme-tail probabilities of k-sigma events, occurrence "
                    "periods, streak odds and series audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, positionals, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, spec in (positionals | options).items():
            p.add_argument(name, **spec)
    return parser


def _read_argv(argv):
    """The arguments of a well-formed argv, as argparse would give them, or
    None.  Well-formed: the command first, then its positionals, then options
    by their full names, each given once with its value as the next token;
    no positional or value starts with "-"; every value passes its type and
    choices; nothing required is missing.  Anything else, -h, repeats and
    every usage error included, is argparse's to read."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, positionals, options = COMMANDS[argv[0]]
    args = {"command": argv[0]}
    i = 1
    try:
        for name, spec in positionals.items():
            if i < len(argv) and argv[i][:1] != "-":
                args[name] = _value(spec, argv[i])
                i += 1
            elif spec.get("nargs") != "?":
                return None
        while i < len(argv):
            spec = options.get(argv[i])
            dest = _dest(argv[i])
            if spec is None or dest in args:
                return None
            if spec.get("action") == "store_true":
                args[dest] = True
                i += 1
            elif i + 1 < len(argv) and argv[i + 1][:1] != "-":
                args[dest] = _value(spec, argv[i + 1])
                i += 2
            else:
                return None
    except ValueError:
        return None
    for name, spec in (positionals | options).items():
        dest = _dest(name)
        if dest not in args:
            if spec.get("required"):
                return None
            args[dest] = spec.get("default", False if spec.get("action") else None)
    return SimpleNamespace(**args)


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _value(spec: dict, text: str):
    """text through the item's type and choices; ValueError where argparse
    would refuse it."""
    value = spec.get("type", str)(text)
    if "choices" in spec and value not in spec["choices"]:
        raise ValueError(text)
    return value


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_argv(argv) or build_parser().parse_args(argv)
        if not 1 <= getattr(args, "digits", 4) <= 15:
            raise DomainError("--digits must be in [1, 15]")
        if getattr(args, "dpy", 1) < 1:  # streak, lottery and ttail take no --dpy
            raise DomainError("--dpy must be >= 1")
        lines = globals()["_cmd_" + args.command](args, err)
        out.write("\n".join([*lines, ""]))  # one copy: audit's JSON line can be megabytes
    except (DomainError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 3
    return 0


def run() -> None:
    sys.exit(main())
