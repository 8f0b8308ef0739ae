"""Command-line front end.

Subcommands wrap the library one-to-one; everything prints deterministic,
locale-independent text.  Results go to stdout, diagnostics and errors to
stderr.  Exit codes: 0 success, 2 usage error, 3 domain error.

days_per_year defaults to 250 and may be overridden per command with --dpy.

The parser is built once per process, so repeated in-process ``main`` calls
do not pay again for building it (README, "Calling the CLI in-process").
"""

import argparse
import functools
import sys
import warnings

from . import gauss
from .errors import DomainError, ParseError
from .magnitude import Magnitude, format_sci, parse, pow_int

_FORMATS = ("text", "csv", "md", "json")


def _mag_json(m: Magnitude) -> dict:
    mant, exp10 = m.sci_parts()
    return {"mantissa": mant, "exponent10": exp10}


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

def _cmd_prob(args, out, err) -> int:
    r = gauss.gauss_tail(args.k, mode=args.mode, days_per_year=args.dpy)
    d = args.digits
    print(f"k: {_fmt_k(r.k)}", file=out)
    print(f"probability: {format_sci(r.probability, d)}", file=out)
    print(f"percent: {format_sci(r.percent, d)} %", file=out)
    print(f"occurrence_days: {format_sci(r.occurrence_days, d)}", file=out)
    print(f"occurrence_years: {format_sci(r.occurrence_years, d)}", file=out)
    dg = r.diagnostics
    print(
        f"diagnostics: path={dg.path} y={r.k / gauss.SQRT2!r} terms_used={dg.terms_used} "
        f"truncation_bound={dg.truncation_bound:.3e}",
        file=err,
    )
    return 0


def _cmd_table(args, out, err) -> int:
    results = [gauss.gauss_tail(k, days_per_year=args.dpy) for k in _parse_ks(args.ks)]
    d = args.digits
    header = ("k", "percent", "occurrence_days", "occurrence_years")
    if args.format == "json":
        import json

        payload = {
            "days_per_year": args.dpy,
            "rows": [
                {
                    "k": r.k,
                    "percent": _mag_json(r.percent),
                    "occurrence_days": _mag_json(r.occurrence_days),
                    "occurrence_years": _mag_json(r.occurrence_years),
                }
                for r in results
            ],
        }
        print(json.dumps(payload, sort_keys=True), file=out)
        return 0
    text_rows = [
        (_fmt_k(r.k), format_sci(r.percent, d), format_sci(r.occurrence_days, d),
         format_sci(r.occurrence_years, d))
        for r in results
    ]
    if args.format == "csv":
        print(",".join(header), file=out)
        for row in text_rows:
            print(",".join(row), file=out)
    elif args.format == "md":
        print("| " + " | ".join(header) + " |", file=out)
        print("|" + "|".join(" --- " for _ in header) + "|", file=out)
        for row in text_rows:
            print("| " + " | ".join(row) + " |", file=out)
    else:
        widths = [max(len(h), *(len(r[i]) for r in text_rows)) for i, h in enumerate(header)]
        print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(), file=out)
        for row in text_rows:
            print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip(), file=out)
    return 0


def _cmd_occurrence(args, out, err) -> int:
    if (args.k is None) == (args.p is None):
        raise DomainError("give exactly one of K or --p")
    d = args.digits
    if args.k is not None:
        p = gauss.gauss_tail(args.k, days_per_year=args.dpy).probability
        print(f"probability: {format_sci(p, d)}", file=out)
    else:
        p = parse(args.p)
    print(f"occurrence_days: {format_sci(gauss.occurrence_days(p), d)}", file=out)
    print(f"occurrence_years: {format_sci(gauss.occurrence_years(p, args.dpy), d)}", file=out)
    return 0


def _cmd_streak(args, out, err) -> int:
    d = args.digits
    r = gauss.gauss_tail(args.k)
    streak = gauss.streak_probability(r.probability, args.days)
    percent_power = pow_int(r.percent, args.days)
    print(f"probability: {format_sci(streak, d)}", file=out)
    print(
        f"note: percent-power variant gives {format_sci(percent_power, d)} "
        "(raises the percent form to the power instead of the probability)",
        file=out,
    )
    return 0


def _cmd_lottery(args, out, err) -> int:
    from . import scales  # only lottery, context and ttail use it

    p = parse(args.p)
    model = scales.LotteryModel(parse(args.win_prob)) if args.win_prob else scales.DEFAULT_LOTTERY
    n_low, n_high = scales.lottery_equivalent(p, model)
    print(f"between {n_low} and {n_high} consecutive wins", file=out)
    return 0


def _cmd_invert(args, out, err) -> int:
    years = parse(args.years)
    k = gauss.sigma_for_period(years, args.dpy)
    print(f"k ≈ {k:.4f}", file=out)
    return 0


def _cmd_context(args, out, err) -> int:
    from . import scales

    d = args.digits
    r = gauss.gauss_tail(args.k, days_per_year=args.dpy)
    refs = scales.load_reference_scales(args.refs) if args.refs else scales.BUILTIN_SCALES
    baseline = None if args.baseline_years is None else parse(args.baseline_years)
    if baseline is not None and baseline.is_zero:
        raise DomainError("--baseline-years must be positive")
    print(f"k: {_fmt_k(r.k)}", file=out)
    print(f"percent: {format_sci(r.percent, d)} %", file=out)
    print(f"occurrence_years: {format_sci(r.occurrence_years, d)}", file=out)
    for comp in scales.compare_to_references(r.occurrence_years, refs):
        note = "  [unit mismatch: years vs count]" if comp.kind == "count" else ""
        print(
            f"vs {comp.name} ({comp.kind}): x{format_sci(comp.ratio_low, d)}"
            f" .. x{format_sci(comp.ratio_high, d)}{note}",
            file=out,
        )
    n_low, n_high = scales.lottery_equivalent(r.probability)
    print(f"lottery: between {n_low} and {n_high} consecutive wins", file=out)
    if baseline is not None:
        print(f"order gap vs baseline: {scales.order_gap(r.occurrence_years, baseline)}", file=out)
    return 0


def _cmd_ttail(args, out, err) -> int:
    from . import scales, studentt  # studentt: only this command uses it

    d = args.digits
    spec = studentt.TDistSpec(nu=args.nu, standardized=args.standardized)
    tail = studentt.student_t_tail(args.k, spec)
    # computed before anything is printed, so an error leaves stdout empty
    gap = scales.order_gap(tail, gauss.gauss_tail(args.k).probability) if args.k >= 8.0 else None
    print(f"t_tail: {format_sci(tail, d)}", file=out)
    if gap is not None:
        print(f"gap_vs_gaussian: {gap}", file=out)
    return 0


def _cmd_audit(args, out, err) -> int:
    from . import audit as audit_mod  # loads numpy: only this command pays for it

    series = audit_mod.load_series(args.file)
    with warnings.catch_warnings(record=True) as caught:  # such as zero-stdev days
        warnings.simplefilter("always")
        report = audit_mod.build_report(series, threshold_k=args.threshold,
                                        window=args.window, side=args.side)
    for warning in caught:
        print(f"warning: {warning.message}", file=err)
    d = args.digits
    if args.format == "json":
        print(audit_mod.report_json(report), file=out)
        return 0
    r = gauss.gauss_tail(report.threshold_k, days_per_year=args.dpy)
    print(f"source: {series.source_label}", file=out)
    print(f"n_days: {report.n_days}", file=out)
    print(f"window: {report.window if report.window is not None else 'full'}", file=out)
    print(f"mean: {report.mean!r}", file=out)
    print(f"stdev: {report.stdev!r}", file=out)
    print(f"threshold_k: {_fmt_k(report.threshold_k)}", file=out)
    print(f"side: {report.side}", file=out)
    print(f"model_tail_percent: {format_sci(r.percent, d)} %", file=out)
    print(f"model_occurrence_years: {format_sci(r.occurrence_years, d)}", file=out)
    print(f"observed_count: {report.observed_count}", file=out)
    print(f"expected_count: {report.expected_count:.6g}", file=out)
    print(
        f"p_value_at_least_observed: {format_sci(report.p_value_at_least_observed, d)}",
        file=out,
    )
    shown = report.flagged[:20]
    print(f"flagged ({len(shown)} of {len(report.flagged)} shown):", file=out)
    for f in shown:
        print(f"  {f.date.isoformat()}  {f.sigma_score:+.4f}", file=out)
    print(
        "note: expected counts and p-values assume independent days "
        "(no volatility clustering)",
        file=out,
    )
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_digits(p):
    p.add_argument("--digits", type=int, default=4,
                   help="significant digits for printed values (1-15, default 4)")


def _add_dpy(p):
    p.add_argument("--dpy", type=int, default=gauss.DEFAULT_DAYS_PER_YEAR,
                   help=f"trading days per year (default {gauss.DEFAULT_DAYS_PER_YEAR})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmatail",
        description="Extreme-tail probabilities of k-sigma events, occurrence "
                    "periods, streak odds and series audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", help="tail probability and occurrence period for one k")
    p.add_argument("k", type=float)
    p.add_argument("--mode", choices=gauss._MODES, default="auto")
    _add_digits(p)
    _add_dpy(p)

    p = sub.add_parser("table", help="one row per k: percent, occurrence days/years")
    p.add_argument("--ks", required=True, help="comma-separated sigma levels, e.g. 3,4,5,6,7")
    p.add_argument("--format", choices=_FORMATS, default="text")
    _add_digits(p)
    _add_dpy(p)

    p = sub.add_parser("occurrence", help="expected-occurrence period for k or a probability")
    p.add_argument("k", type=float, nargs="?", default=None)
    p.add_argument("--p", help="probability in scientific or decimal text form")
    _add_digits(p)
    _add_dpy(p)

    p = sub.add_parser("streak", help="odds of m consecutive k-sigma days")
    p.add_argument("k", type=float)
    p.add_argument("--days", type=int, required=True)
    _add_digits(p)

    p = sub.add_parser("lottery", help="bracket a probability between consecutive-win streaks")
    p.add_argument("--p", required=True)
    p.add_argument("--win-prob", dest="win_prob", default=None,
                   help="single-ticket win probability (default 4e-7)")

    p = sub.add_parser("invert", help="sigma level whose occurrence period matches --years")
    p.add_argument("--years", required=True)
    _add_dpy(p)

    p = sub.add_parser("context", help="reference-scale comparisons for a k-sigma event")
    p.add_argument("k", type=float)
    p.add_argument("--refs", default=None, help="file of name,kind,low,high reference scales")
    p.add_argument("--baseline-years", dest="baseline_years", default=None,
                   help="also print the order gap vs this period")
    _add_digits(p)
    _add_dpy(p)

    p = sub.add_parser("ttail", help="Student-t upper tail and gap vs the Gaussian")
    p.add_argument("k", type=float)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--standardized", action="store_true",
                   help="rescale to unit variance (sigma units)")
    _add_digits(p)

    p = sub.add_parser("audit", help="sigma-score a date,value CSV and test the event count")
    p.add_argument("file")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--threshold", type=float, default=2.0)
    # audit._SIDES, spelled out so building the parser does not import numpy
    p.add_argument("--side", choices=("loss", "both"), default="loss")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_digits(p)
    _add_dpy(p)

    return parser


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        digits = getattr(args, "digits", 4)
        if not 1 <= digits <= 15:
            raise DomainError("--digits must be in [1, 15]")
        dpy = getattr(args, "dpy", None)
        if dpy is not None and dpy < 1:
            raise DomainError("--dpy must be >= 1")
        return globals()["_cmd_" + args.command](args, out, err)
    except (DomainError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 3


def run() -> None:
    sys.exit(main())
