"""Independent checks of the program's outputs.

Tail values are checked against mpmath at 60 significant digits with the
tolerances the README states:

* Gaussian tail: 1e-12 relative on the erfc path (k <= 9), 1e-9 beyond;
  for huge k, within 2 ulp of the true log10 (the README's bound where a
  double log10 is the binding constraint);
* sigma_for_period: |dk| <= 1e-9;
* Student-t tail: 1e-8 relative (the handoff agreement the code states),
  or 2 ulp of the true log10;
* binomial tail: 1e-9 relative, plus the part of the input probability's
  own tolerance that the tail amplifies;
* lottery brackets, reference ratios and order gaps: exact.

Printed CLI values must agree to the printed digits: within half a unit in
the last printed digit plus the value's stated tolerance.

Audit outputs are checked against a two-pass numpy recomputation over
``sliding_window_view`` windows.  Days whose score lies within 1e-9
relative of the threshold are ambiguous and may go either way.

Every check returns a reason string for a miss and None for a pass; a
check that raises is a miss too, never a crash of the benchmark.
"""

from __future__ import annotations

import functools
import json
import math

import mpmath as mp

mp.mp.dps = 60

DPY = 250
LOTTERY_Q = mp.mpf("4e-7")
FLOOR = mp.mpf("1e-280")
AMBIGUOUS_REL = 1e-9


def _ulp(x: float) -> float:
    return math.ulp(float(x))


def _mag(log10_value: float):
    return mp.power(10, mp.mpf(log10_value))


def within(got_log10: float, true, rel: float) -> bool:
    """A Magnitude (given by its log10) against a true mpf value: within
    ``rel`` relative, or within 2 ulp of the true log10."""
    true_log10 = mp.log10(true)
    diff = mp.mpf(got_log10) - true_log10
    if abs(diff) <= 2 * _ulp(float(true_log10)):
        return True
    return abs(mp.expm1(diff * mp.log(10))) <= rel


@functools.lru_cache(maxsize=None)
def gauss_tail(k: float):
    return mp.erfc(mp.mpf(k) / mp.sqrt(2)) / 2


def gauss_tol(k: float) -> float:
    return 1e-12 if k <= 9.0 else 1e-9


@functools.lru_cache(maxsize=None)
def t_tail(k: float, nu: float, standardized: bool = True):
    nu_ = mp.mpf(nu)
    t = mp.mpf(k) * mp.sqrt(nu_ / (nu_ - 2)) if standardized else mp.mpf(k)
    if t == 0:
        return mp.mpf(0.5)
    return mp.betainc(nu_ / 2, mp.mpf(0.5), 0, nu_ / (nu_ + t * t), regularized=True) / 2


T_TOL = 1e-8


def sigma_root(log10_years: float):
    """The k whose occurrence period is 10**log10_years years."""
    target = -(mp.mpf(log10_years) + mp.log10(DPY))
    k0 = math.sqrt(max(2.0 * -float(target) * math.log(10.0), 1.0))
    return mp.findroot(lambda k: mp.log10(mp.erfc(k / mp.sqrt(2)) / 2) - target, mp.mpf(k0))


def binomial_tail(n: int, m: int, p):
    """P(X >= m) for X ~ Binomial(n, p), summing only the short side."""
    p = mp.mpf(p)
    q = 1 - p
    if m == 0:
        return mp.mpf(1)

    def term(j):
        return mp.exp(mp.loggamma(n + 1) - mp.loggamma(j + 1) - mp.loggamma(n - j + 1)
                      + j * mp.log(p) + (n - j) * mp.log(q))

    eps = mp.mpf(10) ** -40
    if m <= n * p:
        # head P(X <= m-1), summed downward from m-1; the terms shrink
        j = m - 1
        t = term(j)
        head = t
        while j > 0:
            t = t * j * q / ((n - j + 1) * p)
            j -= 1
            head += t
            if t < head * eps:
                break
        return 1 - head
    j = m
    t = term(j)
    total = t
    while j < n:
        t = t * (n - j) * p / ((j + 1) * q)
        j += 1
        total += t
        if t < total * eps:
            break
    return total


def binomial_sensitivity(n: int, m: int, p, tail):
    """d ln P(X >= m) / d ln p, to carry the input's tolerance through."""
    p = mp.mpf(p)
    if m == 0:
        return mp.mpf(0)
    dens = mp.exp(mp.loggamma(n) - mp.loggamma(m) - mp.loggamma(n - m + 1)
                  + (m - 1) * mp.log(p) + (n - m) * mp.log(1 - p))
    return p * n * dens / tail


def lottery_ok(p_true, n_low: int, n_high: int) -> bool:
    return n_high == n_low + 1 and LOTTERY_Q ** n_low >= p_true > LOTTERY_Q ** n_high


def gap_ok(log10_ratio, gap: int) -> bool:
    """floor(log10 ratio) == gap, allowing either neighbour when the true
    ratio sits within 1e-9 of an integer power of ten."""
    lo = math.floor(log10_ratio - 1e-9)
    hi = math.floor(log10_ratio + 1e-9)
    return gap in (lo, hi)


# ---------------------------------------------------------------------------
# library queries (tail-sweep)

def check_query(query: tuple, result, materialised: tuple) -> str | None:
    """``query`` is the generated tuple, ``materialised`` the arguments the
    program was called with, ``result`` its return value."""
    try:
        kind = query[0]
        if kind == "gauss_tail":
            k = query[1]
            if not within(result.probability.log10_value, gauss_tail(k), gauss_tol(k)):
                return f"gauss_tail({k!r})"
        elif kind == "sigma_for_period":
            root = sigma_root(query[1])
            if abs(mp.mpf(result) - root) > 1e-9 + 1e-15 * abs(root):
                return f"sigma_for_period(1e{query[1]!r}) = {result!r}, true {mp.nstr(root, 17)}"
        elif kind == "student_t_tail":
            nu, k = query[1], query[2]
            if not within(result.log10_value, t_tail(k, nu), T_TOL):
                return (f"student_t_tail({k!r}, nu={nu!r}): log10 {result.log10_value!r}, "
                        f"true {mp.nstr(mp.log10(t_tail(k, nu)), 17)}")
        elif kind == "binomial_tail_at_least":
            n, m, log10_p = query[1:]
            true = binomial_tail(n, m, _mag(log10_p))
            if not within(result.log10_value, true, 1e-9):
                return f"binomial_tail_at_least({n}, {m}, 1e{log10_p!r})"
        elif kind == "lottery_equivalent":
            p = materialised[0]
            if not lottery_ok(_mag(p.log10_value), *result):
                return f"lottery_equivalent(1e{p.log10_value!r}) = {result}"
        elif kind == "compare_to_references":
            from sigmatail.scales import BUILTIN_SCALES

            years = materialised[0]
            if len(result) != len(BUILTIN_SCALES):
                return f"compare_to_references: {len(result)} comparisons"
            for ref, comp in zip(BUILTIN_SCALES, result):
                for bound, ratio in ((ref.low, comp.ratio_low), (ref.high, comp.ratio_high)):
                    true = mp.mpf(years.log10_value) - mp.mpf(bound.log10_value)
                    if abs(mp.mpf(ratio.log10_value) - true) > _ulp(float(true)):
                        return f"compare_to_references vs {ref.name}"
        else:
            return f"unknown query kind {kind}"
    except Exception as exc:  # a failing check is a miss, not a crash
        return f"{query[0]}: check raised {exc!r}"
    return None


# ---------------------------------------------------------------------------
# printed CLI output (cli-oneshot)

def printed_ok(text: str, true, rel: float) -> bool:
    """A value printed as ``M.MMMe±E`` (or 0.000e+0) against the true value."""
    got = mp.mpf(text)
    mant = text.lower().split("e")[0]
    digits = len(mant.replace(".", "").lstrip("+-"))
    exp = int(text.lower().split("e")[1]) if "e" in text.lower() else 0
    half_unit = mp.mpf(5) * mp.power(10, exp - digits)
    return abs(got - true) <= half_unit + rel * abs(true)


def _fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if ": " in line:
            key, _, value = line.partition(": ")
            out.setdefault(key.strip(), value.strip())
    return out


def _gauss_truth(k: float) -> dict:
    p = gauss_tail(k)
    return {"probability": p, "percent": 100 * p, "occurrence_days": 1 / p,
            "occurrence_years": 1 / (p * DPY)}


def ulp_tol(true) -> float:
    """The relative error that 2 ulp of the true log10 amounts to."""
    return 2 * _ulp(float(mp.log10(true))) * math.log(10.0)


def _printed_gauss_tol(k: float) -> float:
    return gauss_tol(k) + ulp_tol(gauss_tail(k))


def _check_gauss_fields(f: dict, k: float, keys=("probability", "percent",
                                                    "occurrence_days", "occurrence_years")) -> str | None:
    truth = _gauss_truth(k)
    tol = _printed_gauss_tol(k)
    for key in keys:
        text = f[key].removesuffix(" %")
        if not printed_ok(text, truth[key], tol):
            return f"{key} {text} at k={k!r}, true {mp.nstr(truth[key], 8)}"
    return None


def check_cli(argv: list[str], rc: int, stdout: str, audit_expect=None) -> str | None:
    """Check one ``sigmatail`` call; an audit needs its expectation (see
    ``audit_expectation``)."""
    if rc != 0:
        return f"exit {rc}"
    try:
        return _check_cli(argv, stdout, audit_expect)
    except Exception as exc:
        return f"check raised {exc!r}"


def _check_cli(argv, stdout, audit_expect):
    sub = argv[0]
    f = _fields(stdout)
    if sub == "prob":
        return _check_gauss_fields(f, float(argv[1]))
    if sub == "table":
        ks = [float(x) for x in argv[argv.index("--ks") + 1].split(",")]
        fmt = argv[argv.index("--format") + 1]
        if fmt == "json":
            rows = json.loads(stdout)["rows"]
            if len(rows) != len(ks):
                return f"table json: {len(rows)} rows for {len(ks)} ks"
            for k, row in zip(ks, rows):
                truth = _gauss_truth(k)
                for key in ("percent", "occurrence_days", "occurrence_years"):
                    v = row[key]
                    got = mp.mpf(v["mantissa"]) * mp.power(10, v["exponent10"])
                    if abs(got / truth[key] - 1) > _printed_gauss_tol(k):
                        return f"table json {key} at k={k!r}"
            return None
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        if fmt == "md":
            cells = [[c.strip() for c in ln.strip("|").split("|")] for ln in lines[2:]]
        elif fmt == "csv":
            cells = [ln.split(",") for ln in lines[1:]]
        else:
            cells = [ln.split() for ln in lines[1:]]
        if len(cells) != len(ks):
            return f"table {fmt}: {len(cells)} rows for {len(ks)} ks"
        for k, row in zip(ks, cells):
            if row[0] != f"{k:g}":
                return f"table {fmt}: k label {row[0]} for {k!r}"
            fields = dict(zip(("percent", "occurrence_days", "occurrence_years"), row[1:]))
            bad = _check_gauss_fields(fields, k, tuple(fields))
            if bad:
                return f"table {fmt}: {bad}"
        return None
    if sub == "occurrence":
        p = mp.mpf(argv[argv.index("--p") + 1])
        for key, true in (("occurrence_days", 1 / p), ("occurrence_years", 1 / (p * DPY))):
            if not printed_ok(f[key], true, 1e-12):
                return f"occurrence {key} {f[key]}"
        return None
    if sub == "streak":
        k, days = float(argv[1]), int(argv[argv.index("--days") + 1])
        p = gauss_tail(k)
        if not printed_ok(f["probability"], p ** days, days * gauss_tol(k)):
            return f"streak probability {f['probability']} at k={k!r}"
        note = f["note"].split("gives ")[1].split(" ")[0]
        if not printed_ok(note, (100 * p) ** days, days * gauss_tol(k)):
            return f"streak percent-power {note}"
        return None
    if sub == "lottery":
        p = mp.mpf(argv[argv.index("--p") + 1])
        words = stdout.split()
        if not lottery_ok(p, int(words[1]), int(words[3])):
            return f"lottery bracket {words[1]}..{words[3]} for p={argv[2]}"
        return None
    if sub == "invert":
        log10_years = float(argv[argv.index("--years") + 1].split("e")[1])
        root = sigma_root(log10_years)
        got = mp.mpf(stdout.split("≈")[1].strip())
        if abs(got - root) > 0.5e-4 + 1e-9:
            return f"invert {got} for 1e{log10_years:g} years, true {mp.nstr(root, 10)}"
        return None
    if sub == "context":
        from sigmatail.scales import BUILTIN_SCALES

        k = float(argv[1])
        bad = _check_gauss_fields(f, k, ("percent", "occurrence_years"))
        if bad:
            return f"context {bad}"
        p = gauss_tail(k)
        years = 1 / (p * DPY)
        tol = _printed_gauss_tol(k)
        vs = [ln for ln in stdout.splitlines() if ln.startswith("vs ")]
        if len(vs) != len(BUILTIN_SCALES):
            return f"context: {len(vs)} reference lines"
        for ref, line in zip(BUILTIN_SCALES, vs):
            parts = line.split(": x")[1].split(" .. x")
            lo_text, hi_text = parts[0], parts[1].split()[0]
            for text, bound in ((lo_text, ref.low), (hi_text, ref.high)):
                if not printed_ok(text, years / _mag(bound.log10_value), tol):
                    return f"context ratio vs {ref.name}: {text}"
        lot = [ln for ln in stdout.splitlines() if ln.startswith("lottery:")][0].split()
        if not lottery_ok(p, int(lot[2]), int(lot[4])):
            return f"context lottery {lot[2]}..{lot[4]}"
        if "--baseline-years" in argv:
            base = mp.mpf(argv[argv.index("--baseline-years") + 1])
            gap = int(f["order gap vs baseline"])
            if not gap_ok(float(mp.log10(years / base)), gap):
                return f"context order gap {gap}"
        return None
    if sub == "ttail":
        k, nu = float(argv[1]), float(argv[argv.index("--nu") + 1])
        true = t_tail(k, nu)
        got = f["t_tail"]
        tol = T_TOL + ulp_tol(true)
        if not printed_ok(got, true, tol):
            return f"ttail {got} at k={k!r} nu={nu!r}, true {mp.nstr(true, 8)}"
        if k >= 8.0:
            gap = int(f["gap_vs_gaussian"])
            if not gap_ok(float(mp.log10(true / gauss_tail(k))), gap):
                return f"ttail gap {gap} at k={k!r} nu={nu!r}"
        return None
    if sub == "audit":
        return check_audit_output(tuple(argv[2:]), stdout, audit_expect)
    return f"unknown subcommand {sub}"


# ---------------------------------------------------------------------------
# audits

def _rolling_scores(x, window: int):
    """Trailing-window scores by two-pass mean/stdev over explicit windows."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    n = x.size
    scores = np.full(n, np.nan)
    windows = sliding_window_view(x, window)  # row j covers x[j:j+window]
    chunk = 20_000
    for lo in range(0, n - window, chunk):
        hi = min(lo + chunk, n - window)
        w = windows[lo:hi]
        mean = w.mean(axis=1)
        std = np.sqrt(((w - mean[:, None]) ** 2).sum(axis=1) / (window - 1))
        t = np.arange(lo, hi) + window
        with np.errstate(divide="ignore", invalid="ignore"):
            scores[t] = np.where(std > 0, (x[t] - mean) / std, np.nan)
    return scores


def audit_expectation(style: tuple, first, values) -> dict:
    """What an audit with argument ``style`` must report for this series."""
    import numpy as np

    args = dict(zip(style[::2], style[1::2]))
    window = int(args["--window"]) if "--window" in args else None
    k = float(args["--threshold"])
    side = args.get("--side", "loss")
    x = values
    if window is None:
        mean = math.fsum(x.tolist()) / x.size
        d = x - mean
        std = math.sqrt(math.fsum((d * d).tolist()) / (x.size - 1))
        scores = d / std
    else:
        scores = _rolling_scores(x, window)
    scored = ~np.isnan(scores)
    mag = np.abs(scores) if side == "both" else -scores
    with np.errstate(invalid="ignore"):
        sure = scored & (mag >= k * (1 + AMBIGUOUS_REL))
        maybe = scored & (np.abs(mag - k) < k * AMBIGUOUS_REL)
    idx = np.flatnonzero(sure | maybe)
    return {
        "k": k, "side": side, "n": int(x.size), "n_scored": int(scored.sum()),
        "sure": int(sure.sum()), "maybe": int(maybe.sum()),
        "dates": dict(zip((first + idx).astype(str).tolist(), scores[idx].tolist())),
        "sure_dates": set((first + np.flatnonzero(sure)).astype(str).tolist()),
    }


def _p_model(k: float, side: str):
    p = gauss_tail(k)
    return 2 * p if side == "both" else p


def _check_p_value(exp: dict, observed: int, got) -> str | None:
    """``got`` is an mpf (JSON mantissa/exponent) or printed text."""
    n, k = exp["n_scored"], exp["k"]
    p = _p_model(k, exp["side"])
    if observed == 0:
        true, sens = mp.mpf(1), mp.mpf(0)
    else:
        true = binomial_tail(n, observed, p)
        sens = abs(binomial_sensitivity(n, observed, p, true))
    tol = 1e-9 + float(sens) * gauss_tol(k)
    if isinstance(got, str):
        ok = printed_ok(got, true, tol)
    else:
        ok = abs(got / true - 1) <= tol
    if ok:
        return None
    return f"p-value {got if isinstance(got, str) else mp.nstr(got, 12)}, true {mp.nstr(true, 12)}"


def _check_flags(exp: dict, flagged: list[tuple[str, float]], complete: bool) -> str | None:
    """Every listed day is beyond the threshold with its score right to the
    4 printed decimals, and no day beyond it is missing: from the whole
    series, or (text output, which shows the first 20) up to the last day
    shown."""
    dates = exp["dates"]
    for d, s in flagged:
        if d not in dates:
            return f"flagged {d} not beyond the threshold"
        if abs(s - dates[d]) > 5e-5 * (1 + 1e-9) + 1e-9 * abs(dates[d]):
            return f"score {s} on {d}, true {dates[d]!r}"
    shown = {d for d, _ in flagged}
    horizon = None if complete or not flagged else max(shown)
    missing = {d for d in exp["sure_dates"] if horizon is None or d <= horizon} - shown
    if missing:
        return f"{len(missing)} days beyond the threshold not listed, e.g. {min(missing)}"
    return None


def check_audit_output(style: tuple, stdout: str, exp: dict) -> str | None:
    try:
        if "--format" in style and style[style.index("--format") + 1] == "json":
            rep = json.loads(stdout)
            observed = rep["observed_count"]
            flagged = [(f["date"], f["sigma_score"]) for f in rep["flagged"]]
            pv = rep["p_value_at_least_observed"]
            got = mp.mpf(pv["mantissa"]) * mp.power(10, pv["exponent10"])
            n_days = rep["n_days"]
            complete = True
        else:
            f = _fields(stdout)
            observed = int(f["observed_count"])
            got = f["p_value_at_least_observed"]
            n_days = int(f["n_days"])
            flagged = []
            for line in stdout.splitlines():
                parts = line.split()
                if line.startswith("  ") and len(parts) == 2:
                    flagged.append((parts[0], float(parts[1])))
            complete = False
            if exp["sure"] + exp["maybe"] >= 20 and len(flagged) != 20:
                return f"{len(flagged)} flagged days shown"
        if n_days != exp["n"]:
            return f"n_days {n_days}, expected {exp['n']}"
        if not exp["sure"] <= observed <= exp["sure"] + exp["maybe"]:
            return f"observed_count {observed}, expected {exp['sure']} (+{exp['maybe']} ambiguous)"
        if complete and len(flagged) != observed:
            return f"{len(flagged)} flagged days listed, observed_count {observed}"
        return _check_flags(exp, flagged, complete) or _check_p_value(exp, observed, got)
    except Exception as exc:
        return f"audit check raised {exc!r}"
