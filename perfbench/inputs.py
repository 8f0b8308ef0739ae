"""Seeded inputs for every workload.

Query and command generators use only the standard library, so that the
process that times ``import sigmatail`` has not imported numpy first.  The
audit series generator imports numpy; the benchmark runs it in a child
process for the same reason.
"""

from __future__ import annotations

import math
import random

# Student-t degrees of freedom: heavy (2.5, 3), moderate (5, 30) and near
# Gaussian (200, 1e3).
T_NUS = (2.5, 3.0, 5.0, 30.0, 200.0, 1000.0)
T_K_RANGE = (0.5, 1e4)

# Known defects of the package, kept out of the timed workloads (on which no
# call may fail) and probed apart by ``known_defect_queries``:
#
# * Beyond the betainc floor (a tail below 1e-280) student_t_tail hands off
#   to a power law that holds only for nu up to ~60.  For nu = 200 and 1000
#   the timed queries stop ten orders short of the floor: the true tail is
#   1e-270 at k = 309.1 and 49.3 (mpmath, 60 digits).
# * binomial_tail_at_least on the direct-sum branch loses up to ~3e-15 * n
#   relative to log-gamma rounding, past its stated 1e-9 from n ~ 4e5.
#   Timed direct-branch queries keep n <= 1e5 (at most 3e-10 measured).
T_K_MAX = {200.0: 300.0, 1000.0: 48.0}
BINOMIAL_DIRECT_N_MAX = 100_000
BINOMIAL_N_RANGE = (250, 1_000_000)
KNOWN_DEFECT_PROBES = 40    # per defect

# tail-sweep query kinds, with the same number of distinct queries each: no
# record of real query traffic exists to weight them by.  Per call,
# binomial_tail_at_least and sigma_for_period cost 10-40x the others, so they
# dominate the sum of the loop's times (the run prints each kind's share).
TAIL_KINDS = ("gauss_tail", "sigma_for_period", "student_t_tail", "binomial_tail_at_least",
              "lottery_equivalent", "compare_to_references")
TAIL_PER_KIND = 667

CLI_SUBCOMMANDS = ("prob", "table", "occurrence", "streak", "lottery",
                   "invert", "context", "ttail", "audit")
TABLE_FORMATS = ("text", "csv", "md", "json")

# audit argument styles: (a) runs the rolling kernel and renders every
# flagged day as JSON; (b) is a full-sample audit that skips the kernel and
# renders about 20 text lines.
AUDIT_ROLLING = ("--window", "250", "--threshold", "2", "--side", "both", "--format", "json")
AUDIT_FULL = ("--threshold", "4", "--side", "loss")

CLI_AUDIT_ROWS = 2500      # about ten trading years
AUDIT_1M_ROWS = 1_000_000


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_gauss_k(rng: random.Random) -> float:
    """Half log-uniform over the whole range [0.1, 1e6] (both paths, every
    series length), half on [8, 40] where the paper's figures sit."""
    if rng.random() < 0.5:
        return log_uniform(rng, 0.1, 1e6)
    return rng.uniform(8.0, 40.0)


def draw_t(rng: random.Random) -> tuple[float, float]:
    nu = rng.choice(T_NUS)
    return nu, log_uniform(rng, T_K_RANGE[0], T_K_MAX.get(nu, T_K_RANGE[1]))


def draw_log10_years(rng: random.Random) -> float:
    """log10 of a period of 10**U(0, 1e5) years."""
    return rng.uniform(0.0, 1e5)


def draw_binomial(rng: random.Random, branch: str) -> tuple[int, int, float]:
    """(n, m, log10 p) landing on the requested branch of
    ``binomial_tail_at_least``: "head" (m <= n p, summed as the complement of
    the head) or "direct" (m > n p, summed upward from m)."""
    lo, hi = BINOMIAL_N_RANGE
    n = round(log_uniform(rng, lo, hi if branch == "head" else BINOMIAL_DIRECT_N_MAX))
    return _binomial_at(rng, branch, n)


def _binomial_at(rng: random.Random, branch: str, n: int) -> tuple[int, int, float]:
    if branch == "head":
        # n p between 10 and min(n/100, 1e4), so the head has terms to sum
        mean = log_uniform(rng, 10.0, max(10.0, min(n * 1e-2, 1e4)))
        log10_p = math.log10(mean / n)
        m = max(1, math.floor(mean * rng.uniform(0.3, 0.95)))
    else:
        log10_p = rng.uniform(-300.0, -2.0)
        mean = n * 10.0 ** log10_p
        m = min(n, max(1, math.ceil(mean * rng.uniform(1.5, 4.0))) + rng.randrange(3))
    return n, m, log10_p


def tail_queries(seed: int, scale: float = 1.0) -> list[tuple]:
    """The distinct tail-sweep queries as plain tuples ``(kind, *params)``.

    lottery_equivalent and compare_to_references take the results of
    gauss_tail draws; they carry the k and are materialised once the
    package is imported."""
    rng = random.Random(f"tail-sweep/{seed}")
    out = []
    for kind in TAIL_KINDS:
        for i in range(max(2, round(TAIL_PER_KIND * scale))):
            if kind == "gauss_tail":
                out.append((kind, draw_gauss_k(rng)))
            elif kind == "sigma_for_period":
                out.append((kind, draw_log10_years(rng)))
            elif kind == "student_t_tail":
                out.append((kind, *draw_t(rng)))
            elif kind == "binomial_tail_at_least":
                out.append((kind, *draw_binomial(rng, "head" if i % 2 else "direct")))
            else:
                out.append((kind, draw_gauss_k(rng)))
    rng.shuffle(out)
    return out


def known_defect_queries(seed: int, scale: float = 1.0) -> list[tuple]:
    """Tail queries in the regions of the known defects (see ``T_K_MAX``),
    in the tail-sweep tuple form: Student-t beyond the floor for nu = 200
    and 1000, and direct-branch binomial tails with n in (1e5, 1e6]."""
    rng = random.Random(f"known-defects/{seed}")
    count = max(2, round(KNOWN_DEFECT_PROBES * scale))
    out = []
    for _ in range(count):
        nu = rng.choice(tuple(T_K_MAX))
        out.append(("student_t_tail", nu, log_uniform(rng, T_K_MAX[nu], T_K_RANGE[1])))
    for _ in range(count):
        n = round(log_uniform(rng, BINOMIAL_DIRECT_N_MAX, BINOMIAL_N_RANGE[1]))
        out.append(("binomial_tail_at_least", *_binomial_at(rng, "direct", n)))
    return out


def _sci_text(rng: random.Random, max_exp: int) -> str:
    """A probability or period written as scientific text, possibly far
    outside double range."""
    return f"{rng.uniform(1.0, 9.999):.3f}e-{rng.randrange(1, max_exp)}"


def cli_commands(seed: int, audit_csv: str) -> list[list[str]]:
    """argv lists for ``sigmatail``: two rounds of the nine subcommands, each
    call with its own seeded arguments, each round in a seeded order.  The
    first round audits with the rolling style and the second with the full
    style; table's format (text, csv, md, json) moves on by one per round,
    so successive seeds cycle through all four."""
    rng = random.Random(f"cli-oneshot/{seed}")
    cmds = []
    for r in range(2):
        order = list(CLI_SUBCOMMANDS)
        rng.shuffle(order)
        cmds += [_cli_argv(rng, sub, audit_csv, TABLE_FORMATS[(2 * seed + r) % len(TABLE_FORMATS)],
                           AUDIT_ROLLING if r == 0 else AUDIT_FULL) for sub in order]
    return cmds


def _cli_argv(rng: random.Random, sub: str, audit_csv: str, table_format: str,
              audit_style: tuple) -> list[str]:
    if sub == "prob":
        return ["prob", repr(draw_gauss_k(rng))]
    if sub == "table":
        ks = [draw_gauss_k(rng) for _ in range(rng.randint(5, 10))]
        return ["table", "--ks", ",".join(repr(k) for k in ks), "--format", table_format]
    if sub == "occurrence":
        return ["occurrence", "--p", _sci_text(rng, 400)]
    if sub == "streak":
        return ["streak", repr(rng.uniform(0.5, 40.0)), "--days", str(rng.randint(2, 5))]
    if sub == "lottery":
        return ["lottery", "--p", _sci_text(rng, 400)]
    if sub == "invert":
        return ["invert", "--years", f"1e+{rng.randrange(0, 100000)}"]
    if sub == "context":
        argv = ["context", repr(draw_gauss_k(rng))]
        if rng.random() < 0.5:
            argv += ["--baseline-years", "1e5"]
        return argv
    if sub == "ttail":
        nu, k = draw_t(rng)
        return ["ttail", repr(k), "--nu", repr(nu), "--standardized"]
    return ["audit", audit_csv, *audit_style]


def audit_series(seed: int, rows: int):
    """(first date as datetime64[D], values) of a daily P&L-like series.

    Student-t(4) innovations, unit variance, scaled by GARCH(1,1)-style
    clustered volatility, with one crisis regime where volatility is 10x.
    Dates are consecutive calendar days."""
    import numpy as np

    rng = np.random.default_rng([seed, rows])
    z = rng.standard_t(4, rows) / math.sqrt(2.0)
    omega, alpha, beta = 2e-6, 0.08, 0.90
    var = omega / (1.0 - alpha - beta)
    sig = np.empty(rows)
    zz = z.tolist()
    for i in range(rows):
        sig[i] = math.sqrt(var)
        var = omega + alpha * var * zz[i] * zz[i] + beta * var
    start = int(rng.integers(rows // 4, rows // 2))
    length = max(rows // 50, 30)
    sig[start:start + length] *= 10.0
    values = 2e-4 + sig * z
    first = np.datetime64("1970-01-01") + int(rng.integers(0, 3650))
    return first, values


def write_audit_csv(path, first, values) -> int:
    """Write the ``date,value`` CSV; values round-trip exactly.  Returns the
    file size in bytes."""
    import numpy as np

    dates = (first + np.arange(values.size)).astype(str).tolist()
    chunk = 100_000
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,value\n")
        vals = values.tolist()
        for lo in range(0, len(vals), chunk):
            fh.write("".join(f"{d},{v!r}\n" for d, v in zip(dates[lo:lo + chunk], vals[lo:lo + chunk])))
        return fh.tell()
