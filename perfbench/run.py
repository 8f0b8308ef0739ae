#!/usr/bin/env python3
"""The sigmatail benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is taken from ``src/`` (it
need not be installed).  Every workload is a closed loop with one client
that makes one call at a time, in this process, after the import:

* ``cli-oneshot``: ``cli.main`` over two rounds of the nine subcommands,
  each call with seeded arguments.  The traced run also times the first
  nine as fresh ``python -m sigmatail`` processes, the way the paper's
  figures are made.
* ``tail-sweep``: 4,002 distinct library tail queries.  The math
  modules with no process or I/O cost; forward (``gauss_tail``) and
  inverse (``sigma_for_period``) queries share gauss.
* ``audit-1m``: ``sigmatail audit`` through ``cli.main`` on a seeded
  1e6-row CSV, alternating (a) a rolling-window audit rendered as JSON,
  which runs the rolling kernel, and (b) a full-sample text audit, which
  bypasses it.

The loop repeats its slots (distinct calls) for ``--seconds`` and keeps the
median of each slot's times, each scaled to a nominal host speed by speed
probes taken about once a second (``speed.py``); the set-up and import
times are scaled the same way.  With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` the loop alternates untraced and
traced blocks (see ``tracer.py``) and the last line holds the per-layer
metrics.  Outputs are checked against ``oracle.py`` after the loop; a miss
counts as a failed call and never stops the run.  Earlier lines give each
metric under the name the workload's users know it by, the environment,
the measured properties of the inputs and the check results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from importlib import metadata, util
from pathlib import Path
from typing import NamedTuple

import inputs
import speed
import tracer
import traceview

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-oneshot", "tail-sweep", "audit-1m")
UNSET_VARS = ("SIGMATAIL_DAYS_PER_YEAR", "SIGMATAIL_KERNEL")
FRESH_SETUPS = 10         # set-up processes, each also an import_ms sample
IMPORT_SAMPLES = 5        # per side, for the traced run's import.* metrics
TRACE_BLOCK = 400
PROBE_EVERY_S = 1.0
WARM_UP_CALLS = 100
PY = sys.executable

END_TO_END_UNITS = {"setup_s": "s", "import_ms": "ms", "p50_ms": "ms", "ops_per_s": "1/s",
                    "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# environment and processes

def pin_environment() -> list[str]:
    """This process and its children see only this checkout's package, with
    the knobs that change results unset.  Returns the names removed."""
    removed = [v for v in UNSET_VARS if os.environ.pop(v, None) is not None]
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    return removed


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(removed: list[str]) -> dict:
    from sigmatail import _kernels

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"), "scipy": version("scipy"), "mpmath": version("mpmath"),
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "numba_present": util.find_spec("numba") is not None,
        "kernel_choice": _kernels.kernel_choice(),
        "unset_vars": removed,
    }


def run_child(argv: list[str], work: Path, tag: str) -> dict:
    """Run one process to completion: wall seconds, exit code, peak RSS in
    MB (from its own rusage) and its stdout."""
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"s": seconds, "rc": proc.returncode, "rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace")}


def run_helper(args: list[str], work: Path, tag: str) -> str:
    """Run this script in a child process for a helper job; its stdout."""
    res = run_child([PY, str(BENCH / "run.py"), *args], work, tag)
    if res["rc"] != 0:
        raise RuntimeError(f"{' '.join(args)} failed:\n{res['stderr'][-2000:]}")
    return res["stdout"]


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------
# slots: the distinct calls a loop repeats

class Capture:
    """A text stream that keeps what is written until ``keep`` is cleared,
    so that only a slot's first call is kept for the check."""

    def __init__(self, keep: bool = True):
        self.keep = keep
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        if self.keep:
            self.parts.append(text)
        return len(text)

    def flush(self):
        pass

    def text(self) -> str:
        return "".join(self.parts)


class Slot(NamedTuple):
    label: str            # query kind or subcommand
    style: str | None     # "rolling" or "full" for an audit
    mod: str
    attr: str
    args: tuple
    spec: object          # the generated query, or the argv
    out: Capture | None   # stdout of a CLI call


def style_of(argv: list[str]) -> str | None:
    if argv[0] != "audit":
        return None
    return "rolling" if "--window" in argv else "full"


def cli_slot(argv: list[str]) -> Slot:
    out = Capture()
    return Slot(argv[0], style_of(argv), "cli", "main", (argv, out, Capture(keep=False)),
                argv, out)


def tail_slots(queries, modules) -> list[Slot]:
    """lottery and compare queries get the result of a gauss_tail call."""
    from sigmatail.magnitude import Magnitude
    from sigmatail.studentt import TDistSpec

    gauss = modules["gauss"]
    slots = []
    for q in queries:
        kind = q[0]
        if kind == "gauss_tail":
            mod, args = "gauss", (q[1],)
        elif kind == "sigma_for_period":
            mod, args = "gauss", (Magnitude(q[1]),)
        elif kind == "student_t_tail":
            mod, args = "studentt", (q[2], TDistSpec(nu=q[1]))
        elif kind == "binomial_tail_at_least":
            mod, args = "audit", (q[1], q[2], Magnitude(q[3]))
        elif kind == "lottery_equivalent":
            mod, args = "scales", (gauss.gauss_tail(q[1]).probability,)
        else:
            mod, args = "scales", (gauss.gauss_tail(q[1]).occurrence_years,)
        slots.append(Slot(kind, None, mod, kind, args, q, None))
    return slots


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def build_slots(workload: str, seed: int, smoke: bool, work: Path, modules) -> list[Slot]:
    if workload == "tail-sweep":
        return tail_slots(inputs.tail_queries(seed, scale=0.02 if smoke else 1.0), modules)
    if workload == "cli-oneshot":
        return [cli_slot(argv) for argv in inputs.cli_commands(seed, rel(work / "small.csv"))]
    return [cli_slot(["audit", rel(work / "audit.csv"), *style])
            for style in (inputs.AUDIT_ROLLING, inputs.AUDIT_FULL)]


def warm_up_slots(workload: str, seed: int, smoke: bool, work: Path, modules) -> list[Slot]:
    """Calls made before timing and discarded: for audit-1m the two audits
    on the small CSV, otherwise the first slots themselves."""
    if workload == "audit-1m":
        return [cli_slot(["audit", rel(work / "small.csv"), *style])
                for style in (inputs.AUDIT_ROLLING, inputs.AUDIT_FULL)]
    return build_slots(workload, seed, smoke, work, modules)[:WARM_UP_CALLS]


def csv_rows(workload: str, smoke: bool) -> dict[str, int]:
    rows = {"small.csv": inputs.CLI_AUDIT_ROWS}
    if workload == "audit-1m":
        rows["audit.csv"] = 20_000 if smoke else inputs.AUDIT_1M_ROWS
    return rows


def make_inputs(workload: str, seed: int, smoke: bool, trace: bool, work: Path):
    """Write the CSVs in a child process, so this process imports numpy
    only through ``import sigmatail`` and its RSS is the program's.
    tail-sweep needs the small CSV only for the traced layer pass."""
    if workload == "tail-sweep" and not trace:
        return
    for name, rows in csv_rows(workload, smoke).items():
        run_helper(["--make-csv", str(work / name), "--seed", str(seed), "--rows", str(rows)],
                   work, f"make-{name}")


def timed_setup(workload: str, seed: int, smoke: bool, work: Path):
    """Import the package and make the warm-up calls.  Returns the set-up
    time, scaled by speed probes taken right before and after it
    (``speed.py``), the modules and the slots."""
    before = speed.probe()
    t0 = time.perf_counter()
    modules = tracer.package_modules()
    t1 = time.perf_counter()
    slots = build_slots(workload, seed, smoke, work, modules)
    warm = warm_up_slots(workload, seed, smoke, work, modules)
    t2 = time.perf_counter()
    for s in warm:
        getattr(modules[s.mod], s.attr)(*s.args)
    t3 = time.perf_counter()
    return (speed.scale((t1 - t0) + (t3 - t2), before, speed.probe(), speed.FOLLOW_PAGING),
            modules, slots)


# ---------------------------------------------------------------------------
# the loop

class Run:
    """What one workload run collects."""

    def __init__(self, workload: str, seed: int, trace: bool, smoke: bool, work: Path):
        self.workload, self.seed, self.trace, self.smoke, self.work = (
            workload, seed, trace, smoke, work)
        self.setup = []           # scaled seconds per set-up sample
        self.imports = []         # scaled seconds per fresh-process import sample
        self.slot_s = []          # median scaled seconds per slot
        self.raw_best = []        # best unscaled seconds per slot
        self.probes = []          # speed probes taken in the loop
        self.calls = 0            # calls made in the loop
        self.per_slot = 0         # calls of the least-called slot, per side
        self.overhead_pairs = []  # (untraced, traced) seconds of matched blocks
        self.wall = 0.0           # seconds the loop took
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.checked = 0          # distinct outputs checked
        self.misses = []          # reasons, one per distinct miss
        self.props = {}
        self.printed = []         # (name, value, unit) under users' names
        self.recorder = tracer.Recorder() if trace else None

    def check(self, reason, count: int):
        """Record one distinct output's check; the call ran ``count`` times."""
        self.checked += 1
        self.attempted += count
        if reason is not None:
            self.failed += count
            self.misses.append(reason)


def _resolve(modules, slots):
    return [(getattr(modules[s.mod], s.attr), s.args) for s in slots]


def _first(slot: Slot, result):
    if slot.out is not None:
        slot.out.keep = False
        return result, slot.out.text()
    return result, None


def timed_loop(run: Run, modules, slots: list[Slot], seconds: float) -> list[tuple]:
    """Repeat the slots for ``seconds`` and at least once each.  Untraced,
    probe the host's speed every ``PROBE_EVERY_S`` (and after any longer
    call), scale each call's time by the probes around it, and keep each
    slot's median scaled time; traced, alternate a block of untraced calls
    with the same block traced.  Returns each slot's first result."""
    n = len(slots)
    first = [None] * n
    t_start = time.perf_counter()
    deadline = t_start + seconds
    if not run.trace:
        follow = speed.FOLLOW_PAGING if run.workload == "audit-1m" else speed.FOLLOW_CALLS
        raw_best = [float("inf")] * n
        scaled = [array("d") for _ in range(n)]
        window = []               # (slot, seconds) since the last probe
        fns = _resolve(modules, slots)
        calls = 0
        run.probes.append(speed.probe())
        t = t_window = time.perf_counter()
        while calls < n or t < deadline:
            for j, (fn, args) in enumerate(fns):
                result = fn(*args)
                t2 = time.perf_counter()
                window.append((j, t2 - t))
                if first[j] is None:
                    first[j] = _first(slots[j], result)
                calls += 1
                done = t2 >= deadline and calls >= n
                if done or t2 - t_window >= PROBE_EVERY_S:
                    run.probes.append(speed.probe())
                    for k, x in window:
                        raw_best[k] = min(raw_best[k], x)
                        scaled[k].append(speed.scale(x, *run.probes[-2:], follow))
                    window.clear()
                    t2 = t_window = time.perf_counter()
                t = t2
                if done:
                    break
        run.raw_best = raw_best
        run.slot_s = [statistics.median(xs) for xs in scaled]
        run.calls, per_side = calls, calls
    else:
        rec = run.recorder
        block = min(TRACE_BLOCK, n)
        i = 0
        while i < n or time.perf_counter() < deadline:
            idx = [(i + k) % n for k in range(block)]
            fns = _resolve(modules, slots)
            t = time.perf_counter()
            for j in idx:
                fn, args = fns[j]
                result = fn(*args)
                if first[j] is None:
                    first[j] = _first(slots[j], result)
            untraced = time.perf_counter() - t
            uninstall = tracer.install(rec, modules)
            fns = _resolve(modules, slots)
            t = time.perf_counter()
            for j in idx:
                fn, args = fns[j]
                with rec.span("op", {"sub": slots[j].label, "style": slots[j].style,
                                     "pass": False}):
                    fn(*args)
            traced = time.perf_counter() - t
            uninstall()
            run.overhead_pairs.append((untraced, traced))
            i += block
        run.calls, per_side = 2 * i, i
    run.wall = time.perf_counter() - t_start
    run.peak_rss_mb = self_rss_mb()
    run.per_slot = per_side // n
    return [(r, per_side // n + (j < per_side % n)) for j, r in enumerate(first)]


# ---------------------------------------------------------------------------
# checks

class Expectations:
    """Audit expectations per (csv, style), computed on first use from the
    regenerated series (the CSV holds it exactly)."""

    def __init__(self, run: Run):
        self.run = run
        self.rows = csv_rows(run.workload, run.smoke)
        self.series = {}
        self.cache = {}

    def __call__(self, argv: list[str]):
        if argv[0] != "audit":
            return None
        name, style = Path(argv[1]).name, tuple(argv[2:])
        if (name, style) not in self.cache:
            import oracle

            if name not in self.series:
                self.series[name] = inputs.audit_series(self.run.seed, self.rows[name])
            self.cache[(name, style)] = oracle.audit_expectation(style, *self.series[name])
        return self.cache[(name, style)]


def check_slots(run: Run, slots: list[Slot], firsts: list[tuple], expect: Expectations):
    import oracle

    repeat = 2 if run.trace else 1
    for slot, ((result, text), count) in zip(slots, firsts):
        if slot.out is not None:
            reason = oracle.check_cli(slot.spec, result, text, expect(slot.spec))
            reason = reason and f"{' '.join(slot.spec)[:80]}: {reason}"
        else:
            reason = oracle.check_query(slot.spec, result, slot.args)
        run.check(reason, count * repeat)


def layer_pass(run: Run, modules, slots: list[Slot], expect: Expectations):
    """One traced call of each subcommand and audit style that the loop did
    not make, so that every layer's metrics are measured in every traced
    run."""
    import oracle

    seen = {s.style or s.label for s in slots}
    for argv in inputs.cli_commands(run.seed, rel(run.work / "small.csv")):
        slot = cli_slot(argv)
        if (slot.style or slot.label) in seen:
            continue
        seen.add(slot.style or slot.label)
        uninstall = tracer.install(run.recorder, modules)
        with run.recorder.span("op", {"sub": slot.label, "style": slot.style, "pass": True}):
            rc = modules["cli"].main(*slot.args)
        uninstall()
        run.check(oracle.check_cli(argv, rc, slot.out.text(), expect(argv)), 1)


def known_defects(run: Run, modules) -> dict:
    """Evaluate and check the queries in the regions of the package's known
    defects (``inputs.known_defect_queries``), untimed.  Their misses are
    reported on their own line, not in the run's failed count: the timed
    workloads are drawn from where the package holds its tolerances."""
    import oracle

    slots = tail_slots(inputs.known_defect_queries(run.seed, 0.1 if run.smoke else 1.0), modules)
    out = {}
    for slot in slots:
        result = getattr(modules[slot.mod], slot.attr)(*slot.args)
        reason = oracle.check_query(slot.spec, result, slot.args)
        entry = out.setdefault(slot.label, {"probes": 0, "missed": 0, "first_misses": []})
        entry["probes"] += 1
        if reason is not None:
            entry["missed"] += 1
            if len(entry["first_misses"]) < 3:
                entry["first_misses"].append(reason)
    return out


# ---------------------------------------------------------------------------
# input properties

def audit_props(run: Run, expect: Expectations, slots: list[Slot]) -> dict:
    props = {}
    for slot in slots:
        if slot.style is None:
            continue
        exp = expect(slot.spec)
        name = Path(slot.spec[1]).name
        props.setdefault(name, {"rows": exp["n"],
                                "csv_bytes": (run.work / name).stat().st_size})
        props[name][slot.style] = {
            "scored_share": exp["n_scored"] / exp["n"],
            "unscored_share": 1 - exp["n_scored"] / exp["n"],
            "flagged_share_of_scored": (exp["sure"] + exp["maybe"]) / max(exp["n_scored"], 1),
            "ambiguous_days": exp["maybe"]}
    return props


def kind_times(slots: list[Slot], slot_s: list[float]) -> dict:
    """Per query kind: its share of the sum of the slots' times (what
    ``ops_per_s`` weighs) and its median slot time.  The kind of the median
    slot says what ``p50_ms`` measures."""
    by_kind: dict[str, list[float]] = {}
    for slot, x in zip(slots, slot_s):
        by_kind.setdefault(slot.label, []).append(x)
    total = sum(slot_s)
    order = sorted(range(len(slot_s)), key=slot_s.__getitem__)
    return {"share_of_sum": {k: sum(v) / total for k, v in by_kind.items()},
            "median_us": {k: 1e6 * statistics.median(v) for k, v in by_kind.items()},
            "p50_slot_kind": slots[order[(len(order) - 1) // 2]].label}


def tail_props(slots: list[Slot], slot_s: list[float]) -> dict:
    import oracle

    queries = [s.spec for s in slots]
    kinds = Counter(q[0] for q in queries)
    gauss = [q for q in queries if q[0] == "gauss_tail"]
    ts = [q for q in queries if q[0] == "student_t_tail"]
    binom = [q for q in queries if q[0] == "binomial_tail_at_least"]
    head = sum(q[2] <= q[1] * 10.0 ** q[3] for q in binom)
    return {
        "distinct_queries": len(queries), "by_kind": dict(kinds),
        "gauss_asymptotic_share": sum(q[1] > 9.0 for q in gauss) / max(len(gauss), 1),
        "t_below_floor_share": sum(oracle.t_tail(q[2], q[1]) < oracle.FLOOR for q in ts)
        / max(len(ts), 1),
        "binomial_head_share": head / max(len(binom), 1),
        "binomial_direct_share": 1 - head / max(len(binom), 1),
        **(kind_times(slots, slot_s) if slot_s else {}),
    }


# ---------------------------------------------------------------------------
# metrics

def fresh_setups(run: Run):
    """More set-up samples, each in a fresh process.  Each process first
    times ``import sigmatail.cli`` with nothing else imported: what every
    ``sigmatail`` command pays before it starts, timed inside the process
    (so without interpreter start).  Then it makes the rest of the set-up as
    ``timed_setup`` does; its set-up sample is the two summed.  Both steps
    are scaled by speed probes taken around them."""
    code = (f"import sys; sys.path.append({str(BENCH)!r}); import time, speed; "
            "b = speed.probe(); t = time.perf_counter(); import sigmatail.cli; "
            "t = speed.scale(time.perf_counter() - t, b, speed.probe(), speed.FOLLOW_PAGING); "
            f"import run; s = run.timed_setup({run.workload!r}, {run.seed!r}, {run.smoke!r}, "
            f"run.Path({str(run.work)!r}))[0]; print(repr(t), repr(t + s))")
    for i in range(FRESH_SETUPS):
        res = run_child([PY, "-c", code], run.work, f"setup{i}")
        if res["rc"] != 0:
            raise RuntimeError(f"set-up process failed:\n{res['stderr'][-2000:]}")
        import_s, setup_s = map(float, res["stdout"].split())
        run.imports.append(import_s)
        run.setup.append(setup_s)


def end_to_end(run: Run) -> dict:
    """Quantiles of the slots' median scaled times (see ``timed_loop``).  On
    a shared 2-vCPU VM the host's speed swings by up to 40% within seconds
    and stays low for minutes at a time; neither a best-of nor an unscaled
    median came back the same run to run."""
    return {
        "setup_s": statistics.median(run.setup),
        "import_ms": 1e3 * statistics.median(run.imports),
        "p50_ms": 1e3 * quantile(run.slot_s, 0.5),
        "ops_per_s": len(run.slot_s) / sum(run.slot_s),
        "peak_rss_mb": run.peak_rss_mb,
    }


def user_named(run: Run, e2e: dict, slots: list[Slot]) -> list[tuple]:
    """The end-to-end metrics under the names each workload's users know."""
    times = run.slot_s
    rows = [("setup_s", e2e["setup_s"], "s"), ("import_ms", e2e["import_ms"], "ms"),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
            ("failed_frac", run.failed / max(run.attempted, 1), "frac"),
            ("calls", run.calls, "count"), ("slots", len(times), "count"),
            ("calls_per_slot", run.per_slot, "count"),
            ("completed_per_s", run.calls / run.wall, "1/s")]
    if run.workload == "cli-oneshot":
        rows += [("cli_p50_ms", e2e["p50_ms"], "ms"), ("cli_p90_ms", 1e3 * quantile(times, 0.9), "ms")]
    elif run.workload == "tail-sweep":
        rows += [("tail_ops_per_s", e2e["ops_per_s"], "1/s"),
                 ("tail_p50_us", 1e6 * quantile(times, 0.5), "us"),
                 ("tail_p99_us", 1e6 * quantile(times, 0.99), "us")]
    else:
        rows += [("audit_rolling_s", times[0], "s"), ("audit_full_s", times[1], "s")]
    # unscaled, to tell the host's speed from the program's
    rows += [("p50_best_unscaled_ms", 1e3 * quantile(run.raw_best, 0.5), "ms"),
             ("ops_per_s_best_unscaled", len(times) / sum(run.raw_best), "1/s"),
             ("speed_probes", len(run.probes), "count"),
             ("speed_probe_median_ms", 1e3 * statistics.median(run.probes), "ms")]
    return rows


def oneshot(run: Run, slots: list[Slot]) -> list[tuple]:
    """The first round's calls (one per subcommand) once each as a fresh
    ``python -m sigmatail`` process: process start and import included, as
    the paper's figures were made.  Nine calls give a median, not a p90.
    Printed by the traced run, which has no time budget to keep."""
    res = [run_child([PY, "-m", "sigmatail", *s.spec], run.work, f"oneshot{i}")
           for i, s in enumerate(slots[:len(inputs.CLI_SUBCOMMANDS)])]
    times = [r["s"] for r in res]
    return [("cli_oneshot_p50_ms", 1e3 * quantile(times, 0.5), "ms"),
            ("cli_oneshot_calls", len(res), "count"),
            ("cli_oneshot_peak_rss_mb", max(r["rss_mb"] for r in res), "MB"),
            ("cli_oneshot_failed", sum(r["rc"] != 0 for r in res), "count")]


def import_probe(work: Path) -> dict:
    """Fresh-process import cost: ``python -c pass`` against ``import
    sigmatail``, interleaved, and the number of modules the import loads."""
    interp, full = [], []
    for i in range(IMPORT_SAMPLES):
        interp.append(run_child([PY, "-c", "pass"], work, f"interp{i}")["s"])
        full.append(run_child([PY, "-c", "import sigmatail"], work, f"imp{i}")["s"])
    count = run_child([PY, "-c", "import sys; n = len(sys.modules); import sigmatail; "
                       "print(len(sys.modules) - n)"], work, "modules")
    return {"interp_s": statistics.median(interp),
            "import_s": statistics.median(full) - statistics.median(interp),
            "modules": int(count["stdout"].strip())}


# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    removed = pin_environment()
    work = BENCH / "_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, trace, smoke, work)
    try:
        make_inputs(workload, seed, smoke, trace, work)
        setup_s, modules, slots = timed_setup(workload, seed, smoke, work)
        run.setup.append(setup_s)
        firsts = timed_loop(run, modules, slots, seconds)
        expect = Expectations(run)
        check_slots(run, slots, firsts, expect)
        if workload == "tail-sweep":
            defects = known_defects(run, modules)
            print("known_defects " + json.dumps(defects, sort_keys=True))
            print(f"metric {workload} known_defect_misses "
                  f"{sum(d['missed'] for d in defects.values())} count")
        if trace:
            layer_pass(run, modules, slots, expect)
            if workload == "cli-oneshot":
                for name, value, unit in oneshot(run, slots):
                    print(f"metric {workload} {name} {value!r} {unit}")
            metrics = traceview.metrics(run.recorder.spans, run.overhead_pairs,
                                        import_probe(work))
            print("audit_split " + json.dumps(traceview.audit_split(run.recorder.spans)))
            out_dir = BENCH / "out"
            out_dir.mkdir(exist_ok=True)
            with open(out_dir / f"spans-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
                json.dump(run.recorder.spans, fh)
        else:
            fresh_setups(run)
            e2e = end_to_end(run)
            metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
            for name, value, unit in user_named(run, e2e, slots):
                print(f"metric {workload} {name} {value!r} {unit}")
        props = tail_props(slots, run.slot_s) if workload == "tail-sweep" else audit_props(run, expect, slots)
        print("env " + json.dumps(environment(removed), sort_keys=True))
        print("inputs " + json.dumps({"workload": workload, "seed": seed, **props},
                                     sort_keys=True))
        print("checks " + json.dumps({"distinct_checked": run.checked,
                                      "distinct_missed": len(run.misses),
                                      "attempted": run.attempted, "failed": run.failed,
                                      "first_misses": run.misses[:5]}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload in its own process; prints each one's output."""
    rc = 0
    for workload in WORKLOADS:
        argv = [PY, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        rc = rc or proc.returncode
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    # a helper job run in a child process
    ap.add_argument("--make-csv", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--rows", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "sigmatail" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'sigmatail'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.make_csv:
        inputs.write_audit_csv(args.make_csv, *inputs.audit_series(args.seed, args.rows))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.smoke)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
