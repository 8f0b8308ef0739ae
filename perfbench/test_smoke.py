"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced.

    python3 -m pytest perfbench/test_smoke.py

Asserts that every metric BENCHMARK.json names is printed with its unit,
that the workloads' user-facing metrics are printed by name, that the
oracle checks ran, and that on the traced audits the layer self times plus
the uncovered remainder add up to the traced audit time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
USER_NAMED = {
    "cli-oneshot": ("cli_p50_ms", "cli_p90_ms"),
    "tail-sweep": ("tail_ops_per_s", "tail_p50_us", "tail_p99_us"),
    "audit-1m": ("audit_rolling_s", "audit_full_s"),
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def run_smoke(workload: str, trace: int):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _line(lines, prefix):
    return json.loads(next(ln for ln in lines if ln.startswith(prefix + " "))[len(prefix) + 1:])


def _assert_metrics(result, specs):
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced(workload):
    lines, result = run_smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    checks = _line(lines, "checks")
    assert checks["distinct_checked"] >= 1
    assert checks["attempted"] == result["attempted"]
    printed = {ln.split()[2]: ln.split()[4] for ln in lines if ln.startswith(f"metric {workload} ")}
    for name in ("setup_s", "import_ms", "failed_frac", "peak_rss_mb", *USER_NAMED[workload]):
        assert name in printed, name
    env = _line(lines, "env")
    for key in ("git_sha", "python", "numpy", "scipy", "nproc", "numba_present", "kernel_choice"):
        assert key in env, key
    assert _line(lines, "inputs")["workload"] == workload
    assert result["correct"] and result["failed"] == 0, checks["first_misses"]
    if workload == "tail-sweep":
        defects = _line(lines, "known_defects")
        assert set(defects) == {"student_t_tail", "binomial_tail_at_least"}
        assert all(d["probes"] > 0 for d in defects.values())
        assert "known_defect_misses" in printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload):
    lines, result = run_smoke(workload, 1)
    _assert_metrics(result, SPEC["per_layer"])
    assert _line(lines, "checks")["distinct_checked"] >= 1
    if workload == "cli-oneshot":
        assert any(ln.startswith("metric cli-oneshot cli_oneshot_p50_ms ") for ln in lines)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["import.modules_loaded"] > 0
    assert m["gauss.gauss_tail_calls"] > 0 and m["audit.rows"] > 0
    for style in ("rolling", "full"):
        total = m[f"trace.audit_{style}_s"]
        assert total > 0
        parts = [v for name, v in m.items() if name.startswith(f"trace.audit_{style}.")]
        assert sum(parts) == pytest.approx(total, rel=1e-9)
        split = _line(lines, "audit_split")[style]
        assert split["total"] == pytest.approx(total, rel=1e-9)
        assert sum(v for k, v in split.items() if k != "total") == pytest.approx(total, rel=1e-9)
    shares = [v for name, v in m.items() if name.startswith("trace.self_share.")]
    assert sum(shares) + m["trace.uncovered_share"] == pytest.approx(1.0, rel=1e-9)


def test_fails_without_package():
    """In a directory holding only the benchmark, it exits nonzero and
    prints no result."""
    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
