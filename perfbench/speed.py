"""How fast the host runs Python at the moment, from a fixed job.

On a shared VM the same work takes up to 40% longer in some minutes than in
others.  The benchmark runs ``probe`` about once a second in its loop and
right before and after each set-up and import, and reports each time
scaled to a host on which the probe takes ``NOMINAL_S``: ``scale(t,
before, after, follow)``.  The probe is benchmark code that no change to
the package can touch.  It imports nothing, so that it can run in a fresh
process before the timed ``import sigmatail`` without loading any of the
modules that import would.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.065

# How much of the probe's swing a step's time follows.  On a shared 2-vCPU
# VM, over 36 samples in four minutes while the probe ranged over 43-80 ms,
# the slope of log(step time) on log(probe) was 0.97 for in-process tail
# queries, 0.56 for a fresh-process ``import sigmatail.cli`` and 0.64 for a
# rolling 1e6-row audit, which map and page in hundreds of MB.  Over 42
# more samples, scaling each import or audit by the power 0.4-0.6 of its
# neighbouring probes left the least spread; the full power over-corrected.
FOLLOW_CALLS = 1.0
FOLLOW_PAGING = 0.5
N = 30_000
KEYS = 10_007


def probe(rounds: int = 2) -> float:
    """Seconds per round of the fixed job, the best of ``rounds``: format
    and parse CSV-like lines into a dict and sort it, the kind of
    interpreter work a CSV load does.  It holds at most ``KEYS`` entries,
    so that it adds little to the peak RSS that the benchmark reports."""
    best = float("inf")
    for _ in range(rounds):
        t = time.perf_counter()
        index = {}
        for i in range(N):
            a, b = f"{i * 0.61803398875:.12g},{(i * 7919) % KEYS}".split(",")
            index[int(b)] = float(a)
        assert sorted(index.items())[-1][1] > 0
        best = min(best, time.perf_counter() - t)
    return best


def scale(seconds: float, before: float, after: float, follow: float) -> float:
    """``seconds`` as it would read on a host where the probe takes
    ``NOMINAL_S``, for a step between probes ``before`` and ``after`` whose
    time follows the probe's swing by the power ``follow``."""
    return seconds * (NOMINAL_S / ((before + after) / 2)) ** follow
