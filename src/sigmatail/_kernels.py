"""Rolling-moment kernel for series auditing.

Trailing-window mean and stdev over a daily series, from windowed sums.
The series is cut into blocks of ``window`` values, so the window starting
at ``s = B*window + r`` is the suffix of block B from r plus the prefix of
block B+1 before r.  Each sum adds at most ``window`` terms, and its
rounding error grows with the window, not with the length of the series
(the blocked form of Chan, Golub & LeVeque, 1983, on updating variance).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def kernel_choice() -> str:
    """Name of the rolling-moment kernel."""
    return "numpy-blocked"


def _window_sums(blocks: np.ndarray) -> np.ndarray:
    """Sums of every ``w``-wide window that starts in one of the first
    ``nb`` rows of ``blocks`` (shape ``(nb + 1, w)``), flattened."""
    sums = np.empty((blocks.shape[0] - 1, blocks.shape[1]))
    # suffix sums as a reversed cumsum: a block total minus a prefix would
    # cancel large values that sit in the same block but outside the window
    np.cumsum(blocks[:-1, ::-1], axis=1, out=sums[:, ::-1])
    sums[:, 1:] += np.cumsum(blocks[1:, :-1], axis=1)
    return sums.ravel()


def rolling_moments(values, window: int):
    """Trailing-window mean and Bessel-corrected stdev per position.

    Position t describes values[t-window:t]; the first ``window`` entries
    are NaN.  Callers should center ``values`` first if the data has a large
    offset (the kernel sums raw squares)."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    w = int(window)
    if w < 2:
        raise DomainError("window must be at least 2")
    n = x.size
    means = np.full(n, np.nan)
    stds = np.full(n, np.nan)
    if n <= w:
        return means, stds
    nb = -(-(n - w) // w)  # blocks in which a window starts
    blocks = np.zeros((nb + 1) * w)
    blocks[:n] = x
    blocks = blocks.reshape(nb + 1, w)
    m = means[w:]
    np.divide(_window_sums(blocks)[: n - w], w, out=m)
    blocks *= blocks
    v = (_window_sums(blocks)[: n - w] - w * m * m) / (w - 1)
    stds[w:] = np.sqrt(np.maximum(v, 0.0))
    return means, stds
