"""Rolling-moment kernel for series auditing.

Trailing-window mean and stdev over a daily series, from windowed sums.
The series is cut into blocks of ``window`` values, so the window starting
at ``s = B*window + r`` is the suffix of block B from r plus the prefix of
block B+1 before r.  Each sum adds at most ``window`` terms, and its
rounding error grows with the window, not with the length of the series
(the blocked form of Chan, Golub & LeVeque, 1983, on updating variance).
"""

import math

import numpy as np


def kernel_choice() -> str:
    """Name of the rolling-moment kernel."""
    return "numpy-blocked"


def square_scale(x: np.ndarray, terms: int) -> float:
    """The largest power of two by which x may be scaled so that no sum of
    ``terms`` squares of differences of its values overflows.  Scaling by a
    power of two commutes with rounding, so scaled sums keep the bits of
    unscaled ones, without their under- or overflow.  Values whose
    magnitudes span more than ~2**1000 within one series are still out of
    reach: the squares of the smallest ones underflow."""
    e = math.frexp(max(x.max(), -x.min()))[1]  # each |difference| < 2**(e + 1)
    return math.ldexp(1.0, min((1021 - terms.bit_length()) // 2 - e, 1023))


def _window_sums(blocks: np.ndarray, out: np.ndarray, prefix: np.ndarray) -> None:
    """Write into ``out`` (shape ``(nb, w)``) the sums of every ``w``-wide
    window that starts in one of the first ``nb`` rows of ``blocks`` (shape
    ``(nb + 1, w)``), row by row; ``prefix`` (shape ``(nb, w - 1)``) holds
    the prefix sums on the way, and may be ``blocks[1:, :-1]`` itself."""
    # suffix sums as a reversed cumsum: a block total minus a prefix would
    # cancel large values that sit in the same block but outside the window
    np.cumsum(blocks[:-1, ::-1], axis=1, out=out[:, ::-1])
    np.cumsum(blocks[1:, :-1], axis=1, out=prefix)
    out[:, 1:] += prefix


def rolling_moments(x: np.ndarray, w: int):
    """Trailing-window mean and Bessel-corrected stdev per position.

    Position t describes x[t-w:t]; the first ``w`` entries are NaN.  The
    kernel sums squares of the values less the mean of the first window:
    that centre conditions the sums of data with a large offset, and no past
    window depends on a later value through it.  It is taken, as every sum
    is, on the values scaled by ``square_scale(x, w)``, so tiny or huge
    values keep their moments.  Its one caller, estimate_moments, checks w
    and passes a Series column: contiguous float64."""
    n = x.size
    if n <= w:
        return np.full(n, np.nan), np.full(n, np.nan)
    nb = -(-(n - w) // w)  # blocks in which a window starts
    blocks = np.empty((nb + 1) * w)
    scale = square_scale(x, w)
    np.multiply(x, scale, out=blocks[:n])
    center = float(np.mean(blocks[:w]))
    blocks[:n] -= center
    blocks[n:] = 0.0
    blocks = blocks.reshape(nb + 1, w)
    # Both outputs are written in place: the window that starts at s goes
    # to position w + s, and those that run past the series to beyond n.
    means = np.empty((nb + 1) * w)
    stds = np.empty((nb + 1) * w)
    means[:w] = stds[:w] = np.nan
    m, v = means[w:n], stds[w:n]
    # the prefix sums of the values go where the stds are written next, and
    # those of the squares over the squares, which are read before
    _window_sums(blocks, means[w:].reshape(nb, w), stds[w:].reshape(nb, w)[:, 1:])
    m /= w
    blocks *= blocks
    _window_sums(blocks, stds[w:].reshape(nb, w), blocks[1:, :-1])
    # v = (sum of squares - w m m) / (w - 1), floored at 0 against rounding;
    # w m m goes over the blocks, which are not read again
    wmm = np.multiply(m, w, out=blocks.ravel()[: n - w])
    wmm *= m
    v -= wmm
    v /= w - 1
    np.maximum(v, 0.0, out=v)
    np.sqrt(v, out=v)
    v /= scale
    m += center
    m /= scale
    return means[:n], stds[:n]
