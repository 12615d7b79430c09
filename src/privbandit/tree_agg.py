"""Binary-counter noisy prefix sums (tree-based aggregation).

Each release is the exact running sum plus at most L+1 = floor(log2 T)+1
active Laplace rows, one per set bit of the local update counter n.  Update
n (lowest set bit lmin) retires the rows below lmin and draws a fresh row at
lmin, so no update is ever covered by more than L+1 rows - which is what
makes the per-stream budget split eps' = eps / (L+1) compose to eps.  This
is the textbook counter with the same draws and half its state.

An aggregator can be vector-valued (``width`` > 1): one update then carries
a length-``width`` contribution vector and the machinery runs element-wise,
exactly as ``width`` scalar aggregators sharing one update clock.
"""

from __future__ import annotations

import math

import numpy as np

from .prng import RngStream


class CapacityError(RuntimeError):
    """Raised when more than T updates are pushed into one aggregator."""


class TreeAggregator:
    """Noisy binary counter over at most ``capacity`` updates.

    Parameters
    ----------
    eps_branch:
        Privacy budget of this counter; ``math.inf`` disables noise, in
        which case releases are exact prefix sums (used by the non-private
        baseline and by oracle tests).
    capacity:
        Horizon T; fixes L = floor(log2 T) and the per-level noise scale
        sensitivity * (L+1) / eps_branch.
    stream:
        Noise source; may be None when noise is disabled.
    width:
        Number of parallel components per update (default 1, scalar mode).
    sensitivity:
        l1-sensitivity of one update (2 for one-hot contributions bounded
        by 1; scaled up in sensitivity-correct mode).
    """

    def __init__(self, eps_branch: float, capacity: int, stream: RngStream | None = None,
                 width: int = 1, sensitivity: float = 2.0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not eps_branch > 0:
            raise ValueError(f"privacy budget must be positive, got {eps_branch}")
        self.capacity = int(capacity)
        self.eps_branch = float(eps_branch)
        self.L = int(math.floor(math.log2(self.capacity)))
        self.noise_enabled = math.isfinite(eps_branch)
        if self.noise_enabled:
            # eps' = eps_branch / (L+1) per level, Lap(sensitivity / eps')
            self.noise_scale = sensitivity * (self.L + 1) / self.eps_branch
            if stream is None:
                raise ValueError("a noise stream is required when eps_branch is finite")
        else:
            self.noise_scale = 0.0
        self.width = int(width)
        self._stream = stream
        self.n = 0
        self.total = np.zeros(self.width)
        # one Laplace row per level; rows of the unset bits of n are zero
        self.noise = np.zeros((self.L + 1, self.width))

    def update(self, u):
        """Fold in one update and return the released running sum.

        Scalar aggregators accept and return floats; vector aggregators
        accept shape-(width,) arrays and return a fresh release array.
        """
        if self.n >= self.capacity:
            raise CapacityError(f"aggregator capacity {self.capacity} exhausted")
        self.total += np.asarray(u, dtype=float).reshape(self.width)
        self.n += 1
        if self.noise_enabled:
            lmin = (self.n & -self.n).bit_length() - 1  # lowest set bit of n
            self.noise[:lmin] = 0.0
            self.noise[lmin] = self._stream.laplace(self.noise_scale, size=self.width)
            released = self.total + self.noise.sum(axis=0)
        else:
            released = self.total.copy()
        if self.width == 1:
            return float(released[0])
        return released


def noise_offsets(aggs: list, counts: list) -> np.ndarray | None:
    """Noise offsets of the next ``counts[a]`` releases of each aggregator ``aggs[a]``.

    The aggregators must share n, L, width and whether noise is on.  Row i
    of ``result[a]`` (shape (max(counts)+1, width)) is the offset update
    n+i adds to aggregator a's running sum, row 0 the one now; rows past
    ``counts[a]`` are unused.  Afterwards each ``n`` and ``noise`` is as
    ``counts[a]`` updates leave it; ``total`` is the caller's.  Each
    aggregator's rows come from one (counts[a], width) draw of its own
    stream, the same bits as ``counts[a]`` draws of one row, and one index
    table and one gather serve all of them.  Each offset is one reduction
    over all L+1 levels, as in ``update``: for width 1 numpy sums eight or
    more levels pairwise, so adding them one at a time would not give the
    same bits.  With noise off there are no offsets and the result is None.
    """
    first = aggs[0]
    n0, L1, width = first.n, first.L + 1, first.width
    if any((a.n, a.L, a.width, a.noise_enabled) != (n0, first.L, width, first.noise_enabled)
           for a in aggs):
        raise ValueError("stacked aggregators must share n, L, width and noise")
    if any(n0 + cnt > a.capacity for a, cnt in zip(aggs, counts)):
        raise CapacityError(f"aggregator capacity {first.capacity} exhausted")
    for a, cnt in zip(aggs, counts):
        a.n += cnt
    if not first.noise_enabled:
        return None
    top = max(counts)
    levels = np.arange(L1)
    high = (n0 + np.arange(top + 1))[:, None] >> levels
    # level l after update m holds the row drawn at update (m >> l) << l if bit l is set
    src = high << levels
    # table rows: the carried levels, a zero row, then the rows of updates n0+1..n0+top
    table = np.zeros((len(aggs), L1 + 1 + top, width))
    for a, cnt, rows in zip(aggs, counts, table):
        rows[:L1] = a.noise
        rows[L1 + 1:L1 + 1 + cnt] = a._stream.laplace(a.noise_scale, size=(cnt, width))
    # all-advanced indexing keeps the result C-ordered, so each level sum runs as in update
    gathered = table[np.arange(len(aggs))[:, None, None],
                     np.where(high & 1, np.where(src > n0, L1 + src - n0, levels), L1)]
    for a, cnt, rows in zip(aggs, counts, gathered):
        a.noise[:] = rows[cnt]
    return gathered.sum(axis=2)
