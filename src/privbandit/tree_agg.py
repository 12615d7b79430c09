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

    def noise_offsets(self, cnt: int) -> np.ndarray:
        """Noise offsets of the current release and the next ``cnt``, shape (cnt+1, width).

        Row 0 is the offset now and row i the one update n+i adds to the
        running sum.  Afterwards ``n`` and ``noise`` are as ``cnt`` updates
        leave them; ``total`` is the caller's.  The rows come from one
        (cnt, width) draw, the same bits as ``cnt`` draws of one row, and
        each offset is one reduction over all L+1 levels, as in ``update``:
        for width 1 numpy sums eight or more levels pairwise, so adding them
        one at a time would not give the same bits.
        """
        if self.n + cnt > self.capacity:
            raise CapacityError(f"aggregator capacity {self.capacity} exhausted")
        n0 = self.n
        self.n += cnt
        if not self.noise_enabled:
            return np.zeros((cnt + 1, self.width))
        L1 = self.L + 1
        levels = np.arange(L1)
        high = (n0 + np.arange(cnt + 1))[:, None] >> levels
        # level l after update m holds the row drawn at update (m >> l) << l if bit l is set
        src = high << levels
        # table rows: the carried levels, a zero row, then the rows of updates n0+1..n0+cnt
        table = np.concatenate([self.noise, np.zeros((1, self.width)),
                                self._stream.laplace(self.noise_scale, size=(cnt, self.width))])
        rows = table[np.where(high & 1, np.where(src > n0, L1 + src - n0, levels), L1)]
        self.noise[:] = rows[-1]
        return rows.sum(axis=1)
