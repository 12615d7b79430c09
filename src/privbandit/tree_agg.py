"""Binary-counter noisy prefix sums (tree-based aggregation).

Each release is the exact running sum plus at most L+1 = floor(log2 T)+1
active Laplace rows, one per set bit of the local update counter n.  Update
n (lowest set bit lmin) retires the rows below lmin and draws a fresh row at
lmin, so no update is ever covered by more than L+1 rows - which is what
makes the per-stream budget split eps' = eps / (L+1) compose to eps.  This
is the textbook counter with the same draws and half its state.

The rule is written once, in :func:`noise_offsets`.  An aggregator can be
vector-valued (``width`` > 1): one update then carries a length-``width``
contribution vector and the machinery runs element-wise, exactly as
``width`` scalar aggregators sharing one update clock.
"""

from __future__ import annotations

import math

import numpy as np

from .prng import RngStream, laplace_from_uniform


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
        accept shape-(width,) arrays and return a fresh release array: the
        running sum plus the one offset of :func:`noise_offsets`.  A wrong
        shape, or an update past capacity, raises and changes nothing.
        """
        u = np.asarray(u, dtype=float).reshape(self.width)
        off = noise_offsets([self], [1])
        self.total += u
        released = self.total.copy() if off is None else self.total + off[1, 0]
        return float(released[0]) if self.width == 1 else released


def noise_offsets(aggs: list, counts: list) -> np.ndarray | None:
    """Noise offsets of the next ``counts[a]`` releases of each aggregator ``aggs[a]``.

    The aggregators must share n, L, width and whether noise is on.  Row i
    of ``result[:, a]`` (shape (max(counts)+1, len(aggs), width)) is the
    offset update n+i adds to aggregator a's running sum, row 0 the one
    now; rows past ``counts[a]`` are unused.  Afterwards each ``n`` and
    ``noise`` is as ``counts[a]`` updates leave it; ``total`` is the
    caller's.  Each aggregator's uniforms come from one (counts[a], width)
    draw of its own stream, and the drawn rows of all of them, and only
    those, go through one Laplace transform at each row's own scale:
    elementwise, so each stream's rows have the bits of ``counts[a]``
    Laplace draws of one row.  A wrong stack, or counts past an
    aggregator's capacity, raise before anything changes.

    The noise table is row-major, (L+2+max(counts), len(aggs), width):
    each row holds one level row of every aggregator side by side, so one
    gather with one (max(counts)+1, L+1) index serves all of them and
    copies whole rows.  Each offset is one reduction over all L+1 levels,
    which numpy adds one at a time, 0 to L, for width >= 2.  At width 1 the
    counter has always summed its one column's levels pairwise (from eight
    levels on), which a reduction over a non-innermost axis would not
    repeat, so there the levels are moved innermost first.  Every offset is
    summed, also where no cut rule reads it: cppq's rule reads revenue
    offsets only where its count gate opens, but summing only those
    measured no faster.  With noise off there are no offsets and the result
    is None.
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
    table = np.zeros((L1 + 1 + top, len(aggs), width))
    for k, a in enumerate(aggs):
        table[:L1, k] = a.noise
    # the drawn rows only, in aggregator order, through one transform; unused rows stay zero
    drawn = np.arange(top) < np.array(counts)[:, None]
    u = np.concatenate([a._stream.unit((cnt, width)) for a, cnt in zip(aggs, counts)])
    if not u.all():  # one check for all: a stream with an exact 0 draws it again
        for a, own in zip(aggs, np.split(u, np.cumsum(counts)[:-1])):
            a._stream.redraw_zeros(own)
    scale = np.repeat([a.noise_scale for a in aggs], counts)[:, None]
    table[L1 + 1:].transpose(1, 0, 2)[drawn] = laplace_from_uniform(u, scale)
    gathered = table[np.where(high & 1, np.where(src > n0, L1 + src - n0, levels), L1)]
    for k, (a, cnt) in enumerate(zip(aggs, counts)):
        a.noise[:] = gathered[cnt, :, k]
    if width == 1:
        return np.ascontiguousarray(gathered.transpose(0, 2, 3, 1)).sum(axis=3)
    return gathered.sum(axis=1)
