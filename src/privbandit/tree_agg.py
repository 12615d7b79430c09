"""Binary-counter noisy prefix sums (tree-based aggregation).

Releases a privatized running sum of a stream of updates.  Internally the
history is folded into at most L+1 = floor(log2 T)+1 partial sums: the
partial at level l, when active, covers a contiguous block of 2^l updates.
Each release is the sum of the noisy partials selected by the binary digits
of the local update counter, so any single update ever touches at most L+1
stored partials - which is what makes the per-stream privacy budget split
eps' = eps / (L+1) compose to eps.

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
        self.alpha = np.zeros((self.L + 1, self.width))
        self.alpha_hat = np.zeros((self.L + 1, self.width))

    def update(self, u):
        """Fold in one update and return the released running sum.

        Scalar aggregators accept and return floats; vector aggregators
        accept shape-(width,) arrays and return a fresh release array.
        """
        if self.n >= self.capacity:
            raise CapacityError(f"aggregator capacity {self.capacity} exhausted")
        u = np.asarray(u, dtype=float).reshape(self.width)
        self.n += 1
        lmin = (self.n & -self.n).bit_length() - 1  # lowest set bit of n
        self.alpha[lmin] = self.alpha[:lmin].sum(axis=0) + u
        if lmin > 0:
            self.alpha[:lmin] = 0.0
            self.alpha_hat[:lmin] = 0.0
        if self.noise_enabled:
            self.alpha_hat[lmin] = self.alpha[lmin] + self._stream.laplace(
                self.noise_scale, size=self.width)
        else:
            self.alpha_hat[lmin] = self.alpha[lmin]
        released = np.zeros(self.width)
        bits = self.n
        level = 0
        while bits:
            if bits & 1:
                released += self.alpha_hat[level]
            bits >>= 1
            level += 1
        if self.width == 1:
            return float(released[0])
        return released
