"""Centrally-private parallel quadrisection pricing policy.

Per context cube, the policy cycles a 5-point price grid and tracks, per
grid slot k, a privatized cumulative revenue r_{j,k} and customer count
mu_{j,k}, both released through binary-counter aggregators (one vector
aggregator of width J per slot and statistic, budget eps/2 each).  A release
is the exact running sum plus at most L+1 active Laplace rows: the textbook
counter's mechanism and draws with half its state.  The contribution vectors
are one-hot in the visited cube but *every* cube's aggregator is updated
every period, so an observer cannot tell which cube a customer fell into.
Epoch-differenced ratios r_hat/mu_hat estimate the revenue curve on the
grid; three increasing (decreasing) values trigger a left (right) cut of the
price interval.

Aggregator clocks are local: a slot-k aggregator ticks only on periods with
phase k, keeping its update indices contiguous, which the binary-counter
row retirement requires.

:meth:`CppqPolicy.play` runs a whole episode in bulk.  The tree noise does
not depend on the data, so each aggregator releases a block's offsets up
front (:meth:`TreeAggregator.noise_offsets`) and every cube advances from
cut to cut on blocks of ``BLOCK`` periods instead of T per-period calls.  It
makes the same releases from the same draws, so the central-DP statement is
unchanged; the per-period ``choose_price``/``update`` path stays the online
API and the reference the engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import UNIT_SCALE, HorizonConfig, Quadrisection, cube_index, gaps, phase_index
from .prng import RngStream
from .tree_agg import TreeAggregator

BLOCK = 100  # periods per block in play, a multiple of 5: (BLOCK, 2, 5, J) arrays, never (T, J)


@dataclass(frozen=True)
class CppqConfig(HorizonConfig):
    c1: float
    c1_prime: float
    c2: float
    preset: str = "custom"

    @classmethod
    def theorem(cls, T: int, eps: float, d: int = 2, J_request: int | None = None) -> "CppqConfig":
        """Parameter schedule from the regret guarantee."""
        log_term = math.log(2 * T**3)
        c2 = 0.0 if math.isinf(eps) else 76.0 / eps * log_term**2
        return cls._preset("theorem", T, eps, d, J_request, c1=math.sqrt(log_term),
                           c1_prime=4.0 * c2, c2=c2)

    @classmethod
    def experiment(cls, T: int, eps: float, d: int = 2, J_request: int | None = None) -> "CppqConfig":
        """Loose constants used for the desk-scale reproductions."""
        c2 = 0.0 if math.isinf(eps) else math.log(T) ** 2 / eps
        return cls._preset("experiment", T, eps, d, J_request,
                           c1=0.001 * math.sqrt(math.log(T)), c1_prime=0.01 * c2, c2=c2)


class CppqPolicy(Quadrisection):
    """Single-owner mutable policy state; one instance per replication."""

    S = 2  # released revenue r and count mu per slot

    def __init__(self, config: CppqConfig, env, stream: RngStream,
                 sensitivity_mode: str = UNIT_SCALE):
        super().__init__(config, env, sensitivity_mode)
        J = self.J
        eps_branch = config.eps / 2.0 if math.isfinite(config.eps) else math.inf
        self._reward_agg = [
            TreeAggregator(eps_branch, config.T, stream.child(f"reward/{k}"),
                           width=J, sensitivity=2.0 * self._revenue_bound)
            for k in range(5)]
        self._count_agg = [
            TreeAggregator(eps_branch, config.T, stream.child(f"count/{k}"),
                           width=J, sensitivity=2.0)
            for k in range(5)]
        self._u = np.zeros(J)
        self._v = np.zeros(J)

    choose_price = Quadrisection.choose_price

    def update(self, x, p: float, y: float, t: int, j: int | None = None) -> list:
        """Fold in one observation; returns any shrink events fired.

        ``j`` may carry a precomputed cube index for the same x (hot loop).
        """
        self._tick(t)
        j_t = cube_index(self.part, x) if j is None else j
        k = phase_index(t) - 1
        u, v = self._u, self._v
        u[j_t] = p * y
        v[j_t] = 1.0
        self._sums[0, k] = self._reward_agg[k].update(u)
        self._sums[1, k] = self._count_agg[k].update(v)
        u[j_t] = 0.0
        v[j_t] = 0.0
        return self._maybe_shrink(t)

    def _maybe_shrink(self, t: int) -> list:
        left, right = self._cut_flags(*self._since_cut())
        return self._cut(left, right, t)

    def _cut_flags(self, r_hat: np.ndarray, mu_hat: np.ndarray) -> tuple:
        """Left and right cut flags from since-cut revenue and count sums, each (5, ...).

        The one copy of the cut rule: :meth:`_maybe_shrink` applies it across
        cubes, :meth:`play` across the periods of a block and its cubes.
        """
        cfg = self.config
        # ratio estimates; invalid slots are masked by the count gate below
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(mu_hat > 0, r_hat / np.where(mu_hat > 0, mu_hat, 1.0), np.nan)
        mu13 = np.min(mu_hat[0:3], axis=0)
        mu35 = np.min(mu_hat[2:5], axis=0)
        gate13 = (mu13 >= cfg.c2) & (mu13 > 0)
        gate35 = (mu35 >= cfg.c2) & (mu35 > 0)
        with np.errstate(invalid="ignore"):
            left_gap, right_gap = gaps(q)
            left = gate13 & (left_gap > 3.0 * cfg.c1 / np.sqrt(np.maximum(mu13, 1e-300))
                             + 3.0 * cfg.c1_prime / np.maximum(mu13, 1e-300))
            right = gate35 & (right_gap > 3.0 * cfg.c1 / np.sqrt(np.maximum(mu35, 1e-300))
                              + 3.0 * cfg.c1_prime / np.maximum(mu35, 1e-300))
        return left, right

    def _play(self, js: np.ndarray, demand) -> np.ndarray:
        """Whole-episode engine behind :meth:`play`, in blocks of ``BLOCK`` periods.

        Each block first plays every cube at its block-start prices: the ten
        aggregators' noise offsets are forward-filled to every period, one
        in-place cumsum of the per-period increments, seeded with the
        carried totals, repeats the loop's additions, and the cut rule is
        evaluated at every period of every cube.  A cube that fires is cut
        through ``_cut`` at its first firing, and only its rest of the block
        is replayed at its new prices.
        """
        T = self.config.T
        prices = np.empty(T)
        for b0 in range(0, T, BLOCK):
            self._play_block(b0, min(BLOCK, T - b0), js, demand, prices)
        return prices

    def _play_block(self, b0: int, rows: int, js: np.ndarray, demand, prices: np.ndarray):
        """Play periods b0+1..b0+rows; b0 is a multiple of 5, so row r has slot r % 5."""
        r = np.arange(rows)
        aggs = (self._reward_agg, self._count_agg)
        # off[r, s, k]: statistic s, slot k's noise offset after row r; tot[r + 1]: its total
        off = np.empty((rows, self.S, 5, self.J))
        tot = np.zeros((rows + 1, self.S, 5, self.J))
        for s, stat in enumerate(aggs):
            for k, agg in enumerate(stat):
                tot[0, s, k] = agg.total
                off[:, s, k] = agg.noise_offsets((rows - k + 4) // 5)[(r - k) // 5 + 1]
        self._post(r, b0, js, demand, prices, tot)
        np.cumsum(tot, axis=0, out=tot)
        first, left, right = self._first_cuts(tot[1:], off, slice(None))
        for j in np.flatnonzero(first >= 0):
            cube = np.arange(self.J) == j
            start, f, left_j, right_j = 0, first[j], left[:, j], right[:, j]
            while f >= 0:
                at = start + int(f)
                self._sums[..., j] = tot[at + 1, ..., j] + off[at, ..., j]
                self._cut(cube & left_j[f], cube & right_j[f], b0 + at + 1)
                start = at + 1
                if start == rows:
                    break
                # replay cube j's rest of the block at its new prices
                tot[start + 1:, ..., j] = 0.0
                self._post(start + np.flatnonzero(js[b0 + start:b0 + rows] == j), b0, js, demand,
                           prices, tot)
                np.cumsum(tot[start:, ..., j], axis=0, out=tot[start:, ..., j])
                f, left_j, right_j = self._first_cuts(tot[start + 1:, ..., j],
                                                      off[start:, ..., j], j)
        self._sums[:] = tot[rows] + off[rows - 1]
        for s, stat in enumerate(aggs):
            for k, agg in enumerate(stat):
                agg.total[:] = tot[rows, s, k]

    def _post(self, r: np.ndarray, b0: int, js: np.ndarray, demand, prices: np.ndarray,
              tot: np.ndarray):
        """Post the current prices at block rows r; p*y and a count of 1 go into tot[r + 1]."""
        i = b0 + r
        j = js[i]
        slot = r % 5
        lo = self._lo[j]
        p = lo + slot / 4.0 * (self._hi[j] - lo)
        prices[i] = p
        tot[r + 1, 0, slot, j] = p * demand(i, p)
        tot[r + 1, 1, slot, j] = 1.0

    def _first_cuts(self, tot: np.ndarray, off: np.ndarray, cubes) -> tuple:
        """Each cube's first firing row (-1 if none) and the cut flags at every row.

        ``tot`` and ``off`` are (rows, S, 5, ...) totals and noise offsets of
        the cubes ``_snap[..., cubes]`` selects (a slice, or one index); a
        release is their sum, as in ``TreeAggregator.update``.
        """
        since = tot + off
        since -= self._snap[..., cubes]
        left, right = self._cut_flags(np.moveaxis(since[:, 0], 1, 0),
                                      np.moveaxis(since[:, 1], 1, 0))
        fired = left | right
        return np.where(fired.any(axis=0), fired.argmax(axis=0), -1), left, right
