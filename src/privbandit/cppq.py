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

Episodes run through the block engine :meth:`Quadrisection.play`.  The
tree noise does not depend on the data, so the ten aggregators release a
block's noise offsets up front (:func:`tree_agg.noise_offsets`); this
policy supplies them with the exact totals, adds each visit's count, and
owns the cut rule.  The engine makes the same releases from the same
draws, so the central-DP statement is unchanged; the per-period
``choose_price``/``update`` path stays the online API and the reference the
engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import UNIT_SCALE, HorizonConfig, Quadrisection, cube_index, gaps, phase_index
from .prng import RngStream
from .tree_agg import TreeAggregator, noise_offsets


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
    BLOCK = 100  # periods per block of play, a multiple of 5: (BLOCK, 2, 5, J) arrays

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
        # the ten aggregators' exact running sums are the rows of one (2, 5, J) array
        self._totals = np.zeros((self.S, 5, J))
        for agg, total in zip(self._reward_agg + self._count_agg, self._totals.reshape(-1, J)):
            agg.total = total
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
        left, right = self._cut_flags(self._since_cut(), None)
        return self._cut(left, right, t)

    def _cut_flags(self, since: np.ndarray, n) -> tuple:
        """Left and right cut flags from since-cut revenue and count sums (2, 5, ...).

        The one copy of the cut rule: :meth:`_maybe_shrink` applies it across
        cubes, :meth:`play` across the periods of a block and its cubes.  The
        count gate stands in for the period count n, which goes unused.
        """
        cfg = self.config
        r_hat, mu_hat = since
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

    def _post(self, tot: np.ndarray, r: np.ndarray, b0: int, js: np.ndarray, demand,
              prices: np.ndarray):
        """Post as :meth:`Quadrisection._post`; each visit also counts 1 in statistic 1."""
        super()._post(tot, r, b0, js, demand, prices)
        tot[r + 1, 1, r % 5, js[b0 + r]] = 1.0

    def _block_inputs(self, rows: int) -> tuple:
        """The aggregators' totals, no data-free increments, and their noise offsets.

        Slot k's aggregators tick on rows k, k+5, ..., so after row r their
        release carries offset (r - k) // 5 + 1 of :func:`noise_offsets`.
        """
        J = self.J
        counts = [(rows - k + 4) // 5 for k in range(5)]
        stacked = noise_offsets(self._reward_agg + self._count_agg, counts * 2)
        off = None
        if stacked is not None:
            after = (np.arange(rows)[:, None] - np.arange(5)) // 5 + 1
            off = stacked.reshape(2, 5, -1, J)[np.arange(2)[:, None], np.arange(5), after[:, None]]
        return self._totals, np.zeros((rows, self.S, J)), off
