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
row retirement requires.  The policy keeps the exact running sums, and the
aggregators their clocks and noise rows.

Episodes run through the block engine :meth:`Quadrisection.play`.  The
tree noise does not depend on the data, so the ten aggregators release a
block's noise offsets up front (:func:`tree_agg.noise_offsets`: one
Laplace transform, one gather and one level sum for all ten, each row
holding the ten side by side).  Each slot ticks once per group of five
periods, so this policy supplies one offset per group, (groups+1, 2, 5,
J), with the exact totals, adds each visit's count, and owns the cut
rule; the engine owns the block size, adds the offsets per group and
spreads groups to periods.  The engine makes
the same releases from the same draws, so the central-DP statement is
unchanged; the per-period ``choose_price``/``update`` path stays the online
API and the reference the engine is tested against.

The rule is a conjunction whose count gate mu >= c2 is almost always shut
under noise (c2 = log^2 T / eps in the experiment preset), so
:meth:`CppqPolicy._cut_flags` evaluates the gate everywhere and the
ratios, gaps and widths only where it opens.  With the noise off (c2 = 0)
the gate is mostly open, but a cube's statistics then move only at its
visits and the rule does not read n, so the engine checks each row's own
cube only.  Both give the flags of the rule evaluated everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import UNIT_SCALE, HorizonConfig, Quadrisection, cube_index, phase_index
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
    RULE_READS_N = False  # the count gate stands in for n

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
        # the exact running sums the aggregators' releases add their noise to
        self._totals = np.zeros((self.S, 5, J))

    choose_price = Quadrisection.choose_price

    def update(self, x, p: float, y: float, t: int) -> list:
        """Fold in one observation; returns any shrink events fired."""
        self._tick(t)
        j_t = cube_index(self.part, x)
        k = phase_index(t) - 1
        self._totals[:, k, j_t] += (p * y, 1.0)
        off = noise_offsets([self._reward_agg[k], self._count_agg[k]], [1, 1])
        self._sums[:, k] = self._totals[:, k] if off is None else self._totals[:, k] + off[1]
        return self.maybe_shrink(t)

    def _cut_flags(self, since: np.ndarray, n) -> tuple:
        """Left and right cut flags from since-cut revenue and count sums (2, 5, ...).

        The one copy of the cut rule: :meth:`maybe_shrink` applies it across
        cubes, :meth:`play` across the rows and cubes of a block, or at each
        row's own cube when the noise is off, and the replay across one
        cube's rows.  The count gate stands in for the period count n, which
        goes unused.  The rule is a conjunction, so it works out the gate
        everywhere and the ratios, gaps and widths only where the gate
        opens, with the same elementwise operations on the same values: the
        flags are those of the rule evaluated everywhere
        (``tests/engine_twins.dense_cut_flags``).  A side's gate opens only
        where its three counts are > 0, so its ratios never divide by a
        count <= 0, and comparisons with NaN are silent.
        """
        cfg = self.config
        r_hat, mu_hat = since
        # the smallest count over slots 1..3 and over slots 3..5, stacked as gaps() stacks
        mu = np.minimum(np.minimum(mu_hat[0:3:2], mu_hat[1:4:2]), mu_hat[2:5:2])
        flags = (mu >= cfg.c2) & (mu > 0)
        at = flags.nonzero()
        if at[0].size:
            # a side's slots from the outside in, 0, 1, 2 on the left and 4, 3, 2 on the
            # right: min(q1 - q0, q2 - q1) takes the two differences of gaps() on either side
            slots = (2 + (2 * at[0] - 1) * np.arange(2, -1, -1)[:, None],) + at[1:]
            q = r_hat[slots] / mu_hat[slots]
            floor = np.maximum(mu[at], 1e-300)
            width = 3.0 * cfg.c1 / np.sqrt(floor) + 3.0 * cfg.c1_prime / floor
            flags[at] = np.minimum(q[1] - q[0], q[2] - q[1]) > width
        left, right = flags
        return left, right

    def _block_inputs(self, block_js: np.ndarray) -> tuple:
        """The exact totals, each visit's count, and the aggregators' noise offsets.

        Row r counts 1 in its cube's statistic 1; its revenue comes with the
        post.  Slot k's aggregators tick on rows k, k+5, ...: ``counts[k]``
        times, once per group of five rows but for a partial last group.
        Group g's offsets are row g of :func:`noise_offsets`, whose rows hold
        the ten aggregators side by side, reward slots then count slots: a
        reshape to (groups+1, 2, 5, J) needs no transpose.
        """
        J, rows = self.J, len(block_js)
        inc = np.zeros((rows, self.S, J))
        inc[np.arange(rows), 1, block_js] = 1.0
        counts = [(rows - k + 4) // 5 for k in range(5)]
        stacked = noise_offsets(self._reward_agg + self._count_agg, counts * 2)
        off = None if stacked is None else stacked.reshape(-1, self.S, 5, J)
        return self._totals, inc, off
