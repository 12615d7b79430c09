"""Context-space hypercube partition and the parallel quadrisection search.

The context space [0,1]^d is cut into m^d congruent cubes (m per axis);
each cube carries an arithmetic 5-point price grid over its current price
interval.  A "cut" keeps either the upper three quarters of the interval
(left-cut) or the lower three quarters (right-cut) and re-quartiles, so the
interval width contracts by a factor 3/4 per epoch.

:class:`Quadrisection` holds the search state both pricing policies share:
per-cube intervals, epochs and pointers, the price walk, the cut, and the
block engine :meth:`Quadrisection.play` that runs a whole episode.  The
central and local policies differ only in the privatized per-slot
statistics they feed it and in their cut rule's thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LEFT_CUT = "left-cut"
RIGHT_CUT = "right-cut"

# noise calibration of per-record revenue: unit-bounded, or the env's r_max
UNIT_SCALE = "unit-scale"
SENSITIVITY_CORRECT = "sensitivity-correct"

PRESETS = ("theorem", "experiment")

# Guard against m**d blowing past what float indexing can address.
_MAX_CUBES = 2**62


@dataclass(frozen=True)
class HypercubePartition:
    """Equal partition of [0,1]^d into m^d axis-aligned cubes, row-major indexed."""

    d: int
    m: int

    @property
    def J(self) -> int:
        return self.m**self.d

    @property
    def h(self) -> float:
        return 1.0 / self.m

    def cube_bounds(self, j: int):
        """(lo, hi) corner vectors of cube j."""
        digits = self.digits(j)
        lo = digits * self.h
        return lo, lo + self.h

    def digits(self, j: int) -> np.ndarray:
        """Base-m digit expansion of j, most significant axis first."""
        if not 0 <= j < self.J:
            raise ValueError(f"cube index {j} outside [0, {self.J})")
        out = np.empty(self.d, dtype=np.int64)
        for i in range(self.d - 1, -1, -1):
            out[i] = j % self.m
            j //= self.m
        return out


def build_partition(d: int, J_request: int) -> HypercubePartition:
    """Smallest per-axis count m with m^d >= J_request cubes."""
    if d < 1 or J_request < 1:
        raise ValueError(f"need d >= 1 and J_request >= 1, got d={d}, J_request={J_request}")
    m = max(1, math.ceil(J_request ** (1.0 / d)))
    # float root can land one off in either direction
    while m > 1 and (m - 1) ** d >= J_request:
        m -= 1
    while m**d < J_request:
        m += 1
    if m**d > _MAX_CUBES:
        raise ValueError(f"partition too fine: {m}^{d} cubes overflows the index space")
    return HypercubePartition(d=d, m=m)


def cube_index(part: HypercubePartition, x) -> int:
    """Row-major index of the cube containing x; the top face clamps inward."""
    x = np.asarray(x, dtype=float)
    if x.shape != (part.d,):
        raise ValueError(f"context must have shape ({part.d},), got {x.shape}")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError(f"context coordinates must lie in [0,1], got {x}")
    return int(cube_index_many(part, x[None, :])[0])


def cube_index_many(part: HypercubePartition, X: np.ndarray) -> np.ndarray:
    """Vectorized cube_index over rows of X (shape (n, d))."""
    X = np.asarray(X, dtype=float)
    if np.any(X < 0.0) or np.any(X > 1.0):
        raise ValueError("context coordinates must lie in [0,1]")
    digits = np.minimum((X * part.m).astype(np.int64), part.m - 1)
    weights = part.m ** np.arange(part.d - 1, -1, -1, dtype=np.int64)
    return digits @ weights


@dataclass(frozen=True)
class PriceGrid:
    """Ascending 5-point quartile grid over one cube's current price interval."""

    rho: tuple  # 5 ascending prices
    epoch: int = 1
    pointer: int = 0  # time index of the last reset

    @property
    def width(self) -> float:
        return self.rho[4] - self.rho[0]


def init_price_grid(p_lo: float, p_hi: float) -> PriceGrid:
    """Quartile grid on [p_lo, p_hi], epoch 1."""
    if not p_lo < p_hi:
        raise ValueError(f"price bounds must satisfy p_lo < p_hi, got [{p_lo}, {p_hi}]")
    return PriceGrid(rho=_quartiles(p_lo, p_hi))


def shrink_grid(grid: PriceGrid, direction: str, now: int) -> PriceGrid:
    """Discard the bottom (left-cut) or top (right-cut) quarter and re-quartile."""
    if direction == LEFT_CUT:
        lo, hi = grid.rho[1], grid.rho[4]
    elif direction == RIGHT_CUT:
        lo, hi = grid.rho[0], grid.rho[3]
    else:
        raise ValueError(f"direction must be {LEFT_CUT!r} or {RIGHT_CUT!r}, got {direction!r}")
    return PriceGrid(rho=_quartiles(lo, hi), epoch=grid.epoch + 1, pointer=now)


def phase_index(t: int) -> int:
    """1-based position of period t in the 5-price cycle: 1,2,3,4,5,1,..."""
    if t < 1:
        raise ValueError(f"time period must be >= 1, got {t}")
    return (t - 1) % 5 + 1


def _quartiles(lo: float, hi: float) -> tuple:
    w = hi - lo
    return (lo, lo + 0.25 * w, lo + 0.5 * w, lo + 0.75 * w, hi)


def central_J(T: int, d: int) -> int:
    """Cube count T^(d/(d+4)) of the central policy's regret analysis."""
    return math.ceil(T ** (d / (d + 4)))


@dataclass(frozen=True)
class HorizonConfig:
    """Horizon, privacy budget and requested cube count shared by both policies."""

    T: int
    eps: float  # math.inf disables noise
    J_request: int

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive (or inf), got {self.eps}")
        if self.J_request < 1:
            raise ValueError(f"J_request must be >= 1, got {self.J_request}")

    @staticmethod
    def default_J(T: int, eps: float, d: int) -> int:
        """Cube count a preset requests when none is given."""
        return central_J(T, d)

    @classmethod
    def _preset(cls, preset: str, T: int, eps: float, d: int, J_request: int | None,
                **constants):
        """Config named `preset` with the given constants; J_request None means default_J."""
        if J_request is None:
            J_request = cls.default_J(T, eps, d)
        return cls(T=T, eps=eps, J_request=J_request, preset=preset, **constants)


@dataclass
class ShrinkEvent:
    t: int
    cube: int
    direction: str
    epoch: int  # epoch after the cut


def gaps(s: np.ndarray) -> tuple:
    """Left and right cut statistics of a (5, J) per-slot statistic.

    The left gap is positive where s increases over slots 1..3, the right
    gap where it decreases over slots 3..5.
    """
    s0, s1, s2, s3, s4 = s
    return np.minimum(s1 - s0, s2 - s1), np.minimum(s2 - s3, s3 - s4)


class Quadrisection:
    """Per-cube price intervals of the parallel quadrisection search.

    Each cube also carries ``S`` per-slot statistics ``_sums`` (shape
    (S, 5, J)) and their values ``_snap`` at the cube's last cut.
    Subclasses privatize the statistics, read them back through
    :meth:`_since_cut` and decide which cubes cut with ``_cut_flags(since,
    n)``.  For the block engine :meth:`play` they also set ``BLOCK`` and
    supply ``_block_inputs(rows)``, and may extend :meth:`_post`.
    """

    S = 1  # statistics per slot: the revenue p*y, then any counts

    def __init__(self, config: HorizonConfig, env, sensitivity_mode: str = UNIT_SCALE):
        if sensitivity_mode not in (UNIT_SCALE, SENSITIVITY_CORRECT):
            raise ValueError(f"unknown sensitivity mode {sensitivity_mode!r}")
        self.config = config
        self.env = env
        # per-record revenue bound the privacy noise is scaled by
        self._revenue_bound = env.r_max if sensitivity_mode == SENSITIVITY_CORRECT else 1.0
        self.part = build_partition(env.d, config.J_request)
        J = self.J = self.part.J
        self._lo = np.full(J, float(env.p_lo))
        self._hi = np.full(J, float(env.p_hi))
        self._epoch = np.ones(J, dtype=np.int64)
        self._pointer = np.zeros(J, dtype=np.int64)
        self.shrink_count = np.zeros(J, dtype=np.int64)
        self._sums = np.zeros((self.S, 5, J))
        self._snap = np.zeros((self.S, 5, J))
        self._expected_t = 1

    def _tick(self, t: int):
        """Advance the clock; periods must arrive as 1, 2, 3, ..."""
        if t != self._expected_t:
            raise RuntimeError(f"periods must arrive in order: expected t={self._expected_t}, got {t}")
        self._expected_t = t + 1

    def _since_cut(self) -> np.ndarray:
        """Per-slot statistics accumulated since each cube's last cut, (S, 5, J)."""
        return self._sums - self._snap

    def price_grid(self, j: int) -> PriceGrid:
        """Value view of cube j's current grid."""
        return PriceGrid(rho=_quartiles(self._lo[j], self._hi[j]),
                         epoch=int(self._epoch[j]), pointer=int(self._pointer[j]))

    def choose_price(self, x, t: int, j: int | None = None) -> float:
        """Grid point k of cube j at phase k of period t.

        ``j`` may carry a precomputed cube index for the same x (hot loop).
        """
        if not 1 <= t <= self.config.T:
            raise ValueError(f"t={t} outside horizon [1, {self.config.T}]")
        if j is None:
            j = cube_index(self.part, x)
        k = phase_index(t)
        return self._lo[j] + (k - 1) / 4.0 * (self._hi[j] - self._lo[j])

    def play(self, js, demand) -> np.ndarray:
        """Run a whole episode from t = 1 in bulk; returns the T posted prices.

        ``js[i]`` is customer i's cube and ``demand(idx, p)`` the episode's
        demand oracle on index and price arrays.  Leaves the policy in
        exactly the state T ``choose_price``/``update`` calls leave, bit for
        bit, with every noise stream at the same position; afterwards the
        clock expects t = T + 1, as after the loop.  The horizon is walked
        in blocks of ``BLOCK`` periods, a multiple of 5, so row r of a block
        has slot r % 5.
        """
        T = self.config.T
        if self._expected_t != 1:
            raise RuntimeError(f"play starts an episode at t=1; expected t={self._expected_t}")
        js = np.asarray(js)
        if js.shape != (T,):
            raise ValueError(f"need one cube index per period of T={T}, got shape {js.shape}")
        if js.min() < 0 or js.max() >= self.J:
            raise ValueError(f"cube indices must lie in [0, {self.J})")
        prices = np.empty(T)
        for b0 in range(0, T, self.BLOCK):
            self._play_block(b0, min(self.BLOCK, T - b0), js, demand, prices)
        self._expected_t = T + 1
        return prices

    def _play_block(self, b0: int, rows: int, js: np.ndarray, demand, prices: np.ndarray):
        """Play periods b0+1..b0+rows.

        ``_block_inputs(rows)`` gives the policy's exact running totals
        (S, 5, J), which the block advances in place, the data-free
        increments (rows, S, J) that each row adds to its own slot, and the
        noise offsets a release adds to the totals after each row (rows, S,
        5, J), or None.  Every visit is posted at the block-start prices
        with one demand call, one in-place cumsum over the (rows+1, S, 5, J)
        increments, whose row 0 holds the carried totals, repeats the loop's
        additions, and the cut rule is evaluated at every row and cube.
        Only the cubes that fired are replayed.
        """
        totals, inc, off = self._block_inputs(rows)
        r = np.arange(rows)
        tot = np.zeros((rows + 1,) + totals.shape)
        tot[0] = totals
        tot[r + 1, :, r % 5] = inc
        t = (b0 + 1 + r)[:, None]  # the period of each row

        def released(at, cubes):
            """Per-slot statistics after row(s) ``at`` of the cubes ``cubes`` selects."""
            s = tot[1:][at, ..., cubes]
            return s if off is None else s + off[at, ..., cubes]

        def rule(a, cubes):
            """Cut flags at rows a.. of the cubes ``cubes`` (a slice) selects, (rows - a, cubes).

            Every row lies after the cubes' last cut, so n >= 1 periods.
            """
            since = released(slice(a, None), cubes) - self._snap[..., cubes]
            return self._cut_flags(since.transpose(1, 2, 0, 3), t[a:] - self._pointer[cubes])

        def replay(j, at, left, right):
            """Cut cube j at row ``at``, then play its rest of the block.

            A cut moves ``_snap`` and never resets the running sums, so up
            to the cube's next visit they do not depend on its new prices:
            only its later visits are re-posted and its column re-summed,
            and the rule is re-evaluated after the cut, where it may fire
            again.
            """
            cube = np.arange(self.J) == j
            while True:
                self._sums[..., j] = released(at, j)  # _cut restarts the statistics here
                self._cut(cube & left, cube & right, b0 + at + 1)
                a = at + 1
                if a == rows:
                    return
                visits = a + (js[b0 + a:b0 + rows] == j).nonzero()[0]
                if visits.size:
                    # from the next visit on: data-free increments, new posts, new sums
                    v = r[visits[0]:]
                    col = tot[v[0]:, ..., j]
                    col[1:] = 0.0
                    tot[v + 1, :, v % 5, j] = inc[v, :, j]
                    self._post(tot, visits, b0, js, demand, prices)
                    np.cumsum(col, axis=0, out=col)
                lefts, rights = rule(a, slice(j, j + 1))
                fired = (lefts[:, 0] | rights[:, 0]).nonzero()[0]
                if not fired.size:
                    return
                f = fired[0]
                at, left, right = a + f, lefts[f, 0], rights[f, 0]

        self._post(tot, r, b0, js, demand, prices)
        np.cumsum(tot, axis=0, out=tot)
        left, right = rule(0, slice(None))
        fired = left | right
        for j in np.flatnonzero(fired.any(axis=0)):
            at = int(fired[:, j].argmax())
            replay(j, at, left[at, j], right[at, j])
        totals[:] = tot[rows]
        self._sums[:] = released(rows - 1, slice(None))

    def _post(self, tot: np.ndarray, r: np.ndarray, b0: int, js: np.ndarray, demand,
              prices: np.ndarray):
        """Post the current prices at block rows r; each p*y enters statistic 0 of tot[r + 1]."""
        i = b0 + r
        j = js[i]
        slot = r % 5
        lo = self._lo[j]
        p = lo + slot / 4.0 * (self._hi[j] - lo)
        prices[i] = p
        tot[r + 1, 0, slot, j] += p * demand(i, p)

    def _cut(self, left: np.ndarray, right: np.ndarray, t: int) -> list:
        """Cut the cubes flagged left or right at period t; left wins if both.

        The cut cubes' statistics restart from their current values.
        Returns the shrink events.
        """
        right = right & ~left
        cut = left | right
        if not cut.any():
            return []
        # masked in place: the same bits as np.where, without new arrays
        quarter = 0.25 * (self._hi - self._lo)
        np.add(self._lo, quarter, out=self._lo, where=left)
        np.subtract(self._hi, quarter, out=self._hi, where=right)
        np.add(self._epoch, 1, out=self._epoch, where=cut)
        np.copyto(self._pointer, t, where=cut)
        np.add(self.shrink_count, 1, out=self.shrink_count, where=cut)
        np.copyto(self._snap, self._sums, where=cut)
        return [ShrinkEvent(t=t, cube=int(j), direction=LEFT_CUT if left[j] else RIGHT_CUT,
                            epoch=int(self._epoch[j]))
                for j in cut.nonzero()[0]]
