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


def build_partition(d: int, J_request: int) -> HypercubePartition:
    """Smallest per-axis count m with m^d >= J_request cubes."""
    if d < 1 or J_request < 1:
        raise ValueError(f"need d >= 1 and J_request >= 1, got d={d}, J_request={J_request}")
    if J_request > _MAX_CUBES:  # before the float root, which overflows for huge ints
        raise ValueError(f"partition too fine: more than {_MAX_CUBES} cubes requested")
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
    """Row-major index of the cube containing x; the top face clamps inward.

    The scalar form of :func:`cube_index_many`, digit by digit in Python
    floats, the same truncated products; it checks x once.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (part.d,):
        raise ValueError(f"context must have shape ({part.d},), got {x.shape}")
    m, j = part.m, 0
    for coord in x.tolist():
        if not 0.0 <= coord <= 1.0:  # NaN fails too
            raise ValueError(f"context coordinates must lie in [0,1], got {x}")
        j = j * m + min(int(coord * m), m - 1)
    return j


def cube_index_many(part: HypercubePartition, X: np.ndarray) -> np.ndarray:
    """Vectorized cube_index over rows of X (shape (n, d))."""
    X = np.asarray(X, dtype=float)
    if not np.all((X >= 0.0) & (X <= 1.0)):  # NaN fails too
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


def gaps(s: np.ndarray) -> np.ndarray:
    """Left and right cut statistics of a (5, ...) per-slot statistic, stacked (2, ...).

    The left gap min(s1 - s0, s2 - s1) is positive where s increases over
    slots 1..3, the right gap min(s2 - s3, s3 - s4) where it decreases over
    slots 3..5.
    """
    return np.minimum(s[1:3] - s[0:4:3], s[2:4] - s[1:5:3])


def _spread(g: np.ndarray) -> np.ndarray:
    """Per-row values (5*groups+1, S, 5, J) of per-group values (groups+1, S, 5, J).

    Row r of a block feeds slot r % 5 only, so after it slot k holds group
    (r - k) // 5 + 1's value: after row 5g + q, slots up to q hold group
    g + 1's value, later slots group g's.  Row r + 1 of the result is the
    value after row r, row 0 the one before the block, as in ``g``.
    """
    groups = len(g) - 1
    out = np.empty((5 * groups + 1,) + g.shape[1:])
    out[0] = g[0]
    rows = out[1:].reshape((groups, 5) + g.shape[1:])
    rows[:] = g[1:, None]
    for k in range(1, 5):
        rows[:, :k, :, k] = g[:-1, None, :, k]
    return out


def _add_rows(steps: np.ndarray):
    """``np.cumsum(steps, axis=0, out=steps)`` by in-place row adds: the same additions."""
    for g in range(1, len(steps)):
        steps[g] += steps[g - 1]


def _own_cubes(g: np.ndarray, js: np.ndarray, sched: np.ndarray) -> np.ndarray:
    """``_spread(g)[r + 1, ..., js[r]]`` at rows r as (S, 5, rows); sched is (r - k) // 5 + 1."""
    return g[sched, :, np.arange(5), js[:, None]].transpose(2, 1, 0)


class Quadrisection:
    """Per-cube price intervals of the parallel quadrisection search.

    Each cube also carries ``S`` per-slot statistics ``_sums`` (shape
    (S, 5, J)) and their values ``_snap`` at the cube's last cut.
    Subclasses privatize the statistics, read them back through
    :meth:`_since_cut` and decide which cubes cut with ``_cut_flags(since,
    n)``.  For the block engine :meth:`play` they also supply
    ``_block_inputs(block_js)``; the block size and its slot schedule are
    the engine's.  A rule that does not read the period count n says so
    with ``RULE_READS_N = False``; its statistics must then move only at a
    cube's visits whenever a block has no noise offsets.
    """

    S = 1  # statistics per slot: the revenue p*y, then any counts
    RULE_READS_N = True  # whether the cut rule reads n; see _play_block
    BLOCK = 200  # periods per block of play, a multiple of 5: row r of a block has slot r % 5

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

    def choose_price(self, x, t: int) -> float:
        """Grid point k of x's cube at phase k of period t."""
        if not 1 <= t <= self.config.T:
            raise ValueError(f"t={t} outside horizon [1, {self.config.T}]")
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
        in blocks of ``BLOCK`` periods.
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
        r = np.arange(min(self.BLOCK, T))
        # of each block row: its index, the totals' row after it, its slot, each slot's group then
        rows_index = (r, r + 1, r % 5, (r[:, None] - np.arange(5)) // 5 + 1)
        for b0 in range(0, T, self.BLOCK):
            self._play_block(b0, [a[:T - b0] for a in rows_index], js, demand, prices)
        self._expected_t = T + 1
        return prices

    def _play_block(self, b0: int, rows_index: list, js: np.ndarray, demand,
                    prices: np.ndarray):
        """Play periods b0+1..b0+rows; ``rows_index`` holds r, r + 1, r % 5 and (r - k) // 5 + 1.

        ``_block_inputs(block_js)`` gives the policy's exact running totals
        (S, 5, J), which the block advances in place, the price-free
        increments (rows, S, J) that each row adds to its own slot, and the
        noise offsets a release adds to the totals after each group of five
        rows (groups+1, S, 5, J), row 0 the one now, or None.  Every visit
        is posted at the block-start prices with one demand call.  Row r
        adds to slot r % 5 only, so running sums over the (groups+1, S, 5,
        J) increments of each group of five rows, whose row 0 holds the
        carried totals, repeat the loop's additions.  Totals stay per group:
        they and the offsets change once per group, so the dense check adds
        and subtracts ``_snap`` there and :func:`_spread` takes the result
        to rows once, the same operations on the same values as per row.
        The noise-free check gathers each row's own cube from the groups,
        and a replay spreads only its cube's column.  The last group ends
        with the block's final totals and offsets (slots its last row did
        not reach keep the group before's), a replayed cube with its own.

        The cut rule is then evaluated at every row and cube, except in a
        block without noise offsets whose rule does not read n
        (``RULE_READS_N`` false: cppq with its noise off).  There a cube's
        statistics, and so its flags, change only at its visits, and no
        cube fires at the block start: the first block starts from zero
        counts, and every block ends with every cube checked.  So the rule
        is evaluated only at each row's own cube, and the first row at
        which a cube fires, with its side, is the one the check at every
        row finds.  Either way only the cubes that fired are replayed, by
        the one ``replay`` both share.
        """
        r, row_after, slot, sched = rows_index
        rows = len(r)
        block_js = js[b0:b0 + rows]
        totals, inc, off = self._block_inputs(block_js)
        steps = np.zeros(((rows + 4) // 5 + 1,) + totals.shape)
        steps[0] = totals
        steps[sched[:, 0], :, slot] = inc
        steps[sched[:, 0], 0, slot, block_js] += self._post(
            r, self._lo[block_js], self._hi[block_js], b0, demand, prices)
        # numpy's cumsum over axis 0 walks one column at a time, ~0.1 us each, and a
        # row add costs ~0.4 us per group row: wide groups add row by row
        if steps[0].size > 4 * len(steps):
            _add_rows(steps)
        else:
            np.cumsum(steps, axis=0, out=steps)
        # slots past the last row's keep the group before's values, all _spread reads there
        q = (rows - 1) % 5 + 1
        if q < 5:
            for a in (steps,) if off is None else (steps, off):
                a[-1, :, q:] = a[-2, :, q:]

        def replay(j, at, left):
            """Cut cube j at row ``at``, then play its rest of the block.

            A cut moves ``_snap`` and never resets the running sums, so up
            to the cube's next visit they do not depend on its new prices:
            only its later visits are re-posted and its column re-summed,
            and the rule is re-evaluated after the cut, where it may fire
            again.  A cut at row ``at`` sets the pointer to that row's
            period, so row a + i lies n = i + 1 periods after it.
            """
            visits = (block_js == j).nonzero()[0]
            col = _spread(steps[..., j])  # cube j's totals before and after each row
            noise = None if off is None else _spread(off[..., j])[1:]

            def released(at):
                """Cube j's per-slot statistics after row(s) ``at``."""
                s = col[1:][at]
                return s if noise is None else s + noise[at]

            while True:
                self._sums[..., j] = released(at)  # _cut restarts the statistics here
                self._cut(j, left, b0 + at + 1)
                a = at + 1
                if a == rows:
                    break
                later = visits[visits.searchsorted(a):]
                if later.size:
                    # from the next visit v on: price-free increments, new posts, new sums
                    v = later[0]
                    rest = col[v:rows + 1]
                    rest[1:] = 0.0
                    col[row_after[v:], :, slot[v:]] = inc[v:, :, j]
                    col[later + 1, 0, slot[later]] += self._post(
                        later, self._lo[j], self._hi[j], b0, demand, prices)
                    np.cumsum(rest, axis=0, out=rest)
                since = released(slice(a, rows)) - self._snap[..., j]
                lefts, rights = self._cut_flags(np.ascontiguousarray(since.transpose(1, 2, 0)),
                                                row_after[:rows - a])
                fired = lefts | rights
                f = fired.argmax()
                if not fired[f]:
                    break
                at, left = a + f, lefts[f]
            steps[-1, ..., j] = col[rows]

        if off is None and not self.RULE_READS_N:
            # without noise a cube's statistics move only at its visits, and so does a
            # rule blind to n: check each row's own cube, (S, 5, rows)
            since = _own_cubes(steps, block_js, sched) - self._snap[..., block_js]
            left, right = self._cut_flags(since, b0 + row_after - self._pointer[block_js])
            fired = np.flatnonzero(left | right)
            cubes, first = np.unique(block_js[fired], return_index=True)
            for j, at in zip(cubes, fired[first]):
                replay(j, int(at), left[at])
        else:
            # offsets and totals change once per group: add and subtract there, then spread
            since = _spread((steps if off is None else steps + off) - self._snap)[1:rows + 1]
            left, right = self._cut_flags(since.transpose(1, 2, 0, 3),
                                          (b0 + row_after)[:, None] - self._pointer)
            fired = left | right
            for j in np.flatnonzero(fired.any(axis=0)):
                at = int(fired[:, j].argmax())
                replay(j, at, left[at, j])
        totals[:] = steps[-1]
        self._sums[:] = totals if off is None else totals + off[-1]

    def _post(self, r: np.ndarray, lo, hi, b0: int, demand, prices: np.ndarray) -> np.ndarray:
        """Post at block rows r from the intervals [lo, hi]; returns each p*y.

        ``lo`` and ``hi`` are per-row arrays, or one cube's scalars.
        """
        i = b0 + r
        p = lo + r % 5 / 4.0 * (hi - lo)
        prices[i] = p
        return p * demand(i, p)

    def maybe_shrink(self, t: int) -> list:
        """Cut every cube whose rule fires at period t, left winning where both sides do.

        Returns the shrink events.
        """
        left, right = self._cut_flags(self._since_cut(), t - self._pointer)
        return [self._cut(j, left[j], t) for j in np.flatnonzero(left | right)]

    def _cut(self, j: int, left: bool, t: int) -> ShrinkEvent:
        """Cut cube j at period t: a left-cut if ``left``, else a right-cut.

        The only place a cut is applied.  The cube's statistics restart
        from their current values.  Returns the shrink event.
        """
        lo, hi = self._lo.item(j), self._hi.item(j)
        quarter = 0.25 * (hi - lo)
        if left:
            self._lo[j] = lo + quarter
        else:
            self._hi[j] = hi - quarter
        self._epoch[j] += 1
        self._pointer[j] = t
        self.shrink_count[j] += 1
        self._snap[..., j] = self._sums[..., j]
        return ShrinkEvent(t=t, cube=int(j), direction=LEFT_CUT if left else RIGHT_CUT,
                           epoch=int(self._epoch[j]))
