"""Locally-private parallel quadrisection pricing policy.

The locally-private variant privatizes each customer's contribution at the
recording step: the only artifact the policy retains of a period is the
vector z_t with z_{t,j} = 1{j = j_t} p_t y_t + Lap(2/eps), one independent
Laplace draw per cube.  Running per-slot sums of these z vectors, epoch
differenced against a snapshot taken at the last cut, drive the same
quadrisection cuts as the central policy - except that no (even privatized)
visit counts exist, so confidence widths use the raw period count
n_j = t - pointer_j instead.

With eps = inf the Laplace draws are skipped and the confidence width is
evaluated at unit eps: the width term covers both privacy and sampling
noise, and letting it vanish entirely would allow cuts on pure demand
noise.

:meth:`LppqPolicy.play` runs a whole episode in bulk.  Between two cuts a
cube's five prices are fixed, so each cube advances from cut to cut on
blocks of pre-drawn Laplace rows instead of T per-period calls.  It computes
the same z vectors, with the same noise draws, and folds them into the same
sums, so the local-DP statement is unchanged; the per-period
``choose_price``/``update`` path stays the online API and the reference the
engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import (UNIT_SCALE, HorizonConfig, Quadrisection, central_J, cube_index, gaps,
                        phase_index)
from .prng import RngStream

BLOCK = 512  # periods per Laplace draw in play: (BLOCK, J) arrays at most, never (T, J)
WINDOW = 128  # play's first look-ahead after a cut; it doubles while none fires


@dataclass(frozen=True)
class LppqConfig(HorizonConfig):
    kappa1: float
    kappa2: float
    preset: str = "custom"

    @staticmethod
    def default_J(T: int, eps: float, d: int) -> int:
        if math.isfinite(eps):
            return math.ceil((eps * math.sqrt(T)) ** (d / (d + 2)))
        # noise-free fallback: the central policy's cube count
        return central_J(T, d)

    @classmethod
    def theorem(cls, T: int, eps: float, d: int = 2, J_request: int | None = None) -> "LppqConfig":
        return cls._preset("theorem", T, eps, d, J_request,
                           kappa1=1.7 * math.sqrt(math.log(2 * T)), kappa2=31.0 * math.log(T))

    @classmethod
    def experiment(cls, T: int, eps: float, d: int = 2, J_request: int | None = None) -> "LppqConfig":
        return cls._preset("experiment", T, eps, d, J_request,
                           kappa1=0.001 * math.sqrt(math.log(T)), kappa2=0.1 * math.log(T))


class LppqPolicy(Quadrisection):
    """Single-owner mutable policy state; one instance per replication."""

    def __init__(self, config: LppqConfig, env, stream: RngStream,
                 sensitivity_mode: str = UNIT_SCALE):
        super().__init__(config, env, sensitivity_mode)
        self.noise_enabled = math.isfinite(config.eps)
        self.noise_scale = 2.0 / config.eps * self._revenue_bound if self.noise_enabled else 0.0
        self._eps_eff = config.eps if self.noise_enabled else 1.0
        self._stream = stream.child("ldp-noise")

    choose_price = Quadrisection.choose_price

    def record(self, x, p: float, y: float, t: int, j: int | None = None) -> np.ndarray:
        """Privatize one customer's record and fold it into the running sums.

        Returns the released vector z_t; z_t is the only artifact of
        (x, y, p) that reaches the stored state.
        """
        self._tick(t)
        j_t = cube_index(self.part, x) if j is None else j
        z = self._stream.laplace(self.noise_scale, size=self.J) if self.noise_enabled \
            else np.zeros(self.J)
        z[j_t] += p * y
        self._apply(z, t)
        return z

    def _apply(self, z: np.ndarray, t: int):
        """State mutation from the privatized vector only."""
        self._sums[0, phase_index(t) - 1] += z

    def update(self, x, p: float, y: float, t: int, j: int | None = None) -> list:
        """record + shrink check; the common per-period driver entry point."""
        self.record(x, p, y, t, j=j)
        return self.maybe_shrink(t)

    def maybe_shrink(self, t: int) -> list:
        left, right = self._cut_flags(self._since_cut()[0], t - self._pointer)
        return self._cut(left, right, t)

    def _cut_flags(self, s: np.ndarray, n: np.ndarray) -> tuple:
        """Left and right cut flags from since-cut per-slot sums s (5, ...) after n periods.

        The one copy of the cut rule: :meth:`maybe_shrink` applies it across
        cubes, :meth:`play` across a window of periods of one cube.
        """
        cfg = self.config
        hd = self.part.h ** self.part.d
        left_gap, right_gap = gaps(s)
        sqrt_n = np.sqrt(n)
        threshold = 3.0 * cfg.kappa1 / (self._eps_eff * hd * sqrt_n)
        scale = 5.0 * hd * n
        gate = n >= cfg.kappa2
        left = gate & (left_gap / scale > threshold)
        right = gate & (right_gap / scale > threshold)
        return left, right

    def _play(self, js: np.ndarray, demand) -> np.ndarray:
        """Whole-episode engine behind :meth:`play`.

        The horizon is walked in blocks of ``BLOCK`` periods, each with one
        Laplace draw of shape (rows, J); inside a block each cube jumps from
        cut to cut.
        """
        T, J = self.config.T, self.J
        windows = [WINDOW] * J
        prices = np.empty(T)
        for b0 in range(0, T, BLOCK):
            b1 = min(b0 + BLOCK, T)
            noise = (self._stream.laplace(self.noise_scale, size=(b1 - b0, J))
                     if self.noise_enabled else np.zeros((b1 - b0, J)))
            for j in range(J):
                windows[j] = self._advance(j, b0, b1, noise[:, j], js, demand, prices, windows[j])
        return prices

    def _advance(self, j: int, b0: int, b1: int, noise: np.ndarray, js: np.ndarray,
                 demand, prices: np.ndarray, window: int) -> int:
        """Play cube j over periods b0+1..b1 given its noise column; returns the next window.

        Each step looks ``window`` periods ahead at the cube's fixed prices:
        a sequential cumsum of the z entries, seeded with the carried sums,
        repeats the loop's additions, and the cut rule is evaluated at every
        period.  The first period that fires is cut through ``_cut`` and the
        look-ahead restarts after it; a window without a cut doubles.
        """
        sums, snap = self._sums[0, :, j], self._snap[0, :, j]
        s = b0
        while s < b1:
            e = min(s + window, b1)
            idx = s + (js[s:e] == j).nonzero()[0]
            slot = idx % 5
            lo, hi = self._lo[j], self._hi[j]
            p = lo + slot / 4.0 * (hi - lo)
            prices[idx] = p
            # row 0 carries the sums; row i - s + 1 holds customer i's z entry in its phase slot
            periods = np.arange(s, e)
            z = np.zeros((e - s + 1, 5))
            z[0] = sums
            z[periods - (s - 1), periods % 5] = noise[s - b0:e - b0]
            z[idx - (s - 1), slot] += p * demand(idx, p)
            run = np.cumsum(z, axis=0)[1:]
            left, right = self._cut_flags((run - snap).T, periods + 1 - self._pointer[j])
            fired = (left | right).nonzero()[0]
            if not fired.size:
                sums[:] = run[-1]
                s, window = e, min(2 * window, BLOCK)
                continue
            r = fired[0]
            sums[:] = run[r]
            cube = np.arange(self.J) == j
            self._cut(cube & left[r], cube & right[r], s + r + 1)
            s, window = s + r + 1, WINDOW
        return window
