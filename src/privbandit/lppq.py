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

Episodes run through the block engine :meth:`Quadrisection.play`; this
policy supplies each block's noise, one (rows, J) Laplace draw, and its cut
rule.  The engine computes the same z vectors, with the same noise draws,
and folds them into the same sums, so the local-DP statement is unchanged;
the per-period ``choose_price``/``update`` path stays the online API and the
reference the engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import (UNIT_SCALE, HorizonConfig, Quadrisection, central_J, cube_index, gaps,
                        phase_index)
from .prng import RngStream


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
        # the cut rule's constant factors, in the rule's association order
        hd = self.part.h ** self.part.d
        self._kappa1_3 = 3.0 * config.kappa1
        self._eps_hd = self._eps_eff * hd
        self._hd_5 = 5.0 * hd
        self._stream = stream.child("ldp-noise")

    choose_price = Quadrisection.choose_price

    def record(self, x, p: float, y: float, t: int) -> np.ndarray:
        """Privatize one customer's record and fold it into the running sums.

        Returns the released vector z_t; z_t is the only artifact of
        (x, y, p) that reaches the stored state.
        """
        self._tick(t)
        j_t = cube_index(self.part, x)
        z = self._stream.laplace(self.noise_scale, size=self.J) if self.noise_enabled \
            else np.zeros(self.J)
        z[j_t] += p * y
        self._apply(z, t)
        return z

    def _apply(self, z: np.ndarray, t: int):
        """State mutation from the privatized vector only."""
        self._sums[0, phase_index(t) - 1] += z

    def update(self, x, p: float, y: float, t: int) -> list:
        """record + shrink check; the per-period entry point."""
        self.record(x, p, y, t)
        return self.maybe_shrink(t)

    maybe_shrink = Quadrisection.maybe_shrink

    def _cut_flags(self, since: np.ndarray, n: np.ndarray) -> tuple:
        """Left and right cut flags from since-cut sums (1, 5, ...) after n >= 1 periods.

        The one copy of the cut rule: :meth:`maybe_shrink` applies it across
        cubes, :meth:`play` across the periods of a block and its cubes.
        """
        threshold = self._kappa1_3 / (self._eps_hd * np.sqrt(n))
        scale = self._hd_5 * n
        left, right = (n >= self.config.kappa2) & (gaps(since[0]) / scale > threshold)
        return left, right

    def _block_inputs(self, block_js: np.ndarray) -> tuple:
        """The running sums, each row's Laplace draws, and no offsets.

        The block's noise is one (rows, J) draw, the same bits as ``rows``
        draws of one row.
        """
        rows = len(block_js)
        noise = (self._stream.laplace(self.noise_scale, size=(rows, self.J))
                 if self.noise_enabled else np.zeros((rows, self.J)))
        return self._sums, noise[:, None], None
