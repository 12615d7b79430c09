"""Demand environments: expected demand, stochastic realization, oracle prices.

Two concrete environments are provided:

* :class:`LinearDemandEnv` - the linear demand model with additive uniform
  noise used for the table/figure reproductions (d=2, prices in [0.5, 4.5]).
* :class:`AdversarialEnv` - the Bernoulli family indexed by a bit vector nu
  over a hypercube partition, whose optimal price has a known closed form.

Environments are immutable after construction; all randomness comes from
caller-supplied streams, so they can be shared read-only across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .partition import HypercubePartition, cube_index_many
from .prng import RngStream


class DemandEnvironment:
    """Contract shared by all environments.

    Subclasses define ``d``, price bounds ``p_lo``/``p_hi``, a revenue bound
    ``r_max`` (max attainable p*y, used by sensitivity-correct noise modes),
    and the four operations below.
    """

    d: int
    p_lo: float
    p_hi: float
    r_max: float
    name: str

    def sample_context(self, stream: RngStream, size: int | None = None):
        """Draw x ~ U[0,1]^d; shape (d,) or (size, d)."""
        if size is None:
            return stream.unit(self.d)
        return stream.unit((size, self.d))

    def mean_demand(self, p, x):
        raise NotImplementedError

    def mean_revenue(self, p, x):
        """f(p, x) = p * E[y | p, x]; vectorized over leading axes."""
        return np.asarray(p) * self.mean_demand(p, x)

    def oracle_price(self, x):
        raise NotImplementedError

    def realize_demand(self, p, x, stream: RngStream):
        raise NotImplementedError

    def episode_demand(self, stream: RngStream, X: np.ndarray):
        """Demand oracle y(i, p) for a whole episode with contexts X (shape (T, d)).

        y(i, p) is the realized demand of customer i at price p.  It must be
        pure and accept index and price arrays as well as scalars, with
        element-wise the same bits: a bulk engine asks for the periods cube
        by cube, not in time order.  So subclasses pre-draw the episode's
        randomness from ``stream`` and the call is plain arithmetic.  There
        is no fallback to ``realize_demand``: it draws from the stream in
        call order, which would tie the results to the order of the calls.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no episode_demand: an episode needs a pure demand "
            f"oracle y(i, p) over pre-drawn randomness")

    def _check_price(self, p):
        p = np.asarray(p, dtype=float)
        if not np.all((p >= self.p_lo - 1e-12) & (p <= self.p_hi + 1e-12)):  # NaN fails too
            raise ValueError(f"price outside [{self.p_lo}, {self.p_hi}]")

    def _check_context(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all((x >= 0.0) & (x <= 1.0)):  # NaN fails too
            raise ValueError("context coordinates must lie in [0,1]")


@dataclass(frozen=True)
class LinearDemandEnv(DemandEnvironment):
    """E[y | p, x] = th0 + th1 x1 + th2 x2 + th3 p, plus U[-w, w] noise."""

    theta: tuple = (0.4, 0.6, 0.6, -0.2)
    noise_half_width: float = 0.1
    p_lo: float = 0.5
    p_hi: float = 4.5
    d: ClassVar[int] = 2  # the model reads x1 and x2
    name: ClassVar[str] = "linear"

    def __post_init__(self):
        w = self.noise_half_width
        if isinstance(w, bool) or not isinstance(w, (int, float)) or not 0 <= w < math.inf:
            raise ValueError(f"noise_half_width must be finite and >= 0, got {w!r}")
        th0, th1, th2, th3 = self.theta
        if not th3 < 0:
            raise ValueError(f"demand must slope down: theta3 < 0, got {th3}")
        # interior maximizer at every corner of the context square
        for x1 in (0.0, 1.0):
            for x2 in (0.0, 1.0):
                p_star = -(th0 + th1 * x1 + th2 * x2) / (2 * th3)
                if not self.p_lo < p_star < self.p_hi:
                    raise ValueError(
                        f"unconstrained optimal price {p_star:.4f} at corner ({x1},{x2}) "
                        f"falls outside ({self.p_lo}, {self.p_hi})")

    @property
    def r_max(self) -> float:
        # max over p in [p_lo, p_hi], x in corners of p*(mean demand + noise bound)
        th0, th1, th2, th3 = self.theta
        a = th0 + th1 + th2 + self.noise_half_width
        ps = np.linspace(self.p_lo, self.p_hi, 2001)
        return float(np.max(ps * (a + th3 * ps)))

    def mean_demand(self, p, x):
        self._check_price(p)
        self._check_context(x)
        x = np.asarray(x, dtype=float)
        th0, th1, th2, th3 = self.theta
        return th0 + th1 * x[..., 0] + th2 * x[..., 1] + th3 * np.asarray(p)

    def oracle_price(self, x):
        self._check_context(x)
        x = np.asarray(x, dtype=float)
        th0, th1, th2, th3 = self.theta
        raw = -(th0 + th1 * x[..., 0] + th2 * x[..., 1]) / (2 * th3)
        return np.clip(raw, self.p_lo, self.p_hi)

    def realize_demand(self, p, x, stream: RngStream):
        w = self.noise_half_width
        if w == 0.0:
            return float(self.mean_demand(p, x))
        return float(self.mean_demand(p, x) + stream.uniform(-w, w))

    def demand_noise(self, stream: RngStream, size: int):
        """Pre-drawn additive noise for a whole episode (one draw per period)."""
        w = self.noise_half_width
        if w == 0.0:
            return np.zeros(size)
        return stream.uniform(-w, w, size=size)

    def episode_demand(self, stream: RngStream, X: np.ndarray):
        noise = self.demand_noise(stream, len(X))
        th0, th1, th2, th3 = self.theta
        base = th0 + th1 * X[:, 0] + th2 * X[:, 1]  # demand minus the price term

        def demand(i, p):
            return base[i] + th3 * p + noise[i]
        return demand


def boundary_distance_many(part: HypercubePartition, X: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to the boundary of its containing cube.

    Over the last axis of X.  For a point inside an axis-aligned box this is
    the smallest per-axis face distance; it is 0 on the boundary.  X is not
    checked against the domain.
    """
    X = np.asarray(X, dtype=float)
    m, h = part.m, part.h
    digits = np.minimum((X * m).astype(np.int64), m - 1)
    lo = digits * h
    return np.min(np.minimum(X - lo, lo + h - X), axis=-1)


@dataclass(frozen=True)
class AdversarialEnv(DemandEnvironment):
    """Bernoulli demand 2/3 - p/2 + nu_j (1/3 - p/2) dist(x, cube boundary)."""

    partition: HypercubePartition = field(default_factory=lambda: HypercubePartition(d=2, m=2))
    nu: tuple = ()
    p_lo: float = 0.0
    p_hi: float = 1.0
    name: ClassVar[str] = "adversarial"

    def __post_init__(self):
        if len(self.nu) != self.partition.J:
            raise ValueError(f"nu must have one bit per cube ({self.partition.J}), "
                             f"got {len(self.nu)}")
        if any(b not in (0, 1) for b in self.nu):  # before int() would truncate 0.7 to 0
            raise ValueError(f"nu must be a 0/1 vector, got {self.nu!r}")
        object.__setattr__(self, "nu", tuple(int(b) for b in self.nu))
        # demand is a probability and revenue at most r_max = 1 for prices in [0, 1]; the
        # optimal prices lie in [2/3 - r / (3 (1 + r)), 2/3], r the largest boundary distance
        r = self.partition.h / 2
        if not (0 <= self.p_lo <= 2 / 3 - r / (3 * (1 + r)) and 2 / 3 <= self.p_hi <= 1):
            raise ValueError(f"prices [{self.p_lo}, {self.p_hi}] must lie in [0, 1] and "
                             f"contain the optimal prices")

    @property
    def d(self) -> int:
        return self.partition.d

    @property
    def r_max(self) -> float:
        return 1.0

    def _bit_and_distance(self, x):
        """nu bit of x's cube and x's distance to that cube's boundary."""
        return (np.asarray(self.nu)[cube_index_many(self.partition, x)],
                boundary_distance_many(self.partition, x))

    def mean_demand(self, p, x):
        self._check_price(p)
        self._check_context(x)
        p = np.asarray(p, dtype=float)
        bit, dist = self._bit_and_distance(x)
        return 2.0 / 3.0 - p / 2.0 + bit * (1.0 / 3.0 - p / 2.0) * dist

    def oracle_price(self, x):
        """Closed form: 2/3 on nu_j = 0 cubes, shifted down by the boundary
        distance term on nu_j = 1 cubes."""
        self._check_context(x)
        bit, dist = self._bit_and_distance(x)
        return 2.0 / 3.0 - bit * dist / (3.0 * (1.0 + dist))

    def realize_demand(self, p, x, stream: RngStream):
        lam = float(self.mean_demand(p, x))
        return float(stream.unit() < lam)

    def episode_demand(self, stream: RngStream, X: np.ndarray):
        unit = stream.unit(len(X))
        bits, dists = self._bit_and_distance(X)

        def demand(i, p):
            lam = 2.0 / 3.0 - p / 2.0 + bits[i] * (1.0 / 3.0 - p / 2.0) * dists[i]
            return 1.0 * (unit[i] < lam)
        return demand
