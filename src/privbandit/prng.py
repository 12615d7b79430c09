"""Deterministic, labelled random streams and the Laplace sampler.

Every source of randomness in the library flows through an :class:`RngStream`
derived from a 64-bit root seed and a string label (e.g. ``"rep/7/policy"``).
Two streams with the same (seed, label) pair are bit-identical; different
labels give statistically independent streams, which is what lets
replications run in parallel without coordination.

Laplace variates are generated by inverting the CDF,
``x = -b * sgn(u - 1/2) * ln(1 - 2|u - 1/2|)``, rather than by rejection,
so sequences are reproducible across platforms.

Note: this module provides *statistical* randomness only.  The noise is not
hardened against floating-point side channels on the Laplace mechanism, so
it should not be used where an adversary can mount such attacks.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

ENV_SEED_VAR = "PRIVBANDIT_SEED"


class RngStream:
    """A deterministic random stream identified by (root_seed, label).

    The underlying generator is PCG64 seeded from a SHA-256 hash of the
    seed/label pair, so streams for different labels are decorrelated even
    when root seeds are adjacent integers.
    """

    def __init__(self, root_seed: int, label: str = ""):
        self.root_seed = int(root_seed)
        self.label = label
        digest = hashlib.sha256(f"{self.root_seed}:{label}".encode()).digest()
        entropy = int.from_bytes(digest[:16], "little")
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def child(self, suffix: str) -> "RngStream":
        """Derive an independent sub-stream, e.g. ``stream.child("policy")``."""
        label = f"{self.label}/{suffix}" if self.label else suffix
        return RngStream(self.root_seed, label)

    def unit(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def uniform(self, lo: float, hi: float, size=None):
        if not lo < hi:
            raise ValueError(f"uniform bounds must satisfy lo < hi, got [{lo}, {hi})")
        return lo + (hi - lo) * self._gen.random(size)

    def laplace(self, scale: float, size=None):
        if not scale > 0:
            raise ValueError(f"Laplace scale must be positive, got {scale}")
        return laplace_from_uniform(self.redraw_zeros(np.asarray(self._gen.random(size))), scale)

    def redraw_zeros(self, u: np.ndarray) -> np.ndarray:
        """Draw each exact 0 of ``u``, this stream's latest uniforms, again in place; returns u.

        The Laplace transform maps 0 to -inf.  A 0 comes once in 2**53 draws.
        """
        while not u.all():
            u[u == 0.0] = self._gen.random(np.count_nonzero(u == 0.0))
        return u

    def integers(self, lo: int, hi: int, size=None):
        return self._gen.integers(lo, hi, size=size)

    def __repr__(self):
        return f"RngStream(root_seed={self.root_seed}, label={self.label!r})"


def derive_stream(root_seed: int, label: str) -> RngStream:
    """Build the deterministic stream for (root_seed, label)."""
    return RngStream(root_seed, label)


def laplace_from_uniform(u, scale):
    """Inverse-CDF map from uniform u in (0,1) to Laplace(0, scale).

    Vectorized; u exactly 0.5 maps to 0.  log1p keeps precision near u=1/2.
    ``scale`` may be an array that broadcasts against u, so that draws of
    several scales share one transform; every element must be positive.
    """
    positive = scale > 0  # NaN fails too
    if not (positive if isinstance(positive, bool) else np.all(positive)):
        raise ValueError(f"Laplace scale must be positive, got {scale}")
    u = np.asarray(u, dtype=float)
    half = u - 0.5
    out = -scale * np.sign(half) * np.log1p(-2.0 * np.abs(half))
    return float(out) if out.ndim == 0 else out


def seed_from_env(default: int | None = None) -> int | None:
    """Read the root seed from $PRIVBANDIT_SEED if set."""
    raw = os.environ.get(ENV_SEED_VAR)
    if raw is None:
        return default
    try:
        return int(raw, 10)
    except ValueError as exc:
        raise ValueError(f"{ENV_SEED_VAR} must be a decimal integer, got {raw!r}") from exc
