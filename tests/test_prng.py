import math

import numpy as np
import pytest

from privbandit import derive_stream, laplace_from_uniform
from privbandit.prng import seed_from_env


def laplace_log_density_ratio(v, x: float, x_prime: float, scale: float) -> float:
    """log [ p(v - x) / p(v - x') ] for Laplace(scale) noise, at point v.

    The ratio is bounded by exp(|x - x'| / scale) for every v.
    """
    return (abs(v - x_prime) - abs(v - x)) / scale


class TestLaplaceInverseCdf:
    def test_median_maps_to_zero(self):
        assert laplace_from_uniform(0.5, 2.0) == 0.0

    def test_upper_quartile(self):
        # -2 * ln(0.5) by hand
        assert laplace_from_uniform(0.75, 2.0) == pytest.approx(1.3862943611198906)

    def test_symmetry(self):
        assert laplace_from_uniform(0.25, 2.0) == pytest.approx(-1.3862943611198906)
        u = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(laplace_from_uniform(u, 1.5),
                                   -laplace_from_uniform(1.0 - u, 1.5), atol=1e-12)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            laplace_from_uniform(0.3, 0.0)
        with pytest.raises(ValueError):
            laplace_from_uniform(0.3, -1.0)

    def test_laplace_sample_uses_stream(self):
        s = derive_stream(7, "laplace")
        v = s.laplace(3.0)
        assert math.isfinite(v)
        # same stream state -> same draw
        assert derive_stream(7, "laplace").laplace(3.0) == v


class TestUniform:
    def test_bounds_and_affine_map(self):
        s = derive_stream(1, "u")
        vals = s.uniform(0.5, 4.5, size=1000)
        assert np.all(vals >= 0.5) and np.all(vals < 4.5)
        # uniform(lo, hi) is the affine image of the unit draw from the same state
        u = derive_stream(1, "u").unit(1000)
        np.testing.assert_allclose(vals, 0.5 + 4.0 * u)

    def test_midpoint_and_quartile_arithmetic(self):
        assert -0.1 + 0.5 * 0.2 == pytest.approx(0.0)
        assert 0.5 + 0.25 * 4.0 == pytest.approx(1.5)

    def test_rejects_bad_bounds(self):
        s = derive_stream(1, "u")
        with pytest.raises(ValueError):
            s.uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            s.uniform(2.0, 1.0)


class TestStreamDerivation:
    def test_identical_seed_label_identical_sequence(self):
        a = derive_stream(42, "rep/0").unit(100)
        b = derive_stream(42, "rep/0").unit(100)
        np.testing.assert_array_equal(a, b)

    def test_label_separation(self):
        a = derive_stream(42, "rep/0").unit(10)
        b = derive_stream(42, "rep/1").unit(10)
        assert a[0] != b[0]

    def test_seed_separation(self):
        a = derive_stream(42, "a").unit(10)
        b = derive_stream(43, "a").unit(10)
        assert not np.array_equal(a, b)

    def test_child_streams(self):
        root = derive_stream(5, "rep/3")
        assert root.child("policy").label == "rep/3/policy"
        np.testing.assert_array_equal(root.child("policy").unit(5),
                                      derive_stream(5, "rep/3/policy").unit(5))


class TestLaplaceMoments:
    def test_mean_and_variance(self):
        b = 2.0
        n = 10**6
        samples = derive_stream(11, "moments").laplace(b, size=n)
        assert abs(samples.mean()) < 4 * b * math.sqrt(2 / n)
        assert abs(samples.var() - 2 * b**2) < 0.05 * 2 * b**2


class TestMechanismDensityRatio:
    def test_ratio_bounded_by_sensitivity_over_scale(self):
        # |x - x'| <= delta  =>  density ratio <= exp(delta / b) for every v
        rng = derive_stream(3, "ratio")
        for _ in range(50):
            delta = float(rng.uniform(0.01, 2.0))
            b = float(rng.uniform(0.1, 5.0))
            x = float(rng.uniform(-3, 3))
            xp = x + delta * float(rng.uniform(-1, 1))
            vs = np.linspace(-20, 20, 2001)
            log_ratios = (np.abs(vs - xp) - np.abs(vs - x)) / b
            assert np.max(log_ratios) <= abs(x - xp) / b + 1e-12
            assert abs(x - xp) / b <= delta / b + 1e-12
            # scalar helper agrees
            assert laplace_log_density_ratio(vs[17], x, xp, b) == pytest.approx(log_ratios[17])


def test_seed_from_env(monkeypatch):
    monkeypatch.delenv("PRIVBANDIT_SEED", raising=False)
    assert seed_from_env() is None
    assert seed_from_env(9) == 9
    monkeypatch.setenv("PRIVBANDIT_SEED", "123")
    assert seed_from_env() == 123
    monkeypatch.setenv("PRIVBANDIT_SEED", "nope")
    with pytest.raises(ValueError):
        seed_from_env()
