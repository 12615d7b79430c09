import math

import numpy as np
import pytest

from privbandit import CapacityError, TreeAggregator
from privbandit.prng import derive_stream


def noiseless(T, width=1):
    return TreeAggregator(math.inf, T, width=width)


class TestConstruction:
    def test_levels_and_noise_scale(self):
        agg = TreeAggregator(1.0, 8, derive_stream(0, "t"))
        assert agg.L == 3
        assert agg.noise_scale == pytest.approx(8.0)  # 2 * (L+1) / eps

    def test_infinite_budget_disables_noise(self):
        agg = TreeAggregator(math.inf, 1024)
        assert agg.L == 10
        assert not agg.noise_enabled

    def test_non_power_of_two_capacity(self):
        agg = TreeAggregator(0.5, 500, derive_stream(0, "t"))
        assert agg.L == 8  # floor(log2 500)
        assert agg.noise_scale == pytest.approx(36.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TreeAggregator(1.0, 0, derive_stream(0, "t"))
        with pytest.raises(ValueError):
            TreeAggregator(0.0, 8, derive_stream(0, "t"))
        with pytest.raises(ValueError):
            TreeAggregator(1.0, 8, None)  # finite budget needs a stream


class TestNoiselessReleases:
    def test_unit_stream(self):
        agg = noiseless(8)
        assert [agg.update(1.0) for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_hand_traced_six_updates(self):
        # n = 6 = 110b: release = alpha_hat[1] + alpha_hat[2]
        agg = noiseless(8)
        out = [agg.update(u) for u in (5.0, -2.0, 0.0, 7.0, 1.0, 1.0)]
        assert out[-1] == pytest.approx(11.0 + 1.0)
        assert agg.alpha[1, 0] == pytest.approx(2.0)   # spans updates 5,6
        assert agg.alpha[2, 0] == pytest.approx(10.0)  # spans updates 1..4
        assert out == pytest.approx([5.0, 3.0, 3.0, 10.0, 11.0, 12.0])

    def test_alpha_hat_mirrors_alpha(self):
        agg = noiseless(32)
        stream = derive_stream(1, "mirror")
        for u in stream.uniform(-1, 1, size=20):
            agg.update(float(u))
            np.testing.assert_array_equal(agg.alpha_hat, agg.alpha)

    def test_exact_prefix_sums(self):
        us = derive_stream(2, "exact").uniform(-5, 5, size=1024)
        agg = noiseless(1024)
        rel = np.array([agg.update(float(u)) for u in us])
        np.testing.assert_allclose(rel, np.cumsum(us), rtol=1e-12, atol=1e-12)


class TestCapacity:
    def test_overflow_raises(self):
        agg = noiseless(4)
        for _ in range(4):
            agg.update(1.0)
        with pytest.raises(CapacityError):
            agg.update(1.0)

    def test_counter_bounded(self):
        agg = noiseless(16)
        for _ in range(16):
            agg.update(0.0)
        assert agg.n == 16


class TestNoise:
    def test_zero_signal_releases_are_laplace_sums(self):
        # with u = 0 each release is a sum of at most L+1 independent draws
        T = 64
        agg = TreeAggregator(1.0, T, derive_stream(3, "zero"), width=4000)
        zero = np.zeros(4000)
        for n in range(1, T + 1):
            rel = agg.update(zero)
            bits = bin(n).count("1")
            # std of a sum of `bits` Laplace(b) draws is b * sqrt(2 * bits)
            expected_std = agg.noise_scale * math.sqrt(2 * bits)
            assert abs(rel.mean()) < 5 * expected_std / math.sqrt(4000)
            assert 0.5 * expected_std < rel.std() < 1.7 * expected_std

    def test_unbiasedness_over_parallel_runs(self):
        # width = independent replications of the same scalar stream
        T, width = 8, 10000
        us = derive_stream(4, "bias").uniform(0, 1, size=T)
        agg = TreeAggregator(1.0, T, derive_stream(5, "noise"), width=width)
        tol = 4 * (agg.L + 1) * agg.noise_scale / 100
        for n, u in enumerate(us, start=1):
            rel = agg.update(np.full(width, u))
            assert abs(rel.mean() - us[:n].sum()) < tol

    def test_concentration_bound(self):
        # released sums stay within 19/eps * ln^2(2 T^3) for >= 1 - 3/T of trials
        T, width, eps_b = 256, 10000, 1.0
        agg = TreeAggregator(eps_b, T, derive_stream(6, "conc"), width=width)
        us = derive_stream(7, "conc-sig").uniform(0, 1, size=T)
        bound = 19.0 / eps_b * math.log(2 * T**3) ** 2
        for n, u in enumerate(us, start=1):
            rel = agg.update(np.full(width, u))
            frac_ok = np.mean(np.abs(rel - us[:n].sum()) <= bound)
            assert frac_ok >= 1 - 3 / T


class TestBudgetStructure:
    def test_each_update_touches_at_most_L_plus_one_partials(self):
        # the block rebuilt at step n covers indices n - 2^lmin + 1 .. n;
        # count how many rebuilt blocks ever cover each index
        T = 1024
        L = int(math.floor(math.log2(T)))
        touches = np.zeros(T + 1, dtype=int)
        for n in range(1, T + 1):
            lmin = (n & -n).bit_length() - 1
            touches[n - 2**lmin + 1: n + 1] += 1
        assert touches[1:].max() <= L + 1
