import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privbandit import CapacityError, TreeAggregator, tree_agg
from privbandit.tree_agg import noise_offsets
from privbandit.prng import derive_stream, laplace_from_uniform


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
        # n = 6 = 110b: the release is the exact sum 12, no noise rows
        agg = noiseless(8)
        out = [agg.update(u) for u in (5.0, -2.0, 0.0, 7.0, 1.0, 1.0)]
        assert out[-1] == pytest.approx(11.0 + 1.0)
        assert agg.n == 6
        assert agg.total[0] == pytest.approx(12.0)
        assert out == pytest.approx([5.0, 3.0, 3.0, 10.0, 11.0, 12.0])

    def test_noise_rows_stay_zero(self):
        agg = noiseless(32)
        stream = derive_stream(1, "mirror")
        for u in stream.uniform(-1, 1, size=20):
            assert agg.update(float(u)) == agg.total[0]
            np.testing.assert_array_equal(agg.noise, 0.0)

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


class TextbookCounter:
    """Binary counter as published: exact and noisy partial sums per level,
    release = sum of the noisy partials of the set bits of n."""

    def __init__(self, L, width, stream, scale):
        self.alpha = np.zeros((L + 1, width))
        self.alpha_hat = np.zeros((L + 1, width))
        self.stream, self.scale, self.n = stream, scale, 0

    def update(self, u):
        self.n += 1
        lmin = (self.n & -self.n).bit_length() - 1
        self.alpha[lmin] = self.alpha[:lmin].sum(axis=0) + u
        self.alpha[:lmin] = 0.0
        self.alpha_hat[:lmin] = 0.0
        self.alpha_hat[lmin] = self.alpha[lmin] + self.stream.laplace(
            self.scale, size=self.alpha.shape[1])
        levels = [l for l in range(len(self.alpha)) if self.n >> l & 1]
        magnitude = (np.abs(self.alpha[levels]) + np.abs(self.alpha_hat[levels])).sum(axis=0)
        return self.alpha_hat[levels].sum(axis=0), magnitude


class TestTextbookReference:
    @settings(max_examples=60, deadline=None)
    @given(capacity=st.integers(1, 300), width=st.integers(1, 6),
           eps=st.floats(0.01, 100.0), seed=st.integers(0, 2**32 - 1))
    def test_releases_match_textbook_counter(self, capacity, width, eps, seed):
        agg = TreeAggregator(eps, capacity, derive_stream(seed, "agg"), width=width)
        ref = TextbookCounter(agg.L, width, derive_stream(seed, "agg"), agg.noise_scale)
        us = derive_stream(seed, "signal").uniform(-1, 1, size=(capacity, width))
        for u in us:
            got = np.atleast_1d(agg.update(u))
            want, magnitude = ref.update(u)
            # relative to the size of the summed terms (partials and noise),
            # so a release that cancels to near zero is still checked
            assert np.all(np.abs(got - want) <= 1e-9 * magnitude)

    def test_active_rows_are_the_set_bits_of_n(self):
        agg = TreeAggregator(1.0, 100, derive_stream(8, "rows"), width=3)
        for n in range(1, 101):
            agg.update(np.ones(3))
            bits = np.array([n >> l & 1 for l in range(agg.L + 1)], dtype=bool)
            np.testing.assert_array_equal((agg.noise != 0).all(axis=1), bits)
            np.testing.assert_array_equal((agg.noise == 0).all(axis=1), ~bits)


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


class TestNoiseOffsets:
    """noise_offsets, the tree noise of a block for a stack of aggregators, against update."""

    @staticmethod
    def twins(capacity, width, n0, sensitivities=(2.0,), seed=2):
        """Per sensitivity, an aggregator for the loop and one for the stack, both at n0."""
        us = derive_stream(1, "signal").uniform(-1, 1, size=(n0, width))
        pairs = []
        for k, sens in enumerate(sensitivities):
            pair = [TreeAggregator(0.7, capacity, derive_stream(seed, f"agg/{k}"), width=width,
                                   sensitivity=sens) for _ in range(2)]
            for u in us:
                for agg in pair:
                    agg.update(u)
            pairs.append(pair)
        return pairs

    @pytest.mark.parametrize("capacity", [100, 1000])  # L+1 = 7 and 10 levels
    @pytest.mark.parametrize("width", [1, 2, 49])
    @pytest.mark.parametrize("n0", [0, 5, 64])
    def test_offsets_are_releases_minus_total(self, capacity, width, n0):
        # three stacked aggregators with their own streams and scales; the
        # last two take fewer updates, as the later slots of a partial block
        top = capacity - n0 - 3
        counts = [top, top - 1, top - 4]
        pairs = self.twins(capacity, width, n0, sensitivities=(2.0, 2.0, 7.0))
        off = noise_offsets([bulk for _, bulk in pairs], counts)
        assert off.shape == (top + 1, 3, width)
        us = derive_stream(3, "signal").uniform(-1, 1, size=(top, width))
        for (loop, bulk), cnt, rows in zip(pairs, counts, off.transpose(1, 0, 2)):
            np.testing.assert_array_equal(loop.total + rows[0],
                                          loop.total + loop.noise.sum(axis=0))
            for i, u in enumerate(us[:cnt], start=1):
                released = np.atleast_1d(loop.update(u))
                # bit for bit: the release is the exact running sum plus the offset
                np.testing.assert_array_equal(loop.total + rows[i], released)
            assert bulk.n == loop.n == n0 + cnt
            np.testing.assert_array_equal(bulk.noise, loop.noise)
            assert bulk._stream.unit() == loop._stream.unit()

    @pytest.mark.parametrize("width", [1, 49])
    def test_benchmark_shape(self, width):
        # cppq's ten aggregators at T = 62500 (16 levels) in a block of 197 rows
        # from n0 = 4090, so the block crosses the level-12 carry at 4096
        n0, counts = 4090, [40, 40, 39, 39, 39] * 2
        pairs = self.twins(62500, width, n0, sensitivities=(2.0,) * 5 + (7.0,) * 5)
        assert pairs[0][0].L + 1 == 16
        off = noise_offsets([bulk for _, bulk in pairs], counts)
        assert off.shape == (41, 10, width)
        us = derive_stream(3, "signal").uniform(-1, 1, size=(40, width))
        for a, ((loop, bulk), cnt) in enumerate(zip(pairs, counts)):
            for i, u in enumerate(us[:cnt], start=1):
                released = np.atleast_1d(loop.update(u))
                # bit for bit: the level sum update adds to the running sum
                np.testing.assert_array_equal(off[i, a], loop.noise.sum(axis=0))
                np.testing.assert_array_equal(loop.total + off[i, a], released)
            np.testing.assert_array_equal(bulk.noise, loop.noise)
            assert bulk._stream.unit() == loop._stream.unit()

    def test_zero_signal_offsets_equal_releases(self):
        # ten level counts at width 1, where numpy sums the levels pairwise
        stack = [TreeAggregator(1.0, 640, derive_stream(3, f"agg/{k}")) for k in range(2)]
        loops = [TreeAggregator(1.0, 640, derive_stream(3, f"agg/{k}")) for k in range(2)]
        off = noise_offsets(stack, [640, 637])
        for loop, rows, cnt in zip(loops, off.transpose(1, 0, 2), [640, 637]):
            np.testing.assert_array_equal(rows[1:cnt + 1, 0], [loop.update(0.0) for _ in range(cnt)])

    def test_transforms_only_the_drawn_rows(self, monkeypatch):
        # the table rows past an aggregator's count stay zero and untransformed
        shapes = []

        def spy(u, scale):
            shapes.append(np.shape(u))
            return laplace_from_uniform(u, scale)

        monkeypatch.setattr(tree_agg, "laplace_from_uniform", spy)
        stack = [TreeAggregator(1.0, 100, derive_stream(6, f"agg/{k}"), width=3) for k in range(3)]
        with np.errstate(all="raise"):
            noise_offsets(stack, [7, 6, 4])
        assert shapes == [(17, 3)]

    def test_noise_off_offsets_are_zero(self):
        # exact releases need no offsets: none are built, and the clocks still advance
        stack = [noiseless(50, width=3) for _ in range(4)]
        for agg in stack:
            agg.update(np.ones(3))
        assert noise_offsets(stack, [7, 7, 6, 6]) is None
        assert [agg.n for agg in stack] == [8, 8, 7, 7]

    def test_past_capacity_raises(self):
        stack = [TreeAggregator(1.0, 20, derive_stream(4, f"agg/{k}"), width=2) for k in range(2)]
        noise_offsets(stack, [15, 15])
        with pytest.raises(CapacityError):
            noise_offsets(stack, [5, 6])
        # all or nothing: no aggregator advanced
        assert [agg.n for agg in stack] == [15, 15]
        noise_offsets(stack, [5, 5])
        with pytest.raises(CapacityError):
            stack[1].update(np.zeros(2))

    def test_stacked_aggregators_must_agree(self):
        def agg(eps=1.0, capacity=64, width=2, updates=1):
            out = TreeAggregator(eps, capacity, derive_stream(5, "agg"), width=width)
            for _ in range(updates):
                out.update(np.ones(width))
            return out

        a = agg()
        for other in (agg(updates=0), agg(width=3), agg(capacity=640), agg(eps=math.inf)):
            with pytest.raises(ValueError, match="must share"):
                noise_offsets([a, other], [1, 1])
        assert a.n == 1
