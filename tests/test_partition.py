import importlib
import pkgutil
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privbandit
from privbandit import PriceGrid, build_partition, cube_index, phase_index
from privbandit.partition import (LEFT_CUT, RIGHT_CUT, HorizonConfig, Quadrisection, ShrinkEvent,
                                  _quartiles, _spread, cube_index_many)
from privbandit.prng import derive_stream


# value-type price grids, the reference the vectorized search is checked against
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


def cube_bounds(part, j: int):
    """(lo, hi) corner vectors of cube j: its base-m digits, most significant axis first, times h."""
    lo = np.array(np.unravel_index(j, (part.m,) * part.d)) * part.h
    return lo, lo + part.h


class TestBuildPartition:
    def test_perfect_square(self):
        part = build_partition(2, 4)
        assert (part.m, part.J, part.h) == (2, 4, 0.5)

    def test_rounds_up_per_axis(self):
        part = build_partition(2, 40)  # ceil(sqrt(40)) = 7
        assert (part.m, part.J) == (7, 49)
        assert part.h == pytest.approx(1 / 7)

    def test_one_dimensional_identity(self):
        part = build_partition(1, 5)
        assert (part.m, part.J, part.h) == (5, 5, 0.2)

    def test_float_root_off_by_one(self):
        # 3^3 = 27: the float cube root of 27 can land just below 3
        assert build_partition(3, 27).m == 3
        assert build_partition(2, 49).m == 7
        assert build_partition(2, 50).m == 8

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_partition(0, 4)
        with pytest.raises(ValueError):
            build_partition(2, 0)
        with pytest.raises(ValueError):
            build_partition(1, 2**63)
        with pytest.raises(ValueError):  # refused before the float root can overflow
            build_partition(2, 10**400)


class TestCubeIndex:
    def test_row_major_convention(self):
        part = build_partition(2, 4)
        assert cube_index(part, (0.1, 0.9)) == 1

    def test_top_face_clamps(self):
        part = build_partition(2, 4)
        assert cube_index(part, (1.0, 1.0)) == 3

    def test_m7_center(self):
        part = build_partition(2, 49)
        assert cube_index(part, (0.5, 0.5)) == 24  # digits (3,3)

    def test_rejects_out_of_domain(self):
        part = build_partition(2, 4)
        with pytest.raises(ValueError):
            cube_index(part, (1.1, 0.5))
        with pytest.raises(ValueError):
            cube_index(part, (-0.01, 0.5))
        with pytest.raises(ValueError):
            cube_index(part, (np.nan, 0.5))
        with pytest.raises(ValueError):
            cube_index_many(part, np.array([[0.5, 0.5], [0.5, np.nan]]))

    def test_partition_covers_unit_cube(self):
        part = build_partition(2, 40)
        X = derive_stream(0, "cover").unit((10**5, 2))
        js = cube_index_many(part, X)
        assert np.all((0 <= js) & (js < part.J))
        for j in np.unique(js)[:20]:
            lo, hi = cube_bounds(part, int(j))
            pts = X[js == j]
            assert np.all(pts >= lo - 1e-15) and np.all(pts < hi + 1e-15)

    def test_scalar_and_vector_agree(self):
        part = build_partition(3, 30)
        X = derive_stream(1, "agree").unit((500, 3))
        js = cube_index_many(part, X)
        assert all(cube_index(part, x) == j for x, j in zip(X, js))


class TestPriceGrid:
    def test_init_quartiles(self):
        g = init_price_grid(0.5, 4.5)
        assert g.rho == pytest.approx((0.5, 1.5, 2.5, 3.5, 4.5))
        assert (g.epoch, g.pointer) == (1, 0)

    def test_unit_interval(self):
        assert init_price_grid(0.0, 1.0).rho == pytest.approx((0, 0.25, 0.5, 0.75, 1))

    def test_tiny_interval_stays_ascending(self):
        eps = 1e-12
        g = init_price_grid(2.0, 2.0 + 4 * eps)
        assert all(a < b for a, b in zip(g.rho, g.rho[1:]))
        # at widths this close to machine epsilon the spacing can only be
        # uniform to within a couple of ulps of the endpoints
        diffs = np.diff(g.rho)
        np.testing.assert_allclose(diffs, diffs[0], atol=4 * np.spacing(2.0))

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            init_price_grid(3.0, 3.0)

    def test_left_cut(self):
        g = shrink_grid(init_price_grid(0.5, 4.5), LEFT_CUT, now=17)
        assert g.rho == pytest.approx((1.5, 2.25, 3.0, 3.75, 4.5))
        assert (g.epoch, g.pointer) == (2, 17)

    def test_right_cut(self):
        g = shrink_grid(init_price_grid(0.5, 4.5), RIGHT_CUT, now=9)
        assert g.rho == pytest.approx((0.5, 1.25, 2.0, 2.75, 3.5))

    def test_two_cuts_shrink_by_nine_sixteenths(self):
        g0 = init_price_grid(0.5, 4.5)
        g2 = shrink_grid(shrink_grid(g0, LEFT_CUT, 1), RIGHT_CUT, 2)
        assert g2.width == pytest.approx(g0.width * 0.75**2)

    def test_width_after_many_cuts(self):
        stream = derive_stream(2, "cuts")
        g = init_price_grid(0.5, 4.5)
        for n in range(1, 41):
            direction = LEFT_CUT if stream.unit() < 0.5 else RIGHT_CUT
            g = shrink_grid(g, direction, n)
            assert g.width == pytest.approx(4.0 * 0.75**n, rel=1e-9)
            assert g.epoch == n + 1
            assert all(0.5 <= r <= 4.5 for r in g.rho)
            assert np.allclose(np.diff(g.rho), g.width / 4, rtol=1e-12, atol=1e-15)

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError):
            shrink_grid(init_price_grid(0, 1), "sideways", 1)


class TestPhaseIndex:
    def test_cycle(self):
        assert phase_index(1) == 1
        assert phase_index(5) == 5
        assert phase_index(12) == 2
        assert [phase_index(t) for t in range(1, 11)] == [1, 2, 3, 4, 5, 1, 2, 3, 4, 5]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            phase_index(0)


class TestCutSafety:
    """Monotone triples never vote to discard a concave maximizer."""

    def test_concave_quadratics_brute_force(self):
        stream = derive_stream(4, "quadratics")
        for _ in range(1000):
            lo = float(stream.uniform(0.0, 2.0))
            width = float(stream.uniform(0.5, 3.0))
            g = init_price_grid(lo, lo + width)
            p_star = float(stream.uniform(g.rho[0], g.rho[4]))
            a = float(stream.uniform(0.1, 5.0))
            f = lambda p: -a * (p - p_star) ** 2
            vals = [f(r) for r in g.rho]
            if vals[0] <= vals[1] <= vals[2]:
                assert p_star >= g.rho[1] - 1e-12  # left-cut keeps it
            if vals[4] <= vals[3] <= vals[2]:
                assert p_star <= g.rho[3] + 1e-12  # right-cut keeps it


@st.composite
def cut_sequences(draw):
    """(J, p_lo, p_hi, [(left mask, right mask), ...], statistics seed) for one search."""
    J = draw(st.integers(1, 6))
    p_lo = draw(st.floats(-5.0, 5.0))
    p_hi = p_lo + draw(st.floats(0.5, 5.0))
    masks = st.lists(st.booleans(), min_size=J, max_size=J)
    steps = draw(st.lists(st.tuples(masks, masks), max_size=30))
    seed = draw(st.integers(0, 2**32 - 1))
    return J, p_lo, p_hi, steps, seed


class TestQuadrisection:
    @settings(max_examples=200, deadline=None)
    @given(cut_sequences())
    def test_vectorized_cuts_match_chained_shrink_grid(self, case):
        # maybe_shrink cuts every cube its rule flags, one _cut each;
        # a right cut computes hi - w/4 where shrink_grid takes lo + 3w/4,
        # so interval ends agree to rounding, epochs and pointers exactly;
        # the snapshot takes the statistics exactly on the cut cubes
        J, p_lo, p_hi, steps, seed = case
        rng = np.random.default_rng(seed)
        quad = Quadrisection(HorizonConfig(T=len(steps) + 1, eps=1.0, J_request=J),
                             SimpleNamespace(d=1, p_lo=p_lo, p_hi=p_hi))
        ref = [init_price_grid(p_lo, p_hi)] * J
        tol = 1e-12 * (p_hi - p_lo)
        for t, (left, right) in enumerate(steps, start=1):
            left, right = np.array(left), np.array(right)
            quad._cut_flags = lambda since, n: (left, right)  # the rule's verdict, by hand
            quad._sums[:] = rng.normal(size=quad._sums.shape)
            before = quad._snap.copy()
            events = quad.maybe_shrink(t)
            expected = []
            for j in np.flatnonzero(left | right):
                direction = LEFT_CUT if left[j] else RIGHT_CUT  # left wins
                ref[j] = shrink_grid(ref[j], direction, t)
                expected.append(ShrinkEvent(t=t, cube=int(j), direction=direction,
                                            epoch=ref[j].epoch))
            assert events == expected
            cut = left | right
            np.testing.assert_array_equal(quad._snap[..., cut], quad._sums[..., cut])
            np.testing.assert_array_equal(quad._snap[..., ~cut], before[..., ~cut])
            for j in range(J):
                grid = quad.price_grid(j)
                assert (grid.epoch, grid.pointer) == (ref[j].epoch, ref[j].pointer)
                assert abs(grid.rho[0] - ref[j].rho[0]) <= tol
                assert abs(grid.rho[4] - ref[j].rho[4]) <= tol
        np.testing.assert_array_equal(quad.shrink_count, [g.epoch - 1 for g in ref])


def subclasses(cls) -> set:
    return {s for c in cls.__subclasses__() for s in (c, *subclasses(c))}


class TestBlock:
    def test_spread_follows_the_slot_schedule(self):
        # after block row r, slot k holds group (r - k) // 5 + 1's value, at every
        # row count a block can have, partial last groups included
        rng = np.random.default_rng(0)
        for rows in range(1, Quadrisection.BLOCK + 1):
            groups = (rows + 4) // 5
            g = rng.normal(size=(groups + 1, 2, 5, 3))
            out = _spread(g)
            assert out.shape == (5 * groups + 1, 2, 5, 3)
            np.testing.assert_array_equal(out[0], g[0])
            r, k = np.arange(rows)[:, None], np.arange(5)
            np.testing.assert_array_equal(out[1:rows + 1][r, :, k], g[(r - k) // 5 + 1, :, k])

    def test_one_block_for_every_policy(self):
        # row r of a block has slot r % 5, and the engine alone sets the block size
        assert Quadrisection.BLOCK % 5 == 0
        for mod in pkgutil.iter_modules(privbandit.__path__):
            importlib.import_module(f"privbandit.{mod.name}")
        ours = {c for c in subclasses(Quadrisection) if c.__module__.startswith("privbandit.")}
        assert {c.__name__ for c in ours} >= {"CppqPolicy", "LppqPolicy"}
        assert not [c for c in ours if "BLOCK" in vars(c)]
