import numpy as np
import pytest

from privbandit import AdversarialEnv, LinearDemandEnv
from privbandit.env import DemandEnvironment, boundary_distance_many
from privbandit.partition import HypercubePartition, build_partition
from privbandit.prng import RngStream, derive_stream


@pytest.fixture(scope="module")
def linear():
    return LinearDemandEnv()


class TestLinearDemand:
    def test_mean_demand_by_hand(self, linear):
        assert linear.mean_demand(1.0, (0.0, 0.0)) == pytest.approx(0.2)
        assert linear.mean_demand(4.0, (1.0, 1.0)) == pytest.approx(0.8)
        assert linear.mean_demand(2.5, (0.5, 0.5)) == pytest.approx(0.5)

    def test_oracle_price_closed_form(self, linear):
        # p* = 1 + 1.5 (x1 + x2) for the default coefficients
        assert linear.oracle_price((0.0, 0.0)) == pytest.approx(1.0)
        assert linear.oracle_price((1.0, 1.0)) == pytest.approx(4.0)
        assert linear.oracle_price((0.5, 0.5)) == pytest.approx(2.5)

    def test_oracle_price_stays_in_bounds(self, linear):
        X = derive_stream(0, "lin").unit((2000, 2))
        ps = linear.oracle_price(X)
        assert np.all((1.0 <= ps) & (ps <= 4.0))

    def test_oracle_beats_grid_search(self, linear):
        ps = np.linspace(0.5, 4.5, 10**4)
        X = derive_stream(1, "grid").unit((100, 2))
        for x in X:
            best = ps[np.argmax(linear.mean_revenue(ps, x))]
            assert abs(float(linear.oracle_price(x)) - best) < 1e-3
            assert linear.mean_revenue(linear.oracle_price(x), x) >= \
                np.max(linear.mean_revenue(ps, x)) - 1e-9

    def test_zero_noise_realization_is_mean(self):
        env = LinearDemandEnv(noise_half_width=0.0)
        s = derive_stream(2, "realize")
        assert env.realize_demand(2.5, (0.5, 0.5), s) == pytest.approx(0.5)

    def test_noise_is_bounded_uniform(self, linear):
        noise = linear.demand_noise(derive_stream(3, "noise"), 10**5)
        assert np.all(np.abs(noise) <= 0.1)
        assert abs(noise.mean()) < 0.002
        assert noise.var() == pytest.approx(0.1**2 / 3, rel=0.05)

    def test_rejects_out_of_range_inputs(self, linear):
        with pytest.raises(ValueError):
            linear.mean_demand(5.0, (0.5, 0.5))
        with pytest.raises(ValueError):
            linear.mean_demand(2.0, (1.5, 0.5))
        with pytest.raises(ValueError, match="price"):
            linear.mean_demand(np.nan, (0.5, 0.5))
        with pytest.raises(ValueError, match="context"):
            linear.mean_demand(2.0, (np.nan, 0.5))
        with pytest.raises(ValueError, match="context"):
            linear.oracle_price((0.5, np.nan))

    @pytest.mark.parametrize("w", [-0.1, np.nan, np.inf, "0.1", True])
    def test_rejects_bad_noise_half_width(self, w):
        with pytest.raises(ValueError, match="noise_half_width"):
            LinearDemandEnv(noise_half_width=w)

    def test_has_two_context_coordinates(self, linear):
        assert linear.d == 2
        with pytest.raises(TypeError):
            LinearDemandEnv(d=3)

    def test_rejects_upward_sloping_demand(self):
        with pytest.raises(ValueError):
            LinearDemandEnv(theta=(0.4, 0.6, 0.6, 0.2))

    def test_rejects_boundary_maximizer(self):
        # a big intercept pushes the unconstrained optimum past p_hi
        with pytest.raises(ValueError):
            LinearDemandEnv(theta=(4.0, 0.6, 0.6, -0.2))


def boundary_distance(part, x):
    """Distance from one point x to the boundary of its containing cube, checked.

    The scalar form of ``boundary_distance_many``, face by face in Python floats.
    """
    if not all(0.0 <= c <= 1.0 for c in x):  # NaN fails too
        raise ValueError("context coordinates must lie in [0,1]")
    faces = []
    for c in x:
        lo = min(int(c * part.m), part.m - 1) * part.h
        faces += [c - lo, lo + part.h - c]
    return min(faces)


class TestBoundaryDistance:
    def test_cube_center(self):
        part = build_partition(2, 4)  # m=2, h=0.5
        assert boundary_distance(part, (0.25, 0.25)) == pytest.approx(0.25)

    def test_on_boundary(self):
        part = build_partition(2, 4)
        assert boundary_distance(part, (0.5, 0.3)) == pytest.approx(0.0)

    def test_min_over_faces(self):
        part = build_partition(2, 4)
        # per-axis face gaps are (0.1, 0.4) and (0.3, 0.2); min is 0.1
        assert boundary_distance(part, (0.1, 0.3)) == pytest.approx(0.1)

    def test_vectorized_agrees_with_scalar(self):
        part = build_partition(2, 9)
        X = derive_stream(4, "bd").unit((300, 2))
        many = boundary_distance_many(part, X)
        assert all(boundary_distance(part, x) == pytest.approx(d)
                   for x, d in zip(X, many))
        assert np.all((0 <= many) & (many <= part.h / 2))

    def test_rejects_out_of_domain(self):
        part = build_partition(2, 4)
        for x in ((1.5, 0.5), (-0.1, 0.5), (np.nan, 0.5)):
            with pytest.raises(ValueError):
                boundary_distance(part, x)


class TestAdversarialDemand:
    def make(self, nu):
        part = HypercubePartition(d=2, m=2)
        return AdversarialEnv(partition=part, nu=nu)

    def test_mean_demand_substitutions(self):
        flat = self.make((0, 0, 0, 0))
        bump = self.make((1, 1, 1, 1))
        # nu = 0: lambda = 2/3 - p/2 regardless of position
        assert flat.mean_demand(2.0 / 3.0, (0.25, 0.25)) == pytest.approx(1.0 / 3.0)
        # nu = 1 on the boundary: distance term vanishes
        assert bump.mean_demand(2.0 / 3.0, (0.5, 0.25)) == pytest.approx(1.0 / 3.0)
        # nu = 1, p = 0, distance 0.1: 2/3 + (1/3)(0.1) = 0.7
        assert bump.mean_demand(0.0, (0.1, 0.3)) == pytest.approx(0.7)

    def test_lambda_is_a_probability(self):
        ps = np.linspace(0.0, 1.0, 101)
        for m in (1, 2, 4):
            part = HypercubePartition(d=2, m=m)
            env = AdversarialEnv(partition=part, nu=(1,) * part.J)
            X = derive_stream(5, f"prob/{m}").unit((200, 2))
            for p in ps[::10]:
                lam = env.mean_demand(p, X)
                assert np.all((0.0 <= lam) & (lam <= 1.0))

    def test_oracle_closed_form(self):
        flat = self.make((0, 0, 0, 0))
        bump = self.make((1, 1, 1, 1))
        assert flat.oracle_price((0.25, 0.25)) == pytest.approx(2.0 / 3.0)
        assert bump.oracle_price((0.5, 0.25)) == pytest.approx(2.0 / 3.0)
        # distance 0.1: 2/3 - 0.1 / (3 * 1.1)
        assert bump.oracle_price((0.1, 0.3)) == pytest.approx(2.0 / 3.0 - 0.1 / 3.3)

    def test_oracle_beats_grid_search(self):
        env = self.make((1, 0, 0, 1))
        ps = np.linspace(0.0, 1.0, 10**4)
        X = derive_stream(6, "adv-grid").unit((100, 2))
        for x in X:
            revs = ps * env.mean_demand(ps, x)
            assert float(env.mean_revenue(env.oracle_price(x), x)) >= revs.max() - 1e-7

    def test_bernoulli_realization(self):
        env = self.make((0, 0, 0, 0))
        s = derive_stream(7, "bern")
        x, p = (0.25, 0.25), 2.0 / 3.0  # lambda = 1/3
        draws = np.array([env.realize_demand(p, x, s) for _ in range(10**5)])
        assert set(np.unique(draws)) <= {0.0, 1.0}
        assert abs(draws.mean() - 1.0 / 3.0) < 0.01

    def test_rejects_bad_nu(self):
        part = HypercubePartition(d=2, m=2)
        with pytest.raises(ValueError):
            AdversarialEnv(partition=part, nu=(0, 1))
        with pytest.raises(ValueError):
            AdversarialEnv(partition=part, nu=(0, 1, 2, 0))
        with pytest.raises(ValueError):  # int() would truncate 0.7 to 0
            AdversarialEnv(partition=part, nu=(0.7, 1, 1, 1))

    @pytest.mark.parametrize("p_lo, p_hi", [(2.0, 1.0), (0.7, 1.0), (0.0, 0.6), (-0.1, 1.0),
                                            (0.0, 1.5), (np.nan, 1.0)])
    def test_rejects_prices_that_miss_the_optimum_or_leave_unit_range(self, p_lo, p_hi):
        with pytest.raises(ValueError, match="optimal prices"):
            AdversarialEnv(partition=HypercubePartition(d=2, m=2), nu=(1, 0, 0, 1),
                           p_lo=p_lo, p_hi=p_hi)

    def test_narrow_prices_around_the_optimum_accepted(self):
        # m=2: the largest boundary distance is 1/4, the lowest optimal price 2/3 - 1/15
        env = AdversarialEnv(partition=HypercubePartition(d=2, m=2), nu=(1, 1, 1, 1),
                             p_lo=0.6, p_hi=2 / 3)
        X = derive_stream(8, "narrow").unit((500, 2))
        ps = env.oracle_price(X)
        assert np.all((env.p_lo <= ps) & (ps <= env.p_hi))


class _ConstantDemandEnv(DemandEnvironment):
    """Revenue p * 0.5 is linear in p: no concavity anywhere."""

    d = 2
    p_lo = 0.0
    p_hi = 1.0
    r_max = 0.5
    name = "constant"

    def mean_demand(self, p, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(0.5, np.broadcast(np.asarray(p), x[..., 0]).shape).copy()

    def oracle_price(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.p_hi, x[..., 0].shape).copy()

    def realize_demand(self, p, x, stream):
        return 0.5


class TestEpisodeDemand:
    """The episode's demand oracle is pure and takes arrays as well as scalars."""

    @pytest.mark.parametrize("env", [
        LinearDemandEnv(),
        AdversarialEnv(partition=build_partition(2, 4), nu=(1, 0, 0, 1)),
        AdversarialEnv(partition=build_partition(2, 9), nu=(0, 1) * 4 + (1,)),
    ], ids=["linear", "adversarial-m2", "adversarial-m3"])
    def test_arrays_equal_scalar_calls_exactly(self, env):
        T = 400
        stream = derive_stream(6, "demand-oracle")
        X = env.sample_context(stream.child("context"), size=T)
        demand = env.episode_demand(stream.child("demand"), X)
        idx = stream.integers(0, T, size=300)  # repeats and out of order on purpose
        p = env.p_lo + (env.p_hi - env.p_lo) * stream.unit(300)
        bulk = demand(idx, p)
        scalar = np.array([demand(int(i), q) for i, q in zip(idx, p)])
        assert bulk.shape == idx.shape
        np.testing.assert_array_equal(bulk, scalar)
        # pure: asking again, in another order, gives the same answers
        np.testing.assert_array_equal(demand(idx[::-1], p[::-1]), scalar[::-1])

    def test_base_class_has_no_stream_order_fallback(self):
        env = _ConstantDemandEnv()
        with pytest.raises(NotImplementedError, match="pure demand oracle"):
            env.episode_demand(derive_stream(0, "demand"), np.zeros((3, 2)))


def check_assumptions(env: DemandEnvironment, grid_resolution: int = 201,
                      contexts_per_cube: int = 64, cubes_per_axis: int = 4,
                      seed: int = 0) -> dict:
    """Numerical audit of the regularity assumptions; report-only.

    Checks, per context cube: strong concavity of the cube-averaged revenue
    curve (negative second difference bounded away from 0 and above), and a
    global Lipschitz estimate of f in (p, x).  Returns measured constants
    and pass/fail flags; nothing is raised.
    """
    part = HypercubePartition(d=env.d, m=cubes_per_axis)
    stream = RngStream(seed, "assumption-check")
    ps = np.linspace(env.p_lo, env.p_hi, grid_resolution)
    dp = ps[1] - ps[0]
    second_diffs = []
    for j in range(part.J):
        lo = np.array(np.unravel_index(j, (part.m,) * part.d)) * part.h
        hi = lo + part.h
        xs = lo + (hi - lo) * stream.unit((contexts_per_cube, env.d))
        fbar = np.array([np.mean(env.mean_revenue(p, xs)) for p in ps])
        d2 = np.diff(fbar, 2) / dp**2
        second_diffs.append(d2)
    d2_all = np.concatenate(second_diffs)
    sigma_sq = float(-np.max(d2_all))   # weakest curvature
    c_sq = float(-np.min(d2_all))       # strongest curvature
    concave = bool(sigma_sq > 1e-9)

    # Lipschitz estimate for f over random pairs
    n = 2000
    xs = stream.unit((n, env.d))
    xs2 = np.clip(xs + stream.uniform(-0.05, 0.05, size=(n, env.d)), 0.0, 1.0)
    pvals = env.p_lo + (env.p_hi - env.p_lo) * stream.unit(n)
    p2 = np.clip(pvals + stream.uniform(-0.05, 0.05, size=n), env.p_lo, env.p_hi)
    num = np.abs(env.mean_revenue(pvals, xs) - env.mean_revenue(p2, xs2))
    den = np.abs(pvals - p2) + np.linalg.norm(xs - xs2, axis=-1)
    mask = den > 1e-9
    lipschitz = float(np.max(num[mask] / den[mask]))

    return {
        "concavity_pass": concave,
        "sigma_H_sq": sigma_sq,
        "C_H_sq": c_sq,
        "lipschitz_estimate": lipschitz,
        "price_bounds": (env.p_lo, env.p_hi),
    }


class TestAssumptionAudit:
    def test_linear_env_passes(self):
        report = check_assumptions(LinearDemandEnv())
        assert report["concavity_pass"]
        # -d^2/dp^2 of p(.. + th3 p) is -2 th3 = 0.4 everywhere
        assert report["sigma_H_sq"] == pytest.approx(0.4, rel=1e-6)
        assert report["C_H_sq"] == pytest.approx(0.4, rel=1e-6)
        assert np.isfinite(report["lipschitz_estimate"])
        assert report["price_bounds"] == (0.5, 4.5)

    def test_flat_adversarial_passes(self):
        part = HypercubePartition(d=2, m=2)
        env = AdversarialEnv(partition=part, nu=(0, 0, 0, 0))
        report = check_assumptions(env)
        assert report["concavity_pass"]
        # revenue p(2/3 - p/2) has constant curvature -1
        assert report["sigma_H_sq"] == pytest.approx(1.0, rel=1e-6)

    def test_non_concave_env_fails(self):
        report = check_assumptions(_ConstantDemandEnv())
        assert not report["concavity_pass"]
