import math

import numpy as np
import pytest

from privbandit import (AggregateResult, LinearDemandEnv, PolicySpec, RunRecord,
                        build_partition, fit_loglog_slope, make_env, percentage_regret,
                        replicate, run_episode, run_one)
from privbandit.cppq import CppqConfig
from privbandit.harness import NONPRIVATE, aggregate, run_many
from privbandit.lppq import LppqConfig
from privbandit.prng import derive_stream


class _FixedPricePolicy:
    """Posts one price in every period."""

    def __init__(self, env, p):
        self.part = build_partition(env.d, 1)
        self.p = p

    def play(self, js, demand):
        return np.full(len(js), self.p)


class TestRunEpisode:
    def test_oracle_policy_has_zero_regret(self):
        # with no bit set the optimal price is 2/3 in every cube
        env = make_env("adversarial", m=2, nu=(0, 0, 0, 0))
        prices, X, oracle, realized, _ = run_episode(
            _FixedPricePolicy(env, 2 / 3), env, 500, derive_stream(0, "rep/0"))
        np.testing.assert_array_equal(env.oracle_price(X), prices)
        assert oracle - realized == pytest.approx(0.0, abs=1e-9)

    def test_policy_and_env_dimensions_must_match(self):
        policy = _FixedPricePolicy(make_env("adversarial", d=1, m=4), 2 / 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            run_episode(policy, LinearDemandEnv(), 10, derive_stream(0, "rep/0"))

    def test_fixed_price_regret_matches_direct_computation(self):
        env = LinearDemandEnv()
        p = 2.0
        prices, X, oracle, realized, _ = run_episode(
            _FixedPricePolicy(env, p), env, 200, derive_stream(1, "rep/0"))
        assert np.all(prices == p)
        expected_gap = env.mean_revenue(env.oracle_price(X), X) - env.mean_revenue(p, X)
        assert oracle - realized == pytest.approx(float(expected_gap.sum()))

    def test_regret_path_is_nonnegative_and_additive(self):
        env = LinearDemandEnv()
        _, _, oracle, realized, path = run_episode(
            _FixedPricePolicy(env, 3.0), env, 300, derive_stream(2, "rep/0"),
            keep_path=True)
        assert np.all(path >= -1e-9)
        assert path.sum() == pytest.approx(oracle - realized)

    def test_single_period_gap_by_hand(self):
        # zero-noise linear env, context fixed by construction of the stream
        env = LinearDemandEnv(noise_half_width=0.0)
        _, X, oracle, realized, _ = run_episode(
            _FixedPricePolicy(env, 2.0), env, 1, derive_stream(3, "rep/0"))
        x = X[0]
        p_star = float(env.oracle_price(x))
        gap = p_star * float(env.mean_demand(p_star, x)) - 2.0 * float(env.mean_demand(2.0, x))
        assert oracle - realized == pytest.approx(gap)
        assert gap >= 0.0

    def test_adversarial_env_episode_runs(self):
        env = make_env("adversarial", m=2, nu=(1, 0, 0, 1))
        spec = PolicySpec(kind="lppq", preset="experiment", eps=1.0)
        rec = run_one(spec, env, 200, root_seed=4, rep=0)
        assert rec.cumulative_regret >= 0.0
        assert rec.oracle_revenue > 0.0

    def test_episode_determinism(self):
        env = LinearDemandEnv()
        spec = PolicySpec(kind="cppq", preset="experiment", eps=1.0)
        a = run_one(spec, env, 300, root_seed=7, rep=0)
        b = run_one(spec, env, 300, root_seed=7, rep=0)
        assert a.cumulative_regret == b.cumulative_regret
        assert a.oracle_revenue == b.oracle_revenue
        c = run_one(spec, env, 300, root_seed=7, rep=1)
        assert c.cumulative_regret != a.cumulative_regret


class TestPercentageRegret:
    def rec(self, regret, oracle):
        return RunRecord(policy="x", env="linear", T=1, eps=1.0, J=1, seed=0,
                         rep=0, cumulative_regret=regret, oracle_revenue=oracle,
                         realized_expected_revenue=oracle - regret)

    def test_by_hand(self):
        assert percentage_regret(self.rec(5.0, 50.0)) == pytest.approx(10.0)
        assert percentage_regret(self.rec(0.0, 3.0)) == 0.0

    def test_rejects_nonpositive_oracle(self):
        with pytest.raises(ArithmeticError):
            percentage_regret(self.rec(1.0, 0.0))


class TestPolicySpec:
    def test_nonprivate_is_noise_free_central(self):
        spec = PolicySpec(kind=NONPRIVATE, eps=0.5, overrides=(("c2", 3),))
        cfg = spec.build_config(T=100, d=2)
        assert isinstance(cfg, CppqConfig)
        assert math.isinf(spec.eps) and math.isinf(cfg.eps)
        assert cfg.c2 == 3.0

    def test_kind_dispatch(self):
        assert isinstance(PolicySpec(kind="lppq", eps=1.0).build_config(100, 2), LppqConfig)
        assert isinstance(PolicySpec(kind="cppq", eps=1.0).build_config(100, 2), CppqConfig)

    def test_overrides_apply_on_top_of_preset(self):
        spec = PolicySpec(kind="cppq", preset="experiment", eps=1.0,
                          overrides=(("c1", 0.5),))
        cfg = spec.build_config(100, 2)
        assert cfg.c1 == 0.5
        assert cfg.preset == "custom"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            PolicySpec(kind="cppq", preset="bogus", eps=1.0).build_config(100, 2)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            PolicySpec(kind="bogus")

    def test_non_preset_attribute_rejected_at_construction(self):
        # a config-class attribute that is not a preset must not be called
        with pytest.raises(ValueError, match="unknown preset"):
            PolicySpec(kind="lppq", preset="__init__", eps=1.0)

    @pytest.mark.parametrize("kind, overrides", [
        ("cppq", (("T", 5),)),
        ("cppq", (("eps", 1.0),)),
        ("lppq", (("J_request", 4),)),
        ("lppq", (("preset", 1.0),)),
        ("lppq", (("c1", 0.1),)),
        (NONPRIVATE, (("kappa1", 1.0),)),
        ("cppq", (("c1", "x"),)),
    ])
    def test_only_the_kinds_constants_override(self, kind, overrides):
        with pytest.raises(ValueError):
            PolicySpec(kind=kind, eps=1.0, overrides=overrides)

    @pytest.mark.parametrize("kind, overrides", [
        ("cppq", (("c2", -5),)),
        ("cppq", (("c1", math.nan),)),
        ("lppq", (("kappa1", math.inf),)),
        ("lppq", (("kappa2", -math.inf),)),
        (NONPRIVATE, (("c1_prime", -1e-300),)),
        ("cppq", (("c1", 10**400),)),  # float() overflows
    ])
    def test_constants_must_be_finite_and_nonnegative(self, kind, overrides):
        with pytest.raises(ValueError, match="finite and >= 0"):
            PolicySpec(kind=kind, eps=1.0, overrides=overrides)

    def test_zero_and_large_finite_constants_accepted(self):
        # c2 = 0 is what the presets use at eps = inf
        cfg = PolicySpec(kind="cppq", eps=1.0, overrides=(("c2", 0), ("c1", 10**300))) \
            .build_config(100, 2)
        assert cfg.c2 == 0.0 and cfg.c1 == 1e300

    def test_zero_cube_count_still_rejected(self):
        with pytest.raises(ValueError):
            PolicySpec(kind="cppq", eps=1.0, J_request=0).build_config(100, 2)

    def test_explicit_cube_count(self):
        cfg = PolicySpec(kind="lppq", eps=1.0, J_request=9).build_config(100, 2)
        assert cfg.J_request == 9


class TestReplicate:
    def test_aggregation_and_determinism(self):
        env = LinearDemandEnv()
        spec = PolicySpec(kind=NONPRIVATE)
        recs, agg = replicate(spec, env, 150, reps=3, root_seed=11)
        assert isinstance(agg, AggregateResult)
        assert agg.reps == 3
        assert agg.mean_regret == pytest.approx(
            np.mean([r.cumulative_regret for r in recs]))
        assert agg.stderr_regret > 0
        recs2, agg2 = replicate(spec, env, 150, reps=3, root_seed=11)
        assert agg2.mean_regret == agg.mean_regret

    def test_single_rep_has_no_stderr(self):
        env = LinearDemandEnv()
        _, agg = replicate(PolicySpec(kind=NONPRIVATE), env, 100, reps=1, root_seed=1)
        assert agg.stderr_regret is None
        assert agg.stderr_pct_regret is None

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            replicate(PolicySpec(kind=NONPRIVATE), LinearDemandEnv(), 10,
                      reps=0, root_seed=1)

    def test_aggregate_percentages(self):
        env = LinearDemandEnv()
        recs, agg = replicate(PolicySpec(kind=NONPRIVATE), env, 100, reps=2, root_seed=2)
        assert agg.mean_pct_regret == pytest.approx(
            np.mean([percentage_regret(r) for r in recs]))
        again = aggregate(recs)
        assert again.mean_pct_regret == agg.mean_pct_regret


class TestRunMany:
    @staticmethod
    def tasks(n):
        env = make_env("adversarial", m=2, nu=[1, 0, 1, 1])
        specs = [PolicySpec(kind=NONPRIVATE), PolicySpec(kind="cppq", eps=1.0),
                 PolicySpec(kind="lppq", eps=1.0)]
        return [(specs[i % 3], env, 40 + 20 * (i % 2), 5, i) for i in range(n)]

    @staticmethod
    def key(rec):
        return (rec.policy, rec.T, rec.rep, rec.cumulative_regret, tuple(rec.shrink_count))

    @pytest.mark.parametrize("jobs", [2, 3, 9])
    def test_records_in_task_order_at_any_jobs(self, jobs):
        tasks = self.tasks(7)  # uneven shares at 2 and 3 jobs, more jobs than tasks at 9
        serial = [self.key(r) for r in run_many(tasks, 1)]
        assert [self.key(r) for r in run_many(tasks, jobs)] == serial
        assert [rep for _, _, rep, _, _ in serial] == list(range(7))

    @pytest.mark.parametrize("bad", [0, 1])  # share 0 runs here, share 1 in a worker
    def test_a_failing_task_raises(self, bad):
        tasks = self.tasks(4)
        tasks[bad] = tasks[bad][:2] + (0,) + tasks[bad][3:]  # T = 0
        with pytest.raises(ValueError):
            run_many(tasks, 2)


class TestSlopeFit:
    def test_exact_power_law(self):
        Ts = [500, 2500, 12500, 62500]
        pts = [(T, 3.0 * math.log(T) * T**0.75) for T in Ts]
        assert fit_loglog_slope(pts) == pytest.approx(0.75, abs=1e-12)

    def test_another_exponent(self):
        pts = [(T, 0.1 * math.log(T) * T**0.8) for T in (100, 1000, 10000)]
        assert fit_loglog_slope(pts) == pytest.approx(0.8, abs=1e-12)

    def test_constant_numerator_gives_zero(self):
        pts = [(T, 7.0 * math.log(T)) for T in (100, 1000, 10000)]
        assert fit_loglog_slope(pts) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(100, 1.0)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(100, 1.0), (200, -1.0)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(1, 1.0), (200, 1.0)])


class TestMakeEnv:
    def test_linear(self):
        env = make_env("linear")
        assert env.name == "linear"
        assert (env.p_lo, env.p_hi) == (0.5, 4.5)

    def test_adversarial_defaults_to_flat_bits(self):
        env = make_env("adversarial", m=3)
        assert env.partition.J == 9
        assert env.nu == (0,) * 9

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_env("cubic")

    @pytest.mark.parametrize("name, value", [("m", -1), ("m", 0), ("m", True), ("m", 1.5),
                                             ("d", 0), ("d", 2.0)])
    def test_adversarial_sizes_must_be_ints_at_least_one(self, name, value):
        with pytest.raises(ValueError, match=f"adversarial {name} must be an int >= 1"):
            make_env("adversarial", **{name: value})
