import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_twins import PlayPreamble, assert_same_state, cut_shapes, play_twins
from privbandit import CppqPolicy, LinearDemandEnv, LppqConfig, LppqPolicy, make_env
from privbandit.partition import LEFT_CUT, PRESETS, RIGHT_CUT, SENSITIVITY_CORRECT, UNIT_SCALE
from privbandit.prng import derive_stream


ENV = LinearDemandEnv()
BLOCK = LppqPolicy.BLOCK


def make_policy(T=100, eps=math.inf, kappa1=1e-6, kappa2=10.0, J=1, seed=0, **kw):
    # kappa2 = 10 gates the first cut to a full-cycle boundary: the raw
    # per-phase sums are only comparable when every phase has equal visits
    cfg = LppqConfig(T=T, eps=eps, J_request=J, kappa1=kappa1, kappa2=kappa2)
    return LppqPolicy(cfg, ENV, derive_stream(seed, "policy"), **kw)


def drive(policy, phase_rewards, cycles, start_t=1):
    events = []
    t = start_t
    x = (0.3, 0.3)
    for _ in range(cycles):
        for k in range(5):
            p = policy.choose_price(x, t)
            events += policy.update(x, p, phase_rewards[k] / p, t)
            t += 1
    return events, t


class TestPresets:
    def test_theorem_constants(self):
        cfg = LppqConfig.theorem(T=1000, eps=1.0)
        assert cfg.kappa1 == pytest.approx(1.7 * math.sqrt(math.log(2000)))
        assert cfg.kappa2 == pytest.approx(31.0 * math.log(1000))
        # J = ceil((eps sqrt(T))^(d/(d+2))) with d=2
        assert cfg.J_request == math.ceil(math.sqrt(1000) ** 0.5)

    def test_experiment_constants(self):
        cfg = LppqConfig.experiment(T=500, eps=0.1)
        assert cfg.kappa1 == pytest.approx(0.001 * math.sqrt(math.log(500)))
        assert cfg.kappa2 == pytest.approx(0.1 * math.log(500))
        assert cfg.J_request == math.ceil((0.1 * math.sqrt(500)) ** 0.5)

    def test_infinite_budget_cube_fallback(self):
        # eps = inf would make the eps-dependent formula blow up; fall back
        # to the noise-free cube count T^(d/(d+4))
        cfg = LppqConfig.theorem(T=1000, eps=math.inf)
        assert cfg.J_request == math.ceil(1000 ** (2 / 6))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LppqConfig(T=0, eps=1.0, J_request=1, kappa1=1, kappa2=1)
        with pytest.raises(ValueError):
            LppqConfig(T=10, eps=0.0, J_request=1, kappa1=1, kappa2=1)


class TestRecord:
    def test_noise_off_release_is_one_hot(self):
        pol = make_policy(J=4)
        x = (0.1, 0.1)  # cube 0
        z = pol.record(x, 0.5, 0.6, 1)
        np.testing.assert_allclose(z, [0.3, 0.0, 0.0, 0.0])

    def test_running_sums_accumulate_per_phase(self):
        pol = make_policy(J=4, T=20)
        x = (0.1, 0.1)
        for t in range(1, 21):
            pol.record(x, 1.0, 0.3, t)
        np.testing.assert_allclose(pol._sums[0][:, 0], 1.2)  # 4 cycles x 0.3
        np.testing.assert_allclose(pol._sums[0][:, 1:], 0.0)

    def test_noise_on_release_matches_stream_draws(self):
        # with y = 0 the released vector is exactly the Laplace draw
        eps, J, T = 0.5, 4, 10
        pol = make_policy(T=T, eps=eps, J=J, seed=9)
        replica = derive_stream(9, "policy/ldp-noise")
        for t in range(1, T + 1):
            expected = replica.laplace(2.0 / eps, size=pol.J)
            z = pol.record((0.1, 0.1), 1.0, 0.0, t)
            np.testing.assert_array_equal(z, expected)

    def test_noise_added_on_top_of_revenue(self):
        eps = 0.5
        pol = make_policy(T=10, eps=eps, J=4, seed=9)
        replica = derive_stream(9, "policy/ldp-noise")
        expected = replica.laplace(2.0 / eps, size=pol.J)
        z = pol.record((0.1, 0.1), 2.0, 0.4, 1)
        assert z[0] == pytest.approx(expected[0] + 0.8)
        np.testing.assert_array_equal(z[1:], expected[1:])

    def test_in_order_records_enforced(self):
        pol = make_policy()
        pol.record((0.1, 0.1), 0.5, 0.2, 1)
        with pytest.raises(RuntimeError):
            pol.record((0.1, 0.1), 0.5, 0.2, 3)

    def test_noise_scale_and_eps_eff(self):
        noisy = make_policy(eps=2.0)
        assert noisy.noise_scale == pytest.approx(1.0)
        assert noisy._eps_eff == 2.0
        clean = make_policy(eps=math.inf)
        assert clean.noise_scale == 0.0
        assert clean._eps_eff == 1.0  # unit budget keeps the width positive

    def test_sensitivity_mode_scales_noise(self):
        lit = make_policy(eps=1.0)
        cor = make_policy(eps=1.0, sensitivity_mode="sensitivity-correct")
        assert cor.noise_scale / lit.noise_scale == pytest.approx(ENV.r_max)


class TestShrinkDecisions:
    def test_flat_revenue_never_cuts(self):
        pol = make_policy()
        events, _ = drive(pol, [0.3] * 5, cycles=10)
        assert events == []

    def test_period_gate_blocks_early_cuts(self):
        pol = make_policy(kappa2=1000.0, T=200)
        events, _ = drive(pol, [0.1, 0.2, 0.3, 0.25, 0.2], cycles=40)
        assert events == []

    def test_increasing_left_triple_cuts_left(self):
        pol = make_policy()
        events, _ = drive(pol, [0.1, 0.2, 0.3, 0.25, 0.2], cycles=2)
        assert len(events) == 1
        assert events[0].direction == LEFT_CUT
        g = pol.price_grid(0)
        assert (g.rho[0], g.rho[4]) == pytest.approx((1.5, 4.5))
        assert g.epoch == 2

    def test_decreasing_right_triple_cuts_right(self):
        pol = make_policy()
        events, _ = drive(pol, [0.3, 0.3, 0.3, 0.2, 0.1], cycles=2)
        assert events[0].direction == RIGHT_CUT
        g = pol.price_grid(0)
        assert (g.rho[0], g.rho[4]) == pytest.approx((0.5, 3.5))

    def test_left_cut_wins_when_both_fire(self):
        pol = make_policy()
        events, _ = drive(pol, [0.1, 0.2, 0.3, 0.2, 0.1], cycles=2)
        assert events[0].direction == LEFT_CUT

    def test_wide_confidence_blocks_cuts(self):
        pol = make_policy(kappa1=100.0)
        events, _ = drive(pol, [0.1, 0.2, 0.3, 0.25, 0.2], cycles=10)
        assert events == []


class TestPrivacyInterface:
    def test_state_depends_only_on_released_vectors(self):
        # replaying only the z vectors into a twin policy (which never sees
        # x, p, or y) reproduces the full decision state
        a = make_policy(T=50, eps=1.0, J=4, seed=3)
        b = make_policy(T=50, eps=1.0, J=4, seed=99)  # different noise stream
        stream = derive_stream(4, "ctx")
        for t in range(1, 51):
            x = stream.unit(2)
            p = a.choose_price(x, t)
            z = a.record(x, p, float(stream.unit()), t)
            a.maybe_shrink(t)
            b._apply(z.copy(), t)
            b.maybe_shrink(t)
        np.testing.assert_array_equal(a._sums[0], b._sums[0])
        np.testing.assert_array_equal(a._lo, b._lo)
        np.testing.assert_array_equal(a._hi, b._hi)
        np.testing.assert_array_equal(a._epoch, b._epoch)
        np.testing.assert_array_equal(a._pointer, b._pointer)

    def test_every_cube_gets_fresh_noise_each_period(self):
        # period t consumes exactly J draws: after T periods the policy's
        # noise stream is at the same position as a fresh stream advanced T*J
        eps, T = 1.0, 7
        pol = make_policy(T=T, eps=eps, J=4, seed=11)
        for t in range(1, T + 1):
            pol.record((0.9, 0.9), 1.0, 0.5, t)
        replica = derive_stream(11, "policy/ldp-noise")
        for _ in range(T):
            replica.laplace(2.0 / eps, size=pol.J)
        assert pol._stream.unit() == replica.unit()


class TestNoiseConcentration:
    def test_sum_of_private_noise_within_confidence_width(self):
        # the cut statistic subtracts n private records; its noise is a sum
        # of n Laplace(2/eps) draws, which the kappa1 sqrt(n)/eps width from
        # the analysis should cover with high probability
        T, n, eps = 1000, 500, 1.0
        kappa1 = 1.7 * math.sqrt(math.log(2 * T))
        sums = derive_stream(8, "conc").laplace(2.0 / eps, size=(1000, n)).sum(axis=1)
        frac = np.mean(np.abs(sums) <= 3.0 * kappa1 * math.sqrt(n) / eps)
        assert frac >= 0.95


ENVS = {"linear": ENV,
        "adversarial-m2": make_env("adversarial", m=2, nu=(1, 0, 0, 1)),
        "adversarial-m3": make_env("adversarial", m=3, nu=(0, 1, 1, 0, 1, 0, 0, 1, 1))}


class TestPlay(PlayPreamble):
    """play, the bulk episode engine, against the per-period reference loop."""

    KIND = "lppq"

    @settings(max_examples=60, deadline=None)
    @given(env=st.sampled_from(sorted(ENVS)),
           T=st.one_of(st.integers(1, 40), st.integers(1, 2500)),
           eps=st.sampled_from([10.0, 1.0, 0.1, 0.01, math.inf]),
           preset=st.sampled_from(PRESETS),
           mode=st.sampled_from([UNIT_SCALE, SENSITIVITY_CORRECT]),
           J=st.sampled_from([None, 1, 4, 9, 16, 49]),
           seed=st.integers(0, 2**32 - 1))
    def test_engine_equals_loop(self, env, T, eps, preset, mode, J, seed):
        loop, engine = play_twins(ENVS[env], T, "lppq", eps, seed, preset, mode, J)
        assert_same_state(loop, engine)

    @pytest.mark.parametrize("env, eps, J", [
        ("linear", 10.0, 64), ("linear", 1.0, 9), ("linear", math.inf, 16),
        ("adversarial-m2", 10.0, 25), ("adversarial-m3", 1.0, 9)])
    def test_engine_equals_loop_through_many_cuts(self, env, eps, J):
        # several blocks, and cuts in most cubes: each one goes through _cut
        T = 3 * BLOCK + 77
        loop, engine = play_twins(ENVS[env], T, "lppq", eps, seed=5, J=J)
        assert (loop[0].shrink_count > 0).mean() > 0.5
        assert_same_state(loop, engine)

    def test_bursts_of_cuts_and_last_row_cuts(self):
        # with kappa1 = kappa2 = 0 any rise or fall cuts: cubes cut again and
        # again between two of their visits, and on a block's last row
        T = 3 * BLOCK + 77  # a partial last block, for either block size
        log = {}
        loop, engine = play_twins(ENV, T, "lppq", 1.0, seed=0, J=64, log=log,
                                  overrides=(("kappa1", 0.0), ("kappa2", 0.0)))
        longest, last_row = cut_shapes(log, BLOCK)
        assert longest >= 3 and last_row >= 1
        assert_same_state(loop, engine)

    @pytest.mark.parametrize("T", [4, BLOCK - 1, BLOCK + 1, 1003])
    def test_horizon_not_a_multiple_of_the_block(self, T):
        assert T % CppqPolicy.BLOCK and T % BLOCK
        loop, engine = play_twins(ENV, T, "lppq", 1.0, seed=9, J=9)
        assert_same_state(loop, engine)

    def test_noise_is_drawn_in_blocks(self):
        # one (rows, J) Laplace call per block of periods, not one per period
        T = 2 * BLOCK + 1
        pol = make_policy(T=T, eps=1.0, J=4)
        draw, sizes = pol._stream.laplace, []
        pol._stream.laplace = lambda scale, size: sizes.append(size) or draw(scale, size=size)
        pol.play(np.zeros(T, dtype=np.int64), lambda i, p: 0.5 + 0.0 * p)
        assert sizes == [(BLOCK, 4), (BLOCK, 4), (1, 4)]
