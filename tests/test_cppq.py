import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_twins import PlayPreamble, assert_same_state, cut_shapes, play_twins
from privbandit import CppqConfig, CppqPolicy, LinearDemandEnv, LppqPolicy, make_env
from privbandit.partition import LEFT_CUT, PRESETS, RIGHT_CUT, SENSITIVITY_CORRECT, UNIT_SCALE
from privbandit.prng import derive_stream


ENV = LinearDemandEnv()
BLOCK = CppqPolicy.BLOCK


def make_policy(T=100, eps=math.inf, c1=1e-6, c1_prime=1e-6, c2=2.0, J=1,
                seed=0, **kwargs):
    cfg = CppqConfig(T=T, eps=eps, J_request=J, c1=c1, c1_prime=c1_prime, c2=c2)
    return CppqPolicy(cfg, ENV, derive_stream(seed, "policy"), **kwargs)


def drive(policy, phase_rewards, cycles, start_t=1):
    """Feed whole 5-phase cycles with per-phase reward p*y fixed by hand."""
    events = []
    t = start_t
    x = (0.3, 0.3)
    for _ in range(cycles):
        for k in range(5):
            p = policy.choose_price(x, t)
            y = phase_rewards[k] / p  # so that p * y == phase_rewards[k]
            events += policy.update(x, p, y, t)
            t += 1
    return events, t


class TestPresets:
    def test_theorem_constants(self):
        cfg = CppqConfig.theorem(T=1000, eps=1.0)
        log_term = math.log(2 * 1000**3)
        assert cfg.c1 == pytest.approx(math.sqrt(log_term))
        assert cfg.c2 == pytest.approx(76.0 * log_term**2)
        assert cfg.c1_prime == pytest.approx(4.0 * cfg.c2)
        assert cfg.J_request == 10  # ceil(1000^(2/6))

    def test_theorem_scales_with_eps(self):
        a = CppqConfig.theorem(T=1000, eps=0.1)
        b = CppqConfig.theorem(T=1000, eps=1.0)
        assert a.c2 == pytest.approx(10 * b.c2)

    def test_experiment_constants(self):
        cfg = CppqConfig.experiment(T=500, eps=2.0)
        assert cfg.c1 == pytest.approx(0.001 * math.sqrt(math.log(500)))
        assert cfg.c2 == pytest.approx(math.log(500) ** 2 / 2.0)
        assert cfg.c1_prime == pytest.approx(0.01 * cfg.c2)

    def test_infinite_budget_zeroes_count_gate(self):
        assert CppqConfig.theorem(T=100, eps=math.inf).c2 == 0.0
        assert CppqConfig.experiment(T=100, eps=math.inf).c2 == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CppqConfig(T=0, eps=1.0, J_request=1, c1=1, c1_prime=1, c2=1)
        with pytest.raises(ValueError):
            CppqConfig(T=10, eps=-1.0, J_request=1, c1=1, c1_prime=1, c2=1)
        with pytest.raises(ValueError):
            CppqConfig(T=10, eps=1.0, J_request=0, c1=1, c1_prime=1, c2=1)


class TestChoosePrice:
    def test_initial_grid_walk(self):
        pol = make_policy()
        x = (0.3, 0.3)
        assert pol.choose_price(x, 1) == pytest.approx(0.5)   # phase 1 -> left end
        assert pol.choose_price(x, 3) == pytest.approx(2.5)   # phase 3 -> midpoint
        assert pol.choose_price(x, 5) == pytest.approx(4.5)   # phase 5 -> right end
        assert pol.choose_price(x, 7) == pytest.approx(1.5)   # phase 2 of cycle 2

    def test_prices_stay_in_bounds(self):
        pol = make_policy(T=200, c2=3.0, seed=1)
        stream = derive_stream(1, "ctx")
        for t in range(1, 201):
            x = stream.unit(2)
            p = pol.choose_price(x, t)
            assert ENV.p_lo <= p <= ENV.p_hi
            pol.update(x, p, float(stream.unit()), t)

    def test_rejects_t_outside_horizon(self):
        pol = make_policy(T=10)
        with pytest.raises(ValueError):
            pol.choose_price((0.1, 0.1), 0)
        with pytest.raises(ValueError):
            pol.choose_price((0.1, 0.1), 11)


class TestShrinkDecisions:
    def test_flat_revenue_never_cuts(self):
        pol = make_policy()
        events, _ = drive(pol, [0.3] * 5, cycles=10)
        assert events == []
        assert pol.price_grid(0).epoch == 1

    def test_increasing_left_triple_cuts_left(self):
        pol = make_policy()
        events, _ = drive(pol, [0.1, 0.2, 0.3, 0.25, 0.2], cycles=2)
        assert len(events) == 1
        ev = events[0]
        assert (ev.direction, ev.cube, ev.epoch) == (LEFT_CUT, 0, 2)
        g = pol.price_grid(0)
        assert g.rho[0] == pytest.approx(1.5)
        assert g.rho[4] == pytest.approx(4.5)
        assert g.pointer == ev.t

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

    def test_count_gate_blocks_early_cuts(self):
        pol = make_policy(c2=1000.0, T=200)
        events, _ = drive(pol, [0.1, 0.2, 0.3, 0.25, 0.2], cycles=40)
        assert events == []

    def test_wide_confidence_blocks_cuts(self):
        pol = make_policy(c1=100.0)
        events, _ = drive(pol, [0.1, 0.2, 0.3, 0.25, 0.2], cycles=10)
        assert events == []

    def test_cut_resets_statistics(self):
        # feed rising rewards until the first cut, then flat rewards: the
        # snapshot reset must prevent the stale gap from cutting again
        pol = make_policy(T=200)
        x = (0.3, 0.3)
        rising = [0.1, 0.2, 0.3, 0.25, 0.2]
        t = 1
        while True:
            p = pol.choose_price(x, t)
            events = pol.update(x, p, rising[(t - 1) % 5] / p, t)
            t += 1
            if events:
                break
        assert events[0].direction == LEFT_CUT
        more, _ = drive(pol, [0.3] * 5, cycles=10, start_t=t)
        assert more == []

    def test_shrink_count_tracks_events(self):
        pol = make_policy(T=300)
        n_cuts = 0
        t = 1
        while t + 4 <= 300:
            events, t = drive(pol, [0.1, 0.2, 0.3, 0.25, 0.2], cycles=1, start_t=t)
            n_cuts += len(events)
        assert pol.shrink_count[0] == n_cuts
        assert pol.price_grid(0).epoch == n_cuts + 1


class TestStructure:
    def test_every_cube_updated_every_period(self):
        # after t periods, each phase-k aggregator has ticked once per phase-k
        # period regardless of which cube was visited
        pol = make_policy(J=9, T=50)
        stream = derive_stream(3, "ctx")
        for t in range(1, 24):
            x = stream.unit(2)
            p = pol.choose_price(x, t)
            pol.update(x, p, 0.5, t)
        counts = [agg.n for agg in pol._count_agg]
        assert counts == [5, 5, 5, 4, 4]
        assert sum(counts) == 23
        assert all(agg.width == pol.J for agg in pol._reward_agg)

    def test_one_hot_contributions_noise_off(self):
        # only the visited cube's running count moves
        pol = make_policy(J=4, T=20)
        x = (0.1, 0.1)  # cube 0 of the 2x2 partition
        for t in range(1, 6):
            p = pol.choose_price(x, t)
            pol.update(x, p, 1.0, t)
        mu = pol._sums[1]
        assert np.all(mu[:, 0] == 1.0)
        assert np.all(mu[:, 1:] == 0.0)

    def test_in_order_updates_enforced(self):
        pol = make_policy()
        pol.update((0.1, 0.1), 0.5, 0.2, 1)
        with pytest.raises(RuntimeError):
            pol.update((0.1, 0.1), 0.5, 0.2, 3)
        with pytest.raises(RuntimeError):
            pol.update((0.1, 0.1), 0.5, 0.2, 1)

    def test_noise_perturbs_released_sums(self):
        pol = make_policy(eps=1.0, c2=1e9, seed=5)
        x = (0.2, 0.2)
        p = pol.choose_price(x, 1)
        pol.update(x, p, 1.0, 1)
        assert pol._sums[1][0, 0] != 1.0  # Laplace noise moved the count

    def test_budget_split_across_statistics(self):
        pol = make_policy(eps=1.0, T=64)
        assert pol._reward_agg[0].eps_branch == pytest.approx(0.5)
        assert pol._count_agg[0].eps_branch == pytest.approx(0.5)

    def test_sensitivity_mode_scales_reward_noise(self):
        lit = make_policy(eps=1.0, T=64)
        cor = make_policy(eps=1.0, T=64, sensitivity_mode="sensitivity-correct")
        ratio = cor._reward_agg[0].noise_scale / lit._reward_agg[0].noise_scale
        assert ratio == pytest.approx(ENV.r_max)
        assert cor._count_agg[0].noise_scale == lit._count_agg[0].noise_scale

    def test_rejects_unknown_sensitivity_mode(self):
        with pytest.raises(ValueError):
            make_policy(sensitivity_mode="bogus")


ZERO = (("c1", 0.0), ("c1_prime", 0.0), ("c2", 0.0))  # cut on any rise or fall


ENVS = {"linear": ENV, "linear-noiseless": LinearDemandEnv(noise_half_width=0.0),
        "adversarial-m2": make_env("adversarial", m=2, nu=(1, 0, 0, 1)),
        "adversarial-m3": make_env("adversarial", m=3, nu=(0, 1, 1, 0, 1, 0, 0, 1, 1))}
KINDS = [("cppq", 10.0), ("cppq", 1.0), ("cppq", 0.1), ("cppq", 0.01), ("nonprivate", math.inf)]


class TestPlay(PlayPreamble):
    """play, the bulk episode engine, against the per-period reference loop."""

    KIND = "cppq"

    @settings(max_examples=60, deadline=None)
    @given(env=st.sampled_from(sorted(ENVS)),
           T=st.one_of(st.integers(1, 40), st.integers(1, 2600)),
           kind=st.sampled_from(KINDS),
           preset=st.sampled_from(PRESETS),
           mode=st.sampled_from([UNIT_SCALE, SENSITIVITY_CORRECT]),
           J=st.sampled_from([None, 1, 4, 9, 16, 49]),
           overrides=st.sampled_from([(), ZERO]),
           seed=st.integers(0, 2**32 - 1))
    def test_engine_equals_loop(self, env, T, kind, preset, mode, J, overrides, seed):
        loop, engine = play_twins(ENVS[env], T, *kind, seed, preset, mode, J, overrides)
        assert_same_state(loop, engine)

    @pytest.mark.parametrize("kind, eps", KINDS)
    def test_one_cube_with_eight_tree_levels(self, kind, eps):
        # J = 1 and L+1 >= 8: numpy sums a width-1 aggregator's levels pairwise
        loop, engine = play_twins(ENV, 5 * 128 + 3, kind, eps, seed=11, J=1)
        assert loop[0]._reward_agg[0].L + 1 >= 8
        assert_same_state(loop, engine)

    @pytest.mark.parametrize("kind, eps", KINDS)
    def test_one_cube_with_ten_tree_levels_cutting(self, kind, eps):
        # the stacked offsets of a width-1 aggregator, summed pairwise, through
        # cuts and a partial last block whose slots take different counts
        T = 10 * BLOCK + 3
        loop, engine = play_twins(ENV, T, kind, eps, seed=4, J=1, overrides=ZERO)
        assert loop[0]._reward_agg[0].L + 1 == 10
        assert loop[0].shrink_count[0] > 0
        assert_same_state(loop, engine)

    def test_bursts_of_cuts_and_last_row_cuts(self):
        # tree noise alone moves a cube's statistics: it cuts again and again
        # between two of its visits, and on a block's last row
        T = 10 * BLOCK + 37
        log = {}
        loop, engine = play_twins(ENV, T, "cppq", 0.01, seed=1, J=100, overrides=ZERO, log=log)
        longest, last_row = cut_shapes(log, BLOCK)
        assert longest >= 3 and last_row >= 1
        assert_same_state(loop, engine)

    @pytest.mark.parametrize("kind, eps", [("cppq", 1.0), ("nonprivate", math.inf)])
    @pytest.mark.parametrize("T", [4, BLOCK + 1, 1003])
    def test_horizon_not_a_multiple_of_the_block(self, kind, eps, T):
        assert T % BLOCK and T % LppqPolicy.BLOCK
        loop, engine = play_twins(ENV, T, kind, eps, seed=9, J=9, overrides=ZERO)
        assert_same_state(loop, engine)

    @pytest.mark.parametrize("env, kind, eps, J", [
        ("linear", "cppq", 1.0, 49), ("linear", "cppq", 0.1, 4),
        ("linear", "nonprivate", math.inf, 16),
        ("adversarial-m2", "cppq", 10.0, 25), ("adversarial-m3", "nonprivate", math.inf, 9)])
    def test_engine_equals_loop_through_many_cuts(self, env, kind, eps, J):
        # several blocks, and cuts in most cubes: each one goes through _cut
        # and replays the rest of its block, where it may cut again
        T = 4 * BLOCK + 37
        loop, engine = play_twins(ENVS[env], T, kind, eps, seed=5, J=J, overrides=ZERO)
        assert (loop[0].shrink_count > 0).mean() > 0.5
        assert loop[0].shrink_count.max() >= 3
        assert_same_state(loop, engine)

    def test_nonprivate_full_horizon(self):
        loop, engine = play_twins(ENV, 62500, "nonprivate", math.inf, seed=7)
        assert loop[0].shrink_count.sum() > 500
        assert_same_state(loop, engine)
