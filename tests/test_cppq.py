import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from engine_twins import PlayPreamble, assert_same_state, cut_shapes, dense_cut_flags, play_twins
from privbandit import CppqConfig, CppqPolicy, LinearDemandEnv, make_env
from privbandit.partition import (LEFT_CUT, PRESETS, RIGHT_CUT, SENSITIVITY_CORRECT, UNIT_SCALE,
                                  Quadrisection)
from privbandit.prng import derive_stream, laplace_from_uniform


ENV = LinearDemandEnv()
BLOCK = Quadrisection.BLOCK


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
        # both count gates are open once slot 3 is visited again at t=8, and
        # that visit turns a valley into a symmetric peak: both gaps fire together
        pol = make_policy(c2=1.0)
        events, t = drive(pol, [0.1, 0.2, 0.0, 0.2, 0.1], cycles=1)
        assert events == []
        events, _ = drive(pol, [0.1, 0.2, 0.6, 0.2, 0.1], cycles=1, start_t=t)
        assert [(ev.t, ev.direction) for ev in events] == [(8, LEFT_CUT)]

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

    @pytest.mark.parametrize("c1, c1_prime, c2", [(1e-6, 1e-6, 2.0), (0.0, 0.0, 0.0),
                                                  (0.01, 0.1, 0.5)])
    @pytest.mark.parametrize("shape", [(5, 400), (5, 100, 49)])
    def test_rule_on_zero_and_negative_counts_is_silent_and_unchanged(self, c1, c1_prime, c2,
                                                                       shape):
        # noisy counts <= 0 give NaN ratios: the rule must neither warn nor
        # decide differently from the errstate-guarded form it replaced
        def guarded_rule(cfg, since):
            r_hat, mu_hat = since
            with np.errstate(divide="ignore", invalid="ignore"):
                q = np.where(mu_hat > 0, r_hat / np.where(mu_hat > 0, mu_hat, 1.0), np.nan)
            mu13 = np.min(mu_hat[0:3], axis=0)
            mu35 = np.min(mu_hat[2:5], axis=0)
            gate13 = (mu13 >= cfg.c2) & (mu13 > 0)
            gate35 = (mu35 >= cfg.c2) & (mu35 > 0)
            with np.errstate(invalid="ignore"):
                s0, s1, s2, s3, s4 = q
                left_gap, right_gap = np.minimum(s1 - s0, s2 - s1), np.minimum(s2 - s3, s3 - s4)
                left = gate13 & (left_gap > 3.0 * cfg.c1 / np.sqrt(np.maximum(mu13, 1e-300))
                                 + 3.0 * cfg.c1_prime / np.maximum(mu13, 1e-300))
                right = gate35 & (right_gap > 3.0 * cfg.c1 / np.sqrt(np.maximum(mu35, 1e-300))
                                  + 3.0 * cfg.c1_prime / np.maximum(mu35, 1e-300))
            return left, right

        pol = make_policy(c1=c1, c1_prime=c1_prime, c2=c2)
        rng = np.random.default_rng(12)
        counts = rng.integers(-3, 9, size=shape) + rng.choice([0.0, 0.25, -0.5], size=shape)
        counts[0, ..., :5] = 0.0  # cubes with no count yet in slot 1
        revenue = rng.normal(size=shape)
        revenue[1, ..., -5:], counts[1, ..., -5:] = revenue[2, ..., -5:], counts[2, ..., -5:]  # zero gaps
        since = np.stack([revenue, counts])
        assert (counts <= 0).mean() > 0.3
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            left, right = pol._cut_flags(since, None)
        expected = guarded_rule(pol.config, since)
        assert left.any() and right.any() and not (left & right).all()
        np.testing.assert_array_equal(left, expected[0])
        np.testing.assert_array_equal(right, expected[1])
        assert left.shape == right.shape == shape[1:]

    def test_shrink_count_tracks_events(self):
        pol = make_policy(T=300)
        n_cuts = 0
        t = 1
        while t + 4 <= 300:
            events, t = drive(pol, [0.1, 0.2, 0.3, 0.25, 0.2], cycles=1, start_t=t)
            n_cuts += len(events)
        assert pol.shrink_count[0] == n_cuts
        assert pol.price_grid(0).epoch == n_cuts + 1


# since-cut (revenue, count) columns of one cube, slots 1..5: a peak, where both sides
# fire; a rise and a fall, where one does; a peak with no count yet in slot 1, with a
# negative count in slot 4 and with a NaN revenue in slot 2; and a flat curve
PEAK, EVEN = [0.1, 0.2, 0.6, 0.2, 0.1], [3.0] * 5
RULE_COLUMNS = np.array([
    (PEAK, EVEN), ([0.1, 0.2, 0.3, 0.3, 0.3], EVEN), ([0.3, 0.3, 0.3, 0.2, 0.1], EVEN),
    (PEAK, [0.0, 3.0, 3.0, 3.0, 3.0]), (PEAK, [3.0, 3.0, 3.0, -0.5, 3.0]),
    ([0.1, np.nan, 0.6, 0.2, 0.1], EVEN), ([0.3] * 5, EVEN),
]).transpose(1, 2, 0)  # (2, 5, 7)
RULE_FLAGS = [[1, 1, 0, 0, 1, 0, 0], [1, 0, 1, 1, 0, 1, 0]]
RULE_COUNTS = [-2.0, -0.5, 0.0, 0.25, 1.0, 2.0, 3.0, 7.0]


class TestCutRule:
    """The gate-first rule against the same rule evaluated at every entry."""

    @staticmethod
    def assert_dense_flags(pol, since):
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            flags = pol._cut_flags(since, None)
        for got, want in zip(flags, dense_cut_flags(pol.config, since)):
            assert got.shape == since.shape[2:]
            np.testing.assert_array_equal(got, want)
        return flags

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dims=st.sampled_from(["J", "RJ", "R"]),
           c1=st.sampled_from([0.0, 1e-3, 0.5]), c1_prime=st.sampled_from([0.0, 1e-2, 1.0]),
           c2=st.sampled_from([0.0, 0.5, 2.0, 1e9]))
    def test_gate_first_equals_dense(self, data, dims, c1, c1_prime, c2):
        # shapes (2, 5, J), (2, 5, R, J) and (2, 5, R); counts <= 0, NaN revenue, a shut gate
        sizes = {"J": st.integers(1, 9), "R": st.integers(1, 12)}
        shape = (5,) + tuple(data.draw(sizes[d]) for d in dims)
        revenue = data.draw(arrays(np.float64, shape,
                                   elements=st.one_of(st.floats(-3.0, 3.0), st.just(math.nan))))
        counts = data.draw(arrays(np.float64, shape, elements=st.sampled_from(RULE_COUNTS)))
        pol = make_policy(c1=c1, c1_prime=c1_prime, c2=c2)
        self.assert_dense_flags(pol, np.stack([revenue, counts]))

    @pytest.mark.parametrize("c2", [0.0, 2.0, 1e9])
    @pytest.mark.parametrize("shape", [(7,), (4, 7), (28,)])
    def test_gate_first_on_every_kind_of_cube(self, c2, shape):
        if len(shape) == 2:  # (2, 5, R, J): the same cubes in every row
            since = np.broadcast_to(RULE_COLUMNS[:, :, None], (2, 5) + shape).copy()
        else:
            since = np.tile(RULE_COLUMNS, shape[0] // 7)
        flags = np.stack(self.assert_dense_flags(make_policy(c2=c2), since))
        if c2 > 100:  # the gate is shut everywhere
            assert not flags.any()
        else:
            np.testing.assert_array_equal(flags.reshape(2, -1, 7)[:, 0], RULE_FLAGS)


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

    def test_one_transform_equals_each_streams_laplace(self):
        # sensitivity-correct scales the reward noise by r_max, so a block's ten
        # aggregators draw at two scales; one transform of their stacked uniforms
        # gives each stream's own Laplace draws
        twins = [make_policy(eps=1.0, T=640, J=9, sensitivity_mode=SENSITIVITY_CORRECT)
                 for _ in range(2)]
        stacks = [pol._reward_agg + pol._count_agg for pol in twins]
        scales = [agg.noise_scale for agg in stacks[0]]
        assert len(set(scales)) == 2
        counts = [20, 20, 19, 19, 19] * 2
        u = np.concatenate([agg._stream.unit((cnt, 9)) for agg, cnt in zip(stacks[0], counts)])
        stacked = laplace_from_uniform(u, np.repeat(scales, counts)[:, None])
        own = [agg._stream.laplace(agg.noise_scale, size=(cnt, 9))
               for agg, cnt in zip(stacks[1], counts)]
        np.testing.assert_array_equal(stacked, np.concatenate(own))

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
        T = 4 * BLOCK + 3
        loop, engine = play_twins(ENV, T, kind, eps, seed=4, J=1, overrides=ZERO)
        assert loop[0]._reward_agg[0].L + 1 == 10
        assert loop[0].shrink_count[0] > 0
        assert_same_state(loop, engine)

    def test_bursts_of_cuts_and_last_row_cuts(self):
        # tree noise alone moves a cube's statistics: it cuts again and again
        # between two of its visits, and on a block's last row
        T = 10 * BLOCK + 37
        log = {}
        loop, engine = play_twins(ENV, T, "cppq", 0.01, seed=3, J=100, overrides=ZERO, log=log)
        longest, last_row = cut_shapes(log, BLOCK)
        assert longest >= 3 and last_row >= 1
        assert_same_state(loop, engine)

    @pytest.mark.parametrize("kind, eps", [("cppq", 1.0), ("nonprivate", math.inf)])
    @pytest.mark.parametrize("T", [4, BLOCK + 1, 1003])
    def test_horizon_not_a_multiple_of_the_block(self, kind, eps, T):
        assert T % BLOCK
        loop, engine = play_twins(ENV, T, kind, eps, seed=9, J=9, overrides=ZERO)
        assert_same_state(loop, engine)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_partial_last_group_with_noise(self, r):
        # the last block ends r rows into a group: slots below r take the last group's
        # offsets in the final _sums, the others keep the group before.  At the
        # benchmark's J and eps, seed 21 cuts a cube inside that partial group, whose
        # replay spreads its own offsets to rows.  A reached slot ticks to 2 * 40 + 30,
        # an even count, so the unused offset row an unreached slot must not read
        # retires level 0 and differs from the offset it holds
        T = 2 * BLOCK + 5 * 29 + r
        log = {}
        loop, engine = play_twins(ENV, T, "cppq", 1.0, seed=21, J=49, overrides=ZERO, log=log)
        assert any(e.t > T - r for e in log["events"])
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

    @pytest.mark.parametrize("T, J, seed, last_row", [
        (4 * BLOCK + 37, 16, 1, 0),  # several blocks and cubes
        (10 * BLOCK + 3, 1, 2, 0),  # J = 1: every row is a visit
        (1003, 16, 24, 2)])  # two cuts on a block's last row
    def test_noise_free_checks_at_visit_rows(self, T, J, seed, last_row):
        # with the noise off the engine checks each row's own cube only; c2 = 3 keeps a
        # side's count gate shut until each of its slots has three visits
        assert T % BLOCK
        log = {}
        loop, engine = play_twins(ENV, T, "nonprivate", math.inf, seed, J=J,
                                  overrides=(("c2", 3.0),), log=log)
        assert loop[0].shrink_count.sum() >= 6
        assert cut_shapes(log, BLOCK)[1] >= last_row
        assert_same_state(loop, engine)

    def test_benchmark_shape_full_horizon(self):
        loop, engine = play_twins(ENV, 62500, "cppq", 1.0, seed=3)
        assert loop[0].J == 49 and loop[0].shrink_count.sum() > 50
        assert_same_state(loop, engine)

    def test_nonprivate_full_horizon(self):
        loop, engine = play_twins(ENV, 62500, "nonprivate", math.inf, seed=7)
        assert loop[0].shrink_count.sum() > 500
        assert_same_state(loop, engine)
