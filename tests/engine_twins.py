"""Shared checks for the bulk episode engines (``play``) of cppq and lppq.

``play_twins`` runs one episode twice, per period and through ``play``;
``assert_same_state`` compares the two policies bit for bit, and
``cut_shapes`` summarizes the cuts a replay has to handle.
``dense_cut_flags`` is cppq's cut rule evaluated at every entry, the
reference for the gate-first ``CppqPolicy._cut_flags``.
``PlayPreamble`` holds the tests of the input and clock checks that
``Quadrisection.play`` makes around every engine; a ``TestPlay`` class sets
``KIND`` and inherits them.
"""

import numpy as np
import pytest

from privbandit import LinearDemandEnv, PolicySpec
from privbandit.partition import UNIT_SCALE, cube_index_many, gaps
from privbandit.prng import derive_stream

ENV = LinearDemandEnv()


def play_twins(env, T, kind, eps, seed, preset="experiment", mode=UNIT_SCALE, J=None,
               overrides=(), log=None):
    """The same episode driven per period (choose_price/update) and by play.

    A ``log`` dict receives the customers' cubes ``js`` and the loop's shrink
    ``events``.
    """
    spec = PolicySpec(kind=kind, preset=preset, eps=eps, J_request=J, sensitivity_mode=mode,
                      overrides=overrides)
    twins = []
    for engine in (False, True):
        stream = derive_stream(seed, "rep/0")
        pol = spec.build_policy(T, env, stream.child("policy"))
        X = env.sample_context(stream.child("context"), size=T)
        demand = env.episode_demand(stream.child("demand"), X)
        js = cube_index_many(pol.part, X)
        if engine:
            prices = pol.play(js, demand)
        else:
            prices, events = np.empty(T), []
            for i in range(T):
                prices[i] = pol.choose_price(X[i], i + 1)
                events += pol.update(X[i], prices[i], demand(i, prices[i]), i + 1)
            if log is not None:
                log.update(js=js, events=events)
        twins.append((pol, prices))
    return twins


def assert_same_state(loop, engine):
    (a, pa), (b, pb) = loop, engine
    np.testing.assert_array_equal(pa, pb)
    for name in ("_lo", "_hi", "_epoch", "_pointer", "shrink_count", "_sums", "_snap"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    assert a._expected_t == b._expected_t
    # central policies keep ten tree aggregators, each with its own noise stream
    aggs = [getattr(p, "_reward_agg", []) + getattr(p, "_count_agg", []) for p in (a, b)]
    for agg_a, agg_b in zip(*aggs):
        assert agg_a.n == agg_b.n
        np.testing.assert_array_equal(agg_a.total, agg_b.total)
        np.testing.assert_array_equal(agg_a.noise, agg_b.noise)
    streams = [[p._stream] if hasattr(p, "_stream") else [agg._stream for agg in g]
               for p, g in zip((a, b), aggs)]
    # both consumed the same number of noise draws
    assert [s.unit() for s in streams[0]] == [s.unit() for s in streams[1]]


def cut_shapes(log, block):
    """What the loop's cuts ask of the engine's replay, from a ``play_twins`` log.

    Returns the longest run of one cube's cuts inside one block with no
    visit of that cube between them, and the number of cuts on a block's
    last row (the horizon's last period included).
    """
    js, T = log["js"], len(log["js"])
    runs, longest, last_row = {}, 0, 0
    for e in log["events"]:
        b, run = (e.t - 1) // block, 1
        if e.cube in runs:
            prev_b, prev_run, prev_t = runs[e.cube]
            # periods prev_t+1..e.t are js[prev_t:e.t]
            if prev_b == b and not (js[prev_t:e.t] == e.cube).any():
                run = prev_run + 1
        runs[e.cube] = (b, run, e.t)
        longest = max(longest, run)
        last_row += e.t % block == 0 or e.t == T
    return longest, last_row


def dense_cut_flags(cfg, since):
    """cppq's cut rule on since-cut sums (2, 5, ...), with every ratio, gap and width.

    Invalid ratios are NaN and masked by the count gate; nothing warns.
    """
    r_hat, mu_hat = since
    counted = mu_hat > 0
    q = np.where(counted, r_hat / np.where(counted, mu_hat, 1.0), np.nan)
    mu = np.minimum(np.minimum(mu_hat[0:3:2], mu_hat[1:4:2]), mu_hat[2:5:2])
    floor = np.maximum(mu, 1e-300)
    width = 3.0 * cfg.c1 / np.sqrt(floor) + 3.0 * cfg.c1_prime / floor
    left, right = (mu >= cfg.c2) & (mu > 0) & (gaps(q) > width)
    return left, right


def constant_demand(i, p):
    return 0.5 + 0.0 * p


class PlayPreamble:
    """The checks ``Quadrisection.play`` makes before and after the engine."""

    KIND = None

    def fresh_policy(self):
        spec = PolicySpec(kind=self.KIND, eps=1.0, J_request=4)
        return spec.build_policy(10, ENV, derive_stream(0, "policy"))

    def test_play_needs_a_fresh_policy(self):
        pol = self.fresh_policy()
        pol.update((0.1, 0.1), 1.0, 0.5, 1)
        with pytest.raises(RuntimeError, match="expected t=2"):
            pol.play(np.zeros(10, dtype=np.int64), constant_demand)

    @pytest.mark.parametrize("n", [0, 9, 11])
    def test_play_needs_one_cube_per_period(self, n):
        pol = self.fresh_policy()
        with pytest.raises(ValueError, match="T=10"):
            pol.play(np.zeros(n, dtype=np.int64), constant_demand)
        assert pol._expected_t == 1

    def test_play_rejects_cube_indices_out_of_range(self):
        pol = self.fresh_policy()
        for bad in (-1, 4):
            with pytest.raises(ValueError, match="cube indices"):
                pol.play(np.full(10, bad), constant_demand)
        assert pol._expected_t == 1

    def test_clock_after_play_matches_loop(self):
        (loop, _), (engine, _) = play_twins(ENV, 50, self.KIND, 1.0, seed=2, J=4)
        assert engine._expected_t == loop._expected_t == 51
        for pol in (loop, engine):
            with pytest.raises(RuntimeError, match="expected t=51"):
                pol.update((0.1, 0.1), 1.0, 0.5, 1)
            with pytest.raises(RuntimeError, match="expected t=51"):
                pol.play(np.zeros(50, dtype=np.int64), constant_demand)
