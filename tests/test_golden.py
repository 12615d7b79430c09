"""Golden digests: `simulate` output must stay bit-identical across refactors.

Each config below is run through ``privbandit simulate`` and the sha256 of
its ``runs.csv`` is compared with a digest recorded before the policies
were rebuilt on the shared quadrisection core.  Together the configs cover
cppq, lppq and the non-private baseline; the linear (with and without
demand noise) and adversarial environments; both presets and overrides;
unit-scale and sensitivity-correct noise; and eps from 10 down to 0.01 and
inf.  A refactor that claims identical results must keep every digest; a
change that means to alter results must say so and record new digests.
``ENGINE_STATE`` does the same for the policy state ``play`` leaves behind
at the engine's widest shapes, and ``TREE_UPDATE`` and ``ONLINE_STATE`` for
the per-period path no episode takes: ``TreeAggregator.update`` and cppq's
``choose_price``/``update`` loop.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from privbandit import LinearDemandEnv, PolicySpec, TreeAggregator
from privbandit.cli import main
from privbandit.partition import cube_index_many
from privbandit.prng import derive_stream

GOLDEN = {
    # the byte-identity config of acceptance criterion 9
    "lppq-linear-criterion9": (
        {"env": {"kind": "linear"}, "policy": {"kind": "lppq"},
         "T": [200, 400], "eps": [1.0, 0.1], "reps": 3, "seed": 4242},
        "76f189e253e151550146de39e035ed05d7425b44bd830c0ac4ba6668d365ee9e"),
    "cppq-linear-with-nonprivate": (
        {"env": {"kind": "linear"}, "policy": {"kind": "cppq"}, "include_nonprivate": True,
         "T": [600], "eps": [1.0, "inf"], "reps": 2, "seed": 11},
        "76706f3519681f19b3bc91d6dbc8721a1aa9c80f2e158f145c99125f17764e2c"),
    "lppq-linear-sensitivity-correct": (
        {"env": {"kind": "linear"}, "policy": {"kind": "lppq", "J": 9}, "T": [1200],
         "eps": [10.0, 0.1, "inf"], "reps": 2, "seed": 12,
         "sensitivity_mode": "sensitivity-correct"},
        "92b15cfea5660520f3d60e444a7fbd6691f9ff99d180c1d8a5935a557e1644c9"),
    "cppq-adversarial-sensitivity-correct": (
        {"env": {"kind": "adversarial", "m": 2, "nu": [1, 0, 0, 1]}, "policy": {"kind": "cppq"},
         "T": [500], "eps": [1.0], "reps": 2, "seed": 13,
         "sensitivity_mode": "sensitivity-correct"},
        "cd05ee851950c885e80f9a37a957fab22f6d9ac9ace6c3009e9b6e0183aa183b"),
    "lppq-adversarial": (
        {"env": {"kind": "adversarial", "m": 3, "nu": [1, 0, 1, 0, 1, 0, 1, 0, 1]},
         "policy": {"kind": "lppq"}, "T": [1200], "eps": [1.0, "inf"], "reps": 2, "seed": 14},
        "c3245408c9c6f01bba786b0cab897101cbbce74e938923ba1b3cd3114a750a2d"),
    "nonprivate-linear-noiseless": (
        {"env": {"kind": "linear", "noise_half_width": 0.0}, "policy": {"kind": "nonprivate"},
         "T": [1000], "reps": 2, "seed": 15},
        "30bdd0369bbfb8c6878c098bc56c6530cde052d5bc73c332feb9a0ebcf321a49"),
    "cppq-theorem-overrides": (
        {"env": {"kind": "linear"},
         "policy": {"kind": "cppq", "preset": "theorem", "c1": 0.01, "c1_prime": 0.01, "c2": 3.0},
         "T": [900], "eps": [10.0], "reps": 2, "seed": 16},
        "5960374796b342a10dcd6021eefa2a0514e6fa4291e11b000fbd9bdcf060d456"),
    "lppq-theorem": (
        {"env": {"kind": "linear"}, "policy": {"kind": "lppq", "preset": "theorem"},
         "T": [1200], "eps": ["inf", 5.0], "reps": 1, "seed": 17},
        "e05f7274be3701dedd4d05f73932202c440c0a34153d10cc4a6a9db8b8787314"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_runs_csv_matches_golden_digest(name, tmp_path, capsys):
    doc, digest = GOLDEN[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    data = (tmp_path / "out" / "runs.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# engine state after one bulk episode at the widest group rows the engine meets:
# (groups+1, S, 5, J) with S * 5 * J = 490 columns (cppq, non-private at J=49) and
# 320 columns (lppq at J=64); the runs.csv configs above stay at 160 or fewer
ENGINE_STATE = {
    ("nonprivate", math.inf, 49): "b59f86af1c53b2d91f586e44a12a0ecbb664ec6f4912f681abc72c2308643f1c",
    ("cppq", 1.0, 49): "c5708fe589e3bb61d2835092f10fbb5b457f07358323df0276e9b67093bab868",
    ("lppq", 10.0, 64): "ea955fe1870aba843c2b0ea6ab856f2038b13233c69b255ef5a117451de055fd",
}
STATE = ("_lo", "_hi", "_epoch", "_pointer", "shrink_count", "_sums", "_snap")


@pytest.mark.parametrize("kind, eps, J", sorted(ENGINE_STATE, key=str))
def test_engine_state_matches_golden_digest(kind, eps, J):
    T, env = 5003, LinearDemandEnv()
    stream = derive_stream(20240001, "rep/0")
    pol = PolicySpec(kind=kind, eps=eps, J_request=J).build_policy(T, env, stream.child("policy"))
    assert pol.J == J
    X = env.sample_context(stream.child("context"), size=T)
    h = hashlib.sha256(pol.play(cube_index_many(pol.part, X),
                                env.episode_demand(stream.child("demand"), X)).tobytes())
    for name in STATE:
        h.update(np.ascontiguousarray(getattr(pol, name)).tobytes())
    assert h.hexdigest() == ENGINE_STATE[kind, eps, J]


# TreeAggregator.update with noise on, at width 1 (its levels summed pairwise) and 49,
# through the carry at update 512: each release, then the final noise rows and total
TREE_UPDATE = {
    1: "73e1a4bbdb552b324a2f02eb7500c0c0b3a0aa6f9d29eedaaa319721315b26e6",
    49: "c9350971c87c02c8e71f0babbe834781d15da39147d9959eceafc669a710203a",
}


@pytest.mark.parametrize("width", sorted(TREE_UPDATE))
def test_tree_update_matches_golden_digest(width):
    T = 1003  # 10 levels
    agg = TreeAggregator(1.0, T, derive_stream(20240002, "agg"), width=width)
    us = derive_stream(20240002, "signal").uniform(-1.0, 1.0, size=(T, width))
    h = hashlib.sha256()
    for u in us:
        h.update(np.atleast_1d(agg.update(float(u[0]) if width == 1 else u)).tobytes())
    h.update(agg.noise.tobytes())
    h.update(agg.total.tobytes())
    assert h.hexdigest() == TREE_UPDATE[width]


# cppq eps=1 driven period by period: the prices, the search state, and each of the
# ten aggregators' clock, noise rows and next uniform
ONLINE_STATE = {
    1: "0bcee2450b41ec2d64bb1e50cb756352a88a59c806962d76940e2c31ab6519a8",
    49: "72ace1800ae4c9e62d674a6897f7bdeb2f0d817391f4fed6e90c9bbf2699970b",
}


@pytest.mark.parametrize("J", sorted(ONLINE_STATE))
def test_online_state_matches_golden_digest(J):
    T, env = 1003, LinearDemandEnv()
    stream = derive_stream(20240001, "rep/0")
    pol = PolicySpec(kind="cppq", eps=1.0, J_request=J).build_policy(T, env, stream.child("policy"))
    assert pol.J == J
    X = env.sample_context(stream.child("context"), size=T)
    demand = env.episode_demand(stream.child("demand"), X)
    prices = np.empty(T)
    for i in range(T):
        prices[i] = pol.choose_price(X[i], i + 1)
        pol.update(X[i], prices[i], demand(i, prices[i]), i + 1)
    h = hashlib.sha256(prices.tobytes())
    for name in STATE:
        h.update(np.ascontiguousarray(getattr(pol, name)).tobytes())
    for agg in pol._reward_agg + pol._count_agg:
        h.update(np.int64(agg.n).tobytes())
        h.update(agg.noise.tobytes())
        h.update(np.float64(agg._stream.unit()).tobytes())
    assert h.hexdigest() == ONLINE_STATE[J]
