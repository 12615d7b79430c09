"""End-to-end acceptance checks for the simulation library.

Each test prints one PASS/FAIL line (to the real stdout, so it survives
pytest's capture) and then asserts.  The regret benchmarks run the full
30-replication grids and dominate the suite's runtime; every run computes
them live, once per session, and shares them across criteria.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from privbandit import (CppqConfig, CppqPolicy, LinearDemandEnv, PolicySpec,
                        TreeAggregator, make_env, replicate)
from privbandit.cli import privacy_check
from privbandit.harness import NONPRIVATE, fit_loglog_slope
from privbandit.prng import derive_stream
from test_env import boundary_distance

T_GRID = (500, 2500, 12500, 62500)
EPS_GRID = (10.0, 1.0, 0.1, 0.01)
REPS = 30
SEED = 20240001
ENV = LinearDemandEnv()


def _report(capfd, num: int, desc: str, ok: bool):
    # bypass pytest's fd capture so one PASS/FAIL line per criterion is
    # always visible in the run log
    with capfd.disabled():
        print(f"[ACCEPTANCE {num}] {desc}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"acceptance criterion {num} failed: {desc}"


def _pct_grid(kind, eps_list, T_list):
    """mean percentage regret indexed [eps][T] plus mean regret."""
    pct = {}
    reg = {}
    for eps in eps_list:
        spec = PolicySpec(kind=kind, preset="experiment", eps=eps)
        pct[eps] = {}
        reg[eps] = {}
        for T in T_list:
            _, agg = replicate(spec, ENV, T, reps=REPS, root_seed=SEED)
            pct[eps][T] = agg.mean_pct_regret
            reg[eps][T] = agg.mean_regret
    return pct, reg


@pytest.fixture(scope="session")
def nonprivate_row():
    """Mean percentage regret by T, and the seconds the row took."""
    t0 = time.monotonic()
    spec = PolicySpec(kind=NONPRIVATE, preset="experiment")
    row = {T: replicate(spec, ENV, T, reps=REPS, root_seed=SEED)[1].mean_pct_regret
           for T in T_GRID}
    return row, time.monotonic() - t0


@pytest.fixture(scope="session")
def lppq_grid():
    return _pct_grid("lppq", EPS_GRID, T_GRID)


@pytest.fixture(scope="session")
def cppq_tail():
    pct, _ = _pct_grid("cppq", EPS_GRID, (62500,))
    return pct


def test_criterion_1_nonprivate_baseline(capfd, nonprivate_row):
    row, elapsed = nonprivate_row
    reference = dict(zip(T_GRID, (15.79, 7.40, 3.33, 1.76)))
    ok = True
    for T in T_GRID:
        got, want = row[T], reference[T]
        within = abs(got - want) <= 0.4 * want or abs(got - want) <= 4.0
        ok &= within
    ok &= elapsed < 300.0
    detail = ", ".join(f"T={T}: {row[T]:.2f}% (ref {reference[T]})" for T in T_GRID)
    _report(capfd, 1, f"non-private baseline within tolerance in {elapsed:.0f}s [{detail}]", ok)


def test_criterion_2_lppq_table(capfd, lppq_grid):
    pct, _ = lppq_grid
    ok_a = True
    for eps in EPS_GRID:
        vals = [pct[eps][T] for T in T_GRID]
        increases = [b - a for a, b in zip(vals, vals[1:]) if b > a]
        ok_a &= len(increases) <= 1 and all(inc <= 2.0 for inc in increases)
    ok_b = all(8.0 <= pct[eps][62500] <= 25.0 for eps in EPS_GRID)
    ok_c = all(pct[0.01][T] >= pct[10.0][T] - 2.0 for T in T_GRID)
    tail = ", ".join(f"eps={eps:g}: {pct[eps][62500]:.2f}%" for eps in EPS_GRID)
    _report(capfd, 2, f"local-privacy regret table shape (monotone {ok_a}, "
               f"final column in [8,25] [{tail}], privacy ordering {ok_c})",
            ok_a and ok_b and ok_c)


def test_criterion_3_lppq_slopes(capfd, lppq_grid):
    _, reg = lppq_grid
    slopes = {eps: fit_loglog_slope([(T, reg[eps][T]) for T in T_GRID])
              for eps in EPS_GRID}
    ok = all(0.65 <= s <= 0.90 for s in slopes.values())
    detail = ", ".join(f"eps={eps:g}: {s:.3f}" for eps, s in slopes.items())
    _report(capfd, 3, f"log-log regret slopes in [0.65, 0.90] [{detail}]", ok)


def test_criterion_4_central_privacy_cost(capfd, lppq_grid, cppq_tail):
    lppq_pct, _ = lppq_grid
    c = {eps: cppq_tail[eps][62500] for eps in EPS_GRID}
    gap = c[0.01] - c[10.0]
    cppq_spread = max(c.values()) - min(c.values())
    lp = [lppq_pct[eps][62500] for eps in EPS_GRID]
    lppq_spread = max(lp) - min(lp)
    ok = gap >= 10.0 and cppq_spread >= lppq_spread + 5.0
    _report(capfd, 4, f"central policy privacy cost (eps 0.01 vs 10 gap {gap:.1f}pp, "
               f"spread {cppq_spread:.1f}pp vs local {lppq_spread:.1f}pp)", ok)


def test_criterion_5_noiseless_tree_prefix_sums(capfd):
    width, n = 100, 1024
    us = derive_stream(5, "acceptance/tree").uniform(-1.0, 1.0, size=(n, width))
    agg = TreeAggregator(math.inf, n, width=width)
    ok = True
    total = np.zeros(width)
    for i in range(n):
        released = agg.update(us[i])
        total += us[i]
        ok &= np.allclose(released, total, rtol=1e-12, atol=1e-12)
    _report(capfd, 5, f"noise-free aggregator equals exact prefix sums for n<=1024 "
               f"on {width} random streams", ok)


def test_criterion_6_quadrisection_brackets_concave_maximizer(capfd):
    stream = derive_stream(6, "acceptance/quad")
    env = LinearDemandEnv()
    w0 = env.p_hi - env.p_lo
    ok = True
    for _ in range(1000):
        p_star = float(stream.uniform(env.p_lo, env.p_hi))
        a = float(stream.uniform(0.05, 2.0))
        cfg = CppqConfig(T=150, eps=math.inf, J_request=1,
                         c1=1e-9, c1_prime=1e-9, c2=2.0)
        pol = CppqPolicy(cfg, env, derive_stream(0, "p"))
        x = (0.5, 0.5)
        for t in range(1, 151):
            p = pol.choose_price(x, t)
            f = 1.0 - a * (p - p_star) ** 2  # exact concave revenue
            events = pol.update(x, p, f / p, t)
            if events:
                lo, hi = pol._lo[0], pol._hi[0]
                epoch = int(pol._epoch[0])
                ok &= lo - 1e-9 <= p_star <= hi + 1e-9
                ok &= abs((hi - lo) - w0 * 0.75 ** (epoch - 1)) <= 1e-9 * w0
            if not ok:
                break
        if not ok:
            break
    _report(capfd, 6, "quadrisection keeps concave maximizers bracketed with width "
               "(3/4)^epochs over 1000 random quadratics", ok)


def test_criterion_7_local_dp_density_ratio(capfd):
    report = privacy_check(eps=1.0, trials=10**4, max_revenue=1.0, seed=7)
    ok = report["max_log_ratio"] - report["eps"] <= 1e-9
    for eps in (0.1, 5.0):
        r = privacy_check(eps=eps, trials=2000, max_revenue=1.0, seed=7)
        ok &= r["max_log_ratio"] - eps <= 1e-9
    _report(capfd, 7, f"local-DP recorder density ratio bounded by eps "
               f"(max log-ratio {report['max_log_ratio']:.4f} at eps=1)", ok)


def test_criterion_8_oracle_prices_match_grid_search(capfd):
    ok = True
    envs = [LinearDemandEnv(), make_env("adversarial", m=2, nu=(1, 0, 1, 1))]
    for env in envs:
        ps = np.linspace(env.p_lo, env.p_hi, 10**4)
        spacing = ps[1] - ps[0]
        X = derive_stream(8, f"acceptance/{env.name}").unit((100, env.d))
        for x in X:
            best = ps[np.argmax(env.mean_revenue(ps, x))]
            ok &= abs(float(env.oracle_price(x)) - best) <= spacing + 1e-12
    adv = envs[1]
    from privbandit.partition import cube_index
    for x in derive_stream(9, "acceptance/closed").unit((100, 2)):
        dist = boundary_distance(adv.partition, x)
        bit = adv.nu[cube_index(adv.partition, x)]
        expect = 2.0 / 3.0 - bit * dist / (3.0 * (1.0 + dist))
        ok &= abs(float(adv.oracle_price(x)) - expect) <= 1e-12
    _report(capfd, 8, "oracle prices match 10^4-point grid search and the "
               "closed form on the piecewise family", ok)


def test_criterion_9_cli_byte_identical(capfd, tmp_path):
    cfg = {"env": {"kind": "linear"}, "policy": {"kind": "lppq"},
           "T": [200, 400], "eps": [1.0, 0.1], "reps": 3, "seed": 4242}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def run(out, jobs):
        r = subprocess.run(
            [sys.executable, "-m", "privbandit.cli", "simulate",
             "--config", str(cfg_path), "--out", str(tmp_path / out),
             "--jobs", str(jobs)],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        return (tmp_path / out / "runs.csv").read_bytes()

    a = run("a", 1)
    b = run("b", 1)
    c = run("c", 8)
    ok = a == b and a == c
    _report(capfd, 9, "simulate output byte-identical across reruns and "
               "--jobs 1 vs --jobs 8", ok)
