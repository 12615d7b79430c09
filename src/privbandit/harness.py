"""Episode driver, regret accounting, replication, and slope fitting.

Regret is accumulated in *expected* revenue, f(p*(x_t), x_t) - f(p_t, x_t),
not realized revenue: the realized demand draw only feeds the policy.  This
matches the regret definition and keeps Monte-Carlo variance down.

Replications are embarrassingly parallel: rep i draws every bit of
randomness from the stream (root_seed, "rep/i"), so results are identical
whether reps run in one process or many, and aggregation is an ordered fold
over rep index.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .cppq import CppqConfig, CppqPolicy
from .env import AdversarialEnv, DemandEnvironment, LinearDemandEnv
from .lppq import LppqConfig, LppqPolicy
from .partition import PRESETS, UNIT_SCALE, HorizonConfig, build_partition, cube_index_many
from .prng import RngStream, derive_stream

NONPRIVATE = "nonprivate"  # central policy with noise disabled
# kind -> (config class, policy class)
POLICIES = {"cppq": (CppqConfig, CppqPolicy), "lppq": (LppqConfig, LppqPolicy),
            NONPRIVATE: (CppqConfig, CppqPolicy)}
# kind -> the constants its overrides may set: config fields beyond T, eps, J_request, preset
CONSTANTS = {kind: {f.name for f in fields(config)} - {f.name for f in fields(HorizonConfig)}
             - {"preset"} for kind, (config, _) in POLICIES.items()}


@dataclass
class RunRecord:
    """Accounting for one replication."""

    policy: str
    env: str
    T: int
    eps: float
    J: int
    seed: int
    rep: int
    cumulative_regret: float
    oracle_revenue: float
    realized_expected_revenue: float
    shrink_count: np.ndarray = field(repr=False, default=None)
    regret_path: np.ndarray | None = field(repr=False, default=None)

    @property
    def shrinks_total(self) -> int:
        return int(self.shrink_count.sum()) if self.shrink_count is not None else 0


def percentage_regret(rec: RunRecord) -> float:
    if not rec.oracle_revenue > 0:
        raise ArithmeticError("percentage regret undefined for non-positive oracle revenue")
    return 100.0 * rec.cumulative_regret / rec.oracle_revenue


@dataclass(frozen=True)
class PolicySpec:
    """Picklable recipe for building a policy inside a worker process.

    Checks kind, preset and overrides at construction; non-private means eps = inf.
    """

    kind: str  # "cppq" | "lppq" | "nonprivate"
    preset: str = "experiment"
    eps: float = math.inf
    J_request: int | None = None
    sensitivity_mode: str = UNIT_SCALE
    overrides: tuple = ()  # ((name, value), ...) applied on top of the preset

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in POLICIES:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {list(POLICIES)}")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; expected one of {PRESETS}")
        if self.kind == NONPRIVATE:
            object.__setattr__(self, "eps", math.inf)
        unknown = sorted({name for name, _ in self.overrides} - CONSTANTS[self.kind])
        if unknown:
            raise ValueError(f"policy {self.kind} has no constant {', '.join(unknown)}; "
                             f"it takes {', '.join(sorted(CONSTANTS[self.kind]))}")
        for name, value in self.overrides:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"policy {name} must be a number, got {value!r}")
            # every preset constant is finite and >= 0 (c2 = 0 at eps = inf)
            try:
                in_range = 0 <= float(value) < math.inf
            except OverflowError:  # an int too large for a float
                in_range = False
            if not in_range:
                raise ValueError(f"policy {name} must be finite and >= 0, got {value!r}")

    def build_config(self, T: int, d: int):
        maker = getattr(POLICIES[self.kind][0], self.preset)
        cfg = maker(T=T, eps=self.eps, d=d, J_request=self.J_request)
        if self.overrides:
            cfg = replace(cfg, **{k: float(v) for k, v in self.overrides}, preset="custom")
        return cfg

    def build_policy(self, T: int, env: DemandEnvironment, stream: RngStream):
        policy_cls = POLICIES[self.kind][1]
        return policy_cls(self.build_config(T, env.d), env, stream,
                          sensitivity_mode=self.sensitivity_mode)


def run_episode(policy, env: DemandEnvironment, T: int, stream: RngStream,
                keep_path: bool = False) -> tuple:
    """Drive one T-period episode; returns (prices, contexts, regret fields).

    The context and demand-noise streams are pre-drawn.  Every library
    policy runs the whole episode in one call of the block engine
    ``Quadrisection.play(js, demand) -> prices`` on the customers' cube
    indices; any other policy is driven by the per-period
    ``choose_price``/``update`` loop.
    """
    policy_env = getattr(policy, "env", env)
    if policy_env.d != env.d:
        raise ValueError("policy and environment dimension mismatch")
    X = env.sample_context(stream.child("context"), size=T)
    demand = env.episode_demand(stream.child("demand"), X)
    if hasattr(policy, "play"):
        prices = policy.play(cube_index_many(policy.part, X), demand)
    else:
        prices = np.empty(T)
        for i in range(T):
            t = i + 1
            p = policy.choose_price(X[i], t)
            policy.update(X[i], p, demand(i, p), t)
            prices[i] = p
    f_opt = env.mean_revenue(env.oracle_price(X), X)
    f_act = env.mean_revenue(prices, X)
    per_step = f_opt - f_act
    return prices, X, float(f_opt.sum()), float(f_act.sum()), (per_step if keep_path else None)


def run_one(spec: PolicySpec, env: DemandEnvironment, T: int, root_seed: int, rep: int,
            keep_path: bool = False) -> RunRecord:
    stream = derive_stream(root_seed, f"rep/{rep}")
    policy = spec.build_policy(T, env, stream.child("policy"))
    _, _, oracle, realized, path = run_episode(policy, env, T, stream, keep_path=keep_path)
    return RunRecord(
        policy=spec.kind, env=env.name, T=T, eps=spec.eps, J=policy.J, seed=root_seed, rep=rep,
        cumulative_regret=oracle - realized,
        oracle_revenue=oracle,
        realized_expected_revenue=realized,
        shrink_count=policy.shrink_count.copy(),
        regret_path=path,
    )


@dataclass
class AggregateResult:
    policy: str
    eps: float
    T: int
    reps: int
    mean_regret: float
    stderr_regret: float | None
    mean_pct_regret: float
    stderr_pct_regret: float | None


def _run_share(tasks: list) -> list:
    return [run_one(*task) for task in tasks]


def run_many(tasks: list, jobs: int = 1) -> list:
    """run_one over (spec, env, T, root_seed, rep) tuples, results in task order.

    With jobs > 1 the tasks are dealt round-robin into ``jobs`` shares; this
    process runs the first share while a pool of jobs - 1 workers runs the
    others, each share one message each way.  A grid lists a cell's reps
    together, so every share gets the same mix of cells.  Per-task messages
    and an idle parent beside ``jobs`` workers cost about as much as the
    short episodes themselves, and swing with the host's load.  Every task
    draws only from its own seeded streams, so the records are the same at
    any ``jobs``.
    """
    shares = min(jobs, len(tasks))
    if shares < 2:
        return _run_share(tasks)
    with ProcessPoolExecutor(max_workers=shares - 1) as pool:
        rest = [pool.submit(_run_share, tasks[w::shares]) for w in range(1, shares)]
        done = [_run_share(tasks[0::shares])] + [f.result() for f in rest]
    records = [None] * len(tasks)
    for w, share in enumerate(done):
        records[w::shares] = share
    return records


def replicate(spec: PolicySpec, env: DemandEnvironment, T: int, reps: int,
              root_seed: int, jobs: int = 1) -> tuple:
    """Run `reps` independent episodes; returns (records, AggregateResult)."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    records = run_many([(spec, env, T, root_seed, i) for i in range(reps)], jobs)
    return records, aggregate(records)


def aggregate(records: list) -> AggregateResult:
    regs = np.array([r.cumulative_regret for r in records])
    pcts = np.array([percentage_regret(r) for r in records])
    n = len(records)
    stderr = None if n < 2 else float(np.std(regs, ddof=1) / math.sqrt(n))
    stderr_pct = None if n < 2 else float(np.std(pcts, ddof=1) / math.sqrt(n))
    first = records[0]
    return AggregateResult(policy=first.policy, eps=first.eps, T=first.T, reps=n,
                           mean_regret=float(regs.mean()), stderr_regret=stderr,
                           mean_pct_regret=float(pcts.mean()), stderr_pct_regret=stderr_pct)


def fit_loglog_slope(points) -> float:
    """Least-squares slope of ln(regret / ln T) against ln T."""
    points = list(points)
    if len(points) < 2:
        raise ValueError("need at least two (T, regret) points")
    Ts = np.array([p[0] for p in points], dtype=float)
    regs = np.array([p[1] for p in points], dtype=float)
    if np.any(regs <= 0) or np.any(Ts <= 1):
        raise ValueError("slope fit needs positive regrets and T > 1")
    xs = np.log(Ts)
    ys = np.log(regs / np.log(Ts))
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def make_env(kind: str, **kwargs) -> DemandEnvironment:
    """Environment factory shared by the CLI and tests."""
    if kind == "linear":
        return LinearDemandEnv(**kwargs)
    if kind == "adversarial":
        d = kwargs.pop("d", 2)
        m = kwargs.pop("m", 2)
        part = build_partition(d, m**d)
        nu = kwargs.pop("nu", None)
        if nu is None:
            nu = (0,) * part.J
        return AdversarialEnv(partition=part, nu=tuple(nu), **kwargs)
    raise ValueError(f"unknown environment kind {kind!r}")
