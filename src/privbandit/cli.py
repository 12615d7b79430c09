"""Command-line front end: experiment configs, reproduction presets, reports.

Subcommands
-----------
simulate       run a JSON-configured experiment grid, emit CSV + summary JSON
reproduce      run a built-in preset (table-cppq | table-lppq | slope-lppq)
privacy-check  analytic density-ratio audit of the local-DP recorder

simulate and reproduce share one run path, :func:`_run_experiment`; --jobs
must be >= 1.  Policy constants are checked by PolicySpec: cppq and
nonprivate take c1, c1_prime, c2; lppq takes kappa1, kappa2; each must be
a finite number >= 0.
Exit codes: 0 success, 2 configuration error (one ``error:`` line), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .harness import (NONPRIVATE, PolicySpec, aggregate, fit_loglog_slope, make_env,
                      percentage_regret, run_many)
from .partition import SENSITIVITY_CORRECT, UNIT_SCALE, build_partition
from .prng import RngStream, seed_from_env
from .svgplot import line_chart

CSV_HEADER = "policy,env,eps,T,J,rep,seed,regret,pct_regret,oracle_revenue,shrinks_total"

TABLE_T_GRID = (500, 2500, 12500, 62500)
TABLE_EPS_GRID = (10.0, 1.0, 0.1, 0.01)
DEFAULT_REPS = 30
DEFAULT_SEED = 20240001


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    env_kind: str = "linear"
    env_params: dict = field(default_factory=dict)
    policy_kind: str = "lppq"
    policy_preset: str = "experiment"
    policy_overrides: dict = field(default_factory=dict)
    J: int | None = None
    T_list: tuple = (500,)
    eps_list: tuple = (1.0,)
    reps: int = 1
    seed: int = DEFAULT_SEED
    sensitivity_mode: str = UNIT_SCALE
    include_nonprivate: bool = False
    specs: tuple = ()  # the PolicySpecs to run, in output order


_TOP_KEYS = {"preset", "env", "policy", "T", "eps", "reps", "seed",
             "sensitivity_mode", "include_nonprivate"}


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a JSON config document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = ExperimentConfig()

    preset = doc.get("preset")
    if preset is not None:
        if preset not in ("table-cppq", "table-lppq", "slope-lppq"):
            raise ConfigError(f"unknown preset {preset!r}")
        cfg.policy_kind = "cppq" if preset == "table-cppq" else "lppq"
        cfg.T_list = TABLE_T_GRID
        cfg.eps_list = TABLE_EPS_GRID
        cfg.reps = DEFAULT_REPS
        cfg.include_nonprivate = preset != "slope-lppq"

    env = doc.get("env", {"kind": "linear"})
    if not isinstance(env, dict) or "kind" not in env:
        raise ConfigError("env must be an object with a 'kind' field")
    cfg.env_kind = env["kind"]
    cfg.env_params = {k: v for k, v in env.items() if k != "kind"}
    try:
        d = make_env(cfg.env_kind, **cfg.env_params).d
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad env {env}: {exc}") from None

    policy = doc.get("policy")
    if policy is not None:
        if not isinstance(policy, dict):
            raise ConfigError("policy must be an object")
        cfg.policy_kind = policy.get("kind", cfg.policy_kind)
        cfg.policy_preset = policy.get("preset", cfg.policy_preset)
        if policy.get("J") is not None:
            cfg.J = _positive_int(policy["J"], "policy J")
            try:
                build_partition(d, cfg.J)
            except ValueError as exc:
                raise ConfigError(f"policy J: {exc}") from None
        cfg.policy_overrides = {k: v for k, v in policy.items()
                                if k not in ("kind", "preset", "J")}

    if "T" in doc:
        cfg.T_list = tuple(_positive_int(v, "each T entry") for v in _as_list(doc["T"], "T"))
    if "eps" in doc:
        cfg.eps_list = tuple(_parse_eps(v) for v in _as_list(doc["eps"], "eps"))
    if "reps" in doc:
        cfg.reps = _positive_int(doc["reps"], "reps")
    if "seed" in doc:
        if not isinstance(doc["seed"], int) or isinstance(doc["seed"], bool):
            raise ConfigError(f"seed must be an integer, got {doc['seed']!r}")
        cfg.seed = doc["seed"]
    if "sensitivity_mode" in doc:
        if doc["sensitivity_mode"] not in (UNIT_SCALE, SENSITIVITY_CORRECT):
            raise ConfigError(f"unknown sensitivity_mode {doc['sensitivity_mode']!r}")
        cfg.sensitivity_mode = doc["sensitivity_mode"]
    if "include_nonprivate" in doc:
        if not isinstance(doc["include_nonprivate"], bool):
            raise ConfigError(f"include_nonprivate must be true or false, "
                              f"got {doc['include_nonprivate']!r}")
        cfg.include_nonprivate = doc["include_nonprivate"]
    if not cfg.T_list or not cfg.eps_list:
        raise ConfigError("T and eps lists must be non-empty")
    try:
        cfg.specs = _policy_specs(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _as_list(v, name):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{name} must be a non-empty list")
    return v


def _positive_int(v, name):
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ConfigError(f"{name} must be a positive integer, got {v!r}")
    return v


def _parse_eps(v):
    if v == "inf":
        return math.inf
    if isinstance(v, bool):
        raise ConfigError(f"eps entries must be positive numbers or 'inf', got {v!r}")
    try:
        e = float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"eps entries must be positive numbers or 'inf', got {v!r}")
    if not e > 0:
        raise ConfigError(f"eps entries must be positive, got {v!r}")
    return e


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return f"{v:.17g}"
    return str(v)


def _policy_specs(cfg: ExperimentConfig) -> tuple:
    """The specs to run, in output order: the non-private baseline first.

    The baseline that include_nonprivate adds keeps the preset constants;
    a non-private policy kind takes the overrides and ignores eps.
    """
    def spec(kind, eps=math.inf, overrides=()):
        return PolicySpec(kind=kind, preset=cfg.policy_preset, eps=eps, J_request=cfg.J,
                          sensitivity_mode=cfg.sensitivity_mode, overrides=overrides)

    overrides = tuple(cfg.policy_overrides.items())
    if cfg.policy_kind == NONPRIVATE:
        return (spec(NONPRIVATE, overrides=overrides),)
    baseline = (spec(NONPRIVATE),) if cfg.include_nonprivate else ()
    return baseline + tuple(spec(cfg.policy_kind, eps, overrides) for eps in cfg.eps_list)


def run_grid(cfg: ExperimentConfig, jobs: int = 1):
    """Run the whole (policy, eps, T, rep) grid; returns (records, aggregates)."""
    env = make_env(cfg.env_kind, **cfg.env_params)
    tasks = [(spec, env, T, cfg.seed, rep)
             for spec in cfg.specs
             for T in cfg.T_list
             for rep in range(cfg.reps)]
    records = run_many(tasks, jobs)
    # ordered fold per (spec, T) group
    aggregates = [aggregate(records[i:i + cfg.reps]) for i in range(0, len(records), cfg.reps)]
    return records, aggregates


def write_csv(records, path: str):
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            r.policy, r.env, _fmt(r.eps), str(r.T), str(r.J), str(r.rep), str(r.seed),
            _fmt(r.cumulative_regret), _fmt(percentage_regret(r)), _fmt(r.oracle_revenue),
            str(r.shrinks_total),
        ]))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_summary(aggregates, path: str):
    doc = [{
        "policy": a.policy, "eps": "inf" if math.isinf(a.eps) else a.eps, "T": a.T,
        "reps": a.reps, "mean_regret": a.mean_regret, "stderr_regret": a.stderr_regret,
        "mean_pct_regret": a.mean_pct_regret, "stderr_pct_regret": a.stderr_pct_regret,
    } for a in aggregates]
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def format_table(aggregates, T_list) -> str:
    """Rows: Non-Private then descending eps; columns: the T grid.

    The non-private baseline is the only ``Non-Private`` row: a private
    policy's eps=inf cells get their own row, labelled by policy.
    """
    rows = {}
    for a in aggregates:
        if a.policy == NONPRIVATE:
            key = (0, 0.0, "Non-Private")
        else:
            label = f"eps={_fmt(a.eps)}"
            key = (1, -a.eps, f"{a.policy} {label}" if math.isinf(a.eps) else label)
        rows.setdefault(key, {})[a.T] = a.mean_pct_regret

    width = 12
    header = "".ljust(14) + "".join(f"T={T}".rjust(width) for T in T_list)
    lines = [header]
    for key in sorted(rows):
        cells = "".join(f"{rows[key].get(T, float('nan')):{width}.2f}" for T in T_list)
        lines.append(key[2].ljust(14) + cells)
    return "\n".join(lines)


def privacy_check(eps: float, trials: int, max_revenue: float = 1.0, seed: int = 0,
                  J: int = 8) -> dict:
    """Analytic density-ratio audit of the one-shot local-DP release.

    For random neighboring per-period records a, a' (one-hot, magnitude at
    most max_revenue) and random release points z, computes the log density
    ratio sum_j (|z_j - a'_j| - |z_j - a_j|) * eps/2 of the Lap(2/eps)
    mechanism and compares its maximum against the analytic bound
    eps * max_revenue.
    """
    if not 0 < eps < math.inf:
        raise ConfigError(f"eps must be positive and finite, got {eps}")
    if not 0 < max_revenue < math.inf:
        raise ConfigError(f"max revenue must be positive and finite, got {max_revenue}")
    _positive_int(trials, "trials")
    stream = RngStream(seed, "privacy-check")
    max_log_ratio = -math.inf
    worst_l1 = 0.0
    for _ in range(trials):
        j, jp = stream.integers(0, J, size=2)
        a = np.zeros(J)
        ap = np.zeros(J)
        a[j] = max_revenue * stream.unit()
        ap[jp] = max_revenue * stream.unit()
        z = stream.laplace(2.0 / eps, size=J) + a
        log_ratio = float(np.sum(np.abs(z - ap) - np.abs(z - a)) * eps / 2.0)
        max_log_ratio = max(max_log_ratio, log_ratio)
        worst_l1 = max(worst_l1, float(np.abs(a - ap).sum()))
    bound = eps * max_revenue
    return {
        "eps": eps,
        "trials": trials,
        "max_revenue": max_revenue,
        "max_log_ratio": max_log_ratio,
        "analytic_bound": bound,
        "worst_l1_sensitivity": worst_l1,
        "pass": max_log_ratio <= bound + 1e-9,
    }


def _run_experiment(args, doc, out_dir, names):
    """parse_config, run_grid, then write names (CSV, summary) into out_dir unless None.

    --seed, else $PRIVBANDIT_SEED, replaces the document's seed before parsing.
    """
    _positive_int(args.jobs, "--jobs")
    try:
        seed = seed_from_env() if args.seed is None else args.seed
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if seed is not None and isinstance(doc, dict):
        doc = {**doc, "seed": seed}
    cfg = parse_config(doc)
    records, aggregates = run_grid(cfg, jobs=args.jobs)
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            write_csv(records, os.path.join(out_dir, names[0]))
            write_summary(aggregates, os.path.join(out_dir, names[1]))
        except OSError as exc:
            raise OSError(f"cannot write output: {exc}") from None
    return cfg, aggregates


def _cmd_simulate(args) -> int:
    try:
        with open(args.config) as f:
            doc = json.load(f)
    except OSError as exc:
        raise OSError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {args.config}:{exc.lineno}: {exc.msg}") from None
    cfg, aggregates = _run_experiment(args, doc, args.out, ("runs.csv", "summary.json"))
    print(format_table(aggregates, cfg.T_list))
    return 0


def _cmd_reproduce(args) -> int:
    which = args.which
    cfg, aggregates = _run_experiment(args, {"preset": which, "reps": args.reps}, args.out,
                                      (f"{which}.csv", f"{which}-summary.json"))
    if which in ("table-cppq", "table-lppq"):
        print(f"Mean percentage regret, {cfg.reps} reps, seed {cfg.seed}")
        print(format_table(aggregates, cfg.T_list))
        return 0
    # slope-lppq: fitted slope per eps plus chart of ln(regret/ln T) vs ln T
    print(f"Fitted log-log slopes of regret/ln(T), {cfg.reps} reps, seed {cfg.seed}")
    series = {}
    for eps in cfg.eps_list:
        pts = [(a.T, a.mean_regret) for a in aggregates if a.eps == eps]
        slope = fit_loglog_slope(pts)
        print(f"  eps={_fmt(eps):>5}: slope {slope:.3f}")
        series[f"eps={_fmt(eps)}"] = [(math.log(T), math.log(r / math.log(T))) for T, r in pts]
    svg = line_chart(series, xlabel="ln T", ylabel="ln(regret / ln T)",
                     title="Cumulative regret scaling (local privacy)")
    out_dir = args.out or "."
    path = os.path.join(out_dir, "slope-lppq.svg")
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w") as f:
            f.write(svg)
    except OSError as exc:
        raise OSError(f"cannot write output: {exc}") from None
    print(f"chart written to {path}")
    return 0


def _cmd_privacy_check(args) -> int:
    report = privacy_check(args.eps, args.trials, max_revenue=args.max_revenue,
                           seed=args.seed if args.seed is not None else 0)
    if report["max_revenue"] > 1.0:
        print(f"WARNING: per-record revenue up to {report['max_revenue']:g} exceeds the "
              f"normalized range; Lap(2/eps) only guarantees a density-ratio bound of "
              f"exp({report['analytic_bound']:g}) here")
    status = "PASS" if report["pass"] else "FAIL"
    print(f"privacy-check eps={_fmt(args.eps)} trials={args.trials}: "
          f"max log-ratio {report['max_log_ratio']:.6f} <= bound {report['analytic_bound']:.6f} "
          f"[{status}]")
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privbandit",
        description="Privacy-preserving personalized pricing simulations")
    sub = parser.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)  # options of the experiment run path
    run.add_argument("--seed", type=int, default=None,
                     help="root seed; default $PRIVBANDIT_SEED, then the config's")
    run.add_argument("--jobs", type=int, default=1,
                     help="processes running episodes, this one included; at least 1")

    p_sim = sub.add_parser("simulate", parents=[run], help="run a JSON-configured experiment grid")
    p_sim.add_argument("--config", required=True, help="JSON config file")
    p_sim.add_argument("--out", default="out")
    p_sim.set_defaults(func=_cmd_simulate)

    p_rep = sub.add_parser("reproduce", parents=[run], help="run a built-in reproduction preset")
    p_rep.add_argument("which", choices=["table-cppq", "table-lppq", "slope-lppq"])
    p_rep.add_argument("--reps", type=int, default=DEFAULT_REPS)
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=_cmd_reproduce)

    p_priv = sub.add_parser("privacy-check", help="analytic local-DP density-ratio audit")
    p_priv.add_argument("--eps", type=float, required=True)
    p_priv.add_argument("--trials", type=int, default=10000)
    p_priv.add_argument("--max-revenue", type=float, default=1.0)
    p_priv.add_argument("--seed", type=int, default=None)
    p_priv.set_defaults(func=_cmd_privacy_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3


if __name__ == "__main__":
    sys.exit(main())
