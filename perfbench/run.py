"""Layered benchmark for privbandit.

Run from the repository root (Python 3.10+, numpy; nothing to build):

    python3 perfbench/run.py --workload central-long --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
makes a traced run instead and reports the per-layer metrics, the tracing
overhead and isolated kernel timings.  End-to-end times are scaled to a
nominal host speed by a probe sampled while they run, since the shared host's
speed drifts (README.md, "Nominal host speed").  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the run's provenance.  Run directories, spans and
a copy of the result go to ``.perfbench_out/`` in the repository root.
The workloads and the layer -> metric map are documented in README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS/OpenMP thread per process, so pool workers x threads <= nproc.
# Set before numpy is imported; child processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

LINEAR = {"kind": "linear"}
ADVERSARIAL = {"kind": "adversarial", "m": 2, "nu": [1, 0, 1, 1]}


@dataclass(frozen=True)
class Workload:
    """A closed loop of rounds; each round runs every episode of ``configs`` once.

    ``configs`` are ``simulate`` config documents.  Serial workloads run their
    episodes through ``harness.run_one`` (round r uses rep r); the parallel one
    runs each document through ``privbandit simulate --jobs nproc``.  The first
    ``check_rounds`` rounds always run and give ``mean_pct_regret``.
    """

    configs: tuple
    check_rounds: int
    parallel: bool = False


WORKLOADS = {
    # The dominant cell of the non-private acceptance row plus the cppq tail:
    # two width-49 tree updates and the cut check per period; no lppq.
    "central-long": Workload(configs=(
        {"env": LINEAR, "policy": {"kind": "cppq"}, "include_nonprivate": True,
         "eps": [1.0], "T": [62500]},), check_rounds=1),
    # lppq at eps=10 (J=64): ~6.7% of periods cut, 64 Laplace draws per
    # period; the epoch-jump engine's worst case.  No tree aggregator.
    "lppq-dense": Workload(configs=(
        {"env": LINEAR, "policy": {"kind": "lppq"}, "eps": [10.0], "T": [62500]},),
        check_rounds=8),
    # lppq at eps 0.1 and 0.01 (J=9, J=4): <1.3% of periods cut, loop
    # overhead dominates; the epoch-jump best case, beside lppq-dense.
    "lppq-sparse": Workload(configs=(
        {"env": LINEAR, "policy": {"kind": "lppq"}, "eps": [0.1, 0.01], "T": [62500]},),
        check_rounds=8),
    # All three policies on the adversarial env at short horizons through
    # `simulate --jobs nproc`: the only user of the process pool, write_csv
    # and the adversarial branch of run_episode.
    "short-parallel": Workload(configs=(
        {"env": ADVERSARIAL, "policy": {"kind": "cppq"}, "include_nonprivate": True,
         "eps": [1.0], "T": [200, 500], "reps": 16},
        {"env": ADVERSARIAL, "policy": {"kind": "lppq"}, "eps": [1.0], "T": [200, 500],
         "reps": 16}), check_rounds=1, parallel=True),
}

SETUP_SAMPLES = 6  # taken before and again after the timed rounds
SETUP_PROBES = 3  # host probes just before and just after each sample
# Timed in a fresh interpreter: import, config parse and env construction.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import privbandit
from privbandit.cli import parse_config
from privbandit.harness import make_env
for doc in json.loads(sys.argv[1]):
    cfg = parse_config(doc)
    make_env(cfg.env_kind, **cfg.env_params)
elapsed = time.perf_counter() - t0
if not privbandit.__file__.startswith(sys.argv[2]):
    sys.exit(f"imported {privbandit.__file__}, not the checkout's sources")
print(repr(elapsed))
"""


# Host-speed probe: fixed work in the mix the episodes run (interpreted
# bookkeeping around width-4..64 numpy ops), using no privbandit code.  The
# host's speed drifts by tens of percent within seconds, so the probe is
# sampled every PROBE_PERIOD_S of a timed unit from a SIGALRM handler, and the
# unit's time is scaled by PROBE_NOMINAL_S over the probes' median CPU time.
# PROBE_NOMINAL_S is the probe's median on the reference machine (README).
PROBE_STEPS = 200
PROBE_PERIOD_S = 0.1
PROBE_NOMINAL_S = 0.0027


def host_probe() -> tuple:
    """(wall s, CPU s) of one fixed unit of work: the host's speed right now."""
    t0, c0 = time.perf_counter(), time.process_time()
    rng = np.random.default_rng(20240001)
    acc = np.zeros(49)
    counts = {}
    total = 0.0
    for i in range(PROBE_STEPS):
        u = rng.random(64 if i % 16 == 0 else 4)
        noise = -np.sign(u - 0.5) * np.log1p(-2.0 * np.abs(u - 0.5))
        acc[i % 49] += float(noise[0])
        if i % 7 == 0:
            acc += noise[0] * 0.5
        key = (i % 9, i % 5)
        counts[key] = counts.get(key, 0) + 1
        total += min(float(acc.max()), 1.0) + counts[key] * 1e-3
    return time.perf_counter() - t0, time.process_time() - c0


class ProbeSampler:
    """Runs :func:`host_probe` every PROBE_PERIOD_S of wall time while active."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.walls: list = []
        self.cpus: list = []
        self._busy = False

    def _tick(self, signum, frame):
        if not self._busy:  # a late tick never nests a probe in a probe
            self._busy = True
            wall, cpu = host_probe()
            self.walls.append(wall)
            self.cpus.append(cpu)
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample during the block; yields the index of its first sample."""
        if not self.enabled:
            yield len(self.walls)
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield len(self.walls)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, first: int, wall: float, cpu: float) -> tuple:
        """(wall, CPU) of a unit net of its probes, at the host's nominal speed.

        The scale is the probes' CPU time, not their wall time: while pool
        workers hold both cores, a probe waits for one and its wall time
        measures that wait rather than the host.
        """
        wall -= sum(self.walls[first:])
        cpu -= sum(self.cpus[first:])
        if len(self.cpus) == first:
            return wall, cpu
        scale = PROBE_NOMINAL_S / statistics.median(self.cpus[first:])
        return wall * scale, cpu * scale


@dataclass
class Round:
    """A round's times, each scaled to the host's nominal speed by the probes."""

    wall: float = 0.0
    cpu: float = 0.0
    elapsed: float = 0.0  # real seconds the round took, probes included
    periods: int = 0
    attempted: int = 0
    pct_regret: list = field(default_factory=list)
    csv: list = field(default_factory=list)


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def provenance(workload: str, seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha or "unknown", "python": platform.python_version(),
            "numpy": np.__version__, "nproc": nproc(), "cpu_model": cpu_model,
            "workload": workload, "seed": seed}


class Bench:
    """One workload at one seed: set-up timing, rounds, checks and metrics."""

    def __init__(self, name: str, seed: int, probe: bool):
        from privbandit import cli
        from privbandit.harness import NONPRIVATE, PolicySpec, make_env
        self.name = name
        self.seed = seed
        self.work = WORKLOADS[name]
        self.probes = ProbeSampler(probe)
        self.out = OUT / name
        self.out.mkdir(parents=True, exist_ok=True)
        self.failures: list[str] = []
        self.rounds: list[dict] = []  # every timed round, for the result file
        self.attempted = 0
        self.failed = 0
        self.cells = []  # per config: [(spec, T, reps), ...] in simulate's output order
        self.envs = []
        self.config_paths = []
        for i, doc in enumerate(self.work.configs):
            cfg = cli.parse_config(doc)
            specs = []
            if cfg.include_nonprivate:
                specs.append(PolicySpec(kind=NONPRIVATE, preset=cfg.policy_preset))
            specs += [PolicySpec(kind=cfg.policy_kind, preset=cfg.policy_preset, eps=e)
                      for e in cfg.eps_list]
            self.cells.append([(s, T, cfg.reps) for s in specs for T in cfg.T_list])
            self.envs.append(make_env(cfg.env_kind, **cfg.env_params))
            path = self.out / f"config-{i}.json"
            path.write_text(json.dumps(doc))
            self.config_paths.append(path)

    def fail(self, what: str, episodes: int = 1):
        self.failures.append(what)
        self.failed += episodes
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    # -- set-up --------------------------------------------------------------
    def setup_seconds(self, samples: int) -> list:
        """Set-up times of ``samples`` fresh interpreters at nominal host speed.

        Each is scaled by the median CPU time of the probes run just before
        and just after it.
        """
        pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=pythonpath)
        times = []
        for _ in range(samples):
            probes = [host_probe()[1] for _ in range(SETUP_PROBES)]
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, json.dumps(self.work.configs), str(SRC)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
            probes += [host_probe()[1] for _ in range(SETUP_PROBES)]
            times.append(float(proc.stdout) * PROBE_NOMINAL_S / statistics.median(probes))
        return times

    # -- episodes ------------------------------------------------------------
    def episode(self, rnd: Round, spec, env, T: int, root_seed: int, rep: int):
        from privbandit.harness import percentage_regret, run_one
        rnd.attempted += 1
        label = f"{spec.kind} eps={spec.eps} T={T} seed={root_seed} rep={rep}"
        try:
            rec = run_one(spec, env, T, root_seed, rep)
            pct = percentage_regret(rec)
        except Exception:
            traceback.print_exc()
            self.fail(label)
            return
        if not (math.isfinite(rec.cumulative_regret) and math.isfinite(pct)):
            self.fail(f"{label}: regret {rec.cumulative_regret} is not finite")
        elif rec.shrink_count is None or int(rec.shrink_count.min()) < 0:
            self.fail(f"{label}: negative shrink count")
        else:
            rnd.periods += T
            rnd.pct_regret.append(pct)

    def simulate(self, rnd: Round, i: int, root_seed: int, jobs: int, out_dir: Path):
        """One `privbandit simulate` call; checks runs.csv and keeps its bytes."""
        from privbandit import cli
        expected = sum(reps for _, _, reps in self.cells[i])
        periods = sum(T * reps for _, T, reps in self.cells[i])
        rnd.attempted += expected
        argv = ["simulate", "--config", str(self.config_paths[i]), "--seed", str(root_seed),
                "--jobs", str(jobs), "--out", str(out_dir)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"simulate exited with {code}")
            data = (out_dir / "runs.csv").read_bytes()
            summary = json.loads((out_dir / "summary.json").read_text())
        except Exception:
            traceback.print_exc()
            self.fail(f"simulate {argv}", expected)
            return
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        bad = [r for r in rows if not (math.isfinite(float(r["regret"]))
                                       and math.isfinite(float(r["pct_regret"]))
                                       and int(r["shrinks_total"]) >= 0)]
        if len(rows) != expected or bad or len(summary) != len(self.cells[i]):
            self.fail(f"simulate {argv}: {len(rows)} rows for {expected} episodes, "
                      f"{len(bad)} with non-finite regret or negative shrinks", expected)
            return
        rnd.periods += periods
        rnd.pct_regret += [float(r["pct_regret"]) for r in rows]
        rnd.csv.append(data)

    def run_round(self, r: int, jobs: int) -> Round:
        rnd = Round()
        if self.work.parallel:
            tag = "par" if jobs > 1 else "ser"
            units = [(self.simulate, (rnd, i, self.seed * 1000 + r, jobs, self.out / f"{tag}-{i}"))
                     for i in range(len(self.cells))]
        else:
            units = [(self.episode, (rnd, spec, env, T, self.seed, rep))
                     for cells, env in zip(self.cells, self.envs)
                     for spec, T, reps in cells
                     for rep in range(r * reps, (r + 1) * reps)]
        start = time.perf_counter()
        raw = []
        for fn, args in units:
            with self.probes.sampling() as first:
                t0, c0 = time.perf_counter(), cpu_seconds()
                fn(*args)
                wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
            wall_n, cpu_n = self.probes.scaled(first, wall, cpu)
            rnd.wall += wall_n
            rnd.cpu += cpu_n
            raw.append({"wall_s": wall, "cpu_s": cpu, "probes": len(self.probes.walls) - first,
                        "probe_median_wall_s": statistics.median(self.probes.walls[first:] or [0]),
                        "probe_median_cpu_s": statistics.median(self.probes.cpus[first:] or [0])})
        rnd.elapsed = time.perf_counter() - start
        self.attempted += rnd.attempted
        self.rounds.append({"round": r, "jobs": jobs, "periods": rnd.periods,
                            "wall_s": rnd.wall, "cpu_s": rnd.cpu, "units": raw})
        return rnd

    def warm_up(self):
        """Short episodes of every cell, so first-call costs fall outside the timing."""
        rnd = Round()
        for cells, env in zip(self.cells, self.envs):
            for spec, T, _ in cells:
                self.episode(rnd, spec, env, min(T, 500), self.seed, 0)
        self.attempted += rnd.attempted

    def measure(self, seconds: float, min_rounds: int, jobs: int) -> list:
        """Closed loop: start another round while it is expected to end in time."""
        rounds = []
        t0 = time.perf_counter()
        while True:
            rounds.append(self.run_round(len(rounds), jobs))
            elapsed = time.perf_counter() - t0
            if len(rounds) >= min_rounds and \
                    elapsed + statistics.median(r.elapsed for r in rounds) > seconds:
                return rounds

    def serial_check(self, parallel_round0: Round) -> float:
        """Re-run round 0 with --jobs 1; runs.csv must match byte for byte.

        Returns the serial wall time of the round.
        """
        serial = self.run_round(0, jobs=1)
        if serial.csv != parallel_round0.csv:
            self.fail("runs.csv at --jobs nproc differs from the --jobs 1 run", 0)
        return serial.wall


def rates(rounds: list) -> tuple:
    """(periods per wall second, CPU us per period): medians over rounds."""
    done = [r for r in rounds if r.periods]
    if not done:
        return 0.0, 0.0
    return (statistics.median(r.periods / r.wall for r in done),
            statistics.median(r.cpu / r.periods * 1e6 for r in done))


def end_to_end(bench: Bench, seconds: float) -> dict:
    bench.setup_seconds(1)  # untimed: fills the pyc cache
    setup = bench.setup_seconds(SETUP_SAMPLES)
    bench.warm_up()
    jobs = nproc() if bench.work.parallel else 1
    rounds = bench.measure(seconds, bench.work.check_rounds, jobs)
    if bench.work.parallel:
        bench.serial_check(rounds[0])
    # Samples on both sides of the rounds, so that one burst of outside load
    # on the machine cannot set the median alone.
    setup += bench.setup_seconds(SETUP_SAMPLES)
    pps, cpu_us = rates(rounds)
    pct = [p for r in rounds[:bench.work.check_rounds] for p in r.pct_regret]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "periods_per_s": (pps, "1/s"),
        "cpu_us_per_period": (cpu_us, "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "mean_pct_regret": (statistics.fmean(pct) if pct else 0.0, "%"),
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    from spans import Tracer
    bench.warm_up()
    jobs = nproc() if bench.work.parallel else 1
    untraced = bench.measure(seconds / 2, 1, jobs)
    efficiency = 0.0
    if bench.work.parallel:
        # Spans stay in this process, so the traced run is serial; its
        # untraced reference is the serial re-run of round 0.
        serial_wall = bench.serial_check(untraced[0])
        efficiency = serial_wall / (jobs * untraced[0].wall)
        untraced_pps = untraced[0].periods / serial_wall
        jobs = 1
    else:
        untraced_pps = rates(untraced)[0]
    tracer = Tracer()
    with tracer:
        traced = bench.measure(seconds / 2, 1, jobs)
    tracer.save(bench.out / "spans.npz")
    traced_pps = rates(traced)[0]
    metrics = tracer.summarize()
    metrics.update({
        "cli.pool.parallel_efficiency": (efficiency, "share"),
        "trace.untraced_periods_per_s": (untraced_pps, "1/s"),
        "trace.traced_periods_per_s": (traced_pps, "1/s"),
        "trace.overhead_share": (untraced_pps / traced_pps - 1.0 if traced_pps else 0.0, "share"),
        "error_rate": (bench.failed / max(bench.attempted, 1), "share"),
    })
    metrics.update(kernel_timings(bench.seed))
    return metrics


def kernel_timings(seed: int) -> dict:
    """Isolated, untraced ns per call of the two innermost kernels."""
    from privbandit.prng import RngStream, laplace_from_uniform
    from privbandit.tree_agg import TreeAggregator

    def ns_per_call(fn, calls: int, batches: int = 7) -> float:
        per_batch = []
        for _ in range(batches):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            per_batch.append((time.perf_counter_ns() - t0) / calls)
        return statistics.median(per_batch)

    rng = np.random.default_rng(seed)
    out = {}
    for width in (4, 64):
        u = rng.random(width)
        out[f"kernel.laplace_from_uniform.w{width}.ns_per_call"] = (
            ns_per_call(lambda: laplace_from_uniform(u, 1.0), 10000), "ns")
    one_hot = np.zeros(49)
    one_hot[int(rng.integers(49))] = float(rng.random())
    for label, eps in (("noise", 0.5), ("exact", math.inf)):
        stream = RngStream(seed, "perfbench/tree") if math.isfinite(eps) else None
        agg = TreeAggregator(eps, 62500, stream, width=49)  # cppq's shape at T=62500
        out[f"kernel.tree_agg_update.w49.{label}.ns_per_call"] = (
            ns_per_call(lambda: agg.update(one_hot), 1500), "ns")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "privbandit" / "__init__.py").is_file():
        print(f"perfbench: no privbandit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Tracing runs without probes, so that spans time the program alone.
    bench = Bench(args.workload, args.seed, probe=not args.trace)
    if args.trace:
        metrics = per_layer(bench, args.seconds)
    else:
        metrics = end_to_end(bench, args.seconds)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    prov = provenance(args.workload, args.seed)
    (bench.out / f"result-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, **result, "rounds": bench.rounds}, indent=2) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
