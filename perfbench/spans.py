"""In-memory span tracing around the public callables of privbandit's modules.

The tracer wraps functions and methods from outside the library (nothing in
``src/`` is edited): each call records one span (name, start, end, parent,
episode) into flat arrays, so a traced T=62500 episode costs tens of bytes
per call rather than a Python object per call.  Leaving the ``with`` block
puts every original callable back.  Spans are kept in memory while tracing and are only
written out by :meth:`Tracer.save` once the traced run has ended.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer -> (owner attribute path, span name); owners are module-level
# functions ("run_one") or methods ("PolicySpec.build_policy").
TARGETS = {
    "prng": [("RngStream.__init__", "prng.RngStream"),
             ("RngStream.laplace", "prng.laplace")],
    "tree_agg": [("TreeAggregator.update", "tree_agg.update")],
    "partition": [("build_partition", "partition.build_partition"),
                  ("cube_index", "partition.cube_index"),
                  ("cube_index_many", "partition.cube_index_many")],
    "env": [("DemandEnvironment.sample_context", "env.sample_context"),
            ("DemandEnvironment.mean_revenue", "env.mean_revenue"),
            ("LinearDemandEnv.mean_demand", "env.mean_demand"),
            ("LinearDemandEnv.oracle_price", "env.oracle_price"),
            ("LinearDemandEnv.realize_demand", "env.realize_demand"),
            ("LinearDemandEnv.demand_noise", "env.demand_noise"),
            ("AdversarialEnv.mean_demand", "env.mean_demand"),
            ("AdversarialEnv.oracle_price", "env.oracle_price"),
            ("AdversarialEnv.realize_demand", "env.realize_demand"),
            ("boundary_distance_many", "env.boundary_distance_many")],
    "cppq": [("CppqPolicy.choose_price", "cppq.choose_price"),
             ("CppqPolicy.update", "cppq.update")],
    "lppq": [("LppqPolicy.choose_price", "lppq.choose_price"),
             ("LppqPolicy.update", "lppq.update"),
             ("LppqPolicy.record", "lppq.record"),
             ("LppqPolicy.maybe_shrink", "lppq.maybe_shrink")],
    "harness": [("PolicySpec.build_policy", "harness.build_policy"),
                ("run_episode", "harness.run_episode"),
                ("run_one", "harness.run_one"),
                ("aggregate", "harness.aggregate"),
                ("make_env", "harness.make_env")],
    "cli": [("main", "cli.main"),
            ("parse_config", "cli.parse_config"),
            ("run_grid", "cli.run_grid"),
            ("write_csv", "cli.write_csv"),
            ("write_summary", "cli.write_summary"),
            ("format_table", "cli.format_table")],
}
LAYERS = tuple(TARGETS)
EPISODE_START = "harness.run_one"


def _laplace_draws(args, kwargs, result):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return 1 if size is None else int(np.prod(size))


def _events(args, kwargs, result):
    return len(result)


def _periods(args, kwargs, result):
    return int(kwargs.get("T", args[2] if len(args) > 2 else 0))


# counts taken at the same boundaries as the spans: span name -> counter
COUNTERS = {
    "prng.laplace": _laplace_draws,      # Laplace variates drawn
    "cppq.update": _events,              # cube cuts fired
    "lppq.maybe_shrink": _events,        # cube cuts fired
    "harness.run_episode": _periods,     # customer periods simulated
}


class Tracer:
    """Records a span for every call of a wrapped callable inside ``with tracer:``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("h")
        self.parent = array("i")
        self.episode = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._episode = -1
        self._patched: list[tuple] = []

    def __enter__(self):
        """Wrap every target, including the copies other modules imported by name."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "privbandit" or name.startswith("privbandit.")}
        for layer, targets in TARGETS.items():
            mod = modules[f"privbandit.{layer}"]
            for path, span in targets:
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name)
                    self._patch(owner, attr, self._wrap(vars(owner)[attr], span))
                    continue
                original = getattr(mod, attr)
                wrapped = self._wrap(original, span)
                for other in modules.values():
                    if getattr(other, attr, None) is original:
                        self._patch(other, attr, wrapped)
        return self

    def __exit__(self, *exc):
        """Put every original callable back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, span: str):
        nid = self._name_id.setdefault(span, len(self._name_id))
        if nid == len(self.names):
            self.names.append(span)
        counter = COUNTERS.get(span)
        starts_episode = span == EPISODE_START
        stack = self._stack
        name_a, parent_a, episode_a = self.name.append, self.parent.append, self.episode.append
        start_a, end_a = self.start.append, self.end.append
        start, end = self.start, self.end
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_episode:
                tracer._episode += 1
            sid = len(start)
            name_a(nid)
            parent_a(stack[-1])
            episode_a(tracer._episode)
            start_a(0)
            end_a(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if counter is not None:
                tracer.counts[span] = tracer.counts.get(span, 0) + counter(args, kwargs, result)
            return result

        return wrapper

    def save(self, path):
        """Write every span (and the name table) as one .npz file."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int16),
                 parent=np.frombuffer(self.parent, np.int32),
                 episode=np.frombuffer(self.episode, np.int32),
                 start_ns=np.frombuffer(self.start, np.int64),
                 end_ns=np.frombuffer(self.end, np.int64))

    def summarize(self) -> dict:
        """Per-layer metrics (see perfbench/README.md for what each should move)."""
        name = np.frombuffer(self.name, np.int16).astype(np.int64)
        parent = np.frombuffer(self.parent, np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, np.int64) - np.frombuffer(self.start, np.int64)
        dur = dur.astype(float) / 1e6  # ms
        n = len(dur)
        has_parent = parent >= 0
        self_ms = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        layer_of_name = np.array([LAYERS.index(s.split(".")[0]) for s in self.names] or [0])
        layer = layer_of_name[name]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)

        def sel(span):
            return name == self._name_id.get(span, -1)

        def calls(span):
            return int(sel(span).sum())

        def busy_ms(span):
            return float(dur[sel(span)].sum())

        def ratio(num, den):
            return num / den if den else 0.0

        def self_us_per_call(span):
            return ratio(float(self_ms[sel(span)].sum()) * 1e3, calls(span))

        def ms_per_call(span):
            return ratio(busy_ms(span), calls(span))

        run_one_ms = dur[sel("harness.run_one")]
        episode = sel("harness.run_episode")
        periods = self.counts.get("harness.run_episode", 0)
        env = layer == LAYERS.index("env")
        cppq_cuts = self.counts.get("cppq.update", 0)
        lppq_cuts = self.counts.get("lppq.maybe_shrink", 0)
        out = {
            "tree_agg.update.calls": (calls("tree_agg.update"), "count"),
            "tree_agg.update.busy_ms": (busy_ms("tree_agg.update"), "ms"),
            "tree_agg.update.self_us_per_call": (self_us_per_call("tree_agg.update"), "us"),
            "cppq.update.calls": (calls("cppq.update"), "count"),
            "cppq.update.self_us_per_call": (self_us_per_call("cppq.update"), "us"),
            "cppq.choose_price.busy_ms": (busy_ms("cppq.choose_price"), "ms"),
            "cppq.cuts": (cppq_cuts, "count"),
            "cppq.cut_yield": (ratio(cppq_cuts, calls("cppq.update")), "cuts/check"),
            "lppq.record.calls": (calls("lppq.record"), "count"),
            "lppq.record.self_us_per_call": (self_us_per_call("lppq.record"), "us"),
            "lppq.maybe_shrink.calls": (calls("lppq.maybe_shrink"), "count"),
            "lppq.maybe_shrink.us_per_call": (ms_per_call("lppq.maybe_shrink") * 1e3, "us"),
            "lppq.cuts": (lppq_cuts, "count"),
            "lppq.cut_yield": (ratio(lppq_cuts, calls("lppq.maybe_shrink")), "cuts/check"),
            "prng.laplace.calls": (calls("prng.laplace"), "count"),
            "prng.laplace.draws": (self.counts.get("prng.laplace", 0), "count"),
            "prng.laplace.busy_ms": (busy_ms("prng.laplace"), "ms"),
            "prng.RngStream.calls": (calls("prng.RngStream"), "count"),
            "prng.RngStream.busy_ms": (busy_ms("prng.RngStream"), "ms"),
            "harness.run_episode.us_per_period": (
                ratio(busy_ms("harness.run_episode") * 1e3, periods), "us"),
            "harness.run_episode.self_share": (
                ratio(float(self_ms[episode].sum()), busy_ms("harness.run_episode")), "share"),
            "harness.build_policy.ms": (ms_per_call("harness.build_policy"), "ms"),
            "harness.run_one.ms.p50": (_percentile(run_one_ms, 50), "ms"),
            "harness.run_one.ms.p90": (_percentile(run_one_ms, 90), "ms"),
            "harness.run_one.ms.n": (len(run_one_ms), "count"),
            "env.calls": (int(env.sum()), "count"),
            # an env call made from another env call is already inside its span
            "env.busy_ms": (float(dur[env & (parent_layer != layer)].sum()), "ms"),
            "partition.cube_index_many.busy_ms": (busy_ms("partition.cube_index_many"), "ms"),
            "cli.parse_config.ms": (ms_per_call("cli.parse_config"), "ms"),
            "cli.write_csv.ms": (ms_per_call("cli.write_csv"), "ms"),
            "cli.write_summary.ms": (ms_per_call("cli.write_summary"), "ms"),
            "trace.spans": (n, "count"),
        }
        for i, lay in enumerate(LAYERS):
            out[f"{lay}.self_ms"] = (float(self_ms[layer == i].sum()), "ms")
        return out


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
