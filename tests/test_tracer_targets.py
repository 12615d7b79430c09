"""Guard: every callable the benchmark's span tracer wraps still exists.

``perfbench/spans.py`` wraps library callables by name (methods must be
defined in the class body).  A refactor that moves or drops one of them
breaks the traced benchmark run; entering and leaving the tracer here
catches that in the unit suite.
"""

import importlib.util
from pathlib import Path

import privbandit
import privbandit.cli  # noqa: F401  (the tracer looks modules up in sys.modules)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_target():
    spans = _load_spans()
    update = privbandit.TreeAggregator.update
    with spans.Tracer() as tracer:
        assert privbandit.TreeAggregator.update is not update
    assert privbandit.TreeAggregator.update is update
    assert set(tracer.names) == {span for targets in spans.TARGETS.values()
                                 for _, span in targets}
