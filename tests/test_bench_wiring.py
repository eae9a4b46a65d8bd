"""The benchmark's tracer still reaches every layer it reports on.

``perfbench/spans.py`` times each layer by wrapping module attributes of
``shiftknot`` by name, such as ``shiftknot.curve.basis_rows`` or
``shiftknot.cli._emit``. A change that stops calling through one of them
leaves its per-layer metric reading no span, and nothing else fails. This
runs one traced op of each workload in process and checks that every span
the workload's metrics read was recorded.
"""

import math
import sys
from pathlib import Path

import pytest

# perfbench's modules import each other by bare name, as its own tests do
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


class _ReadNames(spans.Summary):
    """A summary that notes each span name a metric asks it for."""

    def __init__(self, tracer, ops):
        super().__init__(tracer, ops)
        self.read = set()

    def _mask(self, names):
        self.read.update(names)
        return super()._mask(names)


@pytest.mark.parametrize("name", sorted(spans.LAYER_METRICS))
def test_every_span_a_metric_reads_is_recorded(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    tracer = spans.Tracer()
    tracer.op_id = 0
    tracer.install()
    try:
        out = workload.op(0)
    finally:
        tracer.uninstall()
    workload.check(out, 0)
    summary = _ReadNames(tracer, [0])
    metrics = spans.LAYER_METRICS[name](summary, workload)
    assert summary.read
    assert sorted(summary.read - set(tracer.names)) == []
    assert [k for k, v in metrics.items() if not math.isfinite(v)] == []
