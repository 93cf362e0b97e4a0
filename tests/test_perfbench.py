"""The benchmark harness in ``perfbench/`` against the package, read without changing it.

The traced run wraps the package's public callables by name and records a
missing one as absent; the measured run counts a wrong answer or an exception
as a failed operation.  Either would lower the benchmark's ``ok_frac`` or its
per-layer metrics after a change of the package's API, so both are checked
here first: every traced name is present, and one pass of each benchmark
workload (``pipeline``, ``bases``, ``scenarios``) answers every operation as
its closed-form reference says.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("pipeline", "bases", "scenarios")


@pytest.fixture
def harness(monkeypatch):
    # no bytecode is written into perfbench/, and its modules are unloaded afterwards
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import worker
    import workloads

    yield tracing, worker, workloads
    for module in ("tracing", "worker", "workloads"):
        sys.modules.pop(module, None)


def test_traced_names_are_all_present(harness):
    tracing, _, _ = harness
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_benchmark_pass_answers_every_operation(harness, tmp_path, name):
    _, worker, workloads = harness
    set_up, ops = workloads.WORKLOADS[name]
    runner = worker.Runner(ops(set_up(0, str(tmp_path)), 0))
    runner.run_pass(0)
    assert runner.attempted == len(runner.ops)
    assert runner.failures == []
