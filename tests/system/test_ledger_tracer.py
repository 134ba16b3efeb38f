"""The perf ledger's span tracer still finds and wraps every layer boundary.

The tracer (``benchmarks/ledger/tracer.py``) wraps functions from outside the
program: methods on their classes, and ``check_serializable`` /
``check_replica_convergence`` where ``repro.system.database`` holds them as
module globals.  A refactor that moves one of those targets — say, an import
made lazy inside a function — breaks the traced ledger run without failing
any program test.  This installs the tracer against the tree, runs a batch and
a streaming simulation under it, and uninstalls it again.
"""

import importlib

import pytest

from benchmarks.ledger.tracer import PHASE_SPANS, SELF_SPANS, Tracer
from repro.system.database import DistributedDatabase
from repro.workload.generator import TransactionGenerator
from repro.workload.scenarios import get_scenario


def _targets():
    """``(owner, name)`` of every wrapped function, as the tracer resolves them."""
    for _bucket, module_name, class_name, names in SELF_SPANS + PHASE_SPANS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        for name in names:
            if name.endswith("*"):
                yield from ((owner, n) for n in vars(owner) if n.startswith(name[:-1]))
            else:
                yield owner, name


def _run(audit):
    scenario = get_scenario("zipf-hotspot").configured(transactions=40)
    system = scenario.system.with_overrides(audit=audit)
    database = DistributedDatabase(system)
    database.load_workload(TransactionGenerator(system, scenario.workload).generate())
    result = database.run()
    assert result.serializable and result.committed == result.submitted


@pytest.fixture
def tracer():
    originals = {(owner, name): vars(owner)[name] for owner, name in _targets()}
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original, (owner, name)


def test_every_target_is_wrapped_in_place(tracer):
    for owner, name in _targets():
        assert hasattr(vars(owner)[name], "__wrapped__"), (owner, name)


def test_both_audit_pipelines_run_through_the_wrappers(tracer):
    _run("batch")
    assert tracer.phase_s["sim.loop_s"] > 0.0
    assert tracer.phase_s["core.batch_audit_s"] > 0.0
    assert tracer.self_s["system.coordinator_self_s"] > 0.0
    _run("streaming")
    assert tracer.self_s["core.streaming_audit_self_s"] > 0.0
