"""Self-tests of the ledger and its tracer: ``PYTHONPATH=src pytest benchmarks/ledger``.

The workloads run in this process at a fraction of their pinned size (the
``quick`` fixture passes ``transactions=`` to :func:`child.measure`; there is no
command-line knob for it), so the suite takes seconds, not minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import child, ledger, spec
from benchmarks.ledger.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
QUICK_TRANSACTIONS = {"live-paced": 40}


@pytest.fixture(scope="module")
def quick():
    """Per workload, one untraced then one traced run at tiny size, same seed."""
    return {
        name: [
            child.measure(name, trace=traced, transactions=QUICK_TRANSACTIONS.get(name, 150))
            for traced in (False, True)
        ]
        for name in spec.WORKLOADS
    }


def test_manifest_declares_exactly_the_spec():
    assert MANIFEST["paths"] == ["benchmarks/ledger"]
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()
    ]
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]
    } == spec.END_TO_END
    scoped = {name: row[:2] for name, row in spec.END_TO_END_SCOPED.items()}
    layered = {name: row[:2] for name, row in spec.PER_LAYER.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in MANIFEST["per_layer"]} == {
        **layered,
        **scoped,
    }
    bounds = [bound for _, _, bound in spec.END_TO_END.values()]
    assert spec.END_TO_END["setup_s"][2] == max(bounds) <= 0.25
    for entry in MANIFEST["workloads"] + MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
        assert len(entry.get("why", "")) <= 200
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry.get("unit", "s"))


def test_every_declared_metric_is_emitted_where_it_applies(quick):
    for name, workload in spec.WORKLOADS.items():
        runs = quick[name]
        assert all(run["ok"] for run in runs), [run.get("error") for run in runs]
        emitted = set(ledger.end_to_end_samples(runs)) | {"failed_fraction"}
        expected = set(spec.END_TO_END) | {
            metric
            for metric, (_, _, _, scope) in spec.END_TO_END_SCOPED.items()
            if spec.applies(scope, workload)
        }
        assert emitted == expected
        assert set(ledger.per_layer_values(workload, runs)) == {
            metric
            for metric, (_, _, scope) in spec.PER_LAYER.items()
            if spec.applies(scope, workload)
        }


def test_self_times_partition_the_loop(quick):
    for name, workload in spec.WORKLOADS.items():
        if workload.live:
            continue
        layers = quick[name][1]["per_layer"]
        assert sum(layers[metric] for metric in spec.LOOP_SELF_TIMES) == pytest.approx(
            layers["sim.loop_s"], rel=1e-9
        )
        assert layers["sim.loop_s"] + layers["core.batch_audit_s"] <= layers["system.run_s"]


def test_the_trace_separates_the_layers(quick):
    for name, workload in spec.WORKLOADS.items():
        layers = quick[name][1]["per_layer"]
        if not workload.live:
            assert (layers["selection.choose_self_s"] > 0.0) == workload.dynamic
        two_phase = name in ("blackout-2pc-streaming", "live-paced")
        assert (layers["commit.participant_self_s"] > 0.0) == two_phase
        assert (layers["storage.commit_log_self_s"] > 0.0) == two_phase
    assert quick["hotspot-batch"][1]["per_layer"]["core.streaming_audit_self_s"] == 0.0
    assert quick["readmostly-streaming"][1]["per_layer"]["core.streaming_audit_self_s"] > 0.0
    live = quick["live-paced"][1]["per_layer"]
    assert live["live.wire_encode_self_s"] > 0.0 and live["live.frames"] > 0


def test_tracing_leaves_the_run_unchanged(quick):
    for name, workload in spec.WORKLOADS.items():
        untraced, traced = quick[name]
        assert ledger.gate([untraced, traced]) == []
        assert untraced["counts"].keys() == traced["counts"].keys()
        if not workload.live:
            assert untraced["summary_sha256"] == traced["summary_sha256"]
            assert untraced["counts"] == traced["counts"]


def test_the_child_mirrors_run_simulation():
    from repro.analysis.replications import SimulationTask, execute_task

    workload = spec.WORKLOADS["drift-adaptive"]
    system, config = child.resolve(workload, 7, 120)
    reference = execute_task(
        SimulationTask(system, config, dynamic_selection=True, selection_mode="adaptive")
    )
    record = child.measure("drift-adaptive", 7, transactions=120)
    assert record["summary_sha256"] == child.summary_digest(reference)


def test_wrappers_go_in_the_importing_module_and_come_out_again():
    import repro.core.serializability
    import repro.live.tcp
    import repro.live.wire
    import repro.system.database
    from repro.sim.network import Network
    from repro.system.metrics import MetricsCollector

    before = {
        "encode": repro.live.tcp.encode_message,
        "check": repro.system.database.check_serializable,
        "send": vars(Network)["send"],
        "commit": vars(MetricsCollector)["record_commit"],
    }
    assert before["encode"] is repro.live.wire.encode_message
    tracer = Tracer()
    tracer.install()
    try:
        # Imported by value: the importer's global is rebound, the definer's is not.
        assert repro.live.tcp.encode_message is not before["encode"]
        assert repro.live.wire.encode_message is before["encode"]
        assert repro.system.database.check_serializable is not before["check"]
        assert repro.core.serializability.check_serializable is before["check"]
        assert vars(Network)["send"].__wrapped__ is before["send"]
        assert vars(MetricsCollector)["record_commit"].__wrapped__ is before["commit"]
    finally:
        tracer.uninstall()
    assert repro.live.tcp.encode_message is before["encode"]
    assert repro.system.database.check_serializable is before["check"]
    assert vars(Network)["send"] is before["send"]
    assert vars(MetricsCollector)["record_commit"] is before["commit"]


def test_gate_and_failure_accounting():
    good = {"workload": "w", "seed": 1, "ok": True, "violations": [], "submitted": 10}
    good["committed"] = 10
    first = {**good, "summary_sha256": "a", "counts": {"sim.events": 1}}
    assert ledger.gate([first, dict(first)]) == []
    assert "summary_sha256" in ledger.gate([first, {**first, "summary_sha256": "b"}])[0]
    assert "count" in ledger.gate([first, {**first, "counts": {"sim.events": 2}}])[0]
    wedged = {**good, "ok": False, "violations": ["run did not complete"], "committed": 9}
    assert ledger.gate([wedged]) == ["w run 0: run did not complete"]
    assert ledger.failed_transactions(wedged) == 10
    assert ledger.failed_transactions({**good, "committed": 8}) == 2


def test_compare_applies_the_bound_per_pair():
    def cell(*samples):
        return ledger.spread(list(samples))

    steady = cell(100.0, 101.0, 102.0, 103.0)
    assert ledger.verdict("cpu_ms_per_txn", steady, cell(104, 105, 106, 107))["verdict"] == "ok"
    assert ledger.verdict("cpu_ms_per_txn", steady, cell(130, 131, 132, 133))["verdict"] == (
        "regression"
    )
    assert ledger.verdict("committed_txn_per_s", steady, cell(70, 71, 72, 73))["verdict"] == (
        "regression"
    )
    noisy = cell(60.0, 90.0, 110.0, 150.0)
    assert ledger.verdict("cpu_ms_per_txn", noisy, cell(61, 91, 111, 149))["verdict"] == (
        "unresolved"
    )
    assert ledger.verdict("cpu_ms_per_txn", noisy, cell(10, 20, 30, 59))["verdict"] == "ok"
    assert ledger.verdict("failed_fraction", cell(0.0), cell(0.01))["verdict"] == "regression"
    assert ledger.verdict("failed_fraction", cell(0.0), cell(0.0))["verdict"] == "ok"


def test_percentile_is_nearest_rank():
    samples = list(range(1, 601))
    assert child.percentile(samples, 50) == 300
    assert child.percentile(samples, 98) == 588  # twelve samples lie beyond it


def test_driver_line_and_refusal_without_the_program(tmp_path):
    command = [sys.executable, "benchmarks/ledger/run.py", "--workload", "hotspot-batch"]
    command += ["--seed", "3", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 2000
    assert set(line["metrics"]) == set(spec.END_TO_END)
    assert all(cell["value"] > 0 for cell in line["metrics"].values())

    # Only BENCHMARK.json and the benchmark's own files: refuse, print no result.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "ledger",
        tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    bare = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert bare.returncode != 0 and bare.stdout.strip() == ""
