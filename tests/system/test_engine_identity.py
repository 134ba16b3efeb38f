"""The event engine's identity contract, end to end.

There is one simulation engine, the serial event loop, and every number it
prints is a pure function of configuration plus seed (docs/determinism.md).
This module pins that contract at full system scale:

* ``golden_scenarios.json`` pins the SHA-256 of the *whole*
  :func:`~repro.analysis.replications.summarize_run` dict — commits,
  restarts, messages, drops, commit times, windowed series, per-protocol
  statistics — for each registered scenario at 40 transactions, plus four
  edge systems: a single site, a zero fixed network delay, a delay spike,
  and the streaming audit;
* the parallel replication engine reproduces the pre-refactor golden
  digests of ``tests/commit/golden_one_phase.json`` exactly;
* the replication driver stays byte-identical across ``--jobs`` and warm
  result-store resumes, and a failing worker surfaces its own error.

A change that must not alter behaviour reproduces every digest; a change
that does re-pins them on purpose and says why::

    PYTHONPATH=src python tests/system/test_engine_identity.py --write
"""

import dataclasses
import hashlib
import json
import pathlib
import sys

import pytest

from repro.analysis.replications import SimulationTask, execute_task, run_tasks
from repro.common.config import (
    DelaySpike,
    FaultConfig,
    NetworkConfig,
    SystemConfig,
    WorkloadConfig,
)
from repro.sim.network import Network
from repro.store import ResultStore
from repro.workload.scenarios import all_scenarios, get_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_scenarios.json"

SPIKE = DelaySpike(at=0.5, duration=2.0, multiplier=8.0)


def _edge(name, transactions, num_sites=3, **system):
    scenario = all_scenarios()[0].configured(transactions=transactions)
    return dataclasses.replace(
        scenario,
        name=name,
        system=SystemConfig(num_sites=num_sites, num_items=16, seed=3, **system),
    )


def _cases():
    cases = {
        scenario.name: scenario.configured(transactions=40)
        for scenario in all_scenarios()
    }
    edges = (
        _edge("edge-single-site", 40, num_sites=1),
        _edge(
            "edge-zero-fixed-delay",
            30,
            network=NetworkConfig(fixed_delay=0.0, variable_delay=0.02),
        ),
        _edge("edge-delay-spike", 40, faults=FaultConfig(spikes=(SPIKE,))),
        _edge("edge-streaming-audit", 40, audit="streaming"),
    )
    cases.update((edge.name, edge) for edge in edges)
    return cases


CASES = _cases()


def _task(scenario):
    return SimulationTask(
        system=scenario.system,
        workload=scenario.workload,
        protocol=scenario.protocol,
        dynamic_selection=scenario.dynamic_selection,
        selection_mode=scenario.selection_mode,
    )


def _digest(summary):
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _assert_pinned(name, summary):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _digest(summary) == golden[name], (
        f"scenario {name!r} diverged from its pinned behaviour"
    )


def _run_pinned(name):
    summary = execute_task(_task(CASES[name]))
    _assert_pinned(name, summary)
    return summary


@pytest.fixture
def deliveries(monkeypatch):
    """Record ``(sender site, receiver site, latency)`` for every message sent.

    The latency excludes the sender's ``extra_delay`` (local service time),
    so it is exactly what the network model charged for the hop.
    """
    recorded = []
    send = Network.send

    def recording_send(self, sender, receiver_name, kind, payload=None, extra_delay=0.0):
        message = send(self, sender, receiver_name, kind, payload, extra_delay)
        latency = message.deliver_time - message.send_time - extra_delay
        recorded.append((sender.site, self.actor(receiver_name).site, latency))
        return message

    monkeypatch.setattr(Network, "send", recording_send)
    return recorded


def _remote_latencies(deliveries):
    return [latency for sender, receiver, latency in deliveries if sender != receiver]


def test_every_case_is_pinned():
    """A newly registered scenario must be pinned, and no pin may go stale."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize(
    "scenario", all_scenarios(), ids=lambda scenario: scenario.name
)
def test_every_registered_scenario_runs_identically(scenario):
    """Every registered scenario — faults, crashes, delay spikes and commit
    variants included — reproduces its pinned summary byte for byte."""
    _run_pinned(scenario.name)


class TestEdgeConfigurations:
    """The network-model edge cases, at full system scale."""

    def test_single_site_degrades_to_serial_semantics(self, deliveries):
        """One site: every message is site-local, none pays network latency."""
        _run_pinned("edge-single-site")
        assert deliveries
        assert _remote_latencies(deliveries) == []

    def test_zero_lookahead_runs_barrier_windows_identically(self, deliveries):
        """``fixed_delay=0`` leaves no minimum delay between sites: remote
        messages may arrive almost at once, and the run still reproduces its
        pin and stays serializable and atomic."""
        summary = _run_pinned("edge-zero-fixed-delay")
        assert summary["serializable"] and summary["atomic"]
        remote = _remote_latencies(deliveries)
        assert remote and min(remote) >= 0.0
        assert min(remote) < NetworkConfig().fixed_delay

    def test_delay_spikes_never_undercut_the_promise(self, deliveries):
        """Spikes multiply latency by >= 1, so no remote message ever arrives
        sooner than the fixed network delay promises — and the spike really
        stretched the messages sent inside it."""
        _run_pinned("edge-delay-spike")
        fixed_delay = CASES["edge-delay-spike"].system.network.fixed_delay
        remote = _remote_latencies(deliveries)
        assert remote
        assert min(remote) >= fixed_delay
        assert max(remote) >= SPIKE.multiplier * fixed_delay

    def test_streaming_audit_runs_identically_under_parallel(self):
        """Two worker processes running the streaming audit each land on the
        pinned summary."""
        task = _task(CASES["edge-streaming-audit"])
        summaries = run_tasks([task, task], jobs=2)
        assert summaries[0]["audit"] == "streaming"
        for summary in summaries:
            _assert_pinned("edge-streaming-audit", summary)


class TestGoldenDigestsUnderParallel:
    """The parallel replication engine reproduces the pre-refactor golden
    digests.

    These are three of the configurations ``tests/commit/
    test_one_phase_identity.py`` pins in-process; fanned across worker
    processes they must land on the *same* digests — behaviour frozen before
    the commit-pipeline refactor ever happened.
    """

    GOLDEN = json.loads(
        (
            pathlib.Path(__file__).parent.parent / "commit" / "golden_one_phase.json"
        ).read_text()
    )

    CASES = {
        "mixed-default": SimulationTask(
            system=SystemConfig(num_sites=3, num_items=24, seed=5),
            workload=WorkloadConfig(arrival_rate=25.0, num_transactions=120, seed=7),
        ),
        "pure-2pl-replicated": SimulationTask(
            system=SystemConfig(
                num_sites=3, num_items=24, replication_factor=2, seed=5
            ),
            workload=WorkloadConfig(arrival_rate=25.0, num_transactions=120, seed=7),
            protocol="2PL",
        ),
        "dynamic": SimulationTask(
            system=SystemConfig(num_sites=3, num_items=24, seed=5),
            workload=WorkloadConfig(arrival_rate=25.0, num_transactions=100, seed=7),
            dynamic_selection=True,
        ),
    }

    def test_parallel_engine_matches_pre_refactor_golden(self):
        names = sorted(self.CASES)
        summaries = run_tasks([self.CASES[name] for name in names], jobs=3)
        for name, summary in zip(names, summaries):
            filtered = {key: summary[key] for key in self.GOLDEN["keys"]}
            assert _digest(filtered) == self.GOLDEN["digests"][name], (
                f"parallel run {name!r} diverged from the golden behaviour"
            )


class TestDriverIdentity:
    """``--jobs`` and warm resumes stay byte-identical for tasks fanned out in
    parallel."""

    def _tasks(self):
        return [
            SimulationTask(
                system=SystemConfig(num_sites=3, num_items=16, seed=seed),
                workload=WorkloadConfig(
                    arrival_rate=25.0, num_transactions=25, seed=seed + 1
                ),
                protocol=protocol,
            )
            for seed in (0, 1)
            for protocol in ("2PL", "T/O", "PA")
        ]

    def test_parallel_tasks_identical_across_jobs(self):
        tasks = self._tasks()
        serial = run_tasks(tasks, jobs=1)
        fanned = run_tasks(tasks, jobs=4)
        assert fanned == serial

    def test_warm_resume_serves_parallel_tasks_without_executing(
        self, tmp_path, monkeypatch
    ):
        tasks = self._tasks()
        store = ResultStore(tmp_path / "runs.jsonl")
        first = run_tasks(tasks, store=store)

        def explode(task):
            raise AssertionError("a warm re-run must not execute any task")

        monkeypatch.setattr("repro.analysis.replications.execute_task", explode)
        warm_store = ResultStore(store.path)
        again = run_tasks(tasks, store=warm_store, jobs=4)
        assert again == first
        assert warm_store.appended == 0
        assert warm_store.hits == len(tasks)


class InjectedWorkerFault(RuntimeError):
    """Raised inside a worker process by the crash test below."""


class TestProcessBackend:
    """The replication driver's worker-process pool (``--jobs N``): commit and
    fault scenarios, store resumes that never fork, and failing workers."""

    SCENARIOS = ("crash-storm", "coordinator-blackout", "in-doubt-storm", "flaky-links")

    def _process_tasks(self):
        return [
            _task(get_scenario(name).configured(transactions=25))
            for name in self.SCENARIOS
        ]

    def test_process_tasks_identical_across_jobs(self):
        tasks = self._process_tasks()
        assert run_tasks(tasks, jobs=3) == run_tasks(tasks, jobs=1)

    def test_warm_resume_serves_process_tasks_without_executing(
        self, tmp_path, monkeypatch
    ):
        """Cold multi-process runs and a warm store resume are byte-identical,
        and the warm pass never starts a worker pool."""
        tasks = self._process_tasks()
        store = ResultStore(tmp_path / "runs.jsonl")
        first = run_tasks(tasks, store=store, jobs=2)

        def no_pool():
            raise AssertionError("a warm re-run must not start a worker pool")

        monkeypatch.setattr("repro.analysis.replications._pool_context", no_pool)
        warm_store = ResultStore(store.path)
        again = run_tasks(tasks, store=warm_store, jobs=4)
        assert again == first
        assert warm_store.appended == 0
        assert warm_store.hits == len(tasks)

    def test_worker_crash_propagates_as_a_typed_error(self, tmp_path, monkeypatch):
        """An exception inside a worker reaches the caller with its own type
        and message — never a hang — and no row is stored for the failed
        task."""
        from repro.analysis import replications
        from repro.store import task_key

        tasks = self._process_tasks()
        doomed = tasks[1]
        execute = replications.execute_task

        def faulty(task):
            if task == doomed:
                raise InjectedWorkerFault("injected worker fault")
            return execute(task)

        # Workers fork from this process, so they inherit the patched entry.
        monkeypatch.setattr(replications, "execute_task", faulty)
        store = ResultStore(tmp_path / "runs.jsonl")
        with pytest.raises(InjectedWorkerFault, match="injected worker fault"):
            run_tasks(tasks, store=store, jobs=2)
        assert store.lookup(task_key(doomed)) is None


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    digests = {name: _digest(execute_task(_task(case))) for name, case in CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2) + "\n")
