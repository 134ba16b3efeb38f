"""The issuers' uncommitted counts: exact on every path, and never a table walk.

``DistributedDatabase.remaining_work`` is the run's termination test; the
deadlock detector and the checkpoint chain consult it after every firing.
It sums each :class:`RequestIssuerActor`'s ``uncommitted`` count, which
``submit_transaction`` and ``transition`` keep exact, so the test costs
O(sites) instead of a walk over every transaction a site ever submitted.

The first test checks the count against that walk after every event of runs
that exercise restarts, deadlock victims, timeouts, 2PC aborts and the
coordinator-recovery walk.  The second makes any iteration of an execution
table during the event loop fail loudly, so the walk cannot creep back in.
The third holds the tables to open transactions: an execution retires at
FINISHED, and no lookup inside the loop ever finds a finished one.
"""

import pytest

from repro.common.config import ProtocolMix
from repro.common.protocol_names import Protocol
from repro.common.transactions import TransactionStatus
from repro.system.coordinator import RequestIssuerActor
from repro.system.database import DistributedDatabase
from repro.workload.generator import TransactionGenerator
from repro.workload.scenarios import get_scenario

THIRDS = ProtocolMix(
    {
        Protocol.TWO_PHASE_LOCKING: 1.0,
        Protocol.TIMESTAMP_ORDERING: 1.0,
        Protocol.PRECEDENCE_AGREEMENT: 1.0,
    }
)

#: case -> (scenario, transactions, workload overrides).
CASES = {
    # T/O rejections and 2PL deadlock victims (workload seed 4 has both).
    "zipf-hotspot-thirds": ("zipf-hotspot", 60, {"protocol_mix": THIRDS, "seed": 4}),
    # The coordinator-recovery walk aborts PREPARING rounds.
    "coordinator-blackout": ("coordinator-blackout", 60, {}),
    # 2PC with cooperative termination under TM and site churn.
    "in-doubt-storm": ("in-doubt-storm", 60, {}),
    # Request-timeout restarts around a dead data site.
    "site-blackout": ("site-blackout", 60, {}),
}

_SETTLED = (TransactionStatus.COMMITTED, TransactionStatus.FINISHED)


def _database(case):
    name, transactions, overrides = CASES[case]
    scenario = get_scenario(name).configured(transactions=transactions)
    workload = scenario.workload.with_overrides(**overrides)
    database = DistributedDatabase(scenario.system)
    database.load_workload(TransactionGenerator(scenario.system, workload).generate(), workload)
    return database


def _walked(issuer):
    """The count the old termination test derived by walking the table."""
    return sum(
        1 for execution in issuer._executions.values() if execution.status not in _SETTLED
    )


def _issuers(database):
    return [database.issuer(site) for site in range(database.catalog.num_sites)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_uncommitted_matches_the_walk_after_every_event(case):
    database = _database(case)
    issuers = _issuers(database)
    checked = []

    def check(_time, label):
        # Trace hooks fire before each event's callback: this checks the
        # state the previous event left behind.
        for issuer in issuers:
            assert issuer.uncommitted == _walked(issuer), (label, issuer.name)
        checked.append(label)

    database.simulator.add_trace_hook(check)
    result = database.run(max_events=200_000)
    check(database.simulator.now, "end of run")

    assert result.committed == result.submitted == CASES[case][1]
    assert database.remaining_work() == 0
    assert len(checked) == database.simulator.events_processed + 1
    metrics = result.metrics
    if case == "zipf-hotspot-thirds":
        assert metrics.total_restarts() > 0 and result.deadlock_victims
    elif case == "site-blackout":
        assert metrics.timeout_restarts > 0
    else:
        assert result.coordinator_crashes > 0 and metrics.coordinator_recoveries > 0
        assert metrics.redriven_transactions > 0


class _ExplodingTable(dict):
    """An execution table whose iteration fails while ``armed``."""

    armed = False

    def _guard(self):
        if self.armed:
            raise AssertionError("an issuer's execution table was walked inside the event loop")

    def __iter__(self):
        self._guard()
        return super().__iter__()

    def keys(self):
        self._guard()
        return super().keys()

    def values(self):
        self._guard()
        return super().values()

    def items(self):
        self._guard()
        return super().items()


@pytest.mark.parametrize("case", sorted(CASES))
def test_nothing_walks_an_execution_table_inside_the_loop(case, monkeypatch):
    # The coordinator-recovery walk is the one sanctioned in-loop walk: it
    # runs once per TM recovery, never per event or per scan.
    recover = RequestIssuerActor.on_coordinator_recovery

    def recovering(self, site, now):
        armed, _ExplodingTable.armed = _ExplodingTable.armed, False
        try:
            recover(self, site, now)
        finally:
            _ExplodingTable.armed = armed

    monkeypatch.setattr(RequestIssuerActor, "on_coordinator_recovery", recovering)
    monkeypatch.setattr(_ExplodingTable, "armed", False)
    database = _database(case)
    for issuer in _issuers(database):
        issuer._executions = _ExplodingTable(issuer._executions)

    run = database.simulator.run

    def armed_run(*args, **kwargs):
        _ExplodingTable.armed = True
        try:
            return run(*args, **kwargs)
        finally:
            _ExplodingTable.armed = False

    monkeypatch.setattr(database.simulator, "run", armed_run)
    result = database.run(max_events=200_000)
    # committed_attempts() after the loop is the only full walk left.
    assert result.committed == result.submitted == CASES[case][1]
    assert len(result.committed_attempts) == result.committed


class _RetiredGuard(dict):
    """An execution table that fails if a lookup ever yields a FINISHED execution."""

    @staticmethod
    def _checked(execution):
        if execution is not None and execution.status is TransactionStatus.FINISHED:
            raise AssertionError(f"{execution.tid} was looked up after it finished")
        return execution

    def get(self, key, default=None):
        return self._checked(super().get(key, default))

    def __getitem__(self, key):
        return self._checked(super().__getitem__(key))


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_finished_execution_is_found_inside_the_loop(case):
    database = _database(case)
    issuers = _issuers(database)
    for issuer in issuers:
        issuer._executions = _RetiredGuard(issuer._executions)

    def check(_time, label):
        for issuer in issuers:
            finished = [
                execution.tid
                for execution in dict.values(issuer._executions)
                if execution.status is TransactionStatus.FINISHED
            ]
            assert not finished, (label, finished)

    database.simulator.add_trace_hook(check)
    result = database.run(max_events=200_000)
    assert result.committed == result.submitted == CASES[case][1]
    assert result.serializable and result.atomic
    # Every transaction retired: the tables are empty, and the committed
    # attempts come from the finished maps alone.
    assert all(not dict.__len__(issuer._executions) for issuer in issuers)
    assert len(result.committed_attempts) == result.committed
    for tid in result.committed_attempts:
        assert database.issuer(tid.site).execution_status(tid) is TransactionStatus.FINISHED
