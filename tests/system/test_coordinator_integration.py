"""Coordinator behaviour observed through targeted end-to-end scenarios."""

import pytest

from repro.analysis.replications import summarize_run
from repro.common.config import NetworkConfig, SystemConfig
from repro.common.ids import RequestId, TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.common.transactions import TransactionSpec, TransactionStatus
from repro.core.effects import BackoffIssued, GrantIssued, RequestRejected
from repro.core.locks import LockMode
from repro.core.requests import Request
from repro.sim.actor import Message
from repro.sim.stats import WelfordAccumulator
from repro.storage.store import ValueStore
from repro.system.database import DistributedDatabase
from repro.system.queue_manager_actor import queue_manager_name


def build_database(num_sites=2, num_items=8, **overrides):
    system = SystemConfig(
        num_sites=num_sites,
        num_items=num_items,
        network=NetworkConfig(fixed_delay=0.005, variable_delay=0.0, local_delay=0.001),
        io_time=0.001,
        restart_delay=0.01,
        deadlock_detection_period=0.05,
        seed=1,
        **overrides,
    )
    return DistributedDatabase(system), system


def spec(tid, reads=(), writes=(), protocol=Protocol.TWO_PHASE_LOCKING, arrival=0.001, logic=None,
         compute=0.001):
    return TransactionSpec(
        tid=tid,
        read_items=tuple(reads),
        write_items=tuple(writes),
        protocol=protocol,
        arrival_time=arrival,
        compute_time=compute,
        logic=logic,
    )


class TestLifecycle:
    def test_single_transaction_lifecycle(self):
        database, _ = build_database()
        tid = TransactionId(0, 1)
        database.submit(spec(tid, reads=(0,), writes=(1,)))
        result = database.run()
        assert result.committed == 1
        issuer = database.issuer(0)
        assert issuer.execution_status(tid) is TransactionStatus.FINISHED
        assert issuer.uncommitted == 0

    def test_read_only_transaction(self):
        database, _ = build_database()
        database.submit(spec(TransactionId(0, 1), reads=(0, 1, 2)))
        result = database.run()
        assert result.committed == 1
        assert result.serializable

    def test_write_only_transaction(self):
        database, _ = build_database()
        database.submit(spec(TransactionId(0, 1), writes=(0, 1, 2)))
        result = database.run()
        assert result.committed == 1

    def test_read_write_same_item_issues_single_request_per_copy(self):
        database, _ = build_database()
        tid = TransactionId(0, 1)
        database.submit(spec(tid, reads=(0,), writes=(0,)))
        result = database.run()
        assert result.committed == 1
        # One physical request only: the write subsumes the read.
        assert result.messages_by_kind["request"] == 1

    def test_per_protocol_commit_paths(self):
        for protocol in Protocol:
            database, _ = build_database()
            database.submit(spec(TransactionId(0, 1), reads=(0,), writes=(1,), protocol=protocol))
            result = database.run()
            assert result.committed == 1, protocol
            assert result.serializable, protocol

    def test_protocol_registry_records_choice(self):
        database, _ = build_database()
        tid = TransactionId(0, 1)
        database.submit(spec(tid, reads=(0,), protocol=Protocol.PRECEDENCE_AGREEMENT))
        database.run()
        assert database.protocol_of(tid) is Protocol.PRECEDENCE_AGREEMENT

    def test_missing_selector_for_unassigned_protocol_raises(self):
        database, _ = build_database()
        database.submit(spec(TransactionId(0, 1), reads=(0,), protocol=None))
        with pytest.raises(Exception):
            database.run()


class TestConflictHandling:
    def test_to_restart_on_conflict_eventually_commits(self):
        database, _ = build_database()
        # Two T/O writers on the same item arriving close together: the one
        # whose request lands second at the queue may be rejected and restart.
        database.submit(
            spec(TransactionId(0, 1), writes=(0,), protocol=Protocol.TIMESTAMP_ORDERING,
                 arrival=0.001)
        )
        database.submit(
            spec(TransactionId(1, 1), writes=(0,), protocol=Protocol.TIMESTAMP_ORDERING,
                 arrival=0.0012)
        )
        result = database.run()
        assert result.committed == 2
        assert result.serializable

    def test_conflicting_writers_serialize_on_value(self):
        store = ValueStore(default_value=0)
        system_size = 10
        database, system = build_database()
        database_with_store = DistributedDatabase(system, value_store=store)
        for index in range(system_size):
            tid = TransactionId(index % system.num_sites, index + 1)
            database_with_store.submit(
                spec(
                    tid,
                    reads=(0,),
                    writes=(0,),
                    protocol=Protocol.PRECEDENCE_AGREEMENT,
                    arrival=0.001 + 0.0005 * index,
                    logic=lambda reads: {0: reads[0] + 1},
                )
            )
        result = database_with_store.run()
        assert result.committed == system_size
        copy = database_with_store.catalog.copies_of(0)[0]
        assert store.read(copy) == system_size

    def test_lost_update_prevented_across_protocols(self):
        store = ValueStore(default_value=0)
        _, system = build_database()
        database = DistributedDatabase(system, value_store=store)
        protocols = [Protocol.TWO_PHASE_LOCKING, Protocol.TIMESTAMP_ORDERING,
                     Protocol.PRECEDENCE_AGREEMENT] * 4
        for index, protocol in enumerate(protocols):
            tid = TransactionId(index % system.num_sites, index + 1)
            database.submit(
                spec(
                    tid,
                    reads=(3,),
                    writes=(3,),
                    protocol=protocol,
                    arrival=0.001 + 0.0003 * index,
                    logic=lambda reads: {3: reads[3] + 1},
                )
            )
        result = database.run()
        assert result.committed == len(protocols)
        assert result.serializable
        copy = database.catalog.copies_of(3)[0]
        assert store.read(copy) == len(protocols)

    def test_granted_lock_count_reflects_held_locks(self):
        database, _ = build_database()
        tid = TransactionId(0, 1)
        blocker = TransactionId(1, 1)
        database.submit(spec(blocker, writes=(0,), arrival=0.001, compute=0.2))
        database.submit(spec(tid, writes=(0, 1), arrival=0.01))
        database.simulator.run(until=0.1)
        issuer = database.issuer(0)
        # The second transaction holds its lock on item 1 but waits for item 0.
        assert issuer.execution_status(tid) is TransactionStatus.REQUESTING
        assert issuer.granted_lock_count(tid) == len(database.catalog.write_copies(1)) == 1
        database.run()
        # Retired at FINISHED: a finished transaction holds nothing.
        assert issuer.execution_status(tid) is TransactionStatus.FINISHED
        assert issuer.granted_lock_count(tid) == 0


def _fingerprint(database, result):
    """Everything a stray reply could move: summary, statistics, traffic, events."""
    statistics = {
        str(protocol): {
            name: vars(value) if isinstance(value, WelfordAccumulator) else value
            for name, value in vars(stats).items()
        }
        for protocol, stats in result.metrics.all_protocol_statistics().items()
    }
    return (
        summarize_run(result),
        statistics,
        database.network.messages_sent,
        database.simulator.pending_events,
    )


class TestRetirement:
    """At FINISHED an issuer keeps only the attempt that committed."""

    @pytest.mark.parametrize(
        "kind", ["grant", "normal-grant", "backoff", "reject", "abort_victim"]
    )
    def test_late_reply_to_a_retired_transaction_is_a_no_op(self, kind):
        database, _ = build_database()
        tid = TransactionId(0, 1)
        database.submit(spec(tid, reads=(0,), writes=(1,)))
        result = database.run()
        issuer = database.issuer(0)
        before = _fingerprint(database, result)

        # The committed attempt's own request id: the worst case, since a
        # stale attempt number is filtered before any table lookup.
        copy = database.catalog.write_copies(1)[0]
        request = Request(
            request_id=RequestId(tid, 1, 0),
            transaction=tid,
            protocol=Protocol.TWO_PHASE_LOCKING,
            op_type=OperationType.WRITE,
            copy=copy,
            timestamp=0.001,
            issuer=issuer.name,
        )
        now = database.simulator.now
        payload = {
            "grant": GrantIssued(request, LockMode.WRITE, normal=False, time=now),
            "normal-grant": GrantIssued(request, LockMode.WRITE, normal=True, time=now),
            "backoff": BackoffIssued(request, new_timestamp=5.0, time=now),
            "reject": RequestRejected(request, time=now),
            "abort_victim": tid,
        }[kind]
        message_kind = "grant" if kind == "normal-grant" else kind
        issuer.handle(Message(message_kind, queue_manager_name(copy), issuer.name, payload))

        assert _fingerprint(database, result) == before
        assert issuer.execution_status(tid) is TransactionStatus.FINISHED
        assert issuer.committed_attempts() == {tid: 0}
        assert issuer.granted_lock_count(tid) == 0
        assert issuer.uncommitted == 0

    def test_committed_attempts_include_a_transaction_awaiting_normality(self):
        # READER (T/O) holds a read lock on item 0 for a long computation;
        # WRITER (T/O, later timestamp) is granted its write pre-scheduled
        # behind it, commits at once under one-phase commit, downgrades, and
        # waits COMMITTED for the normal grant READER's release brings
        # (Section 4.2 rule 4).  It has not retired yet, but it committed.
        database, _ = build_database()
        reader, writer = TransactionId(0, 1), TransactionId(1, 1)
        database.submit(spec(reader, reads=(0,), protocol=Protocol.TIMESTAMP_ORDERING,
                             compute=0.2))
        database.submit(spec(writer, writes=(0,), protocol=Protocol.TIMESTAMP_ORDERING,
                             arrival=0.02))
        issuer = database.issuer(1)
        sightings = []

        def check(_time, _label):
            if issuer.execution_status(writer) is TransactionStatus.COMMITTED:
                sightings.append(issuer.committed_attempts().get(writer))

        database.simulator.add_trace_hook(check)
        result = database.run()
        assert result.committed == 2 and result.serializable
        assert sightings and set(sightings) == {0}
        assert issuer.execution_status(writer) is TransactionStatus.FINISHED
        assert result.committed_attempts == {reader: 0, writer: 0}


class TestReplicationWriteAll:
    def test_write_all_touches_every_copy(self):
        store = ValueStore(default_value=0)
        system = SystemConfig(num_sites=3, num_items=6, replication_factor=3, seed=2)
        database = DistributedDatabase(system, value_store=store)
        tid = TransactionId(0, 1)
        database.submit(
            spec(tid, writes=(0,), protocol=Protocol.TWO_PHASE_LOCKING,
                 logic=lambda reads: {0: 99})
        )
        result = database.run()
        assert result.committed == 1
        for copy in database.catalog.copies_of(0):
            assert store.read(copy) == 99
