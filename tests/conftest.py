"""Shared fixtures and small factories used across the test suite."""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import settings

from repro.common.config import NetworkConfig, SystemConfig, WorkloadConfig
from repro.common.ids import CopyId, RequestId, TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.core.deadlock import pack_transaction
from repro.core.queue_manager import QueueManager
from repro.core.requests import Request
from repro.storage.log import ExecutionLog

#: ``pytest --hypothesis-profile=qm-differential``: the long run of the queue
#: manager's differential against the Section 4 reference (``make qm-differential``).
settings.register_profile("qm-differential", max_examples=2000)


def make_tid(site: int = 0, seq: int = 1) -> TransactionId:
    return TransactionId(site=site, seq=seq)


def make_request(
    *,
    tid: Optional[TransactionId] = None,
    site: int = 0,
    seq: int = 1,
    index: int = 0,
    attempt: int = 0,
    protocol: Protocol = Protocol.TWO_PHASE_LOCKING,
    op: str = "w",
    item: int = 0,
    copy_site: int = 0,
    timestamp: float = 1.0,
    backoff_interval: float = 1.0,
    issuer: str = "ri-0",
) -> Request:
    """Build a request with sensible defaults for queue-manager unit tests."""
    transaction = tid if tid is not None else TransactionId(site=site, seq=seq)
    op_type = OperationType.READ if op == "r" else OperationType.WRITE
    return Request(
        request_id=RequestId(transaction, index, attempt),
        transaction=transaction,
        protocol=protocol,
        op_type=op_type,
        copy=CopyId(item, copy_site),
        timestamp=timestamp,
        backoff_interval=backoff_interval,
        issuer=issuer,
    )


def packed_wait_for(edges):
    """``(adjacency, transaction_of)`` for ``DeadlockDetector.resolve_packed``
    from ``(waiter, holder)`` pairs; self-edges are dropped."""
    adjacency, transaction_of = {}, {}
    for waiter, holder in edges:
        if waiter != holder:
            for tid in (waiter, holder):
                transaction_of[pack_transaction(tid)] = tid
                adjacency.setdefault(pack_transaction(tid), set())
            adjacency[pack_transaction(waiter)].add(pack_transaction(holder))
    return adjacency, transaction_of


def wait_edges(*managers: QueueManager):
    """The ``(waiter, holder)`` pairs ``collect_wait_edges`` reports for ``managers``."""
    adjacency, transaction_of = {}, {}
    for manager in managers:
        manager.collect_wait_edges(adjacency, transaction_of)
    return [
        (transaction_of[waiter], transaction_of[holder])
        for waiter, holders in adjacency.items()
        for holder in sorted(holders)
    ]


@pytest.fixture
def execution_log() -> ExecutionLog:
    return ExecutionLog()


@pytest.fixture
def queue_manager(execution_log: ExecutionLog) -> QueueManager:
    """A queue manager for copy D0@0 with semi-locks enabled."""
    return QueueManager(CopyId(0, 0), execution_log)


@pytest.fixture
def small_system() -> SystemConfig:
    """A small but multi-site system configuration for integration tests."""
    return SystemConfig(
        num_sites=3,
        num_items=24,
        replication_factor=1,
        network=NetworkConfig(fixed_delay=0.005, variable_delay=0.005, local_delay=0.001),
        io_time=0.002,
        deadlock_detection_period=0.2,
        restart_delay=0.02,
        seed=7,
    )


@pytest.fixture
def small_workload() -> WorkloadConfig:
    """A short workload that keeps integration tests fast but non-trivial."""
    return WorkloadConfig(
        arrival_rate=30.0,
        num_transactions=80,
        min_size=2,
        max_size=5,
        read_fraction=0.6,
        compute_time=0.003,
        hotspot_probability=0.3,
        hotspot_fraction=0.15,
        seed=11,
    )
