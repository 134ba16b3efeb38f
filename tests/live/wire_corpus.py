"""A deterministic corpus of wire envelopes: what the byte pin and the calls gate encode.

Two groups:

* ``traffic`` — every message a simulated ``uniform-baseline`` run sends
  (40 transactions, 3 sites, 2PL + PA, two-phase commit: the shape of the
  ``live-paced`` workload), as the simulated network built it.  The
  simulator is deterministic, so these are the same envelopes on every run.
* ``values`` — hand-built envelopes that reach every corner of the codec:
  every registered record, id and enum member, ids nested in tuples, lists
  and dict keys, edge floats (``-0.0``, the smallest subnormal, ``1e16``,
  the largest double), ints beyond 64 bits, non-ASCII strings and control
  characters, empty containers, non-empty metadata, an int send time, and
  int and float subclasses whose ``str``/``repr`` the wire must not use.

Each group is a list of :class:`~repro.sim.actor.Message` envelopes; the
pin hashes their encoded frames in order.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.commit.messages import (
    AckMessage,
    DecisionMessage,
    PeerQuery,
    PeerReply,
    PrepareRequest,
    StatusQuery,
    StatusReply,
    VoteMessage,
)
from repro.common.config import ProtocolMix
from repro.common.ids import CopyId, RequestId, TransactionId
from repro.common.operations import LogicalOperation, OperationType, PhysicalOperation
from repro.common.protocol_names import Protocol
from repro.common.transactions import TransactionSpec
from repro.core.effects import BackoffIssued, GrantIssued, RequestRejected
from repro.core.locks import LockMode
from repro.core.requests import Request
from repro.sim.actor import Message
from repro.storage.log import CommitDecision, LogEntry
from repro.system.queue_manager_actor import GrantDelivery


class _SubFloat(float):
    """A float whose ``str`` and ``repr`` are not ``float.__repr__``; the wire ignores both."""

    def __repr__(self) -> str:
        return f"_SubFloat({float.__repr__(self)})"

    __str__ = __repr__


class _SubInt(int):
    """An int whose ``str`` and ``repr`` are not ``int.__repr__``; the wire ignores both."""

    def __repr__(self) -> str:
        return f"_SubInt({int.__repr__(self)})"

    __str__ = __repr__


#: Transactions in the simulated run whose messages form ``traffic``.
TRAFFIC_TRANSACTIONS = 40


def traffic() -> List[Message]:
    """Every envelope a small ``live-paced``-shaped simulated run sends, in order."""
    from repro.sim.network import Network
    from repro.system.runner import run_simulation
    from repro.workload.scenarios import get_scenario

    scenario = get_scenario("uniform-baseline").configured(transactions=TRAFFIC_TRANSACTIONS)
    system = scenario.system.with_overrides(
        commit=dataclasses.replace(scenario.system.commit, protocol="two-phase"),
        num_sites=3,
        faults=None,
    )
    workload = scenario.workload.with_overrides(
        seed=13,
        protocol_mix=ProtocolMix(
            {Protocol.TWO_PHASE_LOCKING: 1.0, Protocol.PRECEDENCE_AGREEMENT: 1.0}
        ),
    )
    sent: List[Message] = []
    send = Network.send

    def recording_send(self, sender, receiver_name, kind, payload=None, extra_delay=0.0):
        message = send(self, sender, receiver_name, kind, payload, extra_delay)
        sent.append(message)
        return message

    Network.send = recording_send
    try:
        result = run_simulation(system, workload)
    finally:
        Network.send = send
    assert result.committed == result.submitted == TRAFFIC_TRANSACTIONS
    return sent


def _records() -> list:
    """One instance of every registered record type, with nested content."""
    tid = TransactionId(site=2, seq=417)
    copy = CopyId(item=31, site=1)
    request = Request(
        request_id=RequestId(transaction=tid, index=3, attempt=1),
        transaction=tid,
        protocol=Protocol.PRECEDENCE_AGREEMENT,
        op_type=OperationType.WRITE,
        copy=copy,
        timestamp=12.625,
        backoff_interval=0.05,
        issuer="ri-2",
    )
    grant = GrantIssued(request=request, mode=LockMode.SEMI_WRITE, normal=False, time=3.5)
    return [
        LogicalOperation(op_type=OperationType.READ, item=7),
        PhysicalOperation(op_type=OperationType.WRITE, copy=copy),
        request,
        grant,
        BackoffIssued(request=request, new_timestamp=13.0, time=4.25),
        RequestRejected(request=request, time=4.5, reason="timestamp too old"),
        GrantDelivery(effect=grant, read_value=None),
        GrantDelivery(effect=grant, read_value={copy: (tid, 2)}),
        TransactionSpec(
            tid=tid,
            read_items=(1, 5),
            write_items=(31,),
            compute_time=0.002,
            protocol=Protocol.TWO_PHASE_LOCKING,
            arrival_time=1.75,
        ),
        TransactionSpec(tid=TransactionId(0, 0), read_items=(0,), write_items=()),
        LogEntry(
            copy=copy,
            transaction=tid,
            op_type=OperationType.WRITE,
            protocol=Protocol.TIMESTAMP_ORDERING,
            time=9.0,
            attempt=2,
        ),
        PrepareRequest(
            transaction=tid,
            attempt=1,
            coordinator="cp-2",
            requests=(request,),
            writes={copy: (tid, 1), CopyId(0, 0): None},
            participants=(0, 1, 2),
            force_log=True,
            ack_decision=CommitDecision.ABORT,
        ),
        PrepareRequest(transaction=tid, attempt=0, coordinator="cp-2", requests=(), writes={}),
        VoteMessage(transaction=tid, attempt=1, site=0, commit=True),
        DecisionMessage(transaction=tid, attempt=1, decision=CommitDecision.COMMIT),
        StatusQuery(transaction=tid, attempt=1, reply_to="cp-0"),
        StatusReply(transaction=tid, attempt=1, decision=CommitDecision.ABORT),
        PeerQuery(transaction=tid, attempt=1, reply_to="cp-1"),
        PeerReply(transaction=tid, attempt=1, decision=None, site=1),
        AckMessage(transaction=tid, attempt=1, site=2),
    ]


def _values() -> list:
    """Payloads for every tag and every primitive corner of the encoder."""
    tid = TransactionId(site=0, seq=7)
    copy = CopyId(item=3, site=0)
    rid = RequestId(transaction=tid, index=0, attempt=4)
    enum_classes = (Protocol, OperationType, LockMode, CommitDecision)
    enums = [member for cls in enum_classes for member in cls]
    return [
        None,
        True,
        False,
        0,
        -1,
        2**63,
        -(2**70) - 3,
        10**30,
        0.0,
        -0.0,
        5e-324,
        1e16,
        1.7976931348623157e308,
        -2.5e-7,
        0.1,
        123456789.125,
        _SubFloat(2.5),
        _SubInt(-7),
        [_SubFloat(0.1), {_SubInt(3): _SubFloat(-0.0)}],
        "",
        "plain",
        "héllo wörld",
        "日本語",
        "\U0001f600 astral",
        "\x00\x01\x1f\x7f \t\n\r\b\f",
        '"quoted" \\ back/slash',
        "\u2028\u2029\ufeff",
        tid,
        copy,
        rid,
        *enums,
        (),
        [],
        {},
        ((), [], {}),
        [[[]]],
        (tid, 3),
        (0, 7),
        [copy, rid, (tid, copy)],
        {tid: 1, copy: [rid], rid: (tid,)},
        {"k": tid, 5: copy, (1, 2): "pair", (tid, 0): {copy: {}}},
        {copy: {tid: [rid, {rid: ()}]}},
        [1, 2.5, "three", None, True, LockMode.READ],
        *_records(),
    ]


def hand_built() -> List[Message]:
    """Every value of :func:`_values` as a payload, then envelope-level corners."""
    messages = [
        Message("value", "drv", f"ri-{index % 3}", payload=value, send_time=0.5 * index)
        for index, value in enumerate(_values())
    ]
    messages += [
        Message("k", "a", "b"),
        Message(
            "audit_entry",
            "audit-1",
            "drv",
            payload=None,
            send_time=1e-9,
            metadata={"hop": 1, "path": ("qm-1-0", "cp-0"), "été": [2.5, -0.0]},
        ),
        Message("k", "s", "r", send_time=3, metadata={"tid": TransactionId(1, 2)}),
        Message("ké日", "s\x01", "r\n", payload={}, send_time=-0.0),
        Message("k", "a", "b", payload="x" * 300, send_time=1.7976931348623157e308),
    ]
    return messages


def corpus() -> Dict[str, List[Message]]:
    """The pinned groups, keyed by name."""
    return {"traffic": traffic(), "values": hand_built()}
