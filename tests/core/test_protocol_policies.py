"""Per-protocol precedence-assignment policies."""

from typing import NamedTuple, Optional

import pytest

from repro.common.errors import ProtocolError, UnknownProtocolError
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.core.locks import LockMode
from repro.core.protocols import (
    DecisionKind,
    PrecedenceAgreementPolicy,
    TimestampOrderingPolicy,
    TwoPhaseLockingPolicy,
    default_policies,
    register_policy,
)

from tests.conftest import make_request


class Decision(NamedTuple):
    kind: DecisionKind
    precedence: object
    backoff_timestamp: Optional[float]


def decide(policy, request, read_ts=0.0, write_ts=0.0, max_seen=0.0, arrival_seq=0):
    """``policy``'s assignment function on one arrival, with named fields."""
    return Decision(*policy.assign(request, read_ts, write_ts, max_seen, arrival_seq))


class TestTwoPhaseLockingPolicy:
    def test_always_accepts(self):
        policy = TwoPhaseLockingPolicy()
        request = make_request(protocol=Protocol.TWO_PHASE_LOCKING, timestamp=42.0)
        decision = decide(policy, request, write_ts=100.0, read_ts=100.0)
        assert decision.kind is DecisionKind.ACCEPT

    def test_precedence_uses_max_seen_timestamp_not_own(self):
        policy = TwoPhaseLockingPolicy()
        request = make_request(protocol=Protocol.TWO_PHASE_LOCKING, timestamp=42.0)
        decision = decide(policy, request, max_seen=7.0, arrival_seq=3)
        assert decision.precedence.timestamp == 7.0
        assert decision.precedence.arrival_seq == 3
        assert decision.precedence.protocol is Protocol.TWO_PHASE_LOCKING

    def test_lock_modes(self):
        policy = TwoPhaseLockingPolicy()
        assert policy.lock_mode(OperationType.READ) is LockMode.READ
        assert policy.lock_mode(OperationType.WRITE) is LockMode.WRITE


class TestTimestampOrderingPolicy:
    def test_read_accepted_when_newer_than_write_ts(self):
        policy = TimestampOrderingPolicy()
        request = make_request(protocol=Protocol.TIMESTAMP_ORDERING, op="r", timestamp=5.0)
        decision = decide(policy, request, write_ts=4.0, read_ts=100.0)
        assert decision.kind is DecisionKind.ACCEPT
        assert decision.precedence.timestamp == 5.0

    def test_read_rejected_when_older_than_write_ts(self):
        policy = TimestampOrderingPolicy()
        request = make_request(protocol=Protocol.TIMESTAMP_ORDERING, op="r", timestamp=3.0)
        decision = decide(policy, request, write_ts=4.0)
        assert decision.kind is DecisionKind.REJECT

    def test_write_rejected_by_newer_read(self):
        policy = TimestampOrderingPolicy()
        request = make_request(protocol=Protocol.TIMESTAMP_ORDERING, op="w", timestamp=3.0)
        decision = decide(policy, request, write_ts=0.0, read_ts=4.0)
        assert decision.kind is DecisionKind.REJECT

    def test_write_rejected_by_newer_write(self):
        policy = TimestampOrderingPolicy()
        request = make_request(protocol=Protocol.TIMESTAMP_ORDERING, op="w", timestamp=3.0)
        decision = decide(policy, request, write_ts=5.0, read_ts=0.0)
        assert decision.kind is DecisionKind.REJECT

    def test_write_accepted_when_newer_than_both(self):
        policy = TimestampOrderingPolicy()
        request = make_request(protocol=Protocol.TIMESTAMP_ORDERING, op="w", timestamp=6.0)
        decision = decide(policy, request, write_ts=5.0, read_ts=4.0)
        assert decision.kind is DecisionKind.ACCEPT

    def test_equal_timestamp_counts_as_out_of_order(self):
        policy = TimestampOrderingPolicy()
        request = make_request(protocol=Protocol.TIMESTAMP_ORDERING, op="r", timestamp=4.0)
        decision = decide(policy, request, write_ts=4.0)
        assert decision.kind is DecisionKind.REJECT

    def test_to_readers_use_semi_read_locks_only_with_semi_locks_enabled(self):
        policy = TimestampOrderingPolicy()
        assert policy.lock_mode(OperationType.READ, semi_locks_enabled=True) is LockMode.SEMI_READ
        assert policy.lock_mode(OperationType.READ, semi_locks_enabled=False) is LockMode.READ


class TestPrecedenceAgreementPolicy:
    def test_acceptable_request_proposes_its_own_timestamp(self):
        policy = PrecedenceAgreementPolicy()
        request = make_request(protocol=Protocol.PRECEDENCE_AGREEMENT, op="r", timestamp=5.0)
        decision = decide(policy, request, write_ts=4.0)
        assert decision.kind is DecisionKind.BLOCK
        assert decision.backoff_timestamp == 5.0
        assert decision.precedence.timestamp == 5.0

    def test_out_of_order_request_proposes_backed_off_timestamp(self):
        policy = PrecedenceAgreementPolicy()
        request = make_request(
            protocol=Protocol.PRECEDENCE_AGREEMENT, op="r", timestamp=3.0, backoff_interval=1.0
        )
        decision = decide(policy, request, write_ts=4.5)
        assert decision.kind is DecisionKind.BLOCK
        assert decision.backoff_timestamp == pytest.approx(5.0)
        assert decision.precedence.timestamp == pytest.approx(5.0)

    def test_write_threshold_is_max_of_read_and_write_ts(self):
        policy = PrecedenceAgreementPolicy()
        request = make_request(
            protocol=Protocol.PRECEDENCE_AGREEMENT, op="w", timestamp=3.0, backoff_interval=2.0
        )
        decision = decide(policy, request, write_ts=4.0, read_ts=6.5)
        assert decision.backoff_timestamp == pytest.approx(7.0)

    def test_backoff_timestamp_is_smallest_multiple_above_threshold(self):
        compute = PrecedenceAgreementPolicy.backoff_timestamp
        assert compute(3.0, 1.0, 4.5) == pytest.approx(5.0)
        assert compute(3.0, 1.0, 3.0) == pytest.approx(4.0)
        assert compute(3.0, 2.0, 10.0) == pytest.approx(11.0)

    def test_backoff_below_threshold_returns_next_step(self):
        # Threshold below the timestamp still moves forward by one interval.
        assert PrecedenceAgreementPolicy.backoff_timestamp(5.0, 1.0, 2.0) == pytest.approx(6.0)

    def test_backoff_requires_positive_interval(self):
        with pytest.raises(ProtocolError):
            PrecedenceAgreementPolicy.backoff_timestamp(1.0, 0.0, 5.0)


class TestRegistry:
    def test_default_policies_cover_all_protocols(self):
        policies = default_policies()
        assert set(policies) == set(Protocol)

    def test_default_policies_are_keyed_by_their_protocol(self):
        for protocol, policy in default_policies().items():
            assert policy.protocol is protocol

    def test_register_duplicate_requires_replace(self):
        with pytest.raises(UnknownProtocolError):
            register_policy(TwoPhaseLockingPolicy())
        register_policy(TwoPhaseLockingPolicy(), replace=True)
