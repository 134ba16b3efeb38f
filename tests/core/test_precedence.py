"""Unified precedence space ordering rules (Section 4.1)."""

from repro.common.ids import TransactionId
from repro.common.protocol_names import Protocol
from repro.core.precedence import Precedence


def prec(ts, protocol, site=0, seq=1, arrival=0):
    return Precedence(
        timestamp=ts,
        protocol=protocol,
        site=site,
        transaction=TransactionId(site, seq),
        arrival_seq=arrival,
    )


class TestRuleOneTimestamps:
    def test_smaller_timestamp_comes_first(self):
        assert prec(1.0, Protocol.TIMESTAMP_ORDERING) < prec(2.0, Protocol.TIMESTAMP_ORDERING)

    def test_timestamp_dominates_protocol(self):
        # A 2PL request with a smaller timestamp precedes a T/O request with a larger one.
        assert prec(1.0, Protocol.TWO_PHASE_LOCKING) < prec(2.0, Protocol.TIMESTAMP_ORDERING)

    def test_timestamp_dominates_site(self):
        assert prec(1.0, Protocol.PRECEDENCE_AGREEMENT, site=9) < prec(
            2.0, Protocol.PRECEDENCE_AGREEMENT, site=0
        )


class TestRuleTwoSiteIds:
    def test_tie_broken_by_site_id_for_non_2pl(self):
        assert prec(1.0, Protocol.TIMESTAMP_ORDERING, site=0) < prec(
            1.0, Protocol.TIMESTAMP_ORDERING, site=1
        )

    def test_2pl_counts_as_biggest_site_id(self):
        non_2pl = prec(1.0, Protocol.PRECEDENCE_AGREEMENT, site=99)
        two_pl = prec(1.0, Protocol.TWO_PHASE_LOCKING, site=0)
        assert non_2pl < two_pl

    def test_to_and_pa_with_same_site_fall_through_to_rule_three(self):
        a = prec(1.0, Protocol.TIMESTAMP_ORDERING, site=2, seq=1)
        b = prec(1.0, Protocol.PRECEDENCE_AGREEMENT, site=2, seq=2)
        assert a < b


class TestRuleThreeFinalTieBreaks:
    def test_both_2pl_ordered_by_arrival_sequence(self):
        first = prec(1.0, Protocol.TWO_PHASE_LOCKING, site=5, seq=9, arrival=0)
        second = prec(1.0, Protocol.TWO_PHASE_LOCKING, site=0, seq=1, arrival=1)
        assert first < second

    def test_both_non_2pl_ordered_by_transaction_id(self):
        a = prec(1.0, Protocol.TIMESTAMP_ORDERING, site=1, seq=3)
        b = prec(1.0, Protocol.TIMESTAMP_ORDERING, site=1, seq=7)
        assert a < b

    def test_total_order_is_consistent(self):
        a = prec(1.0, Protocol.TIMESTAMP_ORDERING, site=0)
        b = prec(1.0, Protocol.TWO_PHASE_LOCKING, site=0, arrival=3)
        assert (a < b) != (b < a)
        assert a <= b or b <= a


class TestHelpers:
    def test_with_timestamp_preserves_identity_fields(self):
        original = prec(1.0, Protocol.PRECEDENCE_AGREEMENT, site=2, seq=4)
        moved = original.with_timestamp(9.0)
        assert moved.timestamp == 9.0
        assert moved.transaction == original.transaction
        assert moved.protocol is original.protocol
        assert original.timestamp == 1.0

    def test_comparison_operators_agree_with_sort_key(self):
        a = prec(1.0, Protocol.TIMESTAMP_ORDERING)
        b = prec(2.0, Protocol.TIMESTAMP_ORDERING)
        assert a < b and a <= b and b > a and b >= a

    def test_sorting_a_list(self):
        items = [
            prec(3.0, Protocol.TWO_PHASE_LOCKING, arrival=5),
            prec(1.0, Protocol.TIMESTAMP_ORDERING, site=1),
            prec(1.0, Protocol.TIMESTAMP_ORDERING, site=0),
            prec(2.0, Protocol.PRECEDENCE_AGREEMENT),
        ]
        ordered = sorted(items, key=lambda p: p.sort_key())
        assert [p.timestamp for p in ordered] == [1.0, 1.0, 2.0, 3.0]
        assert ordered[0].site == 0
