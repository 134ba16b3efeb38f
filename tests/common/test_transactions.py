"""Transaction specifications and outcomes."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.ids import TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.common.transactions import (
    TransactionOutcome,
    TransactionSpec,
)


def make_spec(**overrides):
    defaults = dict(
        tid=TransactionId(1, 2),
        read_items=(0, 1),
        write_items=(2,),
        compute_time=0.01,
        arrival_time=3.0,
    )
    defaults.update(overrides)
    return TransactionSpec(**defaults)


class TestTransactionSpecValidation:
    def test_requires_at_least_one_item(self):
        with pytest.raises(ConfigurationError):
            make_spec(read_items=(), write_items=())

    def test_rejects_negative_compute_time(self):
        with pytest.raises(ConfigurationError):
            make_spec(compute_time=-1.0)

    def test_rejects_duplicate_reads(self):
        with pytest.raises(ConfigurationError):
            make_spec(read_items=(1, 1))

    def test_rejects_duplicate_writes(self):
        with pytest.raises(ConfigurationError):
            make_spec(write_items=(2, 2))

    def test_read_write_overlap_is_allowed(self):
        spec = make_spec(read_items=(1, 2), write_items=(2,))
        assert spec.size == 2


class TestTransactionSpecProperties:
    def test_origin_site_comes_from_tid(self):
        assert make_spec().origin_site == 1

    def test_size_counts_distinct_items(self):
        assert make_spec(read_items=(0, 1), write_items=(1, 2)).size == 3

    def test_num_reads_and_writes(self):
        spec = make_spec(read_items=(0, 1), write_items=(2, 3, 4))
        assert spec.num_reads == 2
        assert spec.num_writes == 3

    def test_logical_operations_are_reads_then_writes(self):
        spec = make_spec(read_items=(0,), write_items=(2,))
        operations = spec.logical_operations()
        assert [op.op_type for op in operations] == [OperationType.READ, OperationType.WRITE]
        assert [op.item for op in operations] == [0, 2]

    def test_accessed_items_sorted_and_distinct(self):
        spec = make_spec(read_items=(3, 1), write_items=(1, 2))
        assert spec.accessed_items() == (1, 2, 3)


class TestTransactionOutcome:
    def test_system_time_is_commit_minus_arrival(self):
        outcome = TransactionOutcome(
            spec=make_spec(),
            protocol=Protocol.TWO_PHASE_LOCKING,
            arrival_time=3.0,
            commit_time=4.5,
        )
        assert outcome.system_time == pytest.approx(1.5)
