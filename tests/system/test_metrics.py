"""Metrics collector."""

import pytest

from repro.common.ids import CopyId, TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.common.transactions import TransactionOutcome, TransactionSpec
from repro.system.metrics import MetricsCollector


def outcome(seq=1, protocol=Protocol.TWO_PHASE_LOCKING, arrival=0.0, commit=1.0, restarts=0):
    spec = TransactionSpec(
        tid=TransactionId(0, seq), read_items=(0,), write_items=(1,), arrival_time=arrival
    )
    return TransactionOutcome(
        spec=spec, protocol=protocol, arrival_time=arrival, commit_time=commit, restarts=restarts
    )


class TestCommitTracking:
    def test_mean_system_time_overall_and_per_protocol(self):
        metrics = MetricsCollector()
        metrics.record_commit(outcome(1, Protocol.TWO_PHASE_LOCKING, 0.0, 2.0))
        metrics.record_commit(outcome(2, Protocol.TIMESTAMP_ORDERING, 0.0, 4.0))
        assert metrics.mean_system_time() == pytest.approx(3.0)
        assert metrics.mean_system_time(Protocol.TWO_PHASE_LOCKING) == pytest.approx(2.0)
        assert metrics.mean_system_time(Protocol.TIMESTAMP_ORDERING) == pytest.approx(4.0)

    def test_committed_count(self):
        metrics = MetricsCollector()
        metrics.record_commit(outcome(1))
        metrics.record_commit(outcome(2))
        assert metrics.committed_count == 2
        assert len(metrics.outcomes) == 2

    def test_throughput_uses_elapsed_span(self):
        metrics = MetricsCollector()
        metrics.record_arrival(Protocol.TWO_PHASE_LOCKING, 0.0)
        metrics.record_commit(outcome(1, arrival=0.0, commit=2.0))
        metrics.record_commit(outcome(2, arrival=1.0, commit=4.0))
        assert metrics.elapsed_time == pytest.approx(4.0)
        assert metrics.throughput() == pytest.approx(0.5)

    def test_empty_collector_reports_zeroes(self):
        metrics = MetricsCollector()
        assert metrics.mean_system_time() == 0.0
        assert metrics.throughput() == 0.0


class TestProtocolStatistics:
    def test_restart_counters_split_by_cause(self):
        metrics = MetricsCollector()
        metrics.record_restart(Protocol.TIMESTAMP_ORDERING, due_to_deadlock=False)
        metrics.record_restart(Protocol.TWO_PHASE_LOCKING, due_to_deadlock=True)
        assert metrics.total_restarts() == 1
        assert metrics.total_deadlock_aborts() == 1
        assert metrics.protocol_statistics(Protocol.TWO_PHASE_LOCKING).deadlock_aborts == 1

    def test_rejection_and_backoff_probabilities(self):
        metrics = MetricsCollector()
        metrics.record_attempt(Protocol.TIMESTAMP_ORDERING, reads=4)
        metrics.record_rejection(Protocol.TIMESTAMP_ORDERING, OperationType.READ)
        stats = metrics.protocol_statistics(Protocol.TIMESTAMP_ORDERING)
        assert stats.read_rejection_probability == pytest.approx(0.25)
        assert stats.write_rejection_probability == 0.0

        metrics.record_attempt(Protocol.PRECEDENCE_AGREEMENT, writes=2)
        metrics.record_backoff(Protocol.PRECEDENCE_AGREEMENT, OperationType.WRITE)
        pa_stats = metrics.protocol_statistics(Protocol.PRECEDENCE_AGREEMENT)
        assert pa_stats.write_backoff_probability == pytest.approx(0.5)

    def test_lock_time_accumulators(self):
        metrics = MetricsCollector()
        metrics.record_lock_time(Protocol.PRECEDENCE_AGREEMENT, 0.2, aborted=False)
        metrics.record_lock_time(Protocol.PRECEDENCE_AGREEMENT, 0.4, aborted=False)
        metrics.record_lock_time(Protocol.PRECEDENCE_AGREEMENT, 1.0, aborted=True)
        stats = metrics.protocol_statistics(Protocol.PRECEDENCE_AGREEMENT)
        assert stats.lock_time_committed.mean == pytest.approx(0.3)
        assert stats.lock_time_aborted.mean == pytest.approx(1.0)

    def test_backoff_round_counter(self):
        metrics = MetricsCollector()
        metrics.record_backoff_round(Protocol.PRECEDENCE_AGREEMENT)
        assert metrics.total_backoff_rounds() == 1


class TestThroughputPerCopy:
    def test_system_throughput_counts_grants(self):
        metrics = MetricsCollector()
        copy = CopyId(0, 0)
        metrics.record_arrival(Protocol.TWO_PHASE_LOCKING, 0.0)
        metrics.record_grant(copy, OperationType.READ)
        metrics.record_grant(copy, OperationType.READ)
        metrics.record_grant(copy, OperationType.WRITE)
        metrics.record_commit(outcome(1, commit=2.0))
        assert metrics.system_throughput() == pytest.approx(1.5)

    def test_read_fraction(self):
        metrics = MetricsCollector()
        copy = CopyId(0, 0)
        metrics.record_grant(copy, OperationType.READ)
        metrics.record_grant(copy, OperationType.READ)
        metrics.record_grant(copy, OperationType.WRITE)
        assert metrics.read_fraction() == pytest.approx(2.0 / 3.0)

    def test_read_fraction_defaults_to_half_without_data(self):
        assert MetricsCollector().read_fraction() == pytest.approx(0.5)

    def test_average_throughputs_divide_by_touched_copies(self):
        metrics = MetricsCollector()
        metrics.record_arrival(Protocol.TWO_PHASE_LOCKING, 0.0)
        metrics.record_grant(CopyId(0, 0), OperationType.READ)
        metrics.record_grant(CopyId(1, 0), OperationType.WRITE)
        metrics.record_commit(outcome(1, commit=1.0))
        assert metrics.average_read_throughput() == pytest.approx(0.5)
        assert metrics.average_write_throughput() == pytest.approx(0.5)


class TestWindowedSeries:
    def test_empty_collector_has_no_windows(self):
        assert MetricsCollector().windowed_series() == []

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsCollector().windowed_series(width=0.0)

    def test_commits_bucket_by_commit_time(self):
        metrics = MetricsCollector()
        metrics.record_commit(outcome(1, Protocol.TWO_PHASE_LOCKING, 0.0, 0.5))
        metrics.record_commit(outcome(2, Protocol.TWO_PHASE_LOCKING, 0.0, 1.5))
        metrics.record_commit(outcome(3, Protocol.TIMESTAMP_ORDERING, 2.0, 5.5))
        series = metrics.windowed_series(width=2.0)
        assert [row["committed"] for row in series] == [2, 0, 1]
        assert series[0]["start"] == 0.0 and series[0]["end"] == 2.0
        assert series[1]["committed"] == 0
        assert series[1]["mean_system_time"] == 0.0

    def test_window_mean_and_restart_probability(self):
        metrics = MetricsCollector()
        metrics.record_commit(outcome(1, Protocol.TWO_PHASE_LOCKING, 0.0, 1.0, restarts=1))
        metrics.record_commit(outcome(2, Protocol.TWO_PHASE_LOCKING, 0.0, 1.5))
        (row,) = metrics.windowed_series(width=2.0)
        assert row["mean_system_time"] == pytest.approx(1.25)
        # 1 abort over 3 attempts (two commits plus one restart).
        assert row["restart_probability"] == pytest.approx(1 / 3)

    def test_protocol_shares_sum_to_one_per_nonempty_window(self):
        metrics = MetricsCollector()
        metrics.record_commit(outcome(1, Protocol.TWO_PHASE_LOCKING, 0.0, 0.5))
        metrics.record_commit(outcome(2, Protocol.TIMESTAMP_ORDERING, 0.0, 0.6))
        metrics.record_commit(outcome(3, Protocol.PRECEDENCE_AGREEMENT, 0.0, 0.7))
        metrics.record_commit(outcome(4, Protocol.PRECEDENCE_AGREEMENT, 0.0, 0.8))
        (row,) = metrics.windowed_series(width=1.0)
        assert row["share_2PL"] == pytest.approx(0.25)
        assert row["share_T/O"] == pytest.approx(0.25)
        assert row["share_PA"] == pytest.approx(0.5)

    def test_series_is_json_pure(self):
        import json

        metrics = MetricsCollector()
        metrics.record_commit(outcome(1, Protocol.TWO_PHASE_LOCKING, 0.0, 3.0))
        series = metrics.windowed_series()
        assert json.loads(json.dumps(series)) == series


class TestPostDriftMean:
    def test_cut_is_on_arrival_time(self):
        metrics = MetricsCollector()
        metrics.record_commit(outcome(1, Protocol.TWO_PHASE_LOCKING, arrival=0.0, commit=9.0))
        metrics.record_commit(outcome(2, Protocol.TWO_PHASE_LOCKING, arrival=5.0, commit=7.0))
        # The first transaction commits after the boundary but arrived before
        # it, so only the second counts.
        assert metrics.mean_system_time_after(4.0) == pytest.approx(2.0)

    def test_boundary_zero_covers_everything(self):
        metrics = MetricsCollector()
        metrics.record_commit(outcome(1, Protocol.TWO_PHASE_LOCKING, 0.0, 2.0))
        metrics.record_commit(outcome(2, Protocol.TWO_PHASE_LOCKING, 1.0, 5.0))
        assert metrics.mean_system_time_after(0.0) == pytest.approx(3.0)

    def test_no_matching_transactions_yields_zero(self):
        metrics = MetricsCollector()
        metrics.record_commit(outcome(1, Protocol.TWO_PHASE_LOCKING, 0.0, 2.0))
        assert metrics.mean_system_time_after(10.0) == 0.0
