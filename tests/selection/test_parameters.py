"""Parameter estimation for the STL selector."""

import pytest

from repro.common.config import SystemConfig, WorkloadConfig
from repro.common.ids import CopyId, TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.common.transactions import TransactionOutcome, TransactionSpec
from repro.selection.parameters import (
    DecayingParameterEstimator,
    ParameterEstimator,
    ProtocolCostParameters,
    SystemLoadParameters,
)
from repro.system.metrics import MetricsCollector


def make_estimator(min_observations=3):
    return ParameterEstimator(
        SystemConfig(num_sites=2, num_items=16),
        WorkloadConfig(arrival_rate=10.0, num_transactions=50),
        min_observations=min_observations,
    )


class TestValidation:
    def test_load_parameters_reject_bad_read_fraction(self):
        with pytest.raises(ValueError):
            SystemLoadParameters(
                system_throughput=1.0,
                read_throughput=0.5,
                write_throughput=0.5,
                read_fraction=1.5,
                requests_per_transaction=2.0,
            )

    def test_load_parameters_reject_small_transaction_size(self):
        with pytest.raises(ValueError):
            SystemLoadParameters(
                system_throughput=1.0,
                read_throughput=0.5,
                write_throughput=0.5,
                read_fraction=0.5,
                requests_per_transaction=0.5,
            )

    def test_cost_parameters_reject_bad_probability(self):
        with pytest.raises(ValueError):
            ProtocolCostParameters(
                protocol=Protocol.TWO_PHASE_LOCKING,
                lock_time=0.1,
                lock_time_aborted=0.2,
                abort_probability=1.5,
            )

    def test_cost_parameters_reject_negative_lock_time(self):
        with pytest.raises(ValueError):
            ProtocolCostParameters(
                protocol=Protocol.TWO_PHASE_LOCKING,
                lock_time=-0.1,
                lock_time_aborted=0.2,
            )


class TestPriors:
    def test_priors_available_without_metrics(self):
        estimator = make_estimator()
        load = estimator.system_parameters()
        assert load.system_throughput > 0
        for protocol in Protocol:
            costs = estimator.protocol_parameters(protocol)
            assert costs.lock_time > 0
            assert 0.0 <= costs.abort_probability <= 1.0

    def test_priors_scale_with_arrival_rate(self):
        low = ParameterEstimator(
            SystemConfig(), WorkloadConfig(arrival_rate=1.0, num_transactions=10)
        ).system_parameters()
        high = ParameterEstimator(
            SystemConfig(), WorkloadConfig(arrival_rate=100.0, num_transactions=10)
        ).system_parameters()
        assert high.system_throughput > low.system_throughput

    def test_prior_contention_grows_with_load(self):
        low = ParameterEstimator(
            SystemConfig(), WorkloadConfig(arrival_rate=1.0, num_transactions=10)
        ).protocol_parameters(Protocol.TIMESTAMP_ORDERING)
        high = ParameterEstimator(
            SystemConfig(), WorkloadConfig(arrival_rate=200.0, num_transactions=10)
        ).protocol_parameters(Protocol.TIMESTAMP_ORDERING)
        assert high.write_failure_probability >= low.write_failure_probability


class TestMeasuredValues:
    def _metrics_with_history(self, committed=10):
        metrics = MetricsCollector()
        spec = TransactionSpec(
            tid=TransactionId(0, 1), read_items=(0,), write_items=(1,), arrival_time=0.0
        )
        for index in range(committed):
            metrics.record_attempt(Protocol.TIMESTAMP_ORDERING, reads=1, writes=1)
            metrics.record_lock_time(Protocol.TIMESTAMP_ORDERING, 0.25, aborted=False)
            metrics.record_commit(
                TransactionOutcome(
                    spec=spec,
                    protocol=Protocol.TIMESTAMP_ORDERING,
                    arrival_time=float(index),
                    commit_time=float(index) + 0.5,
                )
            )
        metrics.record_rejection(Protocol.TIMESTAMP_ORDERING, OperationType.READ)
        return metrics

    def test_measured_lock_time_replaces_prior(self):
        estimator = make_estimator(min_observations=3)
        metrics = self._metrics_with_history(committed=10)
        estimator.bind_metrics(metrics)
        costs = estimator.protocol_parameters(Protocol.TIMESTAMP_ORDERING)
        assert costs.lock_time == pytest.approx(0.25)

    def test_measured_rejection_probability_used(self):
        estimator = make_estimator(min_observations=3)
        metrics = self._metrics_with_history(committed=10)
        estimator.bind_metrics(metrics)
        costs = estimator.protocol_parameters(Protocol.TIMESTAMP_ORDERING)
        assert costs.read_failure_probability == pytest.approx(0.1)

    def test_prior_used_below_observation_threshold(self):
        estimator = make_estimator(min_observations=50)
        metrics = self._metrics_with_history(committed=10)
        estimator.bind_metrics(metrics)
        unbound = make_estimator(min_observations=50)
        prior = unbound.protocol_parameters(Protocol.TIMESTAMP_ORDERING)
        measured = estimator.protocol_parameters(Protocol.TIMESTAMP_ORDERING)
        assert measured.lock_time == pytest.approx(prior.lock_time)

    def test_protocols_without_data_keep_priors(self):
        estimator = make_estimator(min_observations=3)
        estimator.bind_metrics(self._metrics_with_history(committed=10))
        pa_costs = estimator.protocol_parameters(Protocol.PRECEDENCE_AGREEMENT)
        prior = make_estimator().protocol_parameters(Protocol.PRECEDENCE_AGREEMENT)
        assert pa_costs.lock_time == pytest.approx(prior.lock_time)


def make_decaying(decay=0.5, min_observations=3):
    return DecayingParameterEstimator(
        SystemConfig(num_sites=2, num_items=16),
        WorkloadConfig(arrival_rate=10.0, num_transactions=50),
        decay=decay,
        min_observations=min_observations,
    )


def _record_epoch(metrics, lock_time, committed=6, commit_offset=0.0):
    """Record one epoch of T/O history with the given committed lock time."""
    spec = TransactionSpec(
        tid=TransactionId(0, 1), read_items=(0,), write_items=(1,), arrival_time=0.0
    )
    for index in range(committed):
        metrics.record_attempt(Protocol.TIMESTAMP_ORDERING, writes=1)
        metrics.record_lock_time(Protocol.TIMESTAMP_ORDERING, lock_time, aborted=False)
        metrics.record_commit(
            TransactionOutcome(
                spec=spec,
                protocol=Protocol.TIMESTAMP_ORDERING,
                arrival_time=commit_offset + float(index),
                commit_time=commit_offset + float(index) + 0.5,
            )
        )


class TestDecayingEstimator:
    def test_decay_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            make_decaying(decay=1.0)

    def test_falls_back_to_priors_before_any_observation(self):
        estimator = make_decaying()
        prior = ParameterEstimator(
            SystemConfig(num_sites=2, num_items=16),
            WorkloadConfig(arrival_rate=10.0, num_transactions=50),
        )
        assert estimator.protocol_parameters(Protocol.TIMESTAMP_ORDERING) == (
            prior.protocol_parameters(Protocol.TIMESTAMP_ORDERING)
        )

    def test_refresh_without_metrics_is_a_noop(self):
        estimator = make_decaying()
        estimator.refresh_observations()  # must not raise

    def test_window_tracks_recent_epochs(self):
        estimator = make_decaying(decay=0.25)
        metrics = MetricsCollector()
        estimator.bind_metrics(metrics)
        _record_epoch(metrics, lock_time=0.2)
        estimator.refresh_observations()
        early = estimator.protocol_parameters(Protocol.TIMESTAMP_ORDERING).lock_time
        # A regime change: much longer lock times from now on.
        for epoch in range(1, 4):
            _record_epoch(metrics, lock_time=2.0, commit_offset=10.0 * epoch)
            estimator.refresh_observations()
        late = estimator.protocol_parameters(Protocol.TIMESTAMP_ORDERING).lock_time
        assert early == pytest.approx(0.2)
        # With decay 0.25 the stale epoch's weight is below 2%, so the
        # windowed mean sits essentially at the new regime's value.
        assert late > 1.8

    def test_cumulative_estimator_keeps_averaging_dead_regimes(self):
        # The contrast that motivates the subclass: same history, cumulative
        # estimate stays dragged toward the old regime.
        cumulative = ParameterEstimator(
            SystemConfig(num_sites=2, num_items=16),
            WorkloadConfig(arrival_rate=10.0, num_transactions=50),
            min_observations=3,
        )
        metrics = MetricsCollector()
        cumulative.bind_metrics(metrics)
        _record_epoch(metrics, lock_time=0.2, committed=18)
        _record_epoch(metrics, lock_time=2.0, committed=6, commit_offset=20.0)
        value = cumulative.protocol_parameters(Protocol.TIMESTAMP_ORDERING).lock_time
        assert value < 1.0

    def test_unused_protocol_falls_back_once_its_window_decays(self):
        estimator = make_decaying(decay=0.5, min_observations=3)
        metrics = MetricsCollector()
        estimator.bind_metrics(metrics)
        _record_epoch(metrics, lock_time=0.3)
        estimator.refresh_observations()
        assert estimator.protocol_parameters(
            Protocol.TIMESTAMP_ORDERING
        ).lock_time == pytest.approx(0.3)
        # No new T/O observations: the window halves each refresh until it
        # drops under the observation floor and the cumulative path takes
        # over again (which still reports the measured 0.3 here).
        for _ in range(6):
            estimator.refresh_observations()
        window_weight = estimator._window[f"{Protocol.TIMESTAMP_ORDERING}.committed"]
        assert window_weight < 3
        assert estimator.protocol_parameters(Protocol.TIMESTAMP_ORDERING).lock_time > 0

    def test_system_parameters_use_windowed_grants(self):
        estimator = make_decaying(min_observations=2)
        metrics = MetricsCollector()
        estimator.bind_metrics(metrics)
        copy = CopyId(item=1, site=0)
        metrics.record_arrival(Protocol.TIMESTAMP_ORDERING, 0.0)
        metrics.record_commit(
            TransactionOutcome(
                spec=TransactionSpec(
                    tid=TransactionId(0, 1), read_items=(0,), write_items=(1,)
                ),
                protocol=Protocol.TIMESTAMP_ORDERING,
                arrival_time=0.0,
                commit_time=4.0,
            )
        )
        for _ in range(6):
            metrics.record_grant(copy, OperationType.READ)
        for _ in range(2):
            metrics.record_grant(copy, OperationType.WRITE)
        estimator.refresh_observations()
        load = estimator.system_parameters()
        assert load.read_fraction == pytest.approx(0.75)
        assert load.system_throughput == pytest.approx(2.0)  # 8 grants / 4 time units
