"""The STL-based per-transaction protocol selector."""

import pytest

from repro.common.config import SystemConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.common.ids import TransactionId
from repro.common.protocol_names import Protocol
from repro.common.transactions import TransactionSpec
from repro.selection.parameters import (
    DecayingParameterEstimator,
    ParameterEstimator,
    ProtocolCostParameters,
)
from repro.selection.selector import SELECTION_MODES, STLProtocolSelector
from repro.system.metrics import MetricsCollector


def make_selector(exploration=3, refresh=5, mode="cumulative"):
    return STLProtocolSelector.from_configs(
        SystemConfig(num_sites=2, num_items=16),
        WorkloadConfig(arrival_rate=20.0, num_transactions=100),
        exploration_transactions=exploration,
        refresh_interval=refresh,
        mode=mode,
    )


def spec(seq=1, reads=2, writes=1):
    return TransactionSpec(
        tid=TransactionId(0, seq),
        read_items=tuple(range(reads)),
        write_items=tuple(range(50, 50 + writes)),
    )


class TestExploration:
    def test_first_decisions_round_robin_across_protocols(self):
        selector = make_selector(exploration=6)
        chosen = [selector.choose(spec(seq=i), now=float(i)) for i in range(1, 7)]
        assert chosen[:3] == [
            Protocol.TWO_PHASE_LOCKING,
            Protocol.TIMESTAMP_ORDERING,
            Protocol.PRECEDENCE_AGREEMENT,
        ]
        assert chosen[3:] == chosen[:3]

    def test_decisions_counter(self):
        selector = make_selector()
        for index in range(5):
            selector.choose(spec(seq=index + 1), now=float(index))
        assert selector.decisions == 5


class TestSelection:
    def test_post_exploration_choices_use_stl_breakdown(self):
        selector = make_selector(exploration=0)
        protocol = selector.choose(spec(), now=1.0)
        breakdown = selector.breakdown(spec())
        assert str(protocol) == breakdown.best()

    def test_breakdown_is_cached_per_class(self):
        selector = make_selector(exploration=0)
        first = selector.breakdown(spec(seq=1, reads=2, writes=1))
        second = selector.breakdown(spec(seq=2, reads=2, writes=1))
        assert first is second

    def test_different_classes_have_separate_entries(self):
        selector = make_selector(exploration=0)
        small = selector.breakdown(spec(reads=1, writes=0))
        large = selector.breakdown(spec(reads=4, writes=4))
        assert small is not large

    def test_bind_metrics_refreshes_estimates(self):
        selector = make_selector(exploration=0)
        before = selector.breakdown(spec())
        metrics = MetricsCollector()
        selector.bind_metrics(metrics)
        after = selector.breakdown(spec())
        # The cache must have been dropped; values may or may not change, but a
        # new breakdown object is computed.
        assert after is not before

    def test_choose_returns_protocol_enum(self):
        selector = make_selector(exploration=0)
        assert isinstance(selector.choose(spec(), now=0.0), Protocol)


class TestConstruction:
    def test_from_estimator_directly(self):
        estimator = ParameterEstimator(
            SystemConfig(), WorkloadConfig(arrival_rate=5.0, num_transactions=10)
        )
        selector = STLProtocolSelector(estimator, exploration_transactions=0)
        assert isinstance(selector.choose(spec(), now=0.0), Protocol)

    def test_unknown_mode_is_rejected(self):
        estimator = ParameterEstimator(
            SystemConfig(), WorkloadConfig(arrival_rate=5.0, num_transactions=10)
        )
        with pytest.raises(ConfigurationError):
            STLProtocolSelector(estimator, mode="sometimes")

    @pytest.mark.parametrize("mode", SELECTION_MODES)
    def test_every_mode_constructs_and_chooses(self, mode):
        selector = make_selector(mode=mode)
        assert selector.mode == mode
        assert isinstance(selector.choose(spec(), now=0.0), Protocol)

    def test_adaptive_mode_uses_decaying_estimator(self):
        selector = make_selector(mode="adaptive")
        assert isinstance(selector._estimator, DecayingParameterEstimator)


class _MutableEstimator(ParameterEstimator):
    """Estimator whose 2PL abort probability the test can flip mid-run."""

    def __init__(self, system, workload):
        super().__init__(system, workload)
        self.abort_probability = 0.0

    def protocol_parameters(self, protocol):
        base = super().protocol_parameters(protocol)
        if protocol.is_two_phase_locking:
            return ProtocolCostParameters(
                protocol=protocol,
                lock_time=base.lock_time,
                lock_time_aborted=base.lock_time_aborted,
                abort_probability=self.abort_probability,
            )
        return base


def _mutable_selector(refresh=5, mode="cumulative"):
    estimator = _MutableEstimator(
        SystemConfig(num_sites=2, num_items=16),
        WorkloadConfig(arrival_rate=20.0, num_transactions=100),
    )
    selector = STLProtocolSelector(
        estimator, exploration_transactions=0, refresh_interval=refresh, mode=mode
    )
    return selector, estimator


class TestCacheInvalidation:
    """Regression: a refresh must never leave stale per-class breakdowns behind."""

    def test_stale_breakdown_not_served_after_refresh(self):
        selector, estimator = _mutable_selector(refresh=5)
        stale = selector.breakdown(spec())
        # The estimates change drastically between refreshes...
        estimator.abort_probability = 0.9
        # ...and once the decision counter crosses a refresh boundary the
        # cached breakdown for the same transaction class must be recomputed
        # from the fresh estimates, not served from the cache.
        for index in range(1, 7):
            selector.choose(spec(seq=index), now=float(index))
        fresh = selector.breakdown(spec())
        assert fresh is not stale
        assert fresh.two_phase_locking > stale.two_phase_locking

    def test_every_refresh_drops_the_cache(self):
        selector, estimator = _mutable_selector(refresh=3)
        probed = spec(reads=3, writes=2)
        seen = [selector.breakdown(probed)]
        for round_index in range(1, 4):
            estimator.abort_probability = 0.1 * round_index
            for step in range(3):
                selector.choose(spec(seq=10 * round_index + step), now=float(step))
            seen.append(selector.breakdown(probed))
        # One fresh object per refresh epoch: nothing stale was ever reused.
        assert len({id(breakdown) for breakdown in seen}) == 4

    def test_frozen_mode_keeps_the_cache_after_its_single_refresh(self):
        # Without bound metrics the estimator is warm immediately (priors
        # are final), so the freeze lands on the first refresh tick.
        selector, estimator = _mutable_selector(refresh=3, mode="frozen")
        selector.choose(spec(seq=1), now=0.0)  # triggers the one frozen refresh
        frozen_breakdown = selector.breakdown(spec())
        estimator.abort_probability = 0.9
        for index in range(2, 12):
            selector.choose(spec(seq=index), now=float(index))
        assert selector.breakdown(spec()) is frozen_breakdown
        assert selector.refreshes == 2  # construction + the post-exploration one

    def test_refresh_interval_one_refreshes_every_decision(self):
        # Regression: `since % 1 == 1` was unsatisfiable, so interval=1
        # silently meant "never refresh after exploration".
        selector, _ = _mutable_selector(refresh=1)
        baseline = selector.refreshes
        for index in range(1, 6):
            selector.choose(spec(seq=index), now=float(index))
        assert selector.refreshes == baseline + 5

    def test_frozen_mode_waits_for_warm_measurements(self):
        # Regression: freezing on the first post-exploration decision pinned
        # configuration priors, because the explored transactions had not
        # all committed yet.  The freeze must wait until every protocol's
        # measured estimates exist.
        estimator = ParameterEstimator(
            SystemConfig(num_sites=2, num_items=16),
            WorkloadConfig(arrival_rate=20.0, num_transactions=100),
            min_observations=2,
        )
        selector = STLProtocolSelector(
            estimator, exploration_transactions=0, refresh_interval=2, mode="frozen"
        )
        metrics = MetricsCollector()
        selector.bind_metrics(metrics)
        selector.choose(spec(seq=1), now=0.0)
        assert not selector._frozen  # cold metrics: keep refreshing
        from repro.common.transactions import TransactionOutcome

        for protocol in Protocol:
            for index in range(2):
                metrics.record_commit(
                    TransactionOutcome(
                        spec=spec(seq=100 + index),
                        protocol=protocol,
                        arrival_time=0.0,
                        commit_time=1.0,
                    )
                )
        before = selector.refreshes
        selector.choose(spec(seq=2), now=1.0)  # not a tick (interval 2)
        selector.choose(spec(seq=3), now=2.0)  # tick: warm now, freeze here
        assert selector._frozen
        assert selector.refreshes == before + 1
        frozen_count = selector.refreshes
        for index in range(4, 12):
            selector.choose(spec(seq=index), now=float(index))
        assert selector.refreshes == frozen_count
