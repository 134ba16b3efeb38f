"""Configuration validation and helpers."""

import pytest

from repro.common.config import NetworkConfig, ProtocolMix, SystemConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.common.protocol_names import Protocol


class TestNetworkConfig:
    def test_rejects_negative_delays(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(fixed_delay=-0.1)

    def test_defaults_are_valid(self):
        config = NetworkConfig()
        assert config.fixed_delay >= 0


class TestProtocolMix:
    def test_pure_mix_always_samples_that_protocol(self):
        mix = ProtocolMix.pure(Protocol.PRECEDENCE_AGREEMENT)
        assert mix.sample(0.01) is Protocol.PRECEDENCE_AGREEMENT
        assert mix.sample(0.99) is Protocol.PRECEDENCE_AGREEMENT

    def test_uniform_mix_normalises_to_thirds(self):
        normalized = ProtocolMix.uniform().normalized()
        for weight in normalized.values():
            assert weight == pytest.approx(1.0 / 3.0)

    def test_sample_respects_weights(self):
        mix = ProtocolMix({Protocol.TWO_PHASE_LOCKING: 3.0, Protocol.TIMESTAMP_ORDERING: 1.0})
        assert mix.sample(0.5) is Protocol.TWO_PHASE_LOCKING
        assert mix.sample(0.9) is Protocol.TIMESTAMP_ORDERING

    def test_rejects_non_positive_total(self):
        with pytest.raises(ConfigurationError):
            ProtocolMix({Protocol.TWO_PHASE_LOCKING: 0.0})

    def test_rejects_negative_weight(self):
        with pytest.raises(ConfigurationError):
            ProtocolMix({Protocol.TWO_PHASE_LOCKING: -1.0, Protocol.TIMESTAMP_ORDERING: 2.0})

    def test_pure_accepts_string_names(self):
        assert ProtocolMix.pure("t/o").sample(0.5) is Protocol.TIMESTAMP_ORDERING

    def test_sampler_maps_draws_at_the_running_sums(self):
        mix = ProtocolMix(
            {
                Protocol.TIMESTAMP_ORDERING: 1.0,
                Protocol.TWO_PHASE_LOCKING: 0.0,
                Protocol.PRECEDENCE_AGREEMENT: 2.0,
            }
        )
        sample = mix.sampler()
        third = 1.0 / 3.0
        assert sample(0.0) is Protocol.TIMESTAMP_ORDERING
        assert sample(third) is Protocol.TIMESTAMP_ORDERING  # the bound itself
        assert sample(third + 1e-12) is Protocol.PRECEDENCE_AGREEMENT  # zero weight skipped
        assert sample(1.0) is Protocol.PRECEDENCE_AGREEMENT
        assert sample(1.5) is Protocol.PRECEDENCE_AGREEMENT  # past the last sum


class TestSystemConfig:
    def test_defaults_are_valid(self):
        config = SystemConfig()
        assert config.num_sites >= 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_sites": 0},
            {"num_items": 0},
            {"replication_factor": 0},
            {"replication_factor": 10, "num_sites": 4},
            {"io_time": -1.0},
            {"deadlock_detection_period": 0.0},
            {"pa_backoff_interval": 0.0},
            {"restart_delay": -0.5},
        ],
    )
    def test_rejects_invalid_values(self, overrides):
        with pytest.raises(ConfigurationError):
            SystemConfig(**overrides)

    def test_with_overrides_returns_modified_copy(self):
        config = SystemConfig(num_items=10)
        changed = config.with_overrides(num_items=20)
        assert changed.num_items == 20
        assert config.num_items == 10


class TestWorkloadConfig:
    def test_defaults_are_valid(self):
        config = WorkloadConfig()
        assert config.arrival_rate > 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"arrival_rate": 0.0},
            {"num_transactions": 0},
            {"min_size": 0},
            {"min_size": 5, "max_size": 3},
            {"read_fraction": 1.5},
            {"compute_time": -0.1},
            {"hotspot_fraction": 0.0},
            {"hotspot_probability": 1.5},
        ],
    )
    def test_rejects_invalid_values(self, overrides):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(**overrides)

    def test_mean_size(self):
        config = WorkloadConfig(min_size=2, max_size=6)
        assert config.mean_size == pytest.approx(4.0)

    def test_with_overrides_returns_modified_copy(self):
        config = WorkloadConfig(arrival_rate=5.0)
        changed = config.with_overrides(arrival_rate=10.0)
        assert changed.arrival_rate == 10.0
        assert config.arrival_rate == 5.0
