"""Drift schedules: resolution, the migrating hot spot, and generator wiring."""

import random

import pytest

from repro.common.config import DriftConfig, DriftSegment, SystemConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.workload.access_patterns import UniformAccessPattern, ZipfianAccessPattern
from repro.workload.drift import DriftResolver, MigratingHotspotOverlay
from repro.workload.generator import TransactionGenerator


def make_workload(**overrides):
    defaults = dict(arrival_rate=20.0, num_transactions=60, min_size=2, max_size=4, seed=7)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


class TestDriftConfigValidation:
    def test_segments_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            DriftConfig(segments=(DriftSegment(at=0.5), DriftSegment(at=0.2)))

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ConfigurationError):
            DriftConfig(segments=(DriftSegment(at=0.5), DriftSegment(at=0.5)))

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            DriftConfig(segments=())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            DriftConfig(segments=(DriftSegment(at=0.5),), mode="sudden")

    def test_segment_position_must_be_a_fraction(self):
        with pytest.raises(ConfigurationError):
            DriftSegment(at=1.0)

    def test_arrival_rate_drift_needs_poisson(self):
        drift = DriftConfig(segments=(DriftSegment(at=0.5, arrival_rate=40.0),))
        with pytest.raises(ConfigurationError):
            make_workload(arrival_process="bursty", drift=drift)

    def test_segment_no_arrival_reaches_is_rejected(self):
        # With 10 transactions the largest stream fraction is 9/10, so a
        # segment at 0.95 would silently never fire; the config refuses it.
        drift = DriftConfig(segments=(DriftSegment(at=0.95, read_fraction=0.1),))
        with pytest.raises(ConfigurationError):
            make_workload(num_transactions=10, drift=drift)
        make_workload(num_transactions=40, drift=drift)  # 38/40 >= 0.95: fine


class TestDriftResolver:
    def test_piecewise_holds_then_jumps(self):
        workload = make_workload(
            read_fraction=0.9,
            drift=DriftConfig(
                mode="piecewise",
                segments=(DriftSegment(at=0.5, read_fraction=0.2),),
            ),
        )
        resolver = DriftResolver(workload)
        assert resolver.resolve(0.0).read_fraction == 0.9
        assert resolver.resolve(0.49).read_fraction == 0.9
        assert resolver.resolve(0.5).read_fraction == 0.2
        assert resolver.resolve(1.0).read_fraction == 0.2

    def test_smooth_interpolates_between_control_points(self):
        workload = make_workload(
            arrival_rate=10.0,
            drift=DriftConfig(
                mode="smooth",
                segments=(
                    DriftSegment(at=0.2, arrival_rate=10.0),
                    DriftSegment(at=0.8, arrival_rate=70.0),
                ),
            ),
        )
        resolver = DriftResolver(workload)
        assert resolver.resolve(0.0).arrival_rate == 10.0
        assert resolver.resolve(0.5).arrival_rate == pytest.approx(40.0)
        assert resolver.resolve(0.8).arrival_rate == 70.0
        assert resolver.resolve(1.0).arrival_rate == 70.0

    def test_unnamed_knobs_inherit_the_base_value(self):
        workload = make_workload(
            read_fraction=0.7,
            drift=DriftConfig(segments=(DriftSegment(at=0.3, arrival_rate=50.0),)),
        )
        resolver = DriftResolver(workload)
        assert resolver.resolve(0.9).read_fraction == 0.7

    def test_resolver_requires_a_schedule(self):
        with pytest.raises(ConfigurationError):
            DriftResolver(make_workload())


class TestMigratingHotspotOverlay:
    def test_draws_are_distinct_sorted_and_in_range(self):
        overlay = MigratingHotspotOverlay(UniformAccessPattern(32), 32)
        resolver = DriftResolver(
            make_workload(
                drift=DriftConfig(
                    segments=(
                        DriftSegment(
                            at=0.0,
                            hotspot_probability=0.9,
                            hotspot_fraction=0.2,
                            hotspot_center=0.5,
                        ),
                    )
                )
            )
        )
        overlay.set_regime(resolver.resolve(1.0))
        rng = random.Random(3)
        for count in (1, 4, 16, 32):
            items = overlay.draw(rng, count)
            assert items == sorted(items)
            assert len(items) == len(set(items)) == count
            assert all(0 <= item < 32 for item in items)

    def test_hot_window_attracts_most_draws(self):
        overlay = MigratingHotspotOverlay(UniformAccessPattern(100), 100)
        resolver = DriftResolver(
            make_workload(
                drift=DriftConfig(
                    segments=(
                        DriftSegment(
                            at=0.0,
                            hotspot_probability=0.9,
                            hotspot_fraction=0.1,
                            hotspot_center=0.75,
                        ),
                    )
                )
            )
        )
        overlay.set_regime(resolver.resolve(1.0))
        start, size = overlay.window()
        window = {(start + offset) % 100 for offset in range(size)}
        rng = random.Random(5)
        hits = sum(1 for _ in range(500) if overlay.draw(rng, 1)[0] in window)
        assert hits > 350  # ~90% expected, far above the uniform 10%

    def test_window_wraps_around_the_item_space(self):
        overlay = MigratingHotspotOverlay(UniformAccessPattern(64), 64)
        resolver = DriftResolver(
            make_workload(
                drift=DriftConfig(
                    segments=(
                        DriftSegment(
                            at=0.0,
                            hotspot_probability=1.0,
                            hotspot_fraction=0.125,
                            hotspot_center=0.99,
                        ),
                    )
                )
            )
        )
        overlay.set_regime(resolver.resolve(1.0))
        start, size = overlay.window()
        window = {(start + offset) % 64 for offset in range(size)}
        assert any(item < 8 for item in window) and any(item > 55 for item in window)

    def test_composes_with_a_zipfian_base(self):
        overlay = MigratingHotspotOverlay(ZipfianAccessPattern(48, theta=0.9), 48)
        resolver = DriftResolver(
            make_workload(
                drift=DriftConfig(
                    segments=(
                        DriftSegment(
                            at=0.0,
                            hotspot_probability=0.5,
                            hotspot_fraction=0.1,
                            hotspot_center=0.5,
                        ),
                    )
                )
            )
        )
        overlay.set_regime(resolver.resolve(1.0))
        rng = random.Random(9)
        items = overlay.draw(rng, 10)
        assert len(set(items)) == 10


class TestGeneratorWithDrift:
    def test_no_op_schedule_reproduces_the_stationary_stream(self):
        system = SystemConfig(num_sites=3, num_items=48, seed=2)
        base = make_workload(num_transactions=80)
        # Segments that name no knob leave every regime value at the base.
        noop = base.with_overrides(
            drift=DriftConfig(segments=(DriftSegment(at=0.3), DriftSegment(at=0.7)))
        )
        stationary = TransactionGenerator(system, base).generate()
        drifting = TransactionGenerator(system, noop).generate()
        assert stationary == drifting

    def test_drift_boundaries_are_recorded_in_order(self):
        system = SystemConfig(num_sites=2, num_items=32, seed=2)
        workload = make_workload(
            num_transactions=100,
            drift=DriftConfig(
                segments=(
                    DriftSegment(at=0.25, read_fraction=0.1),
                    DriftSegment(at=0.75, read_fraction=0.9),
                )
            ),
        )
        generator = TransactionGenerator(system, workload)
        specs = generator.generate()
        boundaries = generator.drift_boundaries()
        assert len(boundaries) == 2
        assert 0.0 < boundaries[0] < boundaries[1] <= specs[-1].arrival_time

    def test_mix_flip_changes_the_read_share(self):
        system = SystemConfig(num_sites=2, num_items=32, seed=2)
        workload = make_workload(
            num_transactions=200,
            read_fraction=0.95,
            drift=DriftConfig(
                mode="piecewise",
                segments=(DriftSegment(at=0.5, read_fraction=0.05),),
            ),
        )
        specs = TransactionGenerator(system, workload).generate()
        front = specs[: len(specs) // 2]
        back = specs[len(specs) // 2 :]

        def read_share(group):
            reads = sum(spec.num_reads for spec in group)
            writes = sum(spec.num_writes for spec in group)
            return reads / (reads + writes)

        assert read_share(front) > 0.8
        assert read_share(back) < 0.2

    def test_load_ramp_compresses_interarrivals(self):
        system = SystemConfig(num_sites=2, num_items=32, seed=2)
        workload = make_workload(
            num_transactions=200,
            arrival_rate=5.0,
            drift=DriftConfig(
                mode="smooth",
                segments=(
                    DriftSegment(at=0.2, arrival_rate=5.0),
                    DriftSegment(at=0.9, arrival_rate=80.0),
                ),
            ),
        )
        specs = TransactionGenerator(system, workload).generate()
        times = [spec.arrival_time for spec in specs]
        gaps = [b - a for a, b in zip(times, times[1:])]
        early = sum(gaps[:30]) / 30
        late = sum(gaps[-30:]) / 30
        assert late < early / 4

    def test_base_hotspot_is_not_applied_twice_under_drift(self):
        # Regression: with a base hotspot_probability > 0 AND a drifted
        # hotspot knob, the overlay's cold draws must delegate to the
        # *un-skewed* base pattern — otherwise the hot region is hit with
        # the configured probability twice (overlay + legacy pattern).
        system = SystemConfig(num_sites=2, num_items=100, seed=2)
        workload = make_workload(
            num_transactions=400,
            min_size=1,
            max_size=1,
            hotspot_probability=0.4,
            hotspot_fraction=0.1,
            drift=DriftConfig(
                mode="piecewise",
                segments=(DriftSegment(at=0.9, hotspot_center=0.8),),
            ),
        )
        specs = TransactionGenerator(system, workload).generate()
        pre_drift = specs[: int(len(specs) * 0.85)]
        # The base hot region is the front hotspot_fraction of the items.
        hits = sum(
            1 for spec in pre_drift for item in spec.accessed_items() if item < 10
        )
        total = sum(len(spec.accessed_items()) for spec in pre_drift)
        rate = hits / total
        # Expected ~ 0.4 + 0.6 * 0.1 = 0.46; the double-application bug
        # pushed this to ~0.67.
        assert 0.38 < rate < 0.55

    def test_hotspot_migration_moves_the_hot_region(self):
        system = SystemConfig(num_sites=2, num_items=100, seed=2)
        workload = make_workload(
            num_transactions=300,
            drift=DriftConfig(
                mode="piecewise",
                segments=(
                    DriftSegment(
                        at=0.0,
                        hotspot_probability=0.95,
                        hotspot_fraction=0.1,
                        hotspot_center=0.1,
                    ),
                    DriftSegment(at=0.5, hotspot_center=0.9),
                ),
            ),
        )
        specs = TransactionGenerator(system, workload).generate()
        half = len(specs) // 2

        def mean_item(group):
            items = [item for spec in group for item in spec.accessed_items()]
            return sum(items) / len(items)

        assert mean_item(specs[:half]) < 35
        assert mean_item(specs[half:]) > 65
