"""The System Throughput Loss model (STL', and the per-protocol formulas)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import naive_stl_prime
from repro.common.ids import TransactionId
from repro.common.protocol_names import Protocol
from repro.common.transactions import TransactionSpec
from repro.selection.parameters import ProtocolCostParameters, SystemLoadParameters
from repro.selection.stl import STLBreakdown, ThroughputLossModel

from tests.properties.test_property_stl import loads
from tests.selection.reference_stl import reference_stl_prime


def load(system_throughput=100.0, read=2.0, write=1.0, read_fraction=0.7, k=4.0):
    return SystemLoadParameters(
        system_throughput=system_throughput,
        read_throughput=read,
        write_throughput=write,
        read_fraction=read_fraction,
        requests_per_transaction=k,
    )


def spec(reads=2, writes=1):
    return TransactionSpec(
        tid=TransactionId(0, 1),
        read_items=tuple(range(reads)),
        write_items=tuple(range(100, 100 + writes)),
    )


def costs(protocol, lock_time=0.1, aborted=0.2, abort_p=0.0, read_p=0.0, write_p=0.0):
    return ProtocolCostParameters(
        protocol=protocol,
        lock_time=lock_time,
        lock_time_aborted=aborted,
        abort_probability=abort_p,
        read_failure_probability=read_p,
        write_failure_probability=write_p,
    )


class TestSTLPrime:
    def test_zero_duration_gives_zero_loss(self):
        model = ThroughputLossModel(load())
        assert model.stl_prime(5.0, 0.0) == 0.0

    def test_loss_at_or_above_capacity_is_capped(self):
        model = ThroughputLossModel(load(system_throughput=10.0))
        assert model.stl_prime(50.0, 2.0) == pytest.approx(20.0)

    def test_no_escalation_when_increment_is_zero(self):
        # With zero write throughput and all-read workload nothing escalates.
        model = ThroughputLossModel(load(read=2.0, write=0.0, read_fraction=1.0))
        assert model.stl_prime(3.0, 2.0) == pytest.approx(6.0)

    def test_loss_grows_with_duration(self):
        model = ThroughputLossModel(load())
        assert model.stl_prime(5.0, 0.2) < model.stl_prime(5.0, 0.4)

    def test_loss_grows_with_initial_loss(self):
        model = ThroughputLossModel(load())
        assert model.stl_prime(2.0, 0.5) < model.stl_prime(6.0, 0.5)

    def test_escalation_makes_loss_superlinear_in_duration(self):
        model = ThroughputLossModel(load(system_throughput=50.0, read=5.0, write=5.0, k=8.0))
        short = model.stl_prime(5.0, 0.1)
        long = model.stl_prime(5.0, 1.0)
        # With blocking escalation the long window loses more than 10x the short one.
        assert long > 10.0 * short

    def test_loss_bounded_by_capacity_times_duration(self):
        model = ThroughputLossModel(load(system_throughput=30.0))
        assert model.stl_prime(10.0, 1.0) <= 30.0 * 1.0 + 1e-9

    def test_negative_initial_loss_treated_as_zero(self):
        model = ThroughputLossModel(load())
        assert model.stl_prime(-5.0, 1.0) >= 0.0

    def test_naive_recursion_matches_dp_roughly(self):
        model = ThroughputLossModel(load(), time_steps=16)
        dp = model.stl_prime(3.0, 0.3)
        naive, calls = naive_stl_prime(model, 3.0, 0.3)
        assert naive == pytest.approx(dp, rel=0.35)
        assert calls > model.dp_cells(3.0)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            ThroughputLossModel(load(), time_steps=0)
        with pytest.raises(ValueError):
            ThroughputLossModel(load(), max_levels=0)


TIME_STEPS = (1, 2, 16, 32, 40)
MAX_LEVELS = (1, 2, 8, 33, 64)


class TestAgainstPerCellReference:
    """The hoisted, triangular DP is bit-identical to the full-rectangle one."""

    @given(
        loads(),
        st.floats(min_value=0.0, max_value=600.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.sampled_from(TIME_STEPS),
        st.sampled_from(MAX_LEVELS),
    )
    @settings(max_examples=300, deadline=None)
    def test_equal_to_reference(self, load_, loss, duration, time_steps, max_levels):
        model = ThroughputLossModel(load_, time_steps=time_steps, max_levels=max_levels)
        expected = reference_stl_prime(
            load_, loss, duration, time_steps=time_steps, max_levels=max_levels
        )
        assert model.stl_prime(loss, duration) == expected
        # A second call runs on the memoised grid.
        assert model.stl_prime(loss, duration) == expected

    @pytest.mark.parametrize("time_steps", TIME_STEPS)
    @pytest.mark.parametrize("max_levels", MAX_LEVELS)
    @pytest.mark.parametrize(
        "load_",
        [
            load(),                                           # 1.6 per level: never capped
            load(system_throughput=12.0, read=5.0, write=3.0),  # capped at the third level
        ],
        ids=["open", "capped"],
    )
    def test_both_branches_equal_reference(self, load_, time_steps, max_levels):
        model = ThroughputLossModel(load_, time_steps=time_steps, max_levels=max_levels)
        for loss, duration in ((0.0, 0.7), (3.0, 0.3), (5.5, 2.0)):
            assert model.stl_prime(loss, duration) == reference_stl_prime(
                load_, loss, duration, time_steps=time_steps, max_levels=max_levels
            )

    def test_dp_cells_counts_the_triangle_and_the_capped_rectangle(self):
        # Defaults: 33 of the 64 allowed levels can reach level 0 in 32 steps.
        assert ThroughputLossModel(load()).dp_cells(3.0) == 32 * 33 // 2
        # Levels 3, 7.5, 12 (capped, self-loop): widths 3 x 6, then 2, 1.
        capped = ThroughputLossModel(
            load(system_throughput=12.0, read=5.0, write=3.0), time_steps=8
        )
        assert capped.dp_cells(3.0) == 3 * 6 + 2 + 1
        assert ThroughputLossModel(load(), max_levels=1).dp_cells(3.0) == 32

    def test_closed_forms_equal_reference_and_fill_no_cells(self):
        frozen = load(read=2.0, write=0.0, read_fraction=1.0)  # zero increment
        for load_, loss, duration in (
            (load(), 5.0, 0.0),
            (load(), 5.0, -1.0),
            (load(system_throughput=10.0), 50.0, 2.0),
            (load(system_throughput=10.0), 10.0, 2.0),
            (frozen, 3.0, 2.0),
            (load(system_throughput=0.0), 3.0, 2.0),
        ):
            model = ThroughputLossModel(load_)
            assert model.stl_prime(loss, duration) == reference_stl_prime(load_, loss, duration)
        assert ThroughputLossModel(load(system_throughput=10.0)).dp_cells(50.0) == 0
        assert ThroughputLossModel(frozen).dp_cells(3.0) == 0

    def test_evaluate_equals_six_independent_reference_calls(self):
        class ReferenceModel(ThroughputLossModel):
            calls = 0

            def stl_prime(self, initial_loss, duration):
                self.calls += 1
                return reference_stl_prime(self.load, initial_loss, duration)

        arguments = (
            spec(3, 2),
            costs(Protocol.TWO_PHASE_LOCKING, lock_time=0.12, aborted=0.3, abort_p=0.2),
            costs(
                Protocol.TIMESTAMP_ORDERING, lock_time=0.08, aborted=0.25, read_p=0.1, write_p=0.2
            ),
            costs(
                Protocol.PRECEDENCE_AGREEMENT,
                lock_time=0.1,
                aborted=0.15,
                read_p=0.05,
                write_p=0.1,
            ),
        )
        reference = ReferenceModel(load())
        expected = reference.evaluate(*arguments)
        assert reference.calls == 6
        model = ThroughputLossModel(load())
        assert model.evaluate(*arguments) == expected
        # Same answers with every grid already memoised, and for another class.
        assert model.evaluate(*arguments) == expected
        other = (spec(1, 4),) + arguments[1:]
        assert model.evaluate(*other) == reference.evaluate(*other)


class TestTransactionLoss:
    def test_reads_block_only_writers(self):
        model = ThroughputLossModel(load(read=2.0, write=1.0))
        assert model.transaction_loss(1, 0) == pytest.approx(1.0)

    def test_writes_block_readers_and_writers(self):
        model = ThroughputLossModel(load(read=2.0, write=1.0))
        assert model.transaction_loss(0, 1) == pytest.approx(3.0)

    def test_loss_is_additive(self):
        model = ThroughputLossModel(load(read=2.0, write=1.0))
        assert model.transaction_loss(2, 3) == pytest.approx(2 * 1.0 + 3 * 3.0)


class TestProtocolFormulas:
    def test_2pl_without_aborts_equals_base_loss(self):
        model = ThroughputLossModel(load())
        base = model.stl_prime(model.transaction_loss(2, 1), 0.1)
        value = model.stl_two_phase_locking(spec(), costs(Protocol.TWO_PHASE_LOCKING))
        assert value == pytest.approx(base)

    def test_2pl_abort_probability_increases_cost(self):
        model = ThroughputLossModel(load())
        cheap = model.stl_two_phase_locking(spec(), costs(Protocol.TWO_PHASE_LOCKING, abort_p=0.0))
        expensive_costs = costs(Protocol.TWO_PHASE_LOCKING, abort_p=0.4)
        pricey = model.stl_two_phase_locking(spec(), expensive_costs)
        assert pricey > cheap

    def test_to_rejection_probability_increases_cost(self):
        model = ThroughputLossModel(load())
        cheap = model.stl_timestamp_ordering(spec(), costs(Protocol.TIMESTAMP_ORDERING))
        pricey = model.stl_timestamp_ordering(
            spec(), costs(Protocol.TIMESTAMP_ORDERING, read_p=0.3, write_p=0.3)
        )
        assert pricey > cheap

    def test_to_cost_is_infinite_when_success_impossible(self):
        model = ThroughputLossModel(load())
        value = model.stl_timestamp_ordering(
            spec(), costs(Protocol.TIMESTAMP_ORDERING, read_p=1.0, write_p=1.0)
        )
        assert math.isinf(value)

    def test_pa_backoff_probability_increases_cost(self):
        model = ThroughputLossModel(load())
        cheap = model.stl_precedence_agreement(spec(), costs(Protocol.PRECEDENCE_AGREEMENT))
        pricey = model.stl_precedence_agreement(
            spec(), costs(Protocol.PRECEDENCE_AGREEMENT, read_p=0.4, write_p=0.4)
        )
        assert pricey > cheap

    def test_pa_penalty_softer_than_to_for_same_failure_probability(self):
        # A back-off costs one extra blocked period; a rejection repeats the whole
        # transaction, so with identical parameters PA's STL must not exceed T/O's.
        model = ThroughputLossModel(load())
        to_value = model.stl_timestamp_ordering(
            spec(), costs(Protocol.TIMESTAMP_ORDERING, read_p=0.3, write_p=0.3)
        )
        pa_value = model.stl_precedence_agreement(
            spec(), costs(Protocol.PRECEDENCE_AGREEMENT, read_p=0.3, write_p=0.3)
        )
        assert pa_value <= to_value + 1e-9

    def test_larger_transactions_cost_more(self):
        model = ThroughputLossModel(load())
        small = model.stl_two_phase_locking(spec(1, 1), costs(Protocol.TWO_PHASE_LOCKING))
        large = model.stl_two_phase_locking(spec(4, 4), costs(Protocol.TWO_PHASE_LOCKING))
        assert large > small

    def test_evaluate_returns_all_three(self):
        model = ThroughputLossModel(load())
        breakdown = model.evaluate(
            spec(),
            costs(Protocol.TWO_PHASE_LOCKING),
            costs(Protocol.TIMESTAMP_ORDERING),
            costs(Protocol.PRECEDENCE_AGREEMENT),
        )
        assert isinstance(breakdown, STLBreakdown)


class TestBreakdown:
    def test_best_picks_minimum(self):
        breakdown = STLBreakdown(
            two_phase_locking=3.0, timestamp_ordering=2.0, precedence_agreement=5.0
        )
        assert breakdown.best() == "T/O"

    def test_best_ties_prefer_pa(self):
        breakdown = STLBreakdown(
            two_phase_locking=2.0, timestamp_ordering=2.0, precedence_agreement=2.0
        )
        assert breakdown.best() == "PA"
