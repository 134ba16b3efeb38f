"""The System Throughput Loss (STL) model of Section 5.1 / 5.2.

``STL'(lambda_loss, U)`` is the expected throughput loss accumulated over a
period of ``U`` time units that starts with an instantaneous loss rate of
``lambda_loss``.  While a transaction holds its locks, other requests keep
obtaining locks at rate ``lambda_A - lambda_loss``; each of them belongs to a
transaction that, with probability ``1 - (1 - lambda_loss/lambda_A)^(K-1)``,
also has a blocked request, in which case the newly locked queue is blocked
too and the loss rate steps up by ``lambda_w + (1 - Q_r) * lambda_r`` (the
average loss of one more blocked queue).  The paper defines ``STL'``
recursively over the time of the next such blocking event and notes it "can
be evaluated efficiently through Dynamic Programming"; we discretise the
remaining time and iterate the recursion bottom-up, which is exactly that DP.

The per-protocol costs (Section 5.2) are then::

    STL_2PL(t) = STL'(L_t, U_2PL) + P_A / (1 - P_A) * STL'(L_t, U'_2PL)
    STL_T/O(t) = STL'(L_t, U_T/O) + (1 - p_s) / p_s * STL'(L*_t, U'_T/O)
    STL_PA(t)  = STL'(L_t, U_PA)  + (1 - p_B) * STL'(L+_t, U'_PA)

where ``L_t`` is the transaction's initial loss (read locks block the write
throughput of their queue, write locks block both), ``p_s`` / ``p_B`` are the
probabilities that no request is rejected / backed off, and ``L*_t`` /
``L+_t`` are the conditional losses given at least one rejection / back-off,
obtained from the balance equations in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.common.transactions import TransactionSpec
from repro.selection.parameters import ProtocolCostParameters, SystemLoadParameters


@dataclass(frozen=True)
class STLBreakdown:
    """The three per-protocol STL values computed for one transaction."""

    two_phase_locking: float
    timestamp_ordering: float
    precedence_agreement: float

    def as_dict(self) -> Dict[str, float]:
        """The three losses keyed by protocol name."""
        return {
            "2PL": self.two_phase_locking,
            "T/O": self.timestamp_ordering,
            "PA": self.precedence_agreement,
        }

    def best(self) -> str:
        """Name of the protocol with the smallest loss (ties go to PA, then T/O)."""
        ordering = [
            (self.precedence_agreement, "PA"),
            (self.timestamp_ordering, "T/O"),
            (self.two_phase_locking, "2PL"),
        ]
        return min(ordering, key=lambda pair: pair[0])[1]


class ThroughputLossModel:
    """Evaluator of ``STL'`` and the per-protocol STL formulas."""

    def __init__(
        self,
        load: SystemLoadParameters,
        *,
        time_steps: int = 32,
        max_levels: int = 64,
    ) -> None:
        if time_steps < 1:
            raise ValueError("time_steps must be at least 1")
        if max_levels < 1:
            raise ValueError("max_levels must be at least 1")
        self._load = load
        self._time_steps = time_steps
        self._max_levels = max_levels
        self._grids: Dict[float, "tuple[list[float], list[float]]"] = {}

    @property
    def load(self) -> SystemLoadParameters:
        """The system-load parameters the model was built with."""
        return self._load

    @property
    def time_steps(self) -> int:
        """Number of steps the remaining time is discretised into."""
        return self._time_steps

    # ---------------------------------------------------------------- #
    # The STL' recursion
    # ---------------------------------------------------------------- #

    def stl_prime(self, initial_loss: float, duration: float) -> float:
        """Expected throughput loss over ``duration`` starting at ``initial_loss``.

        Evaluated by a bottom-up dynamic program over (loss level, remaining
        time step); the loss rate is capped at the system throughput
        ``lambda_A`` (once everything is blocked, nothing more can be lost).
        The value at level 0 after ``s`` more steps depends on levels
        ``0..s`` only, so the row shrinks by one level per step
        (:meth:`_row_widths`) unless the capped top level, which loops onto
        itself, is still in it.
        """
        lambda_a = self._load.system_throughput
        if duration <= 0 or lambda_a <= 0:
            return 0.0
        initial_loss = max(0.0, initial_loss)
        if initial_loss >= lambda_a:
            return lambda_a * duration
        if self.loss_increment() <= 0:
            return initial_loss * duration

        levels, block_rates = self._grid(initial_loss)
        dt = duration / self._time_steps
        # Per level: loss accrued in one step, P(escalate), P(stay).
        rows = []
        for loss, block_rate in zip(levels, block_rates):
            p_block = 1.0 - math.exp(-block_rate * dt) if block_rate > 0 else 0.0
            rows.append((loss * dt, p_block, 1.0 - p_block))
        # current[i] holds STL'(levels[i], t) for the current horizon t.
        current = [0.0] * len(levels)
        for width in self._row_widths(len(levels)):
            previous = current
            escalated = previous[1:]
            if width == len(previous):
                escalated.append(previous[-1])
            current = [
                gain + p_block * up + p_stay * stay
                for (gain, p_block, p_stay), up, stay in zip(rows, escalated, previous)
            ]
        return current[0]

    def _grid(self, initial_loss: float) -> "tuple[list[float], list[float]]":
        """Loss levels reachable from ``initial_loss`` and their blocking rates.

        Levels step up by :meth:`loss_increment`, capped at ``lambda_A``; at
        most ``time_steps + 1`` of them can influence level 0.  Memoised per
        ``initial_loss``: the per-protocol formulas evaluate ``STL'`` from the
        same ``Lambda_t`` over several durations.
        """
        grid = self._grids.get(initial_loss)
        if grid is None:
            lambda_a = self._load.system_throughput
            step_gain = self.loss_increment()
            limit = min(self._max_levels, self._time_steps + 1)
            levels = [initial_loss]
            while levels[-1] < lambda_a and len(levels) < limit:
                levels.append(min(lambda_a, levels[-1] + step_gain))
            grid = self._grids[initial_loss] = (
                levels,
                [self.blocking_rate(loss) for loss in levels],
            )
        return grid

    def _row_widths(self, level_count: int) -> "list[int]":
        """Levels the DP fills at each time step, first step first."""
        return [min(level_count, left) for left in range(self._time_steps, 0, -1)]

    def dp_cells(self, initial_loss: float) -> int:
        """Cells :meth:`stl_prime` fills from ``initial_loss`` (0 on its closed forms).

        The deterministic work measure the E7 experiment contrasts with the
        naive recursion's call count.
        """
        initial_loss = max(0.0, initial_loss)
        if initial_loss >= self._load.system_throughput or self.loss_increment() <= 0:
            return 0
        return sum(self._row_widths(len(self._grid(initial_loss)[0])))

    def blocking_rate(self, loss: float) -> float:
        """``lambda_block`` of the paper: rate at which new lock grants block their queue."""
        lambda_a = self._load.system_throughput
        if lambda_a <= 0 or loss >= lambda_a:
            return 0.0
        k = max(1.0, self._load.requests_per_transaction)
        blocked_fraction = min(1.0, max(0.0, loss / lambda_a))
        probability = 1.0 - (1.0 - blocked_fraction) ** (k - 1.0)
        return (lambda_a - loss) * probability

    def loss_increment(self) -> float:
        """``lambda_new - lambda_loss``: the average extra loss of one more blocked queue."""
        load = self._load
        return load.write_throughput + (1.0 - load.read_fraction) * load.read_throughput

    # ---------------------------------------------------------------- #
    # Per-transaction initial loss
    # ---------------------------------------------------------------- #

    def transaction_loss(self, num_reads: int, num_writes: int) -> float:
        """``Lambda_t``: throughput loss while the transaction holds all its locks.

        A read lock stops writers of its queue (loss ``lambda_w``); a write
        lock stops both readers and writers (loss ``lambda_w + lambda_r``).
        """
        read_loss = self._load.write_throughput
        write_loss = self._load.write_throughput + self._load.read_throughput
        return num_reads * read_loss + num_writes * write_loss

    # ---------------------------------------------------------------- #
    # Per-protocol STL formulas (Section 5.2)
    # ---------------------------------------------------------------- #

    def stl_two_phase_locking(
        self, spec: TransactionSpec, costs: ProtocolCostParameters
    ) -> float:
        """``STL_2PL(t)``: expected loss of running ``spec`` under 2PL."""
        loss = self.transaction_loss(spec.num_reads, spec.num_writes)
        success = self.stl_prime(loss, costs.lock_time)
        abort_probability = min(costs.abort_probability, 0.999)
        if abort_probability <= 0:
            return success
        aborted = self.stl_prime(loss, costs.lock_time_aborted)
        return success + abort_probability / (1.0 - abort_probability) * aborted

    def stl_timestamp_ordering(
        self, spec: TransactionSpec, costs: ProtocolCostParameters
    ) -> float:
        """``STL_T/O(t)``: expected loss of running ``spec`` under T/O."""
        loss = self.transaction_loss(spec.num_reads, spec.num_writes)
        success_probability = self._all_requests_succeed_probability(spec, costs)
        success = self.stl_prime(loss, costs.lock_time)
        if success_probability >= 1.0:
            return success
        if success_probability <= 0.0:
            return math.inf
        conditional_loss = self._conditional_loss(spec, costs, loss, success_probability)
        failed = self.stl_prime(conditional_loss, costs.lock_time_aborted)
        return success + (1.0 - success_probability) / success_probability * failed

    def stl_precedence_agreement(
        self, spec: TransactionSpec, costs: ProtocolCostParameters
    ) -> float:
        """``STL_PA(t)``: expected loss of running ``spec`` under PA."""
        loss = self.transaction_loss(spec.num_reads, spec.num_writes)
        success_probability = self._all_requests_succeed_probability(spec, costs)
        base = self.stl_prime(loss, costs.lock_time)
        if success_probability >= 1.0:
            return base
        conditional_loss = self._conditional_loss(spec, costs, loss, success_probability)
        backed_off = self.stl_prime(conditional_loss, costs.lock_time_aborted)
        return base + (1.0 - success_probability) * backed_off

    def evaluate(
        self,
        spec: TransactionSpec,
        two_phase_locking: ProtocolCostParameters,
        timestamp_ordering: ProtocolCostParameters,
        precedence_agreement: ProtocolCostParameters,
    ) -> STLBreakdown:
        """All three STL values for one transaction."""
        return STLBreakdown(
            two_phase_locking=self.stl_two_phase_locking(spec, two_phase_locking),
            timestamp_ordering=self.stl_timestamp_ordering(spec, timestamp_ordering),
            precedence_agreement=self.stl_precedence_agreement(spec, precedence_agreement),
        )

    # ---------------------------------------------------------------- #
    # Helpers
    # ---------------------------------------------------------------- #

    @staticmethod
    def _all_requests_succeed_probability(
        spec: TransactionSpec, costs: ProtocolCostParameters
    ) -> float:
        """``(1 - P_r)^m (1 - P_r')^n`` — no request rejected / backed off."""
        return (1.0 - costs.read_failure_probability) ** spec.num_reads * (
            1.0 - costs.write_failure_probability
        ) ** spec.num_writes

    def _conditional_loss(
        self,
        spec: TransactionSpec,
        costs: ProtocolCostParameters,
        unconditional_loss: float,
        success_probability: float,
    ) -> float:
        """``Lambda*_t`` / ``Lambda+_t``: expected loss given at least one failure.

        Derived from the paper's balance equation: the expected per-request
        loss (each request succeeds independently with its own probability)
        equals the mixture of the conditional losses over success and failure
        of the whole transaction.
        """
        read_loss = self._load.write_throughput
        write_loss = self._load.write_throughput + self._load.read_throughput
        expected = (
            (1.0 - costs.read_failure_probability) * spec.num_reads * read_loss
            + (1.0 - costs.write_failure_probability) * spec.num_writes * write_loss
        )
        failure_probability = 1.0 - success_probability
        if failure_probability <= 0.0:
            return unconditional_loss
        conditional = (expected - success_probability * unconditional_loss) / failure_probability
        return max(0.0, conditional)
