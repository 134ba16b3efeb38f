"""Run-time metrics: per-transaction outcomes and per-protocol statistics.

Besides the headline performance measure — the average transaction system
time ``S`` — the collector tracks exactly the quantities Section 5.2 of the
paper says the selector needs: average lock-holding times for aborted and
non-aborted requests, the 2PL deadlock-abort probability ``P_A``, the T/O
read/write rejection probabilities ``P_r`` / ``P_r'``, the PA read/write
back-off probabilities ``P_B`` / ``P_B'``, and the per-queue read/write
throughputs used in the throughput-loss formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.common.transactions import TransactionOutcome
from repro.sim.stats import WelfordAccumulator


@dataclass
class ProtocolStatistics:
    """Aggregated statistics for the transactions of one protocol."""

    protocol: Protocol
    committed: int = 0
    attempts: int = 0
    restarts: int = 0
    deadlock_aborts: int = 0
    backoff_rounds: int = 0
    system_time: WelfordAccumulator = field(default_factory=WelfordAccumulator)
    lock_time_committed: WelfordAccumulator = field(default_factory=WelfordAccumulator)
    lock_time_aborted: WelfordAccumulator = field(default_factory=WelfordAccumulator)
    read_requests: int = 0
    write_requests: int = 0
    read_rejections: int = 0
    write_rejections: int = 0
    read_backoffs: int = 0
    write_backoffs: int = 0

    @property
    def mean_system_time(self) -> float:
        """Mean system time of this protocol's committed transactions."""
        return self.system_time.mean

    @property
    def read_rejection_probability(self) -> float:
        """T/O ``P_r``: read rejections per read request."""
        return self.read_rejections / self.read_requests if self.read_requests else 0.0

    @property
    def write_rejection_probability(self) -> float:
        """T/O ``P_r'``: write rejections per write request."""
        return self.write_rejections / self.write_requests if self.write_requests else 0.0

    @property
    def read_backoff_probability(self) -> float:
        """PA ``P_B``: read back-offs per read request."""
        return self.read_backoffs / self.read_requests if self.read_requests else 0.0

    @property
    def write_backoff_probability(self) -> float:
        """PA ``P_B'``: write back-offs per write request."""
        return self.write_backoffs / self.write_requests if self.write_requests else 0.0


#: Default width (simulated time units) of the windowed time-series buckets.
DEFAULT_WINDOW_WIDTH = 2.0


class MetricsCollector:
    """Central sink for everything the request issuers observe.

    ``streaming=True`` switches the collector from retaining every
    :class:`~repro.common.transactions.TransactionOutcome` to folding each
    outcome into running accumulators the moment it is recorded: the overall
    system-time sum, one accumulator per ``window_width`` bucket of commit
    time (so :meth:`windowed_series` is O(windows), not O(outcomes)) and one
    per registered arrival cut (:meth:`register_arrival_cut`, the drift
    boundaries :meth:`mean_system_time_after` is asked about).  All
    accumulation happens in commit order — the same order the batch formulas
    sum the retained list in — so every derived float is bit-identical to
    batch mode.
    """

    def __init__(
        self, *, streaming: bool = False, window_width: float = DEFAULT_WINDOW_WIDTH
    ) -> None:
        if window_width <= 0:
            raise ValueError("window width must be positive")
        self._streaming = streaming
        self._window_width = window_width
        self._committed_count = 0
        self._system_time_sum = 0.0
        # Streaming per-window accumulators, keyed by window index.
        self._windows: Dict[int, Dict[str, object]] = {}
        # Streaming per-arrival-cut accumulators: boundary -> [sum, count].
        self._arrival_cuts: Dict[float, List[float]] = {}
        if streaming:
            self.register_arrival_cut(0.0)
        self._outcomes: List[TransactionOutcome] = []
        self._by_protocol: Dict[Protocol, ProtocolStatistics] = {
            protocol: ProtocolStatistics(protocol) for protocol in Protocol
        }
        self._grants_by_copy_read: Dict[object, int] = {}
        self._grants_by_copy_write: Dict[object, int] = {}
        self._first_arrival: Optional[float] = None
        self._last_commit: float = 0.0
        # Commit-layer and fault-model observations.
        self._commit_latency: WelfordAccumulator = WelfordAccumulator()
        self._in_doubt_time: WelfordAccumulator = WelfordAccumulator()
        self._max_in_doubt_time = 0.0
        self._lost_writes = 0
        self._commit_aborts = 0
        self._timeout_restarts = 0
        # Coordinator crash/recovery observations.
        self._coordinator_recoveries = 0
        self._redriven_transactions = 0
        self._recovery_latency: WelfordAccumulator = WelfordAccumulator()
        self._termination_resolutions = 0

    # ---------------------------------------------------------------- #
    # Recording
    # ---------------------------------------------------------------- #

    def record_arrival(self, protocol: Protocol, arrival_time: float) -> None:
        """Note a transaction arrival (tracks the start of the measured span)."""
        if self._first_arrival is None or arrival_time < self._first_arrival:
            self._first_arrival = arrival_time

    def record_attempt(self, protocol: Protocol, reads: int = 0, writes: int = 0) -> None:
        """Count one execution attempt of a ``protocol`` transaction.

        ``reads`` and ``writes`` are the read and write requests the attempt
        issues, counted in the same call.
        """
        stats = self._by_protocol[protocol]
        stats.attempts += 1
        stats.read_requests += reads
        stats.write_requests += writes

    def record_rejection(self, protocol: Protocol, op_type: OperationType) -> None:
        """Count one T/O rejection of a read/write request."""
        stats = self._by_protocol[protocol]
        if op_type.is_read:
            stats.read_rejections += 1
        else:
            stats.write_rejections += 1

    def record_backoff(self, protocol: Protocol, op_type: OperationType) -> None:
        """Count one PA back-off of a read/write request."""
        stats = self._by_protocol[protocol]
        if op_type.is_read:
            stats.read_backoffs += 1
        else:
            stats.write_backoffs += 1

    def record_backoff_round(self, protocol: Protocol) -> None:
        """Count one whole PA back-off round (new timestamp broadcast)."""
        self._by_protocol[protocol].backoff_rounds += 1

    def record_restart(self, protocol: Protocol, due_to_deadlock: bool) -> None:
        """Count one abort: a deadlock victimisation or a rejection restart."""
        stats = self._by_protocol[protocol]
        if due_to_deadlock:
            stats.deadlock_aborts += 1
        else:
            stats.restarts += 1

    def record_lock_time(self, protocol: Protocol, duration: float, aborted: bool) -> None:
        """Record how long one request held its lock (aborted or committed)."""
        stats = self._by_protocol[protocol]
        if aborted:
            stats.lock_time_aborted.add(duration)
        else:
            stats.lock_time_committed.add(duration)

    def record_grant(self, copy: object, op_type: OperationType) -> None:
        """Count one granted read/write lock at ``copy``."""
        if op_type.is_read:
            self._grants_by_copy_read[copy] = self._grants_by_copy_read.get(copy, 0) + 1
        else:
            self._grants_by_copy_write[copy] = self._grants_by_copy_write.get(copy, 0) + 1

    def register_arrival_cut(self, boundary: float) -> None:
        """Pre-register an arrival-time boundary for :meth:`mean_system_time_after`.

        In streaming mode only registered boundaries can be queried later,
        because the per-outcome data needed to cut anywhere else is folded
        away as it arrives.  Registering after commits were recorded raises,
        since the accumulator would silently miss them.  A no-op in batch
        mode (any boundary can be answered from the retained outcomes).
        """
        if not self._streaming:
            return
        if boundary in self._arrival_cuts:
            return
        if self._committed_count:
            raise RuntimeError(
                "arrival cuts must be registered before the first commit is recorded"
            )
        self._arrival_cuts[boundary] = [0.0, 0.0]

    def record_commit(self, outcome: TransactionOutcome) -> None:
        """Record a committed transaction's outcome."""
        self._committed_count += 1
        if self._streaming:
            self._fold_outcome(outcome)
        else:
            self._outcomes.append(outcome)
        stats = self._by_protocol[outcome.protocol]
        stats.committed += 1
        stats.system_time.add(outcome.system_time)
        self._last_commit = max(self._last_commit, outcome.commit_time)

    def _fold_outcome(self, outcome: TransactionOutcome) -> None:
        """Fold one outcome into the streaming accumulators and discard it."""
        self._system_time_sum += outcome.system_time
        index = int(outcome.commit_time // self._window_width)
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = {
                "committed": 0,
                "aborts": 0,
                "system_time_sum": 0.0,
                "by_protocol": {protocol: 0 for protocol in Protocol},
            }
        window["committed"] += 1
        window["aborts"] += outcome.restarts + outcome.deadlock_aborts
        window["system_time_sum"] += outcome.system_time
        window["by_protocol"][outcome.protocol] += 1
        for boundary, accumulator in self._arrival_cuts.items():
            if outcome.arrival_time >= boundary:
                accumulator[0] += outcome.system_time
                accumulator[1] += 1

    def record_commit_latency(self, duration: float) -> None:
        """Record one commit round's latency (prepare sent to decision logged)."""
        self._commit_latency.add(duration)

    def record_in_doubt_time(self, duration: float) -> None:
        """Record how long one participant held a prepared record before the decision."""
        self._in_doubt_time.add(duration)
        self._max_in_doubt_time = max(self._max_in_doubt_time, duration)

    def record_lost_write(self) -> None:
        """Count a write-all member silently lost at a crashed site (one-phase commit)."""
        self._lost_writes += 1

    def record_commit_abort(self) -> None:
        """Count a two-phase commit round that decided abort (vote missing or no)."""
        self._commit_aborts += 1

    def record_timeout_restart(self) -> None:
        """Count an attempt aborted by the coordinator's request-timeout watchdog."""
        self._timeout_restarts += 1

    def record_coordinator_recovery(self) -> None:
        """Count one coordinator restart that ran its recovery walk."""
        self._coordinator_recoveries += 1

    def record_coordinator_redrive(self, in_doubt_latency: Optional[float] = None) -> None:
        """Count one transaction the recovery walk re-drove.

        ``in_doubt_latency`` — how long the transaction's commit round hung
        undecided before recovery resolved it — is only passed for rounds
        found ``PREPARING``; restarts of merely stuck attempts carry none.
        """
        self._redriven_transactions += 1
        if in_doubt_latency is not None:
            self._recovery_latency.add(in_doubt_latency)

    def record_termination_resolution(self) -> None:
        """Count an in-doubt record resolved by a peer, not its coordinator."""
        self._termination_resolutions += 1

    # ---------------------------------------------------------------- #
    # Reporting
    # ---------------------------------------------------------------- #

    @property
    def outcomes(self) -> Tuple[TransactionOutcome, ...]:
        """Every committed transaction's outcome, in commit order.

        Empty in streaming mode: the outcomes are folded into running
        accumulators as they arrive and never retained.
        """
        return tuple(self._outcomes)

    @property
    def committed_count(self) -> int:
        """Number of committed transactions."""
        return self._committed_count

    @property
    def elapsed_time(self) -> float:
        """Span from the first arrival to the last commit."""
        if self._first_arrival is None:
            return 0.0
        return max(0.0, self._last_commit - self._first_arrival)

    def protocol_statistics(self, protocol: Protocol) -> ProtocolStatistics:
        """The aggregated statistics of one protocol."""
        return self._by_protocol[protocol]

    def all_protocol_statistics(self) -> Dict[Protocol, ProtocolStatistics]:
        """Per-protocol statistics keyed by protocol."""
        return dict(self._by_protocol)

    def mean_system_time(self, protocol: Optional[Protocol] = None) -> float:
        """Average transaction system time ``S``, optionally restricted to one protocol."""
        if protocol is not None:
            return self._by_protocol[protocol].mean_system_time
        if not self._committed_count:
            return 0.0
        if self._streaming:
            return self._system_time_sum / self._committed_count
        return sum(outcome.system_time for outcome in self._outcomes) / len(self._outcomes)

    def total_restarts(self) -> int:
        """Total T/O-rejection restarts across protocols."""
        return sum(stats.restarts for stats in self._by_protocol.values())

    def total_deadlock_aborts(self) -> int:
        """Total deadlock victimisations across protocols."""
        return sum(stats.deadlock_aborts for stats in self._by_protocol.values())

    def total_backoff_rounds(self) -> int:
        """Total PA back-off rounds across protocols."""
        return sum(stats.backoff_rounds for stats in self._by_protocol.values())

    @property
    def lost_writes(self) -> int:
        """Write-all members lost at crashed sites (one-phase commit only)."""
        return self._lost_writes

    @property
    def commit_aborts(self) -> int:
        """Two-phase commit rounds that decided abort."""
        return self._commit_aborts

    @property
    def timeout_restarts(self) -> int:
        """Attempts aborted by the request-timeout watchdog."""
        return self._timeout_restarts

    @property
    def mean_commit_latency(self) -> float:
        """Mean prepare-to-decision latency of two-phase commit rounds (0 when none)."""
        return self._commit_latency.mean

    @property
    def mean_in_doubt_time(self) -> float:
        """Mean time participants spent holding a prepared, undecided record."""
        return self._in_doubt_time.mean

    @property
    def max_in_doubt_time(self) -> float:
        """Longest any participant was blocked in doubt (the E11 headline metric)."""
        return self._max_in_doubt_time

    @property
    def in_doubt_resolutions(self) -> int:
        """Number of prepared records that have received their decision."""
        return self._in_doubt_time.count

    @property
    def coordinator_recoveries(self) -> int:
        """Coordinator restarts that ran the recovery walk."""
        return self._coordinator_recoveries

    @property
    def redriven_transactions(self) -> int:
        """Transactions re-driven (aborted/restarted/finished) by recovery walks."""
        return self._redriven_transactions

    @property
    def mean_recovery_latency(self) -> float:
        """Mean time in-flight commit rounds hung before a recovery walk resolved them."""
        return self._recovery_latency.mean

    @property
    def termination_resolutions(self) -> int:
        """In-doubt records resolved by the cooperative termination protocol."""
        return self._termination_resolutions

    def throughput(self) -> float:
        """Committed transactions per unit of simulated time."""
        elapsed = self.elapsed_time
        if elapsed <= 0:
            return 0.0
        return self.committed_count / elapsed

    def average_read_throughput(self) -> float:
        """``lambda_r`` averaged over every copy that saw at least one grant."""
        elapsed = self.elapsed_time
        copies = set(self._grants_by_copy_read) | set(self._grants_by_copy_write)
        if elapsed <= 0 or not copies:
            return 0.0
        total = sum(self._grants_by_copy_read.get(copy, 0) for copy in copies)
        return total / elapsed / len(copies)

    def average_write_throughput(self) -> float:
        """``lambda_w`` averaged over every copy that saw at least one grant."""
        elapsed = self.elapsed_time
        copies = set(self._grants_by_copy_read) | set(self._grants_by_copy_write)
        if elapsed <= 0 or not copies:
            return 0.0
        total = sum(self._grants_by_copy_write.get(copy, 0) for copy in copies)
        return total / elapsed / len(copies)

    def system_throughput(self) -> float:
        """``lambda_A``: the sum of all per-copy read and write grant rates."""
        elapsed = self.elapsed_time
        if elapsed <= 0:
            return 0.0
        total = sum(self._grants_by_copy_read.values()) + sum(self._grants_by_copy_write.values())
        return total / elapsed

    def read_fraction(self) -> float:
        """``Q_r``: granted read requests as a fraction of all granted requests."""
        reads = sum(self._grants_by_copy_read.values())
        writes = sum(self._grants_by_copy_write.values())
        total = reads + writes
        return reads / total if total else 0.5

    def windowed_series(self, width: float = DEFAULT_WINDOW_WIDTH) -> List[Dict[str, object]]:
        """Per-window time series of the run, derived from committed outcomes.

        The simulated timeline is cut into contiguous windows of ``width``
        time units (window ``k`` covers ``[k * width, (k + 1) * width)`` of
        commit time).  Each row reports the window bounds, the number of
        commits, the mean system time of those commits, the restart
        probability (aborts per attempt, attributed to the window the
        transaction finally committed in) and the per-protocol share of the
        committed transactions — the series E9 measures adaptation lag on.
        Rows are plain JSON-pure dictionaries so they survive the result
        store round-trip unchanged.
        """
        if width <= 0:
            raise ValueError("window width must be positive")
        if self._streaming:
            if width != self._window_width:
                raise ValueError(
                    f"streaming collector accumulated windows of width {self._window_width}; "
                    f"cannot re-bucket to width {width}"
                )
            return self._windowed_series_streaming()
        if not self._outcomes:
            return []
        last_index = max(int(outcome.commit_time // width) for outcome in self._outcomes)
        buckets: List[List[TransactionOutcome]] = [[] for _ in range(last_index + 1)]
        for outcome in self._outcomes:
            buckets[int(outcome.commit_time // width)].append(outcome)
        series: List[Dict[str, object]] = []
        for index, bucket in enumerate(buckets):
            committed = len(bucket)
            aborts = sum(o.restarts + o.deadlock_aborts for o in bucket)
            attempts = committed + aborts
            row: Dict[str, object] = {
                "window": index,
                "start": index * width,
                "end": (index + 1) * width,
                "committed": committed,
                "mean_system_time": (
                    sum(o.system_time for o in bucket) / committed if committed else 0.0
                ),
                "restart_probability": aborts / attempts if attempts else 0.0,
            }
            for protocol in Protocol:
                share = (
                    sum(1 for o in bucket if o.protocol == protocol) / committed
                    if committed
                    else 0.0
                )
                row[f"share_{protocol}"] = share
            series.append(row)
        return series

    def _windowed_series_streaming(self) -> List[Dict[str, object]]:
        """Build the windowed series from the O(windows) accumulators."""
        if not self._windows:
            return []
        width = self._window_width
        series: List[Dict[str, object]] = []
        for index in range(max(self._windows) + 1):
            window = self._windows.get(index)
            committed = int(window["committed"]) if window else 0
            aborts = int(window["aborts"]) if window else 0
            attempts = committed + aborts
            row: Dict[str, object] = {
                "window": index,
                "start": index * width,
                "end": (index + 1) * width,
                "committed": committed,
                "mean_system_time": (
                    float(window["system_time_sum"]) / committed if committed else 0.0
                ),
                "restart_probability": aborts / attempts if attempts else 0.0,
            }
            by_protocol = window["by_protocol"] if window else {}
            for protocol in Protocol:
                row[f"share_{protocol}"] = (
                    by_protocol.get(protocol, 0) / committed if committed else 0.0
                )
            series.append(row)
        return series

    def mean_system_time_after(self, boundary: float) -> float:
        """Mean system time of transactions that *arrived* at or after ``boundary``.

        The post-drift performance measure: cutting on arrival time (not
        commit time) charges a slow pre-drift backlog to the old regime
        while measuring every transaction generated under the new one.
        Returns 0.0 when no such transaction committed.  In streaming mode
        the boundary must have been registered with
        :meth:`register_arrival_cut` before the run.
        """
        if self._streaming:
            accumulator = self._arrival_cuts.get(boundary)
            if accumulator is None:
                raise RuntimeError(
                    f"arrival cut {boundary!r} was not registered before the streaming run"
                )
            total, count = accumulator
            return total / count if count else 0.0
        values = [
            outcome.system_time
            for outcome in self._outcomes
            if outcome.arrival_time >= boundary
        ]
        return sum(values) / len(values) if values else 0.0

    def grant_totals(self) -> Tuple[int, int, int]:
        """Cumulative ``(read grants, write grants, active copies)``.

        The raw counters behind the throughput averages; the decaying
        estimator snapshots them to form per-epoch deltas.
        """
        reads = sum(self._grants_by_copy_read.values())
        writes = sum(self._grants_by_copy_write.values())
        copies = len(set(self._grants_by_copy_read) | set(self._grants_by_copy_write))
        return reads, writes, copies
