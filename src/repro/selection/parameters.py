"""Parameters of the STL cost model and their estimation.

Section 5.2 lists, per protocol, the quantities the selector needs:

* 2PL — average lock time of a non-aborted request (``U_2PL``), of an aborted
  request (``U'_2PL``), and the probability ``P_A`` that a transaction aborts
  because of a deadlock;
* T/O — average lock times ``U_T/O`` / ``U'_T/O`` and the probabilities
  ``P_r`` / ``P_r'`` that a read / write request is rejected;
* PA — average lock times ``U_PA`` / ``U'_PA`` and the probabilities
  ``P_B`` / ``P_B'`` that a read / write request is backed off.

The paper says these "can either be collected periodically or estimated
through analytical methods"; :class:`ParameterEstimator` supports both: it
starts from configuration-derived priors and switches to measured values from
a :class:`~repro.system.metrics.MetricsCollector` once enough observations
exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.config import SystemConfig, WorkloadConfig
from repro.common.protocol_names import Protocol
from repro.system.metrics import MetricsCollector


@dataclass(frozen=True)
class SystemLoadParameters:
    """Aggregate load figures used by the throughput-loss recursion.

    ``system_throughput`` is the paper's ``lambda_A`` (the sum of the
    per-queue grant rates); ``read_throughput`` / ``write_throughput`` are the
    per-queue averages ``lambda_r`` / ``lambda_w``; ``read_fraction`` is
    ``Q_r``; ``requests_per_transaction`` is ``K``.
    """

    system_throughput: float
    read_throughput: float
    write_throughput: float
    read_fraction: float
    requests_per_transaction: float

    def __post_init__(self) -> None:
        if self.system_throughput < 0:
            raise ValueError("system throughput must be non-negative")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read fraction must be within [0, 1]")
        if self.requests_per_transaction < 1.0:
            raise ValueError("requests per transaction must be at least 1")


@dataclass(frozen=True)
class ProtocolCostParameters:
    """Per-protocol inputs of the STL formulas of Section 5.2."""

    protocol: Protocol
    lock_time: float                  # U: average lock time, successful attempt
    lock_time_aborted: float          # U': average lock time, aborted / backed-off attempt
    abort_probability: float = 0.0    # 2PL: P_A (deadlock abort per transaction)
    read_failure_probability: float = 0.0   # T/O: P_r, PA: P_B (per read request)
    write_failure_probability: float = 0.0  # T/O: P_r', PA: P_B' (per write request)

    def __post_init__(self) -> None:
        for name in ("abort_probability", "read_failure_probability", "write_failure_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.lock_time < 0 or self.lock_time_aborted < 0:
            raise ValueError("lock times must be non-negative")


class ParameterEstimator:
    """Blends configuration-derived priors with run-time measurements.

    The estimator is intentionally conservative: a measured quantity replaces
    its prior only once ``min_observations`` samples exist, so the selector
    behaves sensibly during the cold start of a run.
    """

    def __init__(
        self,
        system: SystemConfig,
        workload: WorkloadConfig,
        *,
        min_observations: int = 10,
    ) -> None:
        self._system = system
        self._workload = workload
        self._min_observations = min_observations
        self._metrics: Optional[MetricsCollector] = None
        self._priors = _build_priors(system, workload)

    def bind_metrics(self, metrics: MetricsCollector) -> None:
        """Use ``metrics`` as the source of measured values from now on."""
        self._metrics = metrics

    def refresh_observations(self) -> None:
        """Fold new measurements into the estimate state (hook, no-op here).

        The cumulative estimator reads the metrics collector directly at
        query time, so there is nothing to fold; the decaying subclass
        overrides this to advance its sliding window.  The selector calls it
        once per refresh, before re-reading the parameters.
        """

    def is_warm(self) -> bool:
        """Whether every protocol's estimates are backed by enough measurements.

        The frozen selector mode waits for this before pinning its
        estimates — freezing earlier would pin configuration priors rather
        than anything observed.  With no metrics bound the priors are final
        (there is nothing to wait for), so an unbound estimator reports warm.
        """
        metrics = self._metrics
        if metrics is None:
            return True
        return all(
            metrics.protocol_statistics(protocol).committed >= self._min_observations
            for protocol in Protocol
        )

    # ---------------------------------------------------------------- #
    # System-wide load
    # ---------------------------------------------------------------- #

    def system_parameters(self) -> SystemLoadParameters:
        """The system-load figures for the STL recursion (measured once warm, priors before)."""
        priors = self._priors
        metrics = self._metrics
        if metrics is None or metrics.committed_count < self._min_observations:
            return priors.load
        system_throughput = metrics.system_throughput() or priors.load.system_throughput
        read_throughput = metrics.average_read_throughput() or priors.load.read_throughput
        write_throughput = metrics.average_write_throughput() or priors.load.write_throughput
        return SystemLoadParameters(
            system_throughput=system_throughput,
            read_throughput=read_throughput,
            write_throughput=write_throughput,
            read_fraction=metrics.read_fraction(),
            requests_per_transaction=priors.load.requests_per_transaction,
        )

    # ---------------------------------------------------------------- #
    # Per-protocol costs
    # ---------------------------------------------------------------- #

    def protocol_parameters(self, protocol: Protocol) -> ProtocolCostParameters:
        """The per-protocol STL cost inputs (measured once warm, priors before)."""
        prior = self._priors.for_protocol(protocol)
        metrics = self._metrics
        if metrics is None:
            return prior
        stats = metrics.protocol_statistics(protocol)
        if stats.committed < self._min_observations:
            return prior

        lock_time = (
            stats.lock_time_committed.mean
            if stats.lock_time_committed.count >= self._min_observations
            else prior.lock_time
        )
        lock_time_aborted = (
            stats.lock_time_aborted.mean
            if stats.lock_time_aborted.count >= max(1, self._min_observations // 2)
            else prior.lock_time_aborted
        )

        if protocol.is_two_phase_locking:
            abort_probability = (
                stats.deadlock_aborts / stats.attempts
                if stats.attempts
                else prior.abort_probability
            )
            return ProtocolCostParameters(
                protocol=protocol,
                lock_time=lock_time,
                lock_time_aborted=lock_time_aborted,
                abort_probability=min(abort_probability, 0.99),
            )
        if protocol.is_timestamp_ordering:
            return ProtocolCostParameters(
                protocol=protocol,
                lock_time=lock_time,
                lock_time_aborted=lock_time_aborted,
                read_failure_probability=min(stats.read_rejection_probability, 0.99),
                write_failure_probability=min(stats.write_rejection_probability, 0.99),
            )
        return ProtocolCostParameters(
            protocol=protocol,
            lock_time=lock_time,
            lock_time_aborted=lock_time_aborted,
            read_failure_probability=min(stats.read_backoff_probability, 0.99),
            write_failure_probability=min(stats.write_backoff_probability, 0.99),
        )


class DecayingParameterEstimator(ParameterEstimator):
    """Sliding-window estimation with exponential decay across refresh epochs.

    Where the base estimator reads *cumulative* run statistics — which
    converge and stop responding once a run is long enough — this estimator
    maintains, per refresh epoch, the *delta* of every counter since the
    previous refresh and folds it into exponentially decayed accumulators::

        window = decay * window + delta

    With ``decay = 0.5`` an observation loses half its weight per refresh,
    so the effective window spans roughly ``1 / (1 - decay)`` epochs and the
    estimates track a drifting workload instead of averaging over dead
    regimes.  The adaptive STL selector drives :meth:`refresh_observations`
    at every refresh; queries fall back to the cumulative path (and from
    there to the priors) until the decayed window holds enough mass.
    """

    #: Flat per-protocol counter names snapshotted each epoch.
    _PROTOCOL_COUNTERS = (
        "committed",
        "attempts",
        "restarts",
        "deadlock_aborts",
        "read_requests",
        "read_rejections",
        "read_backoffs",
        "write_requests",
        "write_rejections",
        "write_backoffs",
        "lock_committed_sum",
        "lock_committed_count",
        "lock_aborted_sum",
        "lock_aborted_count",
    )
    _SYSTEM_COUNTERS = ("grants_read", "grants_write", "elapsed")

    def __init__(
        self,
        system: SystemConfig,
        workload: WorkloadConfig,
        *,
        decay: float = 0.5,
        min_observations: int = 10,
    ) -> None:
        super().__init__(system, workload, min_observations=min_observations)
        if not 0.0 <= decay < 1.0:
            raise ValueError("decay must be within [0, 1)")
        self._decay = decay
        self._window: Dict[str, float] = {}
        self._last_snapshot: Optional[Dict[str, float]] = None

    def refresh_observations(self) -> None:
        """Advance the window: decay the past, fold in the delta since last refresh."""
        metrics = self._metrics
        if metrics is None:
            return
        snapshot = self._snapshot(metrics)
        previous = self._last_snapshot or {}
        for key, value in snapshot.items():
            delta = max(0.0, value - previous.get(key, 0.0))
            self._window[key] = self._decay * self._window.get(key, 0.0) + delta
        self._last_snapshot = snapshot

    def _snapshot(self, metrics: MetricsCollector) -> Dict[str, float]:
        """Flat cumulative counters keyed ``<protocol>.<name>`` / ``sys.<name>``."""
        snapshot: Dict[str, float] = {}
        for protocol in Protocol:
            stats = metrics.protocol_statistics(protocol)
            values = {
                "committed": stats.committed,
                "attempts": stats.attempts,
                "restarts": stats.restarts,
                "deadlock_aborts": stats.deadlock_aborts,
                "read_requests": stats.read_requests,
                "read_rejections": stats.read_rejections,
                "read_backoffs": stats.read_backoffs,
                "write_requests": stats.write_requests,
                "write_rejections": stats.write_rejections,
                "write_backoffs": stats.write_backoffs,
                "lock_committed_sum": stats.lock_time_committed.mean
                * stats.lock_time_committed.count,
                "lock_committed_count": stats.lock_time_committed.count,
                "lock_aborted_sum": stats.lock_time_aborted.mean
                * stats.lock_time_aborted.count,
                "lock_aborted_count": stats.lock_time_aborted.count,
            }
            for name, value in values.items():
                snapshot[f"{protocol}.{name}"] = float(value)
        grants_read, grants_write, _ = metrics.grant_totals()
        snapshot["sys.grants_read"] = float(grants_read)
        snapshot["sys.grants_write"] = float(grants_write)
        snapshot["sys.elapsed"] = metrics.elapsed_time
        return snapshot

    def _w(self, protocol: Protocol, name: str) -> float:
        return self._window.get(f"{protocol}.{name}", 0.0)

    # ---------------------------------------------------------------- #
    # Windowed queries (fall back to the cumulative path when thin)
    # ---------------------------------------------------------------- #

    def system_parameters(self) -> SystemLoadParameters:
        """Decayed-window load figures; cumulative/prior fallback when thin."""
        elapsed = self._window.get("sys.elapsed", 0.0)
        grants_read = self._window.get("sys.grants_read", 0.0)
        grants_write = self._window.get("sys.grants_write", 0.0)
        grants = grants_read + grants_write
        if elapsed <= 0.0 or grants < self._min_observations:
            return super().system_parameters()
        metrics = self._metrics
        copies = metrics.grant_totals()[2] if metrics is not None else 0
        copies = max(1, copies)
        priors = self._priors.load
        return SystemLoadParameters(
            system_throughput=max(grants / elapsed, 1e-9),
            read_throughput=grants_read / elapsed / copies,
            write_throughput=grants_write / elapsed / copies,
            read_fraction=grants_read / grants,
            requests_per_transaction=priors.requests_per_transaction,
        )

    def protocol_parameters(self, protocol: Protocol) -> ProtocolCostParameters:
        """Decayed-window per-protocol costs; cumulative/prior fallback when thin."""
        if self._w(protocol, "committed") < self._min_observations:
            return super().protocol_parameters(protocol)
        prior = self._priors.for_protocol(protocol)
        lock_count = self._w(protocol, "lock_committed_count")
        lock_time = (
            self._w(protocol, "lock_committed_sum") / lock_count
            if lock_count >= self._min_observations
            else prior.lock_time
        )
        aborted_count = self._w(protocol, "lock_aborted_count")
        lock_time_aborted = (
            self._w(protocol, "lock_aborted_sum") / aborted_count
            if aborted_count >= max(1, self._min_observations // 2)
            else prior.lock_time_aborted
        )
        attempts = self._w(protocol, "attempts")
        reads = self._w(protocol, "read_requests")
        writes = self._w(protocol, "write_requests")
        if protocol.is_two_phase_locking:
            abort_probability = (
                self._w(protocol, "deadlock_aborts") / attempts
                if attempts
                else prior.abort_probability
            )
            return ProtocolCostParameters(
                protocol=protocol,
                lock_time=lock_time,
                lock_time_aborted=lock_time_aborted,
                abort_probability=min(abort_probability, 0.99),
            )
        if protocol.is_timestamp_ordering:
            read_failure = self._w(protocol, "read_rejections") / reads if reads else 0.0
            write_failure = self._w(protocol, "write_rejections") / writes if writes else 0.0
        else:
            read_failure = self._w(protocol, "read_backoffs") / reads if reads else 0.0
            write_failure = self._w(protocol, "write_backoffs") / writes if writes else 0.0
        return ProtocolCostParameters(
            protocol=protocol,
            lock_time=lock_time,
            lock_time_aborted=lock_time_aborted,
            read_failure_probability=min(read_failure, 0.99),
            write_failure_probability=min(write_failure, 0.99),
        )


@dataclass(frozen=True)
class _Priors:
    load: SystemLoadParameters
    two_phase_locking: ProtocolCostParameters
    timestamp_ordering: ProtocolCostParameters
    precedence_agreement: ProtocolCostParameters

    def for_protocol(self, protocol: Protocol) -> ProtocolCostParameters:
        if protocol.is_two_phase_locking:
            return self.two_phase_locking
        if protocol.is_timestamp_ordering:
            return self.timestamp_ordering
        return self.precedence_agreement


def _build_priors(system: SystemConfig, workload: WorkloadConfig) -> _Priors:
    """Analytic cold-start estimates derived from the configuration.

    These follow the usual open-system back-of-the-envelope reasoning: the
    request grant rate in steady state equals the offered request rate
    ``lambda * K``; the base lock-holding time is one network round trip plus
    the local computation plus the I/O for the transaction's operations; the
    contention level (and with it the abort / rejection / back-off priors)
    scales with the expected number of conflicting lock holders per item.
    """
    requests_per_transaction = max(1.0, workload.mean_size)
    offered_request_rate = workload.arrival_rate * requests_per_transaction
    per_queue_rate = offered_request_rate / max(1, system.num_items)
    read_fraction = workload.read_fraction

    round_trip = 2.0 * (system.network.fixed_delay + system.network.variable_delay)
    base_lock_time = (
        round_trip
        + workload.compute_time
        + system.io_time * requests_per_transaction
    )

    # Probability that a given item is locked by someone else when touched
    # (M/M/infinity style occupancy), used as the contention prior.
    contention = min(0.9, per_queue_rate * base_lock_time)
    write_contention = min(0.9, contention * (1.0 - read_fraction) + 1e-6)

    load = SystemLoadParameters(
        system_throughput=max(offered_request_rate, 1e-9),
        read_throughput=per_queue_rate * read_fraction,
        write_throughput=per_queue_rate * (1.0 - read_fraction),
        read_fraction=read_fraction,
        requests_per_transaction=requests_per_transaction,
    )
    two_phase_locking = ProtocolCostParameters(
        protocol=Protocol.TWO_PHASE_LOCKING,
        lock_time=base_lock_time,
        lock_time_aborted=base_lock_time + system.deadlock_detection_period,
        abort_probability=min(0.5, write_contention * contention),
    )
    timestamp_ordering = ProtocolCostParameters(
        protocol=Protocol.TIMESTAMP_ORDERING,
        lock_time=base_lock_time,
        lock_time_aborted=base_lock_time / 2.0 + system.restart_delay,
        read_failure_probability=write_contention,
        write_failure_probability=min(0.9, contention),
    )
    precedence_agreement = ProtocolCostParameters(
        protocol=Protocol.PRECEDENCE_AGREEMENT,
        lock_time=base_lock_time + round_trip / 2.0,
        lock_time_aborted=base_lock_time + round_trip,
        read_failure_probability=write_contention,
        write_failure_probability=min(0.9, contention),
    )
    return _Priors(
        load=load,
        two_phase_locking=two_phase_locking,
        timestamp_ordering=timestamp_ordering,
        precedence_agreement=precedence_agreement,
    )
