"""Configuration dataclasses for the simulated distributed database.

The paper (Section 1) lists the system parameters that drive the choice of
concurrency-control algorithm: transaction arrival rate, read/write mix,
transmission delay, transaction size, restart cost and deadlock-detection
cost.  Every one of those knobs appears explicitly in the configuration
objects below so that the experiment harness can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.protocol_names import Protocol


@dataclass(frozen=True)
class NetworkConfig:
    """Inter-site message latency model.

    Latency of one message is ``fixed_delay + Exponential(mean=variable_delay)``
    for remote messages, and ``local_delay`` for messages that stay on a site.
    """

    fixed_delay: float = 0.01
    variable_delay: float = 0.01
    local_delay: float = 0.001

    def __post_init__(self) -> None:
        if self.fixed_delay < 0 or self.variable_delay < 0 or self.local_delay < 0:
            raise ConfigurationError("network delays must be non-negative")


@dataclass(frozen=True)
class CommitConfig:
    """Atomic-commit layer selection and tuning.

    Parameters
    ----------
    protocol:
        Name of the commit protocol from the registry in
        :mod:`repro.commit`: ``"one-phase"`` (commit is an implicit,
        zero-cost side effect of the final release — the paper's base
        system and the default), ``"two-phase"`` (presumed-nothing 2PC
        with prepare/vote/decide rounds and participant logging), or one
        of the presumption variants ``"presumed-abort"`` /
        ``"presumed-commit"``, which run the same rounds under a cheaper
        logging/ack matrix.
    prepare_timeout:
        Two-phase family only: how long the coordinator waits for votes
        before unilaterally deciding *abort*.  Bounds the time a
        transaction can stay in the PREPARING state when a participant
        site is down.
    termination_protocol:
        Two-phase family only: when ``True``, a participant blocked
        in-doubt also queries its *peer participants* (cooperative
        termination), so it can decide as soon as any peer knows the
        outcome instead of blocking until its coordinator recovers.
    termination_timeout:
        How long a participant stays silently in doubt before it starts
        its query rounds (coordinator status query, plus peer queries when
        the termination protocol is enabled).
    termination_backoff:
        Multiplier applied to the query interval after every unanswered
        round, bounding the retry traffic of a long coordinator outage.
    checkpoint_interval:
        When set, every site checkpoints its commit log at this simulated
        interval and truncates the records the protocol no longer needs
        (resolved prepared records, fully-acked or presumable decisions).
        ``None`` (the default) keeps logs append-only, exactly as before
        the truncation machinery existed.
    """

    protocol: str = "one-phase"
    prepare_timeout: float = 1.0
    termination_protocol: bool = False
    termination_timeout: float = 1.0
    termination_backoff: float = 2.0
    checkpoint_interval: Optional[float] = None

    def __post_init__(self) -> None:
        # Imported lazily: repro.commit sits above this module in the layer
        # map, and validating against the live registry (rather than a
        # hardcoded copy of its names) keeps register_commit_protocol a real
        # extension point.
        from repro.commit.base import commit_protocol_names

        names = commit_protocol_names()
        if self.protocol not in names:
            raise ConfigurationError(
                f"unknown commit protocol {self.protocol!r}; "
                f"choose one of {', '.join(names)}"
            )
        if self.prepare_timeout <= 0:
            raise ConfigurationError("the prepare timeout must be positive")
        if self.termination_timeout <= 0:
            raise ConfigurationError("the termination timeout must be positive")
        if self.termination_backoff < 1.0:
            raise ConfigurationError("the termination backoff must be at least 1")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ConfigurationError("the checkpoint interval must be positive (or None)")


@dataclass(frozen=True)
class SiteCrash:
    """One scheduled site failure: ``site`` is down during ``[at, at + duration)``.

    While down, the site's queue managers and commit participant receive no
    messages (in-flight deliveries are dropped) and their volatile state —
    lock tables and data queues — is lost; durable state (the commit log and
    the value store) survives.  The site recovers at ``at + duration``.
    """

    site: int
    at: float
    duration: float

    def __post_init__(self) -> None:
        if self.site < 0:
            raise ConfigurationError("a crash needs a non-negative site id")
        if self.at < 0:
            raise ConfigurationError("a crash cannot be scheduled in the past")
        if self.duration <= 0:
            raise ConfigurationError("a crash must have a positive duration")


@dataclass(frozen=True)
class CoordinatorCrash:
    """One scheduled coordinator failure: the transaction-manager process of
    ``site`` is down during ``[at, at + duration)``.

    A coordinator crash is a *process* failure, independent of the site's
    data layer: the queue managers and commit participant stay up, but the
    request issuer loses its volatile commit-round state, every message
    addressed to it is dropped, and new arrivals at the site wait for the
    restart.  On recovery the coordinator walks its durable decision log and
    re-drives every transaction it finds in doubt.
    """

    site: int
    at: float
    duration: float

    def __post_init__(self) -> None:
        if self.site < 0:
            raise ConfigurationError("a coordinator crash needs a non-negative site id")
        if self.at < 0:
            raise ConfigurationError("a coordinator crash cannot be scheduled in the past")
        if self.duration <= 0:
            raise ConfigurationError("a coordinator crash must have a positive duration")


@dataclass(frozen=True)
class DelaySpike:
    """A transient message-delay spike on the inter-site links.

    During ``[at, at + duration)`` every remote message matching the spike
    pays ``multiplier`` times its sampled latency.  ``site=None`` hits every
    remote link; a concrete site hits only links with that site as sender or
    receiver (a congested or degraded access link).
    """

    at: float
    duration: float
    multiplier: float
    site: Optional[int] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("a delay spike cannot start in the past")
        if self.duration <= 0:
            raise ConfigurationError("a delay spike must have a positive duration")
        if self.multiplier < 1.0:
            raise ConfigurationError("a delay-spike multiplier must be at least 1")
        if self.site is not None and self.site < 0:
            raise ConfigurationError("a delay-spike site id must be non-negative")


@dataclass(frozen=True)
class FaultConfig:
    """Site-failure and link-degradation model for one run.

    The fault timeline is fully determined by this configuration and the
    system seed, so faulty runs stay deterministic and replayable.

    Parameters
    ----------
    crashes:
        Scheduled :class:`SiteCrash` windows.
    crash_rate:
        Rate (crashes per simulated time unit, per site) of additional
        stochastic crashes; ``0`` disables them.
    mean_repair_time:
        Mean (exponential) downtime of a stochastic crash.
    horizon:
        Simulated time up to which stochastic crashes are generated.
        Required (positive) when ``crash_rate > 0``.
    spikes:
        Scheduled :class:`DelaySpike` windows on the remote links.
    request_timeout:
        Coordinator-side watchdog: an attempt still waiting for grants
        after this long is aborted and restarted.  Without it, a request
        dropped at a crashed site would block its transaction forever.
    coordinator_crashes:
        Scheduled :class:`CoordinatorCrash` windows (transaction-manager
        process failures, independent of the site's data layer).
    coordinator_crash_rate:
        Rate of additional stochastic coordinator crashes per site; drawn
        from their own named RNG streams so enabling them never perturbs
        the site-crash timeline.  ``0`` disables them.
    coordinator_mean_repair_time:
        Mean (exponential) downtime of a stochastic coordinator crash.
    """

    crashes: Tuple[SiteCrash, ...] = ()
    crash_rate: float = 0.0
    mean_repair_time: float = 0.5
    horizon: float = 0.0
    spikes: Tuple[DelaySpike, ...] = ()
    request_timeout: float = 5.0
    coordinator_crashes: Tuple[CoordinatorCrash, ...] = ()
    coordinator_crash_rate: float = 0.0
    coordinator_mean_repair_time: float = 0.5

    def __post_init__(self) -> None:
        if self.crash_rate < 0:
            raise ConfigurationError("the stochastic crash rate must be non-negative")
        if self.mean_repair_time <= 0:
            raise ConfigurationError("the mean repair time must be positive")
        if self.crash_rate > 0 and self.horizon <= 0:
            raise ConfigurationError("stochastic crashes need a positive horizon")
        if self.request_timeout <= 0:
            raise ConfigurationError("the request timeout must be positive")
        if self.coordinator_crash_rate < 0:
            raise ConfigurationError(
                "the stochastic coordinator crash rate must be non-negative"
            )
        if self.coordinator_mean_repair_time <= 0:
            raise ConfigurationError("the coordinator mean repair time must be positive")
        if self.coordinator_crash_rate > 0 and self.horizon <= 0:
            raise ConfigurationError("stochastic coordinator crashes need a positive horizon")

    def has_coordinator_faults(self) -> bool:
        """Whether any coordinator downtime can occur under this configuration."""
        return bool(self.coordinator_crashes) or self.coordinator_crash_rate > 0


@dataclass(frozen=True)
class ProtocolMix:
    """Static assignment of protocols to transactions by probability.

    When the dynamic selector is disabled, each arriving transaction draws its
    protocol from this distribution.  A pure-2PL system is
    ``ProtocolMix.pure(Protocol.TWO_PHASE_LOCKING)``.
    """

    weights: Mapping[Protocol, float] = field(
        default_factory=lambda: {Protocol.TWO_PHASE_LOCKING: 1.0}
    )

    def __post_init__(self) -> None:
        total = sum(self.weights.values())
        if total <= 0:
            raise ConfigurationError("protocol mix weights must sum to a positive value")
        if any(weight < 0 for weight in self.weights.values()):
            raise ConfigurationError("protocol mix weights must be non-negative")

    @classmethod
    def pure(cls, protocol: Protocol) -> "ProtocolMix":
        """A mix in which every transaction uses ``protocol``."""
        return cls({Protocol.from_name(protocol): 1.0})

    @classmethod
    def uniform(cls) -> "ProtocolMix":
        """Equal thirds of 2PL, T/O and PA transactions."""
        return cls({protocol: 1.0 for protocol in Protocol})

    def normalized(self) -> Dict[Protocol, float]:
        """Weights rescaled to sum to one."""
        total = sum(self.weights.values())
        return {protocol: weight / total for protocol, weight in self.weights.items()}

    def sampler(self) -> Callable[[float], Protocol]:
        """Map uniform(0, 1) draws onto protocols according to the weights.

        The returned function holds the cumulative table, built once for
        many draws.  A draw maps to the first protocol whose running sum of normalised
        weights (added in mix order) reaches it; a draw above the last sum,
        which rounding can leave just below one, maps to the last protocol.
        """
        table = []
        cumulative = 0.0
        for protocol, weight in self.normalized().items():
            cumulative += weight
            table.append((cumulative, protocol))
        last = table[-1][1]

        def sample(uniform_draw: float) -> Protocol:
            for bound, protocol in table:
                if uniform_draw <= bound:
                    return protocol
            return last

        return sample


@dataclass(frozen=True)
class SystemConfig:
    """Static description of the simulated distributed database.

    Parameters
    ----------
    num_sites:
        Number of computer sites; each hosts a request issuer and the queue
        managers for the physical copies stored there.
    num_items:
        Number of logical data items in the database.
    replication_factor:
        Number of physical copies per logical item (read-one / write-all).
    network:
        Message latency model.
    io_time:
        Simulated time to implement one physical operation once its lock is
        granted (models the disk/CPU cost at the data site).
    deadlock_detection_period:
        Interval between global wait-for-graph scans.  The paper treats
        detection time/cost as a system parameter; smaller periods find
        deadlocks sooner but cost more messages.
    deadlock_detection_message_cost:
        Number of bookkeeping messages charged per detector scan per site.
    restart_delay:
        Back-off delay before an aborted transaction (T/O reject or deadlock
        victim) is resubmitted — the paper's "cost of restarts" knob.
    pa_backoff_interval:
        The PA back-off quantum ``INT_i``; the replacement timestamp is the
        smallest ``TS + k * INT`` acceptable to the queue manager.
    semi_locks_enabled:
        When ``False`` the unified enforcement falls back to the naive
        "lock everything" rule discussed in Section 4.2 (the E6 ablation).
    timestamp_wait_enabled:
        When ``True`` T/O uses the unified queue (waiting in precedence order);
        the reject-and-restart rule of Basic T/O is always applied to requests
        that arrive behind an already-granted conflicting request.
    protocol_switch_threshold:
        The paper's future-work item 4 ("allowing transactions to change their
        concurrency control methods"): when set, a transaction that has been
        aborted this many times (T/O rejections or deadlock victimisations)
        switches to PA for its next attempt, which cannot be rejected or
        deadlocked and therefore bounds starvation.  ``None`` disables the
        feature (the paper's base system).
    commit:
        The atomic-commit layer (:class:`CommitConfig`).  The default
        ``one-phase`` layer reproduces the paper's implicit commit
        bit-identically; ``two-phase`` runs presumed-nothing 2PC.
    faults:
        Optional :class:`FaultConfig` site-failure model.  ``None`` (the
        default) keeps every site up forever, exactly as before the fault
        model existed.
    audit:
        Audit-pipeline mode.  ``"batch"`` (the default) retains the full
        execution log and runs the post-hoc oracle, bit-identically to
        every configuration predating the field.  ``"streaming"`` audits
        online: the incremental serializability checker retires committed
        transactions from a bounded execution log as the run progresses,
        replica convergence is tracked from per-copy running digests, and
        the metrics collector folds outcomes into per-window accumulators
        instead of retaining them — same verdicts, memory proportional to
        the live transaction window instead of the run length.
    """

    num_sites: int = 4
    num_items: int = 64
    replication_factor: int = 1
    network: NetworkConfig = field(default_factory=NetworkConfig)
    io_time: float = 0.005
    deadlock_detection_period: float = 0.5
    deadlock_detection_message_cost: int = 2
    restart_delay: float = 0.05
    pa_backoff_interval: float = 1.0
    semi_locks_enabled: bool = True
    timestamp_wait_enabled: bool = True
    protocol_switch_threshold: Optional[int] = None
    commit: CommitConfig = field(default_factory=CommitConfig)
    faults: Optional[FaultConfig] = None
    audit: str = "batch"
    seed: int = 0

    #: Valid values of ``audit``.
    AUDIT_MODES = ("batch", "streaming")

    def __post_init__(self) -> None:
        if self.audit not in self.AUDIT_MODES:
            raise ConfigurationError(
                f"unknown audit mode {self.audit!r}; "
                f"choose one of {', '.join(self.AUDIT_MODES)}"
            )
        if self.num_sites < 1:
            raise ConfigurationError("at least one site is required")
        if self.num_items < 1:
            raise ConfigurationError("at least one data item is required")
        if not 1 <= self.replication_factor <= self.num_sites:
            raise ConfigurationError(
                "replication factor must be between 1 and the number of sites"
            )
        if self.io_time < 0 or self.restart_delay < 0:
            raise ConfigurationError("service times must be non-negative")
        if self.deadlock_detection_period <= 0:
            raise ConfigurationError("deadlock detection period must be positive")
        if self.pa_backoff_interval <= 0:
            raise ConfigurationError("PA back-off interval must be positive")
        if self.protocol_switch_threshold is not None and self.protocol_switch_threshold < 1:
            raise ConfigurationError("protocol switch threshold must be at least 1 (or None)")
        if self.faults is not None:
            for crash in self.faults.crashes:
                if crash.site >= self.num_sites:
                    raise ConfigurationError(
                        f"crash schedules site {crash.site}, "
                        f"but only {self.num_sites} sites exist"
                    )
            for spike in self.faults.spikes:
                if spike.site is not None and spike.site >= self.num_sites:
                    raise ConfigurationError(
                        f"delay spike targets site {spike.site}, "
                        f"but only {self.num_sites} sites exist"
                    )
            for crash in self.faults.coordinator_crashes:
                if crash.site >= self.num_sites:
                    raise ConfigurationError(
                        f"coordinator crash schedules site {crash.site}, "
                        f"but only {self.num_sites} sites exist"
                    )

    def with_overrides(self, **changes: object) -> "SystemConfig":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class DriftSegment:
    """One control point of a drifting workload regime (see :class:`DriftConfig`).

    ``at`` positions the segment as a fraction of the transaction stream in
    ``[0, 1)``: with ``N`` transactions the segment takes effect at arrival
    index ``ceil(at * N)``.  Every other field is optional; a ``None`` field
    inherits the base :class:`WorkloadConfig` value, so a segment only names
    the knobs it moves.  ``hotspot_center`` places the centre of the (moving)
    hot region as a fraction of the item space — the knob behind hot-spot
    migration.
    """

    at: float
    arrival_rate: Optional[float] = None
    read_fraction: Optional[float] = None
    hotspot_probability: Optional[float] = None
    hotspot_fraction: Optional[float] = None
    hotspot_center: Optional[float] = None

    #: Names of the driftable scalar knobs, in interpolation order.
    FIELDS = (
        "arrival_rate",
        "read_fraction",
        "hotspot_probability",
        "hotspot_fraction",
        "hotspot_center",
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.at < 1.0:
            raise ConfigurationError("a drift segment must start within [0, 1)")
        if self.arrival_rate is not None and self.arrival_rate <= 0:
            raise ConfigurationError("a drifted arrival rate must be positive")
        if self.read_fraction is not None and not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("a drifted read fraction must be within [0, 1]")
        if self.hotspot_probability is not None and not 0.0 <= self.hotspot_probability <= 1.0:
            raise ConfigurationError("a drifted hotspot probability must be within [0, 1]")
        if self.hotspot_fraction is not None and not 0.0 < self.hotspot_fraction <= 1.0:
            raise ConfigurationError("a drifted hotspot fraction must be within (0, 1]")
        if self.hotspot_center is not None and not 0.0 <= self.hotspot_center <= 1.0:
            raise ConfigurationError("a drifted hotspot center must be within [0, 1]")


@dataclass(frozen=True)
class DriftConfig:
    """Schedule of workload-regime changes over the transaction stream.

    ``segments`` are :class:`DriftSegment` control points ordered by strictly
    increasing ``at``.  In ``"piecewise"`` mode each knob jumps to a segment's
    value at its start and holds it until the next segment that names the
    knob.  In ``"smooth"`` mode each named knob ramps linearly from the base
    workload value **at the start of the stream** to the first control point
    that names it, then between consecutive control points — so a smooth
    schedule is already moving before ``segments[0].at``; to hold the base
    value over a prefix, make the first control point restate it (as the
    ``load-ramp`` scenario does).

    The schedule composes with every access pattern and arrival process: a
    drifting hot spot overlays the base pattern
    (:class:`repro.workload.drift.MigratingHotspotOverlay`), while arrival
    rate and read fraction act on the generator directly.
    """

    segments: Tuple[DriftSegment, ...]
    mode: str = "piecewise"

    #: Valid values of ``mode``.
    MODES = ("piecewise", "smooth")

    def __post_init__(self) -> None:
        if self.mode not in self.MODES:
            raise ConfigurationError(
                f"unknown drift mode {self.mode!r}; choose one of {', '.join(self.MODES)}"
            )
        if not self.segments:
            raise ConfigurationError("a drift schedule needs at least one segment")
        positions = [segment.at for segment in self.segments]
        if positions != sorted(positions) or len(set(positions)) != len(positions):
            raise ConfigurationError("drift segments must have strictly increasing `at`")

    def drifts_arrival_rate(self) -> bool:
        """Whether any segment moves the arrival rate (needs Poisson arrivals)."""
        return any(segment.arrival_rate is not None for segment in self.segments)

    def drifts_hotspot(self) -> bool:
        """Whether any segment moves a hot-spot knob (enables the overlay pattern)."""
        return any(
            segment.hotspot_probability is not None
            or segment.hotspot_fraction is not None
            or segment.hotspot_center is not None
            for segment in self.segments
        )


@dataclass(frozen=True)
class WorkloadConfig:
    """Open-arrival workload description.

    Parameters
    ----------
    arrival_rate:
        The paper's ``lambda``: system-wide transaction arrival rate
        (transactions per simulated time unit), split evenly across sites.
    num_transactions:
        Number of transactions to generate for the run.
    min_size / max_size:
        Transaction size (number of distinct logical items accessed) is drawn
        uniformly from this inclusive range — the paper's ``st`` parameter.
    read_fraction:
        The paper's ``Q_r``: fraction of accesses that are reads.
    compute_time:
        Mean of the exponential local-computation time.
    hotspot_fraction / hotspot_probability:
        When ``hotspot_probability > 0`` each access falls inside the first
        ``hotspot_fraction`` of the database with that probability, producing
        contention skew; otherwise accesses are uniform.
    access_pattern:
        Which access-shape strategy draws the items a transaction touches:
        ``"uniform"``, ``"hotspot"``, ``"zipfian"`` or ``"site-skewed"``
        (see :mod:`repro.workload.access_patterns`).  The default
        ``"uniform"`` keeps the legacy shortcut: a positive
        ``hotspot_probability`` still selects the hot-spot pattern, so
        pre-existing configurations reproduce bit-identical streams.
    zipf_theta:
        Skew exponent of the Zipfian pattern (larger = more skewed).
    site_locality:
        For the site-skewed pattern: probability that an access falls inside
        the contiguous item partition owned by the issuing site.
    arrival_process:
        ``"poisson"`` (the paper's open arrivals) or ``"bursty"``, a
        two-state Markov-modulated Poisson process whose long-run rate still
        equals ``arrival_rate``.
    burst_multiplier / burst_fraction / burst_duration:
        Bursty-arrival shape: during a burst the instantaneous rate is
        ``burst_multiplier`` times the calm rate; bursts cover
        ``burst_fraction`` of simulated time and last ``burst_duration``
        time units on average.
    size_distribution:
        ``"uniform"`` draws the size from ``[min_size, max_size]``;
        ``"bimodal"`` draws exactly ``min_size`` (short) or ``max_size``
        (long), modelling point-update vs. scan workloads.
    bimodal_long_fraction:
        Probability of the long mode under the bimodal size distribution.
    protocol_mix:
        Static protocol assignment (ignored when the dynamic selector is on).
    drift:
        Optional :class:`DriftConfig` regime schedule.  ``None`` (the
        default) keeps the workload stationary and generates bit-identical
        streams to configurations predating the field; a schedule makes
        arrival rate, read/write mix and the hot region drift over the
        transaction stream (piecewise or smoothly).
    """

    arrival_rate: float = 10.0
    num_transactions: int = 500
    min_size: int = 2
    max_size: int = 8
    read_fraction: float = 0.7
    compute_time: float = 0.005
    hotspot_fraction: float = 0.1
    hotspot_probability: float = 0.0
    access_pattern: str = "uniform"
    zipf_theta: float = 0.8
    site_locality: float = 0.85
    arrival_process: str = "poisson"
    burst_multiplier: float = 8.0
    burst_fraction: float = 0.15
    burst_duration: float = 0.5
    size_distribution: str = "uniform"
    bimodal_long_fraction: float = 0.1
    protocol_mix: ProtocolMix = field(default_factory=ProtocolMix.uniform)
    drift: Optional[DriftConfig] = None
    seed: int = 1

    #: Valid values for the shape-selection fields.
    ACCESS_PATTERNS = ("uniform", "hotspot", "zipfian", "site-skewed")
    ARRIVAL_PROCESSES = ("poisson", "bursty")
    SIZE_DISTRIBUTIONS = ("uniform", "bimodal")

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival rate must be positive")
        if self.num_transactions < 1:
            raise ConfigurationError("at least one transaction is required")
        if not 1 <= self.min_size <= self.max_size:
            raise ConfigurationError("transaction size range is invalid")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read fraction must be within [0, 1]")
        if self.compute_time < 0:
            raise ConfigurationError("compute time must be non-negative")
        if not 0.0 < self.hotspot_fraction <= 1.0:
            raise ConfigurationError("hotspot fraction must be within (0, 1]")
        if not 0.0 <= self.hotspot_probability <= 1.0:
            raise ConfigurationError("hotspot probability must be within [0, 1]")
        if self.access_pattern not in self.ACCESS_PATTERNS:
            raise ConfigurationError(
                f"unknown access pattern {self.access_pattern!r}; "
                f"choose one of {', '.join(self.ACCESS_PATTERNS)}"
            )
        if self.access_pattern == "hotspot" and self.hotspot_probability <= 0.0:
            raise ConfigurationError(
                "the hotspot access pattern needs hotspot_probability > 0 "
                "(with the CLI, pass --hotspot)"
            )
        if self.zipf_theta <= 0:
            raise ConfigurationError("zipf theta must be positive")
        if not 0.0 <= self.site_locality <= 1.0:
            raise ConfigurationError("site locality must be within [0, 1]")
        if self.arrival_process not in self.ARRIVAL_PROCESSES:
            raise ConfigurationError(
                f"unknown arrival process {self.arrival_process!r}; "
                f"choose one of {', '.join(self.ARRIVAL_PROCESSES)}"
            )
        if self.burst_multiplier < 1.0:
            raise ConfigurationError("burst multiplier must be at least 1")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ConfigurationError("burst fraction must be within (0, 1)")
        if self.burst_duration <= 0:
            raise ConfigurationError("burst duration must be positive")
        if self.size_distribution not in self.SIZE_DISTRIBUTIONS:
            raise ConfigurationError(
                f"unknown size distribution {self.size_distribution!r}; "
                f"choose one of {', '.join(self.SIZE_DISTRIBUTIONS)}"
            )
        if not 0.0 <= self.bimodal_long_fraction <= 1.0:
            raise ConfigurationError("bimodal long fraction must be within [0, 1]")
        if self.drift is not None:
            if self.drift.drifts_arrival_rate() and self.arrival_process != "poisson":
                raise ConfigurationError(
                    "an arrival-rate drift schedule requires the poisson arrival process"
                )
            # Segment k takes effect at the first arrival index i with
            # i / num_transactions >= at; a segment no index reaches would
            # silently never fire (and never record a drift boundary), so
            # reject it loudly instead.
            last = self.drift.segments[-1]
            if last.at * self.num_transactions > self.num_transactions - 1:
                raise ConfigurationError(
                    f"drift segment at={last.at} never takes effect with "
                    f"{self.num_transactions} transactions"
                )

    def with_overrides(self, **changes: object) -> "WorkloadConfig":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)

    @property
    def mean_size(self) -> float:
        """Expected number of items accessed per transaction (the paper's ``K``)."""
        return (self.min_size + self.max_size) / 2.0
