"""Transaction stream generation: arrival processes and shape sampling."""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence

from repro.common.config import SystemConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.common.ids import ItemId, TransactionId
from repro.common.protocol_names import Protocol
from repro.common.transactions import TransactionSpec
from repro.sim.rng import RandomStreams
from repro.workload.access_patterns import AccessPattern, build_access_pattern

if TYPE_CHECKING:  # pragma: no cover - typing only; imported by a drifting run
    from repro.workload.drift import MigratingHotspotOverlay, RegimeShape


class ArrivalProcess(abc.ABC):
    """Strategy producing successive inter-arrival times.

    A process may carry state (e.g. the burst phase), so one instance drives
    exactly one pass over a workload; :class:`TransactionGenerator` builds a
    fresh instance per iteration.  All randomness flows through the caller's
    stream, keeping runs deterministic under a fixed seed.
    """

    @abc.abstractmethod
    def next_interarrival(self, rng: random.Random) -> float:
        """Time until the next arrival."""


class PoissonArrivalProcess(ArrivalProcess):
    """The paper's open arrivals: exponential inter-arrival times at rate ``lambda``."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ConfigurationError("arrival rate must be positive")
        self._rate = rate

    def next_interarrival(self, rng: random.Random) -> float:
        """An exponential inter-arrival gap at the configured rate."""
        return rng.expovariate(self._rate)


class BurstyArrivalProcess(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (calm / burst).

    The process alternates between a *calm* state with rate ``r`` and a
    *burst* state with rate ``multiplier * r``; sojourn times are exponential
    with mean ``burst_duration`` in the burst state and whatever calm-state
    mean makes bursts cover ``burst_fraction`` of the timeline.  ``r`` is
    chosen so the long-run average rate equals the configured
    ``arrival_rate`` — a bursty workload stresses queueing behaviour without
    changing the mean load, which Poisson sweeps cannot do.
    """

    def __init__(
        self,
        rate: float,
        *,
        multiplier: float = 8.0,
        burst_fraction: float = 0.15,
        burst_duration: float = 0.5,
    ) -> None:
        if rate <= 0:
            raise ConfigurationError("arrival rate must be positive")
        if multiplier < 1.0:
            raise ConfigurationError("burst multiplier must be at least 1")
        if not 0.0 < burst_fraction < 1.0:
            raise ConfigurationError("burst fraction must be within (0, 1)")
        if burst_duration <= 0:
            raise ConfigurationError("burst duration must be positive")
        calm_rate = rate / (1.0 - burst_fraction + burst_fraction * multiplier)
        self._rates = {"calm": calm_rate, "burst": calm_rate * multiplier}
        self._mean_sojourn = {
            "burst": burst_duration,
            "calm": burst_duration * (1.0 - burst_fraction) / burst_fraction,
        }
        self._state = "calm"
        self._remaining: Optional[float] = None

    def next_interarrival(self, rng: random.Random) -> float:
        """The gap to the next arrival, advancing burst phases as needed."""
        if self._remaining is None:
            self._remaining = rng.expovariate(1.0 / self._mean_sojourn[self._state])
        elapsed = 0.0
        while True:
            gap = rng.expovariate(self._rates[self._state])
            if gap <= self._remaining:
                self._remaining -= gap
                return elapsed + gap
            # No arrival before the phase flips: advance to the switch point
            # and continue drawing at the other state's rate.
            elapsed += self._remaining
            self._state = "burst" if self._state == "calm" else "calm"
            self._remaining = rng.expovariate(1.0 / self._mean_sojourn[self._state])


def build_arrival_process(workload: WorkloadConfig) -> ArrivalProcess:
    """A fresh arrival process realising ``workload.arrival_process``."""
    if workload.arrival_process == "bursty":
        return BurstyArrivalProcess(
            workload.arrival_rate,
            multiplier=workload.burst_multiplier,
            burst_fraction=workload.burst_fraction,
            burst_duration=workload.burst_duration,
        )
    return PoissonArrivalProcess(workload.arrival_rate)


class TransactionGenerator:
    """Generates a deterministic stream of transaction specifications.

    Arrivals follow the configured arrival process (Poisson by default,
    averaging the total rate ``arrival_rate``); each arrival is assigned
    uniformly to a site (so each site sees rate ``lambda / num_sites``),
    draws its size from the configured size distribution, picks its items
    through the configured access pattern, marks each accessed item as read
    or written according to ``read_fraction``, and draws an exponential
    local compute time.  When a static protocol mix is in force the protocol
    is also drawn here; in dynamic-selection runs ``assign_protocols=False``
    leaves it to the per-site selector.
    """

    def __init__(
        self,
        system: SystemConfig,
        workload: WorkloadConfig,
        *,
        assign_protocols: bool = True,
        access_pattern: Optional[AccessPattern] = None,
    ) -> None:
        self._system = system
        self._workload = workload
        self._assign_protocols = assign_protocols
        self._streams = RandomStreams(workload.seed)
        if access_pattern is not None:
            self._access_pattern = access_pattern
        else:
            self._access_pattern = build_access_pattern(system, workload)
        self._sequence_by_site = {site: 0 for site in range(system.num_sites)}
        self._drift_boundaries: List[float] = []
        self._sample_protocol = workload.protocol_mix.sampler()

    def drift_boundaries(self) -> "tuple[float, ...]":
        """Arrival times at which drift segments took effect, in schedule order.

        Populated during iteration of a drifting workload (empty for a
        stationary one, or before :meth:`generate` has run); the last entry
        is the time from which the final regime holds — the boundary the
        post-drift metrics of E9 cut on.
        """
        return tuple(self._drift_boundaries)

    def generate(self) -> List[TransactionSpec]:
        """The full list of transaction specs for the run, in arrival order."""
        return list(self.iter_transactions())

    def iter_transactions(self) -> Iterator[TransactionSpec]:
        """Yield the transaction stream in arrival order (drifting or stationary)."""
        if self._workload.drift is not None:
            yield from self._iter_drifting()
            return
        arrival_stream = self._streams.stream("arrivals")
        shape_stream = self._streams.stream("shapes")
        site_stream = self._streams.stream("sites")
        protocol_stream = self._streams.stream("protocols")
        arrivals = build_arrival_process(self._workload)
        clock = 0.0
        for _ in range(self._workload.num_transactions):
            clock += arrivals.next_interarrival(arrival_stream)
            site = site_stream.randrange(self._system.num_sites)
            yield self._make_transaction(clock, site, shape_stream, protocol_stream)

    def _iter_drifting(self) -> Iterator[TransactionSpec]:
        """The drifting-regime stream: per-arrival knobs from the schedule.

        Stream position ``u = index / num_transactions`` drives the
        :class:`~repro.workload.drift.DriftResolver`; a drifted arrival rate
        replaces the interarrival draw (Poisson only, enforced by the
        config), a drifted hot spot overlays the base access pattern, and a
        drifted read fraction re-weights the read/write split.  All draws go
        through the same named streams as the stationary path.
        """
        from repro.workload.drift import DriftResolver, MigratingHotspotOverlay

        workload = self._workload
        assert workload.drift is not None
        arrival_stream = self._streams.stream("arrivals")
        shape_stream = self._streams.stream("shapes")
        site_stream = self._streams.stream("sites")
        protocol_stream = self._streams.stream("protocols")
        resolver = DriftResolver(workload)
        overlay: Optional[MigratingHotspotOverlay] = None
        if workload.drift.drifts_hotspot():
            # The overlay *replaces* the legacy hot-spot mechanism: its track
            # is anchored at the base hotspot knobs, so cold draws must
            # delegate to the un-skewed base pattern or the hot probability
            # would be applied twice (once by the overlay, once by a
            # HotspotAccessPattern underneath).
            unskewed = workload.with_overrides(
                hotspot_probability=0.0,
                access_pattern=(
                    "uniform"
                    if workload.access_pattern in ("uniform", "hotspot")
                    else workload.access_pattern
                ),
            )
            base_pattern = build_access_pattern(self._system, unskewed)
            overlay = MigratingHotspotOverlay(base_pattern, self._system.num_items)
        arrivals: Optional[ArrivalProcess] = None
        if not workload.drift.drifts_arrival_rate():
            arrivals = build_arrival_process(workload)
        segments = workload.drift.segments
        self._drift_boundaries = []
        reached = 0
        clock = 0.0
        total = workload.num_transactions
        for index in range(total):
            u = index / total
            shape = resolver.resolve(u)
            if arrivals is not None:
                clock += arrivals.next_interarrival(arrival_stream)
            else:
                clock += arrival_stream.expovariate(shape.arrival_rate)
            while reached < len(segments) and u >= segments[reached].at:
                self._drift_boundaries.append(clock)
                reached += 1
            site = site_stream.randrange(self._system.num_sites)
            yield self._make_transaction(
                clock, site, shape_stream, protocol_stream, shape=shape, overlay=overlay
            )

    def _make_transaction(
        self,
        arrival_time: float,
        site: int,
        shape_stream: random.Random,
        protocol_stream: random.Random,
        *,
        shape: Optional[RegimeShape] = None,
        overlay: Optional[MigratingHotspotOverlay] = None,
    ) -> TransactionSpec:
        self._sequence_by_site[site] += 1
        tid = TransactionId(site=site, seq=self._sequence_by_site[site])
        size = self._draw_size(shape_stream)
        if overlay is not None and shape is not None:
            overlay.set_regime(shape)
            items = overlay.draw(shape_stream, size, site=site)
        else:
            items = self._access_pattern.draw(shape_stream, size, site=site)
        read_fraction = shape.read_fraction if shape is not None else None
        reads, writes = self._split_reads_writes(items, shape_stream, read_fraction)
        compute_time = (
            shape_stream.expovariate(1.0 / self._workload.compute_time)
            if self._workload.compute_time > 0
            else 0.0
        )
        protocol: Optional[Protocol] = None
        if self._assign_protocols:
            protocol = self._sample_protocol(protocol_stream.random())
        return TransactionSpec(
            tid=tid,
            read_items=tuple(reads),
            write_items=tuple(writes),
            compute_time=compute_time,
            protocol=protocol,
            arrival_time=arrival_time,
        )

    def _draw_size(self, shape_stream: random.Random) -> int:
        """Transaction size under the configured distribution."""
        workload = self._workload
        if workload.size_distribution == "bimodal":
            if shape_stream.random() < workload.bimodal_long_fraction:
                return workload.max_size
            return workload.min_size
        return shape_stream.randint(workload.min_size, workload.max_size)

    def _split_reads_writes(
        self,
        items: Sequence[ItemId],
        stream: random.Random,
        read_fraction: Optional[float] = None,
    ) -> "tuple[List[ItemId], List[ItemId]]":
        """Mark each accessed item read or written according to the read fraction.

        ``read_fraction`` overrides the configured fraction (the drifting
        path passes the regime's effective value).  A transaction that would
        end up with no operations at all (impossible here since every item
        is either read or written) is avoided by construction; a transaction
        may legitimately be read-only or write-only.
        """
        if read_fraction is None:
            read_fraction = self._workload.read_fraction
        reads: List[ItemId] = []
        writes: List[ItemId] = []
        for item in items:
            if stream.random() < read_fraction:
                reads.append(item)
            else:
                writes.append(item)
        if not reads and not writes:  # pragma: no cover - defensive, cannot happen
            writes.append(items[0])
        return reads, writes


def generate_workload(
    system: SystemConfig,
    workload: WorkloadConfig,
    *,
    assign_protocols: bool = True,
) -> List[TransactionSpec]:
    """Convenience wrapper: build a generator and return the full transaction list."""
    generator = TransactionGenerator(system, workload, assign_protocols=assign_protocols)
    return generator.generate()
