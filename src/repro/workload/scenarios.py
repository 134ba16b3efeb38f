"""Named end-to-end workload scenarios.

A :class:`Scenario` bundles a system configuration, a workload configuration
and a protocol-selection mode into one named, runnable profile.  The registry
is the single source of truth for the CLI (``python -m repro.cli scenario``),
the scenario benchmarks and the tests; DESIGN.md documents how the scenarios
relate to the experiment index.

Scenarios deliberately realise *structured* pattern sets — Zipfian skew,
bursty (non-Poisson) arrivals, site-local access, bimodal transaction sizes —
rather than one more uniform sweep: small structured workload families expose
protocol behaviour that uniform sampling never reaches (queue build-up during
bursts, cross-site conflicts under locality, scan-vs-point mixes).

Every scenario runs through the ordinary replication engine, so ``--jobs``
parallelism and per-seed determinism apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.common.config import (
    CommitConfig,
    CoordinatorCrash,
    DelaySpike,
    DriftConfig,
    DriftSegment,
    FaultConfig,
    ProtocolMix,
    SiteCrash,
    SystemConfig,
    WorkloadConfig,
)
from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.replications import ReplicatedResult
    from repro.store import ResultStore


@dataclass(frozen=True)
class Scenario:
    """One named, end-to-end workload profile.

    ``protocol`` forces a single static protocol for every transaction;
    ``dynamic_selection`` turns on the STL selector (``selection_mode``
    then picks its estimation mode — cumulative, adaptive or frozen); with
    neither, the workload's protocol mix applies.
    """

    name: str
    description: str
    system: SystemConfig = field(default_factory=SystemConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    protocol: Optional[str] = None
    dynamic_selection: bool = False
    selection_mode: Optional[str] = None

    def __post_init__(self) -> None:
        if self.protocol is not None and self.dynamic_selection:
            raise ConfigurationError(
                "a scenario uses either a fixed protocol or dynamic selection, not both"
            )
        if self.selection_mode is not None and not self.dynamic_selection:
            raise ConfigurationError(
                "a selection mode only makes sense together with dynamic selection"
            )

    def configured(
        self,
        *,
        transactions: Optional[int] = None,
        arrival_rate: Optional[float] = None,
    ) -> "Scenario":
        """A copy with the common size/load overrides applied."""
        overrides: Dict[str, object] = {}
        if transactions is not None:
            overrides["num_transactions"] = transactions
        if arrival_rate is not None:
            overrides["arrival_rate"] = arrival_rate
        if not overrides:
            return self
        return replace(self, workload=self.workload.with_overrides(**overrides))

    def run(
        self,
        *,
        seeds: Sequence[int] = (0, 1, 2),
        jobs: int = 1,
        store: Optional["ResultStore"] = None,
        force: bool = False,
    ) -> "ReplicatedResult":
        """Replicated runs of this scenario, aggregated with confidence intervals.

        Each seed re-seeds both the system and the workload, so the samples
        are independent.  ``jobs`` and ``store``/``force`` apply exactly as
        in :func:`repro.analysis.replications.run_tasks`: the aggregates are
        bit-identical to a serial run, cached replications are reused and
        fresh ones are persisted as they finish.
        """
        # Imported lazily: repro.analysis depends on repro.system which
        # imports this package's generator at load time.
        from repro.analysis.replications import (
            aggregate_replications,
            replication_tasks,
            run_tasks,
        )

        if not seeds:
            raise ValueError("at least one seed is required")
        tasks = replication_tasks(
            self.system,
            self.workload,
            protocol=self.protocol,
            dynamic_selection=self.dynamic_selection,
            selection_mode=self.selection_mode,
            seeds=seeds,
        )
        summaries = run_tasks(tasks, jobs=jobs, store=store, force=force)
        return aggregate_replications(
            self.name, summaries, [task.workload.num_transactions for task in tasks]
        )


_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add ``scenario`` to the registry (names must be unique)."""
    if scenario.name in _REGISTRY:
        raise ConfigurationError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def all_scenarios() -> Tuple[Scenario, ...]:
    """Every registered scenario, in registration order."""
    return tuple(_REGISTRY.values())


def get_scenario(name: str) -> Scenario:
    """The registered scenario called ``name`` (raises for unknown names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ConfigurationError(f"unknown scenario {name!r}; known scenarios: {known}") from None


# --------------------------------------------------------------------------- #
# The built-in scenario suite
# --------------------------------------------------------------------------- #

register_scenario(
    Scenario(
        name="uniform-baseline",
        description="Paper-style uniform access under Poisson arrivals (the control).",
        system=SystemConfig(num_sites=4, num_items=64, seed=11),
        workload=WorkloadConfig(
            arrival_rate=20.0,
            num_transactions=300,
            min_size=2,
            max_size=6,
            read_fraction=0.7,
            seed=13,
        ),
    )
)

register_scenario(
    Scenario(
        name="zipf-hotspot",
        description="Zipfian item skew (theta=0.9): a few hot items absorb most conflicts.",
        system=SystemConfig(num_sites=4, num_items=64, restart_delay=0.02, seed=11),
        workload=WorkloadConfig(
            arrival_rate=30.0,
            num_transactions=300,
            min_size=2,
            max_size=6,
            read_fraction=0.6,
            access_pattern="zipfian",
            zipf_theta=0.9,
            seed=13,
        ),
    )
)

register_scenario(
    Scenario(
        name="read-mostly-analytics",
        description="95% reads with bimodal sizes: long scans among short point reads.",
        system=SystemConfig(num_sites=4, num_items=96, seed=11),
        workload=WorkloadConfig(
            arrival_rate=25.0,
            num_transactions=300,
            min_size=2,
            max_size=12,
            read_fraction=0.95,
            size_distribution="bimodal",
            bimodal_long_fraction=0.2,
            seed=13,
        ),
    )
)

register_scenario(
    Scenario(
        name="bursty-arrivals",
        description="Markov-modulated arrivals: 10x rate bursts at unchanged mean load.",
        system=SystemConfig(num_sites=4, num_items=64, seed=11),
        workload=WorkloadConfig(
            arrival_rate=20.0,
            num_transactions=300,
            min_size=2,
            max_size=6,
            read_fraction=0.7,
            arrival_process="bursty",
            burst_multiplier=10.0,
            burst_fraction=0.1,
            burst_duration=0.5,
            seed=13,
        ),
    )
)

register_scenario(
    Scenario(
        name="site-skewed",
        description="85% site-local access over partitioned items; conflicts cross sites rarely.",
        system=SystemConfig(num_sites=4, num_items=64, seed=11),
        workload=WorkloadConfig(
            arrival_rate=25.0,
            num_transactions=300,
            min_size=2,
            max_size=6,
            read_fraction=0.6,
            access_pattern="site-skewed",
            site_locality=0.85,
            seed=13,
        ),
    )
)

register_scenario(
    Scenario(
        name="hotspot-migration",
        description=(
            "A hot region forms over the first third of the stream, then migrates "
            "across the item space (smooth drift); the mild early prefix misleads "
            "frozen estimates."
        ),
        system=SystemConfig(num_sites=4, num_items=64, restart_delay=0.02, seed=11),
        workload=WorkloadConfig(
            arrival_rate=30.0,
            num_transactions=400,
            min_size=2,
            max_size=6,
            read_fraction=0.8,
            drift=DriftConfig(
                mode="smooth",
                segments=(
                    DriftSegment(
                        at=0.35,
                        hotspot_probability=0.6,
                        hotspot_fraction=0.1,
                        hotspot_center=0.15,
                        read_fraction=0.4,
                    ),
                    DriftSegment(at=0.7, hotspot_center=0.85),
                ),
            ),
            seed=13,
        ),
    )
)

register_scenario(
    Scenario(
        name="mix-flip",
        description=(
            "Read-mostly analytics flips to write-heavy churn mid-run "
            "(piecewise drift of the read/write mix)."
        ),
        system=SystemConfig(num_sites=4, num_items=64, restart_delay=0.02, seed=11),
        workload=WorkloadConfig(
            arrival_rate=30.0,
            num_transactions=400,
            min_size=2,
            max_size=6,
            read_fraction=0.9,
            hotspot_probability=0.4,
            hotspot_fraction=0.1,
            drift=DriftConfig(
                mode="piecewise",
                segments=(DriftSegment(at=0.5, read_fraction=0.2),),
            ),
            seed=13,
        ),
    )
)

register_scenario(
    Scenario(
        name="load-ramp",
        description=(
            "Arrival rate ramps from a light to a saturating load "
            "(smooth drift; Poisson arrivals throughout)."
        ),
        system=SystemConfig(num_sites=4, num_items=64, restart_delay=0.02, seed=11),
        workload=WorkloadConfig(
            arrival_rate=10.0,
            num_transactions=400,
            min_size=2,
            max_size=6,
            read_fraction=0.6,
            drift=DriftConfig(
                mode="smooth",
                segments=(
                    DriftSegment(at=0.2, arrival_rate=10.0),
                    DriftSegment(at=0.8, arrival_rate=60.0),
                ),
            ),
            seed=13,
        ),
    )
)

register_scenario(
    Scenario(
        name="site-blackout",
        description=(
            "One data site goes dark mid-run for 1.5 time units "
            "(two-phase commit over 2x-replicated items rides it out)."
        ),
        system=SystemConfig(
            num_sites=4,
            num_items=48,
            replication_factor=2,
            restart_delay=0.02,
            seed=11,
            commit=CommitConfig(protocol="two-phase", prepare_timeout=0.5),
            faults=FaultConfig(
                crashes=(SiteCrash(site=1, at=1.0, duration=1.5),),
                request_timeout=1.5,
            ),
        ),
        workload=WorkloadConfig(
            arrival_rate=30.0,
            num_transactions=300,
            min_size=2,
            max_size=6,
            read_fraction=0.6,
            seed=13,
        ),
    )
)

register_scenario(
    Scenario(
        name="flaky-links",
        description=(
            "25x delay spikes on the remote links plus one brief site outage: "
            "commit rounds crawl but stay atomic."
        ),
        system=SystemConfig(
            num_sites=4,
            num_items=48,
            replication_factor=2,
            restart_delay=0.02,
            seed=11,
            commit=CommitConfig(protocol="two-phase", prepare_timeout=0.8),
            faults=FaultConfig(
                crashes=(SiteCrash(site=2, at=1.6, duration=0.6),),
                spikes=(
                    DelaySpike(at=0.8, duration=1.0, multiplier=25.0),
                    DelaySpike(at=2.6, duration=0.8, multiplier=25.0, site=2),
                ),
                request_timeout=2.5,
            ),
        ),
        workload=WorkloadConfig(
            arrival_rate=30.0,
            num_transactions=300,
            min_size=2,
            max_size=6,
            read_fraction=0.6,
            seed=13,
        ),
    )
)

register_scenario(
    Scenario(
        name="crash-storm",
        description=(
            "Stochastic crash/recover churn across all sites (plus one scheduled "
            "outage): recovery and in-doubt resolution under repeated failures."
        ),
        system=SystemConfig(
            num_sites=4,
            num_items=48,
            replication_factor=2,
            restart_delay=0.02,
            seed=11,
            commit=CommitConfig(protocol="two-phase", prepare_timeout=0.5),
            faults=FaultConfig(
                crashes=(SiteCrash(site=0, at=0.9, duration=0.5),),
                crash_rate=0.25,
                mean_repair_time=0.4,
                horizon=10.0,
                request_timeout=1.5,
            ),
        ),
        workload=WorkloadConfig(
            arrival_rate=30.0,
            num_transactions=300,
            min_size=2,
            max_size=6,
            read_fraction=0.6,
            seed=13,
        ),
    )
)

register_scenario(
    Scenario(
        name="coordinator-blackout",
        description=(
            "Two staggered data-site outages leave participants in doubt on "
            "decided rounds, then the transaction manager at another site "
            "blacks out for 4.8 time units: the cooperative termination "
            "protocol resolves the blocked participants without their "
            "coordinator."
        ),
        system=SystemConfig(
            num_sites=4,
            num_items=48,
            replication_factor=2,
            restart_delay=0.02,
            seed=11,
            commit=CommitConfig(
                protocol="two-phase",
                prepare_timeout=0.5,
                termination_protocol=True,
                termination_timeout=0.6,
                checkpoint_interval=2.0,
            ),
            faults=FaultConfig(
                crashes=(
                    SiteCrash(site=3, at=0.55, duration=0.75),
                    SiteCrash(site=2, at=0.9, duration=0.5),
                ),
                coordinator_crashes=(
                    CoordinatorCrash(site=1, at=1.2, duration=4.8),
                ),
                request_timeout=1.5,
            ),
        ),
        workload=WorkloadConfig(
            arrival_rate=30.0,
            num_transactions=300,
            min_size=2,
            max_size=6,
            read_fraction=0.6,
            hotspot_probability=0.4,
            hotspot_fraction=0.1,
            seed=13,
        ),
    )
)

register_scenario(
    Scenario(
        name="in-doubt-storm",
        description=(
            "Stochastic transaction-manager churn on top of site crash/repair "
            "cycles: presumed-abort with termination and checkpointing keeps "
            "every round decided and the logs bounded."
        ),
        system=SystemConfig(
            num_sites=4,
            num_items=48,
            replication_factor=2,
            restart_delay=0.02,
            seed=11,
            commit=CommitConfig(
                protocol="presumed-abort",
                prepare_timeout=0.5,
                termination_protocol=True,
                termination_timeout=0.6,
                checkpoint_interval=2.0,
            ),
            faults=FaultConfig(
                crashes=(SiteCrash(site=0, at=0.9, duration=0.5),),
                crash_rate=0.15,
                mean_repair_time=0.4,
                coordinator_crash_rate=0.2,
                coordinator_mean_repair_time=0.8,
                horizon=10.0,
                request_timeout=1.5,
            ),
        ),
        workload=WorkloadConfig(
            arrival_rate=30.0,
            num_transactions=300,
            min_size=2,
            max_size=6,
            read_fraction=0.6,
            seed=13,
        ),
    )
)

register_scenario(
    Scenario(
        name="bimodal-churn",
        description="Write-heavy point updates with occasional long transactions (PA-friendly).",
        system=SystemConfig(num_sites=4, num_items=64, restart_delay=0.02, seed=11),
        workload=WorkloadConfig(
            arrival_rate=40.0,
            num_transactions=300,
            min_size=1,
            max_size=10,
            read_fraction=0.3,
            size_distribution="bimodal",
            bimodal_long_fraction=0.1,
            protocol_mix=ProtocolMix.uniform(),
            seed=13,
        ),
    )
)

#: Drift scenarios E9 runs by default (all registered above).
DRIFT_SCENARIOS = ("hotspot-migration", "mix-flip", "load-ramp")

#: Fault scenarios E10 runs by default (all registered above).
FAULT_SCENARIOS = ("site-blackout", "flaky-links", "crash-storm")

#: Fault scenarios E11 runs by default: a pure data-site outage (the
#: control), the deterministic coordinator blackout, and the stochastic
#: coordinator/site churn storm.
RECOVERY_SCENARIOS = ("site-blackout", "coordinator-blackout", "in-doubt-storm")
