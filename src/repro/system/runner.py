"""One-call experiment runner.

``run_simulation`` wraps workload generation, database construction, the
simulation run and the serializability audit into a single function so that
examples, tests and benchmarks all share the same entry point.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.common.config import ProtocolMix, SystemConfig, WorkloadConfig
from repro.common.protocol_names import Protocol
from repro.system.database import DistributedDatabase, RunResult
from repro.workload.generator import TransactionGenerator


def run_simulation(
    system: Optional[SystemConfig] = None,
    workload: Optional[WorkloadConfig] = None,
    *,
    protocol: Optional[Union[str, Protocol]] = None,
    dynamic_selection: bool = False,
    selection_mode: Optional[str] = None,
    max_time: Optional[float] = None,
    max_events: int = 5_000_000,
) -> RunResult:
    """Generate a workload, run it through the simulated database, and audit it.

    Parameters
    ----------
    system, workload:
        Configuration objects; defaults are used when omitted.
    protocol:
        When given, every transaction runs under this single protocol (a
        *static* concurrency-control run); otherwise the workload's protocol
        mix applies.
    dynamic_selection:
        When ``True`` the STL-based selector of Section 5 chooses a protocol
        for every transaction at arrival time (``protocol`` must then be
        ``None``).
    selection_mode:
        Estimation mode of the dynamic selector — ``"cumulative"`` (the
        default), ``"adaptive"`` (sliding-window estimates with exponential
        decay, for drifting workloads) or ``"frozen"`` (estimates pinned
        once the warm-up measurements exist).  Only valid together with ``dynamic_selection``.
    """
    system = system if system is not None else SystemConfig()
    workload = workload if workload is not None else WorkloadConfig()

    if protocol is not None and dynamic_selection:
        raise ValueError("pass either a fixed protocol or dynamic_selection, not both")
    if selection_mode is not None and not dynamic_selection:
        raise ValueError("selection_mode requires dynamic_selection=True")

    if protocol is not None:
        workload = workload.with_overrides(
            protocol_mix=ProtocolMix.pure(Protocol.from_name(protocol))
        )

    chooser = None
    if dynamic_selection:
        # Imported lazily: repro.selection depends on repro.system.metrics and
        # importing it at module load time would create an import cycle.
        from repro.selection.selector import STLProtocolSelector

        selector = STLProtocolSelector.from_configs(
            system, workload, mode=selection_mode or "cumulative"
        )
        chooser = selector.choose

    database = DistributedDatabase(system, choose_protocol=chooser)
    if dynamic_selection and chooser is not None:
        selector.bind_metrics(database.metrics)

    generator = TransactionGenerator(
        system, workload, assign_protocols=not dynamic_selection
    )
    database.load_workload(generator.generate(), workload)
    boundaries = generator.drift_boundaries()
    # Streaming metrics fold outcomes away as they arrive, so the arrival
    # cut the analysis layer asks about (the last drift boundary, or 0.0 for
    # stationary workloads) must be registered before the first commit.
    database.metrics.register_arrival_cut(boundaries[-1] if boundaries else 0.0)
    result = database.run(max_time=max_time, max_events=max_events)
    result.drift_boundaries = boundaries
    return result
