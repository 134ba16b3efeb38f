"""Experiment harness: the experiment registry, replication, result-table rendering.

:mod:`repro.analysis.experiments` holds every experiment of DESIGN.md's
index (E1-E12) as a registry entry; :func:`run_experiment` runs one and
returns plain rows (lists of dictionaries), which the CLI's ``sweep`` and
the parametrised bench under ``benchmarks/`` render as tables.

:mod:`repro.analysis.replications` hosts the parallel replication engine:
every simulation-backed experiment fans its runs across worker processes
with bit-identical, seed-ordered results.
"""

from repro._exports import lazy_exports

__all__ = [
    "Experiment",
    "ReplicatedResult",
    "SimulationTask",
    "all_experiments",
    "format_table",
    "get_experiment",
    "rows_to_table",
    "run_experiment",
    "run_tasks",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.experiments": (
            "Experiment",
            "all_experiments",
            "get_experiment",
            "run_experiment",
        ),
        "repro.analysis.replications": ("ReplicatedResult", "SimulationTask", "run_tasks"),
        "repro.analysis.tables": ("format_table", "rows_to_table"),
    },
)
