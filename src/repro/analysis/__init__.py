"""Experiment harness: parameter sweeps, replication, result-table rendering.

Each experiment of DESIGN.md's index (E1-E9) has a function here that runs
the corresponding sweep and returns plain rows (lists of dictionaries); the
benchmark scripts under ``benchmarks/`` call these functions with small
parameter grids and store the rendered tables under ``benchmarks/results/``
for comparison against the paper's claims (see DESIGN.md).

:mod:`repro.analysis.replications` additionally hosts the parallel
replication engine: every simulation-backed experiment takes a ``jobs``
argument that fans its runs across worker processes with bit-identical,
seed-ordered results.
"""

from repro._exports import lazy_exports

__all__ = [
    "ReplicatedResult",
    "SimulationTask",
    "correctness_audit",
    "drift_adaptation_experiment",
    "dynamic_vs_static",
    "format_table",
    "protocol_switching_ablation",
    "rows_to_table",
    "run_replicated",
    "run_tasks",
    "semilock_ablation",
    "single_item_write_experiment",
    "stl_cost_experiment",
    "sweep_arrival_rate",
    "sweep_transaction_size",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.experiments": (
            "correctness_audit",
            "drift_adaptation_experiment",
            "dynamic_vs_static",
            "protocol_switching_ablation",
            "semilock_ablation",
            "single_item_write_experiment",
            "stl_cost_experiment",
            "sweep_arrival_rate",
            "sweep_transaction_size",
        ),
        "repro.analysis.replications": (
            "ReplicatedResult",
            "SimulationTask",
                    "run_replicated",
            "run_tasks",
        ),
        "repro.analysis.tables": ("format_table", "rows_to_table"),
    },
)
