"""E1-E12 — every experiment of the registry, at its bench size.

One parametrised benchmark per registry entry
(:mod:`repro.analysis.experiments`): it times the run, stores the rendered
table (the entry's bench columns) under ``benchmarks/results/`` and asserts
the entry's ``check`` — the shape of the paper's claim each experiment
reproduces (DESIGN.md quotes them).  The runs are fully seeded, so tables
and verdicts are deterministic; ``jobs`` only changes wall-clock time.

Run as a fast smoke without timing (``make bench-smoke``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py -q --benchmark-disable
"""

import pytest

from benchmarks.conftest import save_table
from repro.analysis.experiments import all_experiments, run_experiment


@pytest.mark.parametrize("experiment", all_experiments(), ids=lambda experiment: experiment.id)
def test_experiment(benchmark, results_dir, experiment):
    rows = benchmark.pedantic(
        run_experiment,
        args=(experiment.id, experiment.bench),
        kwargs={"jobs": 2},
        rounds=1,
        iterations=1,
    )
    save_table(results_dir, experiment.id, rows, experiment.columns)
    experiment.check(rows)
