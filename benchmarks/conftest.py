"""Shared configuration and helpers for the benchmark harness.

``bench_experiments.py`` regenerates every experiment of DESIGN.md's index
(E1-E12) at its registry entry's bench size, renders the result table and
stores it under ``benchmarks/results/`` so the rows can be compared with the
paper's claims (see DESIGN.md).  The sizes are intentionally small — the
goal is the qualitative shape (who wins, where the crossover lies), not long
simulation campaigns.
"""

from __future__ import annotations

import pathlib

import pytest

# The entries' check functions assert in the registry module; rewrite them so
# a failing claim reports its operands.
pytest.register_assert_rewrite("repro.analysis.experiments")

from repro.analysis.tables import rows_to_table  # noqa: E402 - after the rewrite hook

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_table(results_dir: pathlib.Path, name: str, rows, columns=()) -> str:
    """Render ``rows`` as a table, store it under ``results_dir`` and return it."""
    table = rows_to_table(rows, columns=columns)
    path = results_dir / f"{name}.txt"
    path.write_text(table + "\n", encoding="utf-8")
    print(f"\n== {name} ==\n{table}")
    return table
