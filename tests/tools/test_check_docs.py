"""The documentation gate's experiment-index check (``tools/check_docs.py``).

DESIGN.md's index table must list exactly the registry's experiments, each
under the registry's title; these tests feed the check hand-made index
tables and registries.
"""

import importlib.util
import pathlib
import sys
from types import SimpleNamespace

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "check_docs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_docs_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


check_docs = _load_tool()

REGISTRY = (
    SimpleNamespace(id="e1", title="Mean system time vs. arrival rate"),
    SimpleNamespace(id="e2", title="`S` vs. transaction size `st`"),
)

INDEX = """\
## Experiment index

| Id | Question | Registry entry | Bench case |
| --- | --- | --- | --- |
| E1 | Mean system time vs. arrival rate | `e1` | `test_experiment[e1]` |
| E2 | `S` vs. transaction size `st` | `e2` | `test_experiment[e2]` |
"""


def test_a_matching_index_passes():
    assert check_docs.experiment_index_errors(INDEX, REGISTRY) == []


def test_an_index_row_without_a_registry_entry_is_an_error():
    design = INDEX + "| E3 | An experiment nobody registered | `e3` | `test_experiment[e3]` |\n"
    assert check_docs.experiment_index_errors(design, REGISTRY) == [
        "DESIGN.md: index row E3 has no registry entry"
    ]


def test_a_registry_entry_missing_from_the_index_is_an_error():
    design = "\n".join(line for line in INDEX.splitlines() if not line.startswith("| E2 "))
    assert check_docs.experiment_index_errors(design, REGISTRY) == [
        "DESIGN.md: the index lacks registry entry E2"
    ]


def test_a_title_that_does_not_match_is_an_error():
    design = INDEX.replace("| E1 | Mean system time", "| E1 | Mean response time")
    (error,) = check_docs.experiment_index_errors(design, REGISTRY)
    assert error.startswith("DESIGN.md: index row E1 reads 'Mean response time")
    assert "'Mean system time vs. arrival rate'" in error


def test_the_repository_index_matches_the_registry():
    errors = []
    check_docs.check_experiment_index(errors)
    assert errors == []


@pytest.mark.parametrize("line", ["| Id | Question |", "| --- | --- |", "### E1 — heading"])
def test_lines_that_are_not_index_rows_are_skipped(line):
    assert check_docs.experiment_index_errors(INDEX + line + "\n", REGISTRY) == []
