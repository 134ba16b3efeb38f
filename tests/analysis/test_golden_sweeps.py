"""Byte-for-byte pin of every simulated ``cli sweep`` table.

``golden_sweeps.json`` holds, per experiment, the argv of one small
``python -m repro.cli sweep`` call and the SHA-256 of its stdout.  E7's
``dp_seconds`` and ``naive_seconds`` columns are wall time, so its digest
covers the other columns only.  E12 boots a live cluster and is pinned by
its own differential test instead.

A change that must not alter what a sweep prints passes unchanged; a
deliberate change re-pins and says why::

    PYTHONPATH=src python tests/analysis/test_golden_sweeps.py --write
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from repro.cli import main

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_sweeps.json"

#: Columns of the E7 table that measure wall time.
WALL_TIME_COLUMNS = ("dp_seconds", "naive_seconds")

SMALL = ["--sites", "2", "--items", "16", "--transactions", "25", "--seed", "7"]
SCENARIO_RUNS = {
    "e9": "hotspot-migration",
    "e10": "site-blackout",
    "e11": "coordinator-blackout",
}

CASES = {
    **{
        experiment: ["sweep", "--experiment", experiment, *SMALL]
        for experiment in ("e1", "e2", "e3", "e4", "e5", "e6", "e8")
    },
    "e7": ["sweep", "--experiment", "e7"],
    **{
        experiment: [
            "sweep", "--experiment", experiment,
            "--transactions", "40", "--scenarios", scenario,
        ]
        for experiment, scenario in SCENARIO_RUNS.items()
    },
}


def _without_columns(table: str, dropped) -> str:
    """``table`` with the named columns cut out of every line."""
    lines = table.splitlines()
    headers = [cell.strip() for cell in lines[0].split(" | ")]
    keep = [index for index, header in enumerate(headers) if header not in dropped]
    out = []
    for number, line in enumerate(lines):
        separator = "-+-" if number == 1 else " | "
        cells = line.split(separator)
        out.append(separator.join(cells[index] for index in keep))
    return "\n".join(out) + "\n"


def _sweep_digest(argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    text = stdout.getvalue()
    if argv[2] == "e7":
        text = _without_columns(text, WALL_TIME_COLUMNS)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_case_is_pinned(golden):
    assert set(golden) == set(CASES)
    assert all(golden[name]["argv"] == argv for name, argv in CASES.items())


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_table_matches_golden(name, golden):
    assert _sweep_digest(CASES[name]) == golden[name]["sha256"]


def test_wall_time_columns_are_cut_from_every_line():
    table = "a | dp_seconds | b\n--+------------+--\n1 |     0.0001 | 2\n"
    assert _without_columns(table, WALL_TIME_COLUMNS) == "a | b\n--+--\n1 | 2\n"


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    pinned = {
        name: {"argv": argv, "sha256": _sweep_digest(argv)} for name, argv in CASES.items()
    }
    GOLDEN_PATH.write_text(json.dumps(pinned, indent=2) + "\n")
