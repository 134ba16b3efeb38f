"""A run imports only what it runs; the package exports resolve on first use.

Every short simulation run starts a fresh interpreter, and without a
bytecode cache each module it imports is compiled from source, so the
modules a run loads are part of its cost.  The gate runs a plain
``zipf-hotspot`` simulation (one-phase commit, batch audit) in a fresh
interpreter and checks that none of the code only other configurations
need — the selector, the experiment registry, the live transport, the
streaming audit, the fault injector, the two-phase commit family,
``multiprocessing`` — was imported, and that the number of ``repro``
modules stays under a fixed ceiling.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

RUN = """
import json, sys
from repro import run_simulation
from repro.workload.scenarios import get_scenario

scenario = get_scenario("zipf-hotspot").configured(transactions=40)
assert scenario.system.commit.protocol == "one-phase" and scenario.system.audit == "batch"
result = run_simulation(scenario.system, scenario.workload)
assert result.serializable and result.committed == result.submitted == 40
print(json.dumps(sorted(sys.modules)))
"""

#: Modules such a run must not import, by name or by prefix (``name.``).
NOT_IMPORTED = (
    "repro.selection",
    "repro.analysis.experiments",
    "repro.analysis.tables",
    "repro.live.tcp",
    "repro.live.wire",
    "repro.core.streaming",
    "repro.sim.faults",
    "repro.commit.two_phase",
    "repro.commit.presumed",
    "multiprocessing",
)

#: ``repro`` modules loaded by the run above, measured on CPython 3.11.  With
#: every package ``__init__`` importing its submodules eagerly it was 65.
REPRO_MODULES_MEASURED = 52

#: The gate: the measured count plus 10%.  It guards against an eager import
#: creeping back into a package ``__init__`` or a run's build path.
REPRO_MODULES_CEILING = REPRO_MODULES_MEASURED * 1.10

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.commit",
    "repro.common",
    "repro.core",
    "repro.live",
    "repro.selection",
    "repro.sim",
    "repro.storage",
    "repro.system",
    "repro.workload",
)


@pytest.fixture(scope="module")
def loaded():
    """``sys.modules`` at the end of the run, in a fresh interpreter."""
    finished = subprocess.run(
        [sys.executable, "-c", RUN],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(finished.stdout.splitlines()[-1])


def test_a_plain_run_imports_no_other_configuration_s_code(loaded):
    unwanted = [
        module
        for module in loaded
        for name in NOT_IMPORTED
        if module == name or module.startswith(name + ".")
    ]
    assert unwanted == []


def test_a_plain_run_loads_a_bounded_number_of_modules(loaded):
    repro = [module for module in loaded if module == "repro" or module.startswith("repro.")]
    assert len(repro) <= REPRO_MODULES_CEILING, repro


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        assert getattr(package, export) is not None
        assert export in listed


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_star_import_binds_every_public_name():
    import repro

    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= namespace.keys()
    assert namespace["run_simulation"] is repro.system.runner.run_simulation


def test_the_builtin_commit_protocols_stay_registered_in_order():
    from repro.commit import commit_protocol_names

    assert commit_protocol_names()[:4] == (
        "one-phase",
        "two-phase",
        "presumed-abort",
        "presumed-commit",
    )
