"""The id types are tuples: no container may mix them, and no dispatch may alias them.

``TransactionId``, ``CopyId`` and ``RequestId`` are tuple subclasses, so that
hashing, equality and ordering run in C.  The price is that tuples with equal
fields compare and hash equal across types: ``CopyId(1, 2) ==
TransactionId(1, 2) == (1, 2)``.  Two rules keep that harmless:

* no id-keyed dict, set, queue index or wait-for graph ever holds two id
  types (or an id type and a plain tuple) at once — a trace hook walks the
  whole database every few events of every registered scenario and checks
  each dict's keys and each set's members;
* a dispatch that accepts either a bare id or a plain ``(id, attempt)`` pair
  tells them apart by exact class, never by ``isinstance(payload, tuple)``.
"""

import dataclasses
import enum
import types
from collections import deque

import pytest

from repro.common.ids import CopyId, RequestId, TransactionId
from repro.core.queue_manager import QueueManager
from repro.sim.actor import Message
from repro.system.database import DistributedDatabase
from repro.system.queue_manager_actor import QueueManagerActor, queue_manager_name
from repro.system.runner import run_simulation
from repro.workload.scenarios import all_scenarios

ID_TYPES = frozenset((TransactionId, CopyId, RequestId))

#: The database is walked before every this-many-th event (and after the run).
SCAN_EVERY = 40

_LEAVES = (str, bytes, int, float, bool, type(None), enum.Enum, types.MappingProxyType)


def _mixes_id_types(members):
    """Whether ``members`` holds an id type next to another tuple type."""
    kinds = {type(member) for member in members if isinstance(member, tuple)}
    return len(kinds) > 1 and bool(kinds & ID_TYPES)


def _attributes(obj):
    """An object's ``(name, value)`` attributes, from its ``__dict__`` and its slots."""
    pairs = list(vars(obj).items()) if hasattr(obj, "__dict__") else []
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
                pairs.append((name, getattr(obj, name)))
    return pairs


def _scan(root):
    """Paths to every dict or set reachable from ``root`` that mixes id types,
    and the id types seen keying a dict or filling a set."""
    found = []
    keyed = set()
    seen = set()
    stack = [(root, "database")]
    while stack:
        obj, path = stack.pop()
        if isinstance(obj, _LEAVES) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            keyed.update(type(key) for key in obj if type(key) in ID_TYPES)
            if _mixes_id_types(obj):
                found.append(path)
            stack.extend((value, f"{path}[{key!r}]") for key, value in obj.items())
        elif isinstance(obj, (set, frozenset)):
            keyed.update(type(member) for member in obj if type(member) in ID_TYPES)
            if _mixes_id_types(obj):
                found.append(path)
        elif isinstance(obj, (list, tuple, deque)):
            stack.extend((item, f"{path}[{index}]") for index, item in enumerate(obj))
        elif type(obj).__module__.startswith("repro."):
            stack.extend((value, f"{path}.{name}") for name, value in _attributes(obj))
    return found, keyed


@pytest.mark.parametrize("scenario", all_scenarios(), ids=lambda scenario: scenario.name)
def test_no_container_ever_mixes_id_types(scenario, monkeypatch):
    scenario = scenario.configured(transactions=40)
    run = DistributedDatabase.run
    scans = []
    keyed = set()

    def scan(database, label):
        found, seen = _scan(database)
        scans.append((label, found))
        keyed.update(seen)

    def scanning_run(database, *args, **kwargs):
        def hook(_time, label):
            if database.simulator.events_processed % SCAN_EVERY == 0:
                scan(database, label)

        database.simulator.add_trace_hook(hook)
        result = run(database, *args, **kwargs)
        scan(database, "end of run")
        return result

    monkeypatch.setattr(DistributedDatabase, "run", scanning_run)
    result = run_simulation(
        scenario.system,
        scenario.workload,
        protocol=scenario.protocol,
        dynamic_selection=scenario.dynamic_selection,
        selection_mode=scenario.selection_mode,
    )
    assert result.committed == result.submitted
    assert len(scans) > 1
    # The walk reaches the tables keyed by every id type (executions, queue
    # indices, copy logs), so it cannot go blind without failing here.
    assert keyed == ID_TYPES
    mixed = [(label, paths) for label, paths in scans if paths]
    assert not mixed, mixed[:3]


def test_the_scan_sees_a_mixed_container():
    """The walk reaches nested containers and flags an aliasing key set."""

    @dataclasses.dataclass
    class Holder:
        table: dict

    Holder.__module__ = "repro.test_holder"
    holder = Holder({"inner": {TransactionId(1, 2): 0, CopyId(3, 4): 1}})
    assert _scan(holder)[0] == ["database.table['inner']"]
    assert _scan(Holder({"ok": {TransactionId(1, 2), TransactionId(3, 4)}}))[0] == []
    assert _mixes_id_types({TransactionId(1, 2), (5, 6)})


class _Transport:
    now = 0.0

    def send(self, *args, **kwargs):
        raise AssertionError("nothing is granted here, so nothing is sent")


T07 = TransactionId(0, 7)


@pytest.mark.parametrize(
    "kind, method, payload, expected",
    [
        ("release", "release", T07, (T07, None)),
        ("abort", "abort", T07, (T07, None)),
        ("release", "release", (T07, 2), (T07, 2)),
        ("commit_release", "release_prepared", (T07, 1), (T07, 1)),
    ],
)
def test_a_bare_id_is_not_unpacked_as_an_attempt_pair(
    kind, method, payload, expected, monkeypatch
):
    """A plain ``release`` of ``TransactionId(0, 7)`` reaches the queue manager
    with ``attempt=None`` — not as transaction ``0`` at attempt ``7``."""
    calls = []

    def recording(manager, transaction, now, attempt=None):
        calls.append((transaction, attempt))

    monkeypatch.setattr(QueueManager, method, recording)
    copy = CopyId(0, 0)
    actor = QueueManagerActor(QueueManager(copy), _Transport())
    actor.handle(Message(kind, "ri-0", queue_manager_name(copy), payload))
    assert calls == [expected]
    assert type(calls[0][0]) is TransactionId
