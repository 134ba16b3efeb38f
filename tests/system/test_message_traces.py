"""Per-actor message traces: what every actor sends, and every life-cycle move.

The whole-summary digests of ``golden_scenarios.json`` pin what a run
*reports*; this module pins how it got there.  Class-level wrappers record

* for every ``Network.send``: ``(send_time, deliver_time, kind, sender,
  receiver, repr(payload))``, hashed per sending actor;
* for every ``RequestIssuerActor.transition``: ``(now, tid, attempt, from,
  to)``, hashed per issuer,

on all registered scenarios at 40 transactions plus ``zipf-hotspot`` under
the 2PL / T/O / PA thirds mix at workload seed 4 (T/O restarts and deadlock
victims).  A change to the coordinator, the queue managers, the network or
the message types that must not alter behaviour reproduces every digest;
one that does re-pins on purpose and says why::

    PYTHONPATH=src python tests/system/test_message_traces.py --write
"""

import dataclasses
import hashlib
import json
import pathlib
import sys
from collections import defaultdict
from contextlib import contextmanager

import pytest

from repro.common.config import ProtocolMix
from repro.common.protocol_names import Protocol
from repro.sim.network import Network
from repro.system.coordinator import RequestIssuerActor
from repro.system.runner import run_simulation
from repro.workload.scenarios import all_scenarios, get_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_message_traces.json"

TRANSACTIONS = 40

THIRDS = ProtocolMix(
    {
        Protocol.TWO_PHASE_LOCKING: 1.0,
        Protocol.TIMESTAMP_ORDERING: 1.0,
        Protocol.PRECEDENCE_AGREEMENT: 1.0,
    }
)


def _cases():
    cases = {
        scenario.name: scenario.configured(transactions=TRANSACTIONS)
        for scenario in all_scenarios()
    }
    thirds = get_scenario("zipf-hotspot").configured(transactions=TRANSACTIONS)
    cases["zipf-hotspot-thirds"] = dataclasses.replace(
        thirds,
        name="zipf-hotspot-thirds",
        workload=thirds.workload.with_overrides(protocol_mix=THIRDS, seed=4),
    )
    return cases


CASES = _cases()


@contextmanager
def _recording():
    """Install the class-level wrappers; yield the per-actor SHA-256 objects."""
    hashers = defaultdict(hashlib.sha256)
    send = Network.send
    transition = RequestIssuerActor.transition

    def recording_send(self, sender, receiver_name, kind, payload=None, extra_delay=0.0):
        message = send(self, sender, receiver_name, kind, payload, extra_delay)
        line = repr(
            (
                message.send_time,
                message.deliver_time,
                kind,
                sender.name,
                receiver_name,
                repr(payload),
            )
        )
        hashers[sender.name].update(line.encode("utf-8") + b"\n")
        return message

    def recording_transition(self, execution, status):
        line = repr(
            (
                self.transport.now,
                repr(execution.tid),
                execution.attempt,
                execution.status.value,
                status.value,
            )
        )
        hashers[self.name].update(b"T" + line.encode("utf-8") + b"\n")
        return transition(self, execution, status)

    Network.send = recording_send
    RequestIssuerActor.transition = recording_transition
    try:
        yield hashers
    finally:
        Network.send = send
        RequestIssuerActor.transition = transition


def _traces(name):
    """``(actor -> digest, run result)`` for one case."""
    scenario = CASES[name]
    with _recording() as hashers:
        result = run_simulation(
            scenario.system,
            scenario.workload,
            protocol=scenario.protocol,
            dynamic_selection=scenario.dynamic_selection,
            selection_mode=scenario.selection_mode,
        )
    return {actor: hashers[actor].hexdigest() for actor in sorted(hashers)}, result


def test_every_case_is_pinned():
    """A newly registered scenario must be pinned, and no pin may go stale."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_message_traces_match_the_pin(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    traces, result = _traces(name)
    assert result.committed == result.submitted == TRANSACTIONS
    assert sorted(traces) == sorted(golden), f"{name}: a different set of actors sent"
    diverged = [actor for actor in golden if traces[actor] != golden[actor]]
    assert not diverged, f"{name}: these actors' traces diverged: {diverged}"
    if name == "zipf-hotspot-thirds":
        assert result.metrics.total_restarts() > 0 and result.deadlock_victims


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        pins = {name: _traces(name)[0] for name in sorted(CASES)}
        GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    else:
        sys.exit("usage: test_message_traces.py --write")
