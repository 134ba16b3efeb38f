"""Content-addressed keys for simulation tasks.

A task's key is the SHA-256 digest of a canonical JSON encoding of every
input that determines the simulation's outcome: the system configuration,
the workload configuration (seeds included), the forced protocol, and the
dynamic-selection flag.  Equal keys therefore mean *the identical
simulation*, so a stored summary can stand in for a re-run.

The encoding is canonical in the JSON sense — enum members collapse to
their string values, mappings are emitted with string keys and serialised
with sorted keys, and the digest input uses compact separators — so the key
is independent of dict insertion order, of whether a protocol was given as
``"2PL"`` or :class:`~repro.common.protocol_names.Protocol`, and of the
process that computes it.  ``KEY_SCHEMA`` is folded into the digest; bump it
whenever the meaning of a configuration field changes so stale stores
invalidate themselves instead of serving wrong results.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import TYPE_CHECKING, Dict

from repro.common.protocol_names import Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.replications import SimulationTask

#: Version of the key encoding; part of every digest.
#: v2: drift schedules joined ``WorkloadConfig`` and ``selection_mode``
#: joined the task payload, changing what a digest covers.
#: v3: the commit layer (``CommitConfig``) and the fault model
#: (``FaultConfig``) joined ``SystemConfig``, changing every digest; v2-era
#: stores therefore miss cleanly instead of serving results whose commit
#: semantics are unspecified.
#: v4: the coordinator-recovery family widened both configs —
#: ``CommitConfig`` grew the termination-protocol and checkpoint fields,
#: ``FaultConfig`` grew coordinator crashes — so every digest moves again
#: and v3-era stores (which never specified those semantics) miss cleanly.
#: v5: ``SystemConfig`` grew the ``audit`` field (batch vs streaming audit
#: pipeline).  The verdicts are proven equivalent, but the canonical config
#: encoding changed, so every digest moves and v4 stores miss cleanly.
#: v6: ``SystemConfig`` grew the ``engine`` field (serial vs site-partitioned
#: parallel event loop).  The engines produce byte-identical summaries, but
#: the engine deliberately joins the digest anyway: the engine-identity
#: checks re-run a configuration under both engines and byte-diff the
#: results, which would be vacuous if the store served one engine's cached
#: summary to the other.
#: v7: ``SystemConfig`` grew the parallel engine's worker-count field
#: (inline vs process backend), joining the digest for the same reason.
#: v8: the parallel engine was deleted and both of its fields left
#: ``SystemConfig``.  Serial summaries are unchanged, but the canonical
#: config encoding lost two fields, so every digest moves and v7 stores miss
#: cleanly.
KEY_SCHEMA = 8


def canonical_value(value: object) -> object:
    """Reduce ``value`` to plain JSON-serialisable data, deterministically.

    Dataclasses become field dictionaries, enums their ``str()`` value,
    mappings get stringified keys, and tuples become lists.  Raises
    ``TypeError`` for values with no canonical form (better a loud failure
    than a digest that silently depends on ``repr`` addresses).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical_value(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return str(value)
    if isinstance(value, dict):
        return {str(canonical_value(key)): canonical_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # Non-dataclass mappings (e.g. ProtocolMix.weights may be any Mapping).
    if hasattr(value, "items"):
        return {str(canonical_value(key)): canonical_value(item) for key, item in value.items()}
    raise TypeError(f"cannot canonicalise {type(value).__name__!r} for a task key")


def task_payload(task: "SimulationTask") -> Dict[str, object]:
    """The canonical, JSON-pure description of ``task`` that gets hashed.

    Also stored verbatim next to each result so a store file is
    self-describing (a human can read which run produced which row).
    """
    protocol = task.protocol
    if protocol is not None:
        protocol = str(Protocol.from_name(protocol))
    return {
        "schema": KEY_SCHEMA,
        "system": canonical_value(task.system),
        "workload": canonical_value(task.workload),
        "protocol": protocol,
        "dynamic_selection": bool(task.dynamic_selection),
        "selection_mode": task.selection_mode,
    }


def task_key(task: "SimulationTask") -> str:
    """Hex SHA-256 content key of ``task`` (see module docstring)."""
    payload = json.dumps(task_payload(task), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
