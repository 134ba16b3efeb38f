"""Network-facing wrapper around the unified queue manager."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.common.errors import SimulationError
from repro.common.ids import CopyId, TransactionId
from repro.common.operations import OperationType
from repro.core.effects import BackoffIssued, GrantIssued, RequestRejected
from repro.core.queue_manager import QueueManager
from repro.sim.actor import Actor, Message
from repro.storage.store import ValueStore
from repro.system.metrics import MetricsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.live.transport import Transport


def queue_manager_name(copy: CopyId) -> str:
    """Network name of the queue-manager actor for ``copy``."""
    return f"qm-{copy.item}-{copy.site}"


@dataclass(frozen=True)
class GrantDelivery:
    """Payload of a ``grant`` message.

    For read requests the current value of the copy is attached, mirroring
    the paper's "the data read are attached to the corresponding lock grant"
    (Section 3.4, step 1(g)); the value is captured at the instant the lock is
    granted, which is also the instant the read is ordered against
    conflicting writes.
    """

    effect: GrantIssued
    read_value: Any = None


class QueueManagerActor(Actor):
    """One actor per physical copy: receives requests, emits grants/back-offs/rejections.

    Incoming message kinds (from request issuers):

    ``request``
        payload :class:`~repro.core.requests.Request` — a new physical
        operation request.
    ``update_ts``
        payload ``(TransactionId, float)`` — the PA-agreed timestamp.
    ``downgrade`` / ``release`` / ``abort``
        payload :class:`~repro.common.ids.TransactionId`; ``release`` and
        ``abort`` also accept ``(TransactionId, attempt)``.
    ``commit_release``
        payload ``(TransactionId, attempt)`` from the commit participant:
        release one committed 2PC attempt under the semi-lock rule
        (:meth:`repro.core.queue_manager.QueueManager.release_prepared`).

    Outgoing message kinds (to request issuers): ``grant``, ``backoff``,
    ``reject`` with the corresponding effect dataclass as payload.

    The actor is ``crashable``: a site crash drops its inbound messages and
    wipes the wrapped manager's volatile state (see
    :meth:`repro.core.queue_manager.QueueManager.crash`).
    """

    crashable = True

    def __init__(
        self,
        manager: QueueManager,
        transport: "Transport",
        metrics: Optional[MetricsCollector] = None,
        value_store: Optional[ValueStore] = None,
    ) -> None:
        super().__init__(name=queue_manager_name(manager.copy), site=manager.copy.site)
        self._manager = manager
        self._copy = manager.copy
        self._transport = transport
        self._metrics = metrics
        self._value_store = value_store

    @property
    def manager(self) -> QueueManager:
        """The wrapped (pure) queue manager."""
        return self._manager

    def handle(self, message: Message) -> None:
        """Dispatch one inbound network message to the queue manager."""
        now = self._transport.now
        manager = self._manager
        kind = message.kind
        payload = message.payload
        if kind == "request":
            manager.submit(payload, now)
        elif kind == "update_ts":
            transaction, new_timestamp = payload
            manager.update_timestamp(transaction, new_timestamp, now)
        elif kind == "downgrade":
            manager.downgrade(payload, now)
        elif kind == "release" or kind == "commit_release" or kind == "abort":
            # A ``TransactionId`` or a ``(TransactionId, attempt)`` pair.  Ids
            # are tuples too, so the test is on the exact class: a bare id
            # unpacked as a pair would read ``(site, seq)`` as ``(tid, attempt)``.
            if payload.__class__ is TransactionId:
                transaction, attempt = payload, None
            else:
                transaction, attempt = payload
            if kind == "release":
                manager.release(transaction, now, attempt)
            elif kind == "commit_release":
                manager.release_prepared(transaction, now, attempt)
            else:
                manager.abort(transaction, now, attempt)
        else:
            raise SimulationError(f"queue manager received unknown message kind {kind!r}")
        # Every effect becomes one message to the request's issuer.
        for effect in manager.drain_effects():
            effect_type = effect.__class__
            request = effect.request
            if effect_type is GrantIssued:
                # Every granted request eventually produces exactly one normal
                # grant (immediately, or later via promotion), so counting
                # normal grants counts each granted request once.
                if self._metrics is not None and effect.normal:
                    self._metrics.record_grant(self._copy, request.op_type)
                read_value = None
                if request.op_type is OperationType.READ and self._value_store is not None:
                    read_value = self._value_store.read(self._copy)
                payload = GrantDelivery(effect=effect, read_value=read_value)
                self._transport.send(self, request.issuer, "grant", payload)
            elif effect_type is BackoffIssued:
                self._transport.send(self, request.issuer, "backoff", effect)
            elif effect_type is RequestRejected:
                self._transport.send(self, request.issuer, "reject", effect)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown queue manager effect {effect!r}")
