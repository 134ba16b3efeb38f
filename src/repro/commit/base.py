"""The pluggable atomic-commit interface and its registry.

The paper treats commit as an implicit, zero-cost side effect of the last
release; a distributed DBMS cannot, because the write-all phase spans sites
that can fail independently.  This package makes the commit point an
explicit, pluggable layer of the transaction life cycle: when a
transaction's local computation finishes, its coordinator hands the
execution to a :class:`CommitProtocol`, which decides *when* the
transaction counts as committed, *how* its writes reach the copies, and
*what happens* when a site is down in the middle of it.

Four protocols are registered (see :mod:`repro.commit.one_phase`,
:mod:`repro.commit.two_phase` and :mod:`repro.commit.presumed`):

``one-phase``
    The paper's behaviour, bit-identical to the pre-refactor code path:
    writes are installed directly, the transaction commits on the spot and
    the coordinator releases the locks.  Under site failures this loses
    write-all atomicity — a crashed site's copy silently misses the write.

``two-phase``
    Presumed-nothing 2PC (coordinate / participate / recover): prepare,
    vote, decide, with durable participant logging via
    :mod:`repro.storage.log` and in-doubt resolution after recovery.

``presumed-abort`` / ``presumed-commit``
    The classic logging/ack-matrix variants of 2PC: same message flow,
    but a missing decision record *means* something (abort, respectively
    commit), which trades forced log writes on the common path for ack
    messages and — for presumed-commit — a forced begin record.

A commit protocol runs inside one coordinator
(:class:`~repro.system.coordinator.RequestIssuerActor`) and drives it
through a narrow surface: the coordinator's ``transport`` (the seam of
:mod:`repro.live.transport` — message send, timers and the clock) /
``metrics`` / ``catalog`` / ``value_store`` / ``faults`` / ``commit_config``
/ ``commit_log`` attributes, plus ``compute_write_values``,
``record_outcome``, ``release_phase``, ``abort_for_commit`` and
``transition``.
"""

from __future__ import annotations

import abc
from importlib import import_module
from typing import TYPE_CHECKING, ClassVar, Dict, Tuple, Type, Union

from repro.common.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.system.coordinator import RequestIssuerActor, TransactionExecution


class CommitProtocol(abc.ABC):
    """One site's commit layer: turns finished executions into commits.

    A coordinator owns one instance; the instance may keep per-transaction
    state (the two-phase layer tracks pending commit rounds).  Message kinds
    listed in :attr:`message_kinds` are routed to :meth:`handle_message` by
    the owning coordinator's dispatcher.
    """

    #: Registry name of the protocol (matches ``CommitConfig.protocol``).
    name: ClassVar[str] = ""

    #: Inbound message kinds this layer consumes at the coordinator.
    message_kinds: ClassVar[Tuple[str, ...]] = ()

    #: Whether the layer talks to a commit-participant actor at every site;
    #: the database builds those actors only for a layer that does.
    uses_participants: ClassVar[bool] = True

    def __init__(self, coordinator: "RequestIssuerActor") -> None:
        self._coordinator = coordinator

    @abc.abstractmethod
    def begin_commit(self, execution: "TransactionExecution") -> None:
        """Take over a transaction whose local computation just finished.

        The execution holds every lock it asked for and its read values; the
        commit layer must eventually either mark it committed (installing
        the write set) or abort the attempt for a retry.
        """

    def handle_message(self, kind: str, payload: object) -> None:
        """Process one commit-layer message delivered to the coordinator."""
        raise SimulationError(
            f"commit protocol {self.name!r} does not handle {kind!r} messages"
        )

    def on_coordinator_crash(self) -> None:
        """Drop volatile per-round state when the owning coordinator crashes.

        The default is a no-op: one-phase commit keeps no round state.  The
        two-phase family wipes its in-memory vote tallies and parked status
        queries — everything not backed by the durable site log.
        """

    def recover(self, execution: "TransactionExecution") -> None:
        """Re-drive one in-flight commit round after a coordinator restart.

        Called by the coordinator's recovery walk for each transaction found
        still ``PREPARING``.  The default is a no-op because the one-phase
        layer commits synchronously and can never be caught mid-round.
        """


#: Registered protocols by name, in registration order.  A built-in protocol
#: is listed by the module that defines it and imported the first time it is
#: created: a run loads the commit layer it uses, not all four.
_REGISTRY: Dict[str, Union[str, Type[CommitProtocol]]] = {
    "one-phase": "repro.commit.one_phase",
    "two-phase": "repro.commit.two_phase",
    "presumed-abort": "repro.commit.presumed",
    "presumed-commit": "repro.commit.presumed",
}


def register_commit_protocol(cls: Type[CommitProtocol]) -> Type[CommitProtocol]:
    """Add a commit-protocol class to the registry (usable as a decorator)."""
    if not cls.name:
        raise ConfigurationError("a commit protocol needs a non-empty name")
    # A built-in's own module fills in the slot reserved for it.
    if cls.name in _REGISTRY and _REGISTRY[cls.name] != cls.__module__:
        raise ConfigurationError(f"commit protocol {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def commit_protocol_names() -> Tuple[str, ...]:
    """All registered commit-protocol names, in registration order."""
    return tuple(_REGISTRY)


def commit_protocol_class(name: str) -> Type[CommitProtocol]:
    """The registered commit-protocol class called ``name``, imported on first use."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ConfigurationError(
            f"unknown commit protocol {name!r}; known protocols: {known}"
        ) from None
    if isinstance(cls, str):
        import_module(cls)  # its module registers the class under ``name``
        cls = _REGISTRY[name]
    return cls


def create_commit_protocol(name: str, coordinator: "RequestIssuerActor") -> CommitProtocol:
    """Instantiate the registered commit protocol called ``name`` for one coordinator."""
    return commit_protocol_class(name)(coordinator)
