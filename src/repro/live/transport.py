"""The transport seam between the protocol actors and whatever carries messages.

Every actor of the protocol stack (request issuers, queue managers, commit
participants and the commit layers driving them) sends messages and arms
timers exclusively through a :class:`Transport`.  Two implementations
exist:

* :class:`SimTransport` — a pure delegation adapter over the discrete-event
  :class:`~repro.sim.network.Network` and
  :class:`~repro.sim.simulator.Simulator`.  It adds no behaviour at all, so
  simulated runs stay byte-identical to the pre-seam code (the golden
  digests pin this).
* :class:`~repro.live.tcp.TcpTransport` — asyncio streams between real
  processes, wall-clock time, ``loop.call_later`` timers.

The seam is deliberately the *union* of what the actors used to take from
``Network`` and ``Simulator``: message send, current time, relative timers
and actor registration/lookup, plus the message counters the run summary
reports.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional

from repro.sim.actor import Actor, Message
from repro.sim.network import Network
from repro.sim.simulator import Simulator


class Transport(abc.ABC):
    """What an actor may do to the outside world: send, look up, schedule, read the clock."""

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """The current time (simulated clock or wall clock, per implementation)."""

    @abc.abstractmethod
    def send(
        self,
        sender: Actor,
        receiver_name: str,
        kind: str,
        payload: object = None,
        extra_delay: float = 0.0,
    ) -> Message:
        """Send one message from ``sender`` to the actor named ``receiver_name``."""

    @abc.abstractmethod
    def schedule(
        self,
        delay: float,
        callback,
        *,
        label: str = "",
        site: Optional[int] = None,
    ) -> Any:
        """Arm a timer firing ``callback`` after ``delay`` time units.

        ``site`` names the site whose state the timer touches; actors pass
        it, and implementations are free to ignore it.
        """

    @abc.abstractmethod
    def register(self, actor: Actor) -> None:
        """Make ``actor`` addressable by its name."""

    @property
    @abc.abstractmethod
    def messages_sent(self) -> int:
        """Total number of messages sent through this transport."""

    @abc.abstractmethod
    def messages_by_kind(self) -> Dict[str, int]:
        """Message counts keyed by message kind."""


class SimTransport(Transport):
    """The simulator-backed transport: verbatim delegation to ``Network``/``Simulator``.

    Construction wires the two existing objects together; every method is a
    straight pass-through, so a simulated run through the seam issues the
    exact same calls in the exact same order as the pre-seam code did.
    """

    def __init__(self, simulator: Simulator, network: Network) -> None:
        self._simulator = simulator
        self._network = network

    @property
    def simulator(self) -> Simulator:
        """The simulator timers are scheduled on."""
        return self._simulator

    @property
    def network(self) -> Network:
        """The simulated network messages travel over."""
        return self._network

    @property
    def now(self) -> float:
        """The current simulated time."""
        return self._simulator.now

    def send(
        self,
        sender: Actor,
        receiver_name: str,
        kind: str,
        payload: object = None,
        extra_delay: float = 0.0,
    ) -> Message:
        """Delegate to :meth:`repro.sim.network.Network.send`."""
        return self._network.send(sender, receiver_name, kind, payload, extra_delay)

    def schedule(
        self,
        delay: float,
        callback,
        *,
        label: str = "",
        site: Optional[int] = None,
    ) -> Any:
        """Delegate to :meth:`repro.sim.simulator.Simulator.schedule` (``site`` is unused)."""
        return self._simulator.schedule(delay, callback, label=label)

    def register(self, actor: Actor) -> None:
        """Delegate to :meth:`repro.sim.network.Network.register`."""
        self._network.register(actor)

    @property
    def messages_sent(self) -> int:
        """Total messages sent on the simulated network."""
        return self._network.messages_sent

    def messages_by_kind(self) -> Dict[str, int]:
        """Per-kind counts from the simulated network."""
        return self._network.messages_by_kind()
