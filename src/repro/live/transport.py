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

The seam is what the actors take from ``Network`` and ``Simulator``:
message send, current time and relative timers.  Actor registration and
the message counters stay with the concrete carrier (the simulated network,
or the live daemon's and driver's own ``TcpTransport``).
"""

from __future__ import annotations

import abc
from typing import Any, Optional

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
