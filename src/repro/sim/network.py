"""Simulated inter-site network with configurable latency and message accounting.

Transmission delay is one of the system parameters the paper calls out
(Section 1, parameter 3).  Every message between actors is delivered through
this class: remote messages pay ``fixed_delay + Exponential(variable_delay)``,
messages between actors on the same site pay ``local_delay``.  The network
also keeps global and per-kind message counters, which the experiment harness
reports as the communication cost of each protocol (the paper notes PA's
communication cost grows with load).

The RNG behind the variable delays must be passed in explicitly: it ties the
delay sequence to the run's seed, and a network that silently fell back to a
private default stream would decouple message latencies from the seed (a bug
this signature used to permit).

With a :class:`~repro.sim.faults.FaultInjector` attached, the network also
models failures: remote latencies are scaled by any active delay spike, and
a message whose receiver is a *crashable* actor at a site that is down at
the delivery instant is dropped (charged to the senders' counters — the
communication cost was paid — and recorded in the drop counters).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, Optional

from repro.common.config import NetworkConfig
from repro.common.errors import SimulationError
from repro.sim.actor import Actor, Message
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.faults import FaultInjector


class Network:
    """Delivers messages between registered actors through the simulator."""

    def __init__(
        self,
        simulator: Simulator,
        config: Optional[NetworkConfig],
        rng: RandomStreams,
        *,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        if rng is None:
            raise SimulationError(
                "Network needs an explicit RandomStreams: a default stream would "
                "decouple the message delays from the run seed"
            )
        self._simulator = simulator
        # The simulator's event list: send pushes deliveries onto it directly.
        self._events = simulator._queue
        self._config = config or NetworkConfig()
        self._faults = faults
        # The remote-delay draw, bound once: the same stream and the same
        # expovariate call RandomStreams.exponential makes, at a rate computed
        # once (None when the variable delay is 0: then nothing is drawn).
        variable_delay = self._config.variable_delay
        self._draw_delay = rng.stream("network-delay").expovariate if variable_delay > 0 else None
        self._delay_rate = 1.0 / variable_delay if variable_delay > 0 else 0.0
        self._actors: Dict[str, Actor] = {}
        # Per-(sender, receiver) channels are FIFO: a message never overtakes an
        # earlier message on the same channel, mirroring a reliable transport.
        self._channel_clock: Dict[tuple, float] = {}
        self._messages_sent = 0
        self._messages_by_kind: Dict[str, int] = {}
        self._remote_messages = 0
        self._local_messages = 0
        self._messages_dropped = 0
        self._dropped_by_kind: Dict[str, int] = {}

    @property
    def simulator(self) -> Simulator:
        """The simulator messages are scheduled on."""
        return self._simulator

    @property
    def messages_sent(self) -> int:
        """Total number of messages delivered or in flight."""
        return self._messages_sent

    @property
    def remote_messages(self) -> int:
        """Number of inter-site messages sent so far."""
        return self._remote_messages

    @property
    def local_messages(self) -> int:
        """Number of same-site messages sent so far."""
        return self._local_messages

    @property
    def messages_dropped(self) -> int:
        """Number of messages dropped because their receiver's site was down."""
        return self._messages_dropped

    def messages_by_kind(self) -> Dict[str, int]:
        """Message counts keyed by message kind."""
        return dict(self._messages_by_kind)

    def dropped_by_kind(self) -> Dict[str, int]:
        """Dropped-message counts keyed by message kind."""
        return dict(self._dropped_by_kind)

    def register(self, actor: Actor) -> None:
        """Make ``actor`` addressable by its name."""
        if actor.name in self._actors:
            raise SimulationError(f"an actor named {actor.name!r} is already registered")
        self._actors[actor.name] = actor

    def actor(self, name: str) -> Actor:
        """Look up a registered actor by name."""
        try:
            return self._actors[name]
        except KeyError:
            raise SimulationError(f"no actor named {name!r} is registered") from None

    def latency(self, sender_site: int, receiver_site: int) -> float:
        """Sample the delivery latency for one message between the given sites."""
        if sender_site == receiver_site:
            return self._config.local_delay
        draw = self._draw_delay
        return self._config.fixed_delay + (draw(self._delay_rate) if draw is not None else 0.0)

    def send(
        self,
        sender: Actor,
        receiver_name: str,
        kind: str,
        payload: object = None,
        extra_delay: float = 0.0,
    ) -> Message:
        """Send a message from ``sender`` to the actor named ``receiver_name``.

        The message is charged to the global counters immediately and handed
        to the receiver's :meth:`~repro.sim.actor.Actor.handle` after the
        sampled latency plus ``extra_delay`` (used to model local service
        time before transmission).  With a fault injector attached, remote
        latencies are scaled by active delay spikes and a message addressed
        to a crashable actor whose site is down at the delivery instant is
        dropped instead of delivered.

        This is the hottest path of every run, so it looks the receiver up
        once, reads the clock once, draws the latency inline (the same draw
        :meth:`latency` makes) and pushes the delivery straight onto the
        event list, with the check :meth:`Simulator.schedule` would make.
        """
        receiver = self._actors.get(receiver_name)
        if receiver is None:
            raise SimulationError(f"no actor named {receiver_name!r} is registered")
        now = self._simulator._now
        config = self._config
        faults = self._faults
        if sender.site == receiver.site:
            latency = config.local_delay
            self._local_messages += 1
        else:
            draw = self._draw_delay
            latency = config.fixed_delay + (draw(self._delay_rate) if draw is not None else 0.0)
            if faults is not None:
                latency *= faults.delay_multiplier(sender.site, receiver.site, now)
            self._remote_messages += 1
        delay = latency + extra_delay
        sender_name = sender.name
        channel = (sender_name, receiver_name)
        deliver_time = now + delay
        previous = self._channel_clock.get(channel)
        if previous is not None and deliver_time <= previous:
            deliver_time = previous + 1e-12
            delay = deliver_time - now
        self._channel_clock[channel] = deliver_time
        message = Message(kind, sender_name, receiver_name, payload, now, deliver_time)
        self._messages_sent += 1
        by_kind = self._messages_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if faults is not None and (
            (receiver.crashable and not faults.site_up(receiver.site, deliver_time))
            or (
                receiver.coordinator_crashable
                and not faults.coordinator_up(receiver.site, deliver_time)
            )
        ):
            self._messages_dropped += 1
            self._dropped_by_kind[kind] = self._dropped_by_kind.get(kind, 0) + 1
            return message
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} time units in the past")
        self._events.push(
            now + delay,
            partial(receiver.handle, message),
            label=f"{kind}:{sender_name}->{receiver_name}",
        )
        return message

    def broadcast(
        self,
        sender: Actor,
        receiver_names: list,
        kind: str,
        payload: object = None,
    ) -> None:
        """Send the same payload to every receiver in ``receiver_names``."""
        for receiver_name in receiver_names:
            self.send(sender, receiver_name, kind, payload)

    def charge_overhead_messages(self, kind: str, count: int) -> None:
        """Account for bookkeeping messages that are not modelled individually.

        Used by the deadlock detector to charge the per-scan message cost the
        paper lists as a parameter without simulating each probe message.
        """
        if count < 0:
            raise SimulationError("overhead message count must be non-negative")
        self._messages_sent += count
        self._messages_by_kind[kind] = self._messages_by_kind.get(kind, 0) + count
        self._remote_messages += count
