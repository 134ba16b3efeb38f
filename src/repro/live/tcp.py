"""The asyncio/TCP transport: the live counterpart of the simulated network.

One :class:`TcpTransport` runs per OS process (one per site daemon, one in
the load driver).  Local actors are registered by name exactly as on the
simulated network; a message whose receiver lives in the same process is
delivered through ``loop.call_soon`` (preserving send order), while a
remote message is encoded by :mod:`repro.live.wire` and written to a
length-prefixed TCP stream to the receiver's site.

Routing: actor names carry their site as a trailing ``-{site}`` segment
(``ri-0``, ``cp-2``, ``qm-17-1``, ``ctl-0``), which the transport resolves
through the cluster map (site → host/port).  The one exception is the load
driver, which runs no listener: daemons learn the route back to it from the
connection its first frame (the ``hello``) arrived on, and reply over that
same socket (a *reverse route*).  Frames addressed to a name with no route
yet are buffered and flushed the moment the route appears, so start-up
ordering cannot drop messages.

Outbound connections are dialed lazily by a per-site pump task with
retry/back-off, so a daemon (or the driver) may start before its peers are
listening; frames queue until the dial succeeds.  Per-connection FIFO is
inherited from TCP, mirroring the simulated network's per-channel ordering
guarantee that the audit pipeline relies on.

Writes are coalesced: a pump writes everything queued for its site since
it last ran as one buffer, so a site gets one socket write per pump wake-up
rather than one per message.
"""

from __future__ import annotations

import asyncio
import logging
import random
from typing import Callable, Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.live.transport import Transport
from repro.live.wire import FrameDecoder, WireError, encode_message
from repro.sim.actor import Actor, Message

logger = logging.getLogger(__name__)

#: Host/port pairs keyed by site id: where each site daemon listens.
ClusterMap = Dict[int, Tuple[str, int]]

_READ_CHUNK = 1 << 16

#: The most a timer fires late (seconds): see :meth:`TcpTransport.schedule`.
TIMER_JITTER = 0.001


class LiveTransportError(Exception):
    """A live-transport failure: unroutable name, exhausted dial retries."""


def site_of_name(name: str) -> Optional[int]:
    """Extract the site id from a ``...-{site}`` actor name, else ``None``.

    Every protocol actor's name ends in its site id (``ri-0``, ``cp-2``,
    ``qm-17-1``, ``ctl-3``); names without a numeric tail (the driver's
    ``drv``) have no static route and fall back to the reverse-route table.
    """
    head, sep, tail = name.rpartition("-")
    if not sep or not head:
        return None
    try:
        return int(tail)
    except ValueError:
        return None


class TcpTransport(Transport):
    """Transport over asyncio TCP streams for one process of a live cluster.

    Parameters
    ----------
    node:
        Human-readable name of this process (``site-0``, ``driver``), used
        only in logs and errors.
    site:
        The site this process hosts, or ``None`` for the driver; used to
        classify message counters as local/remote.
    cluster:
        Site → ``(host, port)`` listen addresses of every site daemon.
    dial_retries / dial_backoff:
        How often and how patiently the outbound pumps retry a refused
        connection (a peer daemon still starting up).
    """

    def __init__(
        self,
        node: str,
        site: Optional[int],
        cluster: ClusterMap,
        *,
        dial_retries: int = 40,
        dial_backoff: float = 0.25,
    ) -> None:
        self._node = node
        self._site = site
        self._cluster = dict(cluster)
        self._dial_retries = dial_retries
        self._dial_backoff = dial_backoff
        try:
            self._loop = asyncio.get_running_loop()
        except RuntimeError:
            raise LiveTransportError(
                f"{node}: TcpTransport must be constructed inside a running "
                "event loop (its timers and delivery bind to that loop)"
            ) from None
        self._actors: Dict[str, Actor] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        # Outbound: one frame queue + pump task per destination site.
        self._outboxes: Dict[int, Deque[bytes]] = {}
        self._outbox_ready: Dict[int, asyncio.Event] = {}
        self._pumps: Dict[int, asyncio.Task] = {}
        # Reverse routes: listener-less peers (the driver) keyed by name,
        # mapped to the writer of the connection they dialed in on; frames
        # for names with no route yet wait in ``_pending_routes``.
        self._reverse_routes: Dict[str, asyncio.StreamWriter] = {}
        self._pending_routes: Dict[str, List[bytes]] = {}
        # Receiver name -> its site when that site is in the cluster map
        # (a static route), else None; parsed once per name.
        self._static_sites: Dict[str, Optional[int]] = {}
        self._reader_tasks: List[asyncio.Task] = []
        self._closed = False
        self._timer_jitter = random.Random()
        # Counters mirroring the simulated network's accounting.
        self._messages_sent = 0
        self._remote_messages = 0
        self._local_messages = 0
        self._messages_dropped = 0
        self._by_kind: Dict[str, int] = {}
        #: Errors raised by actor handlers or stream readers; a supervisor
        #: (the test fixture, the daemon main loop) checks and re-raises
        #: these so failures surface instead of stalling the run.
        self.errors: List[BaseException] = []

    # ---------------------------------------------------------------- #
    # Transport interface
    # ---------------------------------------------------------------- #

    @property
    def node(self) -> str:
        """This process's name, as used in logs."""
        return self._node

    @property
    def now(self) -> float:
        """The event loop's monotonic wall clock."""
        return self._loop.time()

    def register(self, actor: Actor) -> None:
        """Make ``actor`` addressable by name within this process."""
        self._actors[actor.name] = actor

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        label: str = "",
        site: Optional[int] = None,
    ) -> asyncio.TimerHandle:
        """Arm a wall-clock timer; the handle supports ``cancel()``.

        Each timer fires up to :data:`TIMER_JITTER` seconds late, at random.
        Live mode has no deadlock detector: a cycle is broken only by the
        request timeouts of its members, and transactions that arrive
        together time out, restart and re-form the cycle together, round
        after round.  The jitter reorders each round's restarts so the
        cycle cannot recur in lockstep.
        """
        jitter = self._timer_jitter.random() * TIMER_JITTER
        return self._loop.call_later(max(delay, 0.0) + jitter, self._guarded, callback, label)

    def send(
        self,
        sender: Actor,
        receiver_name: str,
        kind: str,
        payload: object = None,
        extra_delay: float = 0.0,
    ) -> Message:
        """Send one message; local receivers via the loop, remote via TCP.

        ``extra_delay`` (the simulator's I/O-time modelling knob) defers a
        *local* delivery by that many wall-clock seconds; remote messages
        ride the real network, whose latency is not ours to add to.
        """
        if self._closed:
            raise LiveTransportError(f"{self._node}: transport is closed")
        message = Message(
            kind=kind,
            sender=sender.name,
            receiver=receiver_name,
            payload=payload,
            send_time=self.now,
        )
        self._messages_sent += 1
        self._by_kind[kind] = self._by_kind.get(kind, 0) + 1
        local = self._actors.get(receiver_name)
        if local is not None:
            self._local_messages += 1
            if extra_delay > 0.0:
                self._loop.call_later(extra_delay, self._deliver, local, message)
            else:
                self._loop.call_soon(self._deliver, local, message)
            return message
        self._remote_messages += 1
        frame = encode_message(message)
        site = self._static_site(receiver_name)
        if site is not None:
            self._enqueue(site, frame)
            return message
        route = self._reverse_routes.get(receiver_name)
        if route is not None:
            route.write(frame)
            return message
        # No route yet (e.g. a reply racing the peer's hello): hold the
        # frame until the route is learned rather than dropping it.
        self._pending_routes.setdefault(receiver_name, []).append(frame)
        return message

    @property
    def messages_sent(self) -> int:
        """Total messages sent from this process."""
        return self._messages_sent

    def messages_by_kind(self) -> Dict[str, int]:
        """Per-kind counts of messages sent from this process."""
        return dict(self._by_kind)

    @property
    def remote_messages(self) -> int:
        """Messages that crossed a TCP connection."""
        return self._remote_messages

    @property
    def local_messages(self) -> int:
        """Messages delivered within this process."""
        return self._local_messages

    @property
    def messages_dropped(self) -> int:
        """Messages addressed to a name this process could not resolve."""
        return self._messages_dropped

    # ---------------------------------------------------------------- #
    # Lifecycle
    # ---------------------------------------------------------------- #

    async def start_server(self) -> None:
        """Start listening on this site's cluster address (daemons only)."""
        if self._site is None:
            raise LiveTransportError(f"{self._node}: the driver runs no listener")
        host, port = self._cluster[self._site]
        self._server = await asyncio.start_server(self._on_connection, host, port)

    async def close(self) -> None:
        """Stop the listener, the pumps and every reader task."""
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._pumps.values()) + self._reader_tasks:
            task.cancel()
        for task in list(self._pumps.values()) + self._reader_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001 - teardown
                pass
        self._pumps.clear()
        self._reader_tasks.clear()
        for writer in self._reverse_routes.values():
            writer.close()
        self._reverse_routes.clear()

    def raise_errors(self) -> None:
        """Re-raise the first actor/stream error captured, if any."""
        if self.errors:
            raise self.errors[0]

    # ---------------------------------------------------------------- #
    # Internals
    # ---------------------------------------------------------------- #

    def _guarded(self, callback: Callable[[], None], label: str) -> None:
        try:
            callback()
        except Exception as error:  # noqa: BLE001 - supervisor surfaces it
            logger.exception("%s: timer %r failed", self._node, label or "<timer>")
            self.errors.append(error)

    def _deliver(self, actor: Actor, message: Message) -> None:
        try:
            actor.handle(message.replace(deliver_time=self.now))
        except Exception as error:  # noqa: BLE001 - supervisor surfaces it
            logger.exception(
                "%s: actor %s failed handling %r from %s",
                self._node, actor.name, message.kind, message.sender,
            )
            self.errors.append(error)

    def _static_site(self, name: str) -> Optional[int]:
        """The cluster site that ``name`` routes to, or None (reverse route)."""
        try:
            return self._static_sites[name]
        except KeyError:
            site = site_of_name(name)
            if site not in self._cluster:
                site = None
            self._static_sites[name] = site
            return site

    def _enqueue(self, site: int, frame: bytes) -> None:
        if site not in self._outboxes:
            self._outboxes[site] = deque()
            self._outbox_ready[site] = asyncio.Event()
            self._pumps[site] = self._loop.create_task(self._pump(site))
        self._outboxes[site].append(frame)
        self._outbox_ready[site].set()

    async def _pump(self, site: int) -> None:
        """Outbound pump: dial ``site`` (with retry), then stream its queue."""
        host, port = self._cluster[site]
        reader: Optional[asyncio.StreamReader] = None
        writer: Optional[asyncio.StreamWriter] = None
        for attempt in range(self._dial_retries):
            try:
                reader, writer = await asyncio.open_connection(host, port)
                break
            except OSError:
                await asyncio.sleep(self._dial_backoff * min(attempt + 1, 8))
        if writer is None:
            error = LiveTransportError(
                f"{self._node}: could not reach site {site} at {host}:{port} "
                f"after {self._dial_retries} attempts"
            )
            self.errors.append(error)
            return
        # Replies can ride back on this same connection (a listener-less
        # peer like the driver answers over the socket it was dialed on),
        # so every outbound connection gets a reader too.
        assert reader is not None
        self._reader_tasks.append(
            self._loop.create_task(self._read_stream(reader, writer))
        )
        queue = self._outboxes[site]
        ready = self._outbox_ready[site]
        try:
            while True:
                if queue:
                    writer.write(b"".join(queue))
                    queue.clear()
                await writer.drain()
                ready.clear()
                if not queue:
                    await ready.wait()
        except asyncio.CancelledError:
            writer.close()
            raise
        except Exception as error:  # noqa: BLE001 - supervisor surfaces it
            logger.exception("%s: pump to site %s failed", self._node, site)
            self.errors.append(error)

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.append(task)
        await self._read_stream(reader, writer)

    async def _read_stream(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Decode frames off one connection until EOF, dispatching each."""
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    decoder.check_eof()
                    return
                for message in decoder.feed(data):
                    self._learn_route(message.sender, writer)
                    self._dispatch(message)
        except WireError as error:
            logger.exception("%s: malformed frame on connection", self._node)
            self.errors.append(error)
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            writer.close()

    def _learn_route(self, sender: str, writer: asyncio.StreamWriter) -> None:
        """Record a reverse route for a listener-less sender (the driver)."""
        if self._static_site(sender) is not None:
            return
        if self._reverse_routes.get(sender) is not writer:
            self._reverse_routes[sender] = writer
            for frame in self._pending_routes.pop(sender, []):
                writer.write(frame)

    def _dispatch(self, message: Message) -> None:
        actor = self._actors.get(message.receiver)
        if actor is None:
            self._messages_dropped += 1
            logger.warning(
                "%s: dropping %r for unknown actor %s",
                self._node, message.kind, message.receiver,
            )
            return
        self._loop.call_soon(self._deliver, actor, message)
