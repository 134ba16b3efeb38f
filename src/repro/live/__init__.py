"""Live mode: the protocol stack as real networked processes.

The simulator's actors — the request issuer/coordinator, the queue
managers and the two-phase-commit participants — never talk to the
network directly any more; they go through the :class:`Transport` seam of
:mod:`repro.live.transport`.  Under the simulator the seam is
:class:`~repro.live.transport.SimTransport`, a zero-cost adapter over the
existing :class:`~repro.sim.network.Network` and
:class:`~repro.sim.simulator.Simulator` (byte-identical behaviour, pinned
by the golden digests).  Under live mode the *same* actor code runs behind
:class:`~repro.live.tcp.TcpTransport`: one asyncio process per site,
length-prefixed JSON frames over TCP, wall-clock timers.

The rest of the package is the live machinery itself:

* :mod:`repro.live.wire` — the tagged-JSON wire codec and frame decoder;
* :mod:`repro.live.tcp` — the asyncio stream transport with lazy peer
  dialing, connection retry/backoff and reverse routing for the driver;
* :mod:`repro.live.daemon` — one site's daemon (queue managers, commit
  participant, coordinator, control actor);
* :mod:`repro.live.driver` — the load driver: replays a generated
  workload against a live cluster with wall-clock pacing and feeds the
  streaming audit with forwarded events;
* :mod:`repro.live.cluster` — in-process and subprocess cluster
  harnesses, plus free-port allocation.
"""

from repro._exports import lazy_exports

__all__ = ["SimTransport", "Transport"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {"repro.live.transport": ("SimTransport", "Transport")},
)
