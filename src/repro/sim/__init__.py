"""Discrete-event simulation kernel.

The reproduction models a distributed database as a set of actors (request
issuers, queue managers, the deadlock detector, the workload source) that
exchange timestamped messages over a simulated network.  The kernel is a
classic event-list simulator: a priority queue of ``(time, priority, seq,
event)`` entries, a clock that only moves when events fire, and seeded
random-number streams so that every run is reproducible.

Why a simulator rather than threads: the CPython GIL would serialise real
threads anyway and make timing measurements meaningless, while a
discrete-event model gives deterministic, seedable runs and lets us charge
exactly the message and waiting costs the paper reasons about.
"""

from repro._exports import lazy_exports

__all__ = [
    "Actor",
    "Event",
    "EventQueue",
    "Message",
    "Network",
    "RandomStreams",
    "Simulator",
    "WelfordAccumulator",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sim.actor": ("Actor", "Message"),
        "repro.sim.events": ("Event", "EventQueue"),
        "repro.sim.network": ("Network",),
        "repro.sim.rng": ("RandomStreams",),
        "repro.sim.simulator": ("Simulator",),
        "repro.sim.stats": ("WelfordAccumulator",),
    },
)
