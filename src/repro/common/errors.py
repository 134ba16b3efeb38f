"""Exception hierarchy for the reproduction.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures without also swallowing programming errors
such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A configuration object is internally inconsistent or out of range."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel was used incorrectly.

    Examples: scheduling an event in the past, running a simulator that has
    already been stopped, or delivering a message to an unregistered actor.
    """


class ProtocolError(ReproError):
    """A concurrency-control protocol invariant was violated.

    These errors indicate bugs in the protocol implementation (for example a
    lock release for a lock that was never granted), never expected run-time
    outcomes such as deadlocks or restarts.
    """


class UnknownProtocolError(ProtocolError):
    """A protocol name was requested that is not registered."""
