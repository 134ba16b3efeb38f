"""Actor base class and the message envelope used on the simulated network."""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

from repro.common.ids import SiteId

#: The one read-only metadata view shared by every envelope built without
#: metadata (nearly all of them): nothing to copy, nothing to protect.
_EMPTY_METADATA: Mapping[str, Any] = MappingProxyType({})


class _Envelope(NamedTuple):
    """The envelope's fields, in order; :class:`Message` adds the construction rules."""

    kind: str
    sender: str
    receiver: str
    payload: Any = None
    send_time: float = 0.0
    deliver_time: float = 0.0
    metadata: Mapping[str, Any] = _EMPTY_METADATA


class Message(_Envelope):
    """Envelope for one message exchanged between actors.

    ``kind`` is a short string naming the message type (for example
    ``"request"``, ``"grant"``, ``"backoff"``, ``"release"``); ``payload``
    carries the typed body.  Sender/receiver names identify actors registered
    with the :class:`repro.sim.network.Network`.

    The envelope is an immutable tuple (assigning a field raises
    ``AttributeError``; one is built per send, so construction is a single
    call) and ``metadata`` is defensively copied into a read-only view at
    construction: one envelope may be held by a transport queue, a trace
    hook and the receiving actor at once (and, in live mode, by an outbound
    frame encoder), so a mutable envelope would let any one holder silently
    change what the others observe.  Envelopes built without metadata share
    one empty read-only view instead of each copying an empty dict.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        sender: str,
        receiver: str,
        payload: Any = None,
        send_time: float = 0.0,
        deliver_time: float = 0.0,
        metadata: Mapping[str, Any] = _EMPTY_METADATA,
    ) -> "Message":
        if metadata is not _EMPTY_METADATA:
            metadata = MappingProxyType(dict(metadata))
        return tuple.__new__(
            cls, (kind, sender, receiver, payload, send_time, deliver_time, metadata)
        )

    def replace(self, **changes: Any) -> "Message":
        """A copy with ``changes`` applied; new metadata is copied as at construction."""
        return Message(*self._replace(**changes))


class Actor:
    """Base class for simulation actors.

    An actor has a globally unique ``name``, lives at a ``site`` and receives
    messages through :meth:`handle`.  Subclasses implement the behaviour; the
    network performs delivery and latency accounting.

    ``crashable`` marks the actors the fault model can take down with their
    site (the data layer: queue managers and commit participants).  Request
    issuers stay up — the paper's transactions originate from terminals, so
    a data-site failure must not silently erase the coordinator driving them.
    """

    #: Whether a site crash takes this actor down (messages to it are dropped
    #: while its site is down).  Overridden by the data-layer actors.
    crashable: bool = False

    #: Whether a *coordinator* crash takes this actor down: the transaction
    #: manager process failing while the site's data layer stays up.  Only the
    #: request issuer overrides this — participants and queue managers belong
    #: to the data layer and keep running through a coordinator blackout.
    coordinator_crashable: bool = False

    def __init__(self, name: str, site: SiteId) -> None:
        self.name = name
        self.site = site

    def handle(self, message: Message) -> None:
        """Process one delivered message.  Subclasses must override."""
        raise NotImplementedError(f"{type(self).__name__} does not handle messages")
