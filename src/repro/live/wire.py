"""The live-mode wire codec: tagged JSON values in length-prefixed frames.

Every message the protocol stack sends — requests, grants, back-offs,
prepares, votes, decisions, recovery queries, transaction submissions and
the audit events the daemons forward to the driver — is one
:class:`~repro.sim.actor.Message` envelope encoded as a tagged JSON
document inside a ``4-byte big-endian length + body`` frame.

Tagging: JSON cannot carry tuples, enums, dataclasses or non-string
dictionary keys, all of which the payload types use.  Every non-primitive
value is wrapped in an object with a ``"__t"`` tag — ``"tuple"``,
``"dict"`` (encoded as a key/value pair list so keys may be any encodable
value, e.g. ``CopyId``), an enum tag, or a registered dataclass or id type
name with its fields encoded recursively.  The id types are tuples, so they
are matched by exact class before the generic tuple tag and decode to their
own class, never to a plain tuple.  Decoding reverses the wrapping exactly,
so ``decode(encode(x)) == x`` *and* ``encode(decode(b)) == b`` — the
round-trip is byte-identical, which the Hypothesis property tests pin.

Error handling is strict and typed: any malformed input — an oversized or
negative length prefix, invalid JSON, an unknown tag, a wrong field set, a
transaction spec carrying a non-serialisable ``logic`` callable — raises
:class:`WireError` instead of producing a half-decoded value or hanging
the reader.  :class:`FrameDecoder` is incremental (feed it bytes as they
arrive off a socket, in any chunking) and reports a truncated final frame
through :meth:`FrameDecoder.check_eof`.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import struct
from typing import Any, Dict, Iterable, List, Tuple, Type

from repro.commit.messages import (
    AckMessage,
    DecisionMessage,
    PeerQuery,
    PeerReply,
    PrepareRequest,
    StatusQuery,
    StatusReply,
    VoteMessage,
)
from repro.common.ids import CopyId, RequestId, TransactionId
from repro.common.operations import LogicalOperation, OperationType, PhysicalOperation
from repro.common.protocol_names import Protocol
from repro.common.transactions import TransactionSpec
from repro.core.effects import BackoffIssued, GrantIssued, RequestRejected
from repro.core.locks import LockMode
from repro.core.requests import Request
from repro.sim.actor import Message
from repro.storage.log import CommitDecision, LogEntry
from repro.system.queue_manager_actor import GrantDelivery


class WireError(Exception):
    """A frame or value that cannot be encoded or decoded."""


#: Frames above this size are rejected outright: nothing the protocol sends
#: comes near it, so a larger prefix means a corrupted or hostile stream.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: Dataclasses allowed on the wire, keyed by their tag.  The tag is the
#: class name; registration is explicit (not import-time magic) so the set
#: of decodable types — and therefore what a hostile peer can make the
#: decoder construct — is a closed list.
_DATACLASSES: Dict[str, Type[Any]] = {
    cls.__name__: cls
    for cls in (
        LogicalOperation,
        PhysicalOperation,
        Request,
        GrantIssued,
        BackoffIssued,
        RequestRejected,
        GrantDelivery,
        TransactionSpec,
        LogEntry,
        PrepareRequest,
        VoteMessage,
        DecisionMessage,
        StatusQuery,
        StatusReply,
        PeerQuery,
        PeerReply,
        AckMessage,
    )
}

#: The id types, keyed by their tag.  Ids are tuples, so they are told
#: apart from plain tuples by exact class ahead of the generic tuple branch;
#: their body is a field object, exactly as a dataclass's, and they decode
#: to their own class.
_IDS: Dict[str, Type[tuple]] = {cls.__name__: cls for cls in (TransactionId, CopyId, RequestId)}

#: Enums allowed on the wire, keyed by their tag (encoded by member name).
_ENUMS: Dict[str, Type[enum.Enum]] = {
    cls.__name__: cls
    for cls in (Protocol, OperationType, LockMode, CommitDecision)
}


def register_wire_dataclass(cls: Type[Any]) -> Type[Any]:
    """Add a dataclass to the codec registry (usable as a decorator).

    The live daemon/driver control payloads register themselves through
    this instead of being hard-wired here, keeping the codec's core list
    limited to the protocol types.
    """
    if not dataclasses.is_dataclass(cls):
        raise WireError(f"{cls!r} is not a dataclass")
    existing = _DATACLASSES.get(cls.__name__, _IDS.get(cls.__name__))
    if existing is not None and existing is not cls:
        raise WireError(f"wire tag {cls.__name__!r} is already registered")
    _DATACLASSES[cls.__name__] = cls
    return cls


def _encode(value: Any) -> Any:
    """Recursively wrap ``value`` into its JSON-safe tagged form."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # Non-finite floats have no JSON representation (and json.dumps
        # would emit non-standard tokens); nothing on the wire needs them.
        if value != value or value in (float("inf"), float("-inf")):
            raise WireError(f"non-finite float {value!r} cannot go on the wire")
        return value
    if isinstance(value, tuple):
        cls = type(value)
        if _IDS.get(cls.__name__) is cls:
            fields = {name: _encode(item) for name, item in zip(cls._fields, value)}
            return {"__t": cls.__name__, "v": fields}
        return {"__t": "tuple", "v": [_encode(item) for item in value]}
    if isinstance(value, list):
        return {"__t": "list", "v": [_encode(item) for item in value]}
    if isinstance(value, dict):
        return {"__t": "dict", "v": [[_encode(k), _encode(v)] for k, v in value.items()]}
    cls = type(value)
    if isinstance(value, enum.Enum):
        if _ENUMS.get(cls.__name__) is not cls:
            raise WireError(f"enum {cls.__name__!r} is not wire-encodable")
        return {"__t": cls.__name__, "v": value.name}
    if dataclasses.is_dataclass(value) and _DATACLASSES.get(cls.__name__) is cls:
        if cls is TransactionSpec and value.logic is not None:
            raise WireError(
                f"transaction {value.tid} carries a logic callable; live mode "
                "requires wire-serialisable specs (logic=None)"
            )
        fields = {
            f.name: _encode(getattr(value, f.name))
            for f in dataclasses.fields(cls)
            if f.init and not (cls is TransactionSpec and f.name == "logic")
        }
        return {"__t": cls.__name__, "v": fields}
    raise WireError(f"value of type {cls.__name__!r} is not wire-encodable")


def _decode(value: Any) -> Any:
    """Reverse :func:`_encode`, rejecting unknown tags and malformed shapes."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        # A bare array can only come from a hand-built frame (the encoder
        # always tags sequences); decode it as a list for symmetry.
        return [_decode(item) for item in value]
    if not isinstance(value, dict):
        raise WireError(f"undecodable JSON value {value!r}")
    tag = value.get("__t")
    if not isinstance(tag, str) or "v" not in value:
        raise WireError(f"tagged value missing __t/v: {value!r}")
    body = value["v"]
    try:
        if tag == "tuple":
            return tuple(_decode(item) for item in body)
        if tag == "list":
            return [_decode(item) for item in body]
        if tag == "dict":
            return {_decode(k): _decode(v) for k, v in body}
        enum_cls = _ENUMS.get(tag)
        if enum_cls is not None:
            return enum_cls[body]
        data_cls = _DATACLASSES.get(tag) or _IDS.get(tag)
        if data_cls is not None:
            if not isinstance(body, dict):
                raise WireError(f"record body for {tag!r} is not an object")
            return data_cls(**{str(name): _decode(item) for name, item in body.items()})
    except WireError:
        raise
    except Exception as error:
        raise WireError(f"cannot decode {tag!r} payload: {error}") from error
    raise WireError(f"unknown wire tag {tag!r}")


def encode_message(message: Message) -> bytes:
    """Encode one envelope into a complete length-prefixed frame."""
    document = {
        "kind": message.kind,
        "sender": message.sender,
        "receiver": message.receiver,
        "payload": _encode(message.payload),
        "send_time": _encode(message.send_time),
        "metadata": [[_encode(k), _encode(v)] for k, v in message.metadata.items()],
    }
    try:
        body = json.dumps(
            document, separators=(",", ":"), sort_keys=True, allow_nan=False
        ).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise WireError(f"message is not JSON-encodable: {error}") from error
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return _LENGTH.pack(len(body)) + body


def decode_frame_body(body: bytes) -> Message:
    """Decode one frame body (without its length prefix) into an envelope."""
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"frame body is not valid JSON: {error}") from error
    if not isinstance(document, dict):
        raise WireError("frame body is not a JSON object")
    try:
        kind = document["kind"]
        sender = document["sender"]
        receiver = document["receiver"]
    except KeyError as error:
        raise WireError(f"frame is missing the {error.args[0]!r} field") from None
    if not (isinstance(kind, str) and isinstance(sender, str) and isinstance(receiver, str)):
        raise WireError("frame kind/sender/receiver must be strings")
    metadata_pairs = document.get("metadata", [])
    if not isinstance(metadata_pairs, list):
        raise WireError("frame metadata must be a pair list")
    try:
        metadata = {_decode(k): _decode(v) for k, v in metadata_pairs}
    except (TypeError, ValueError) as error:
        raise WireError(f"malformed metadata pair list: {error}") from error
    send_time = document.get("send_time", 0.0)
    if not isinstance(send_time, (int, float)) or isinstance(send_time, bool):
        raise WireError("frame send_time must be a number")
    return Message(
        kind=kind,
        sender=sender,
        receiver=receiver,
        payload=_decode(document.get("payload")),
        send_time=float(send_time),
        metadata=metadata,
    )


class FrameDecoder:
    """Incremental frame reader: feed arbitrary byte chunks, get envelopes.

    The decoder buffers partial frames across :meth:`feed` calls, so the
    stream may be split at *any* byte boundary (the Hypothesis tests feed
    one frame one byte at a time).  Malformed input raises
    :class:`WireError` at the earliest detectable point — a length prefix
    above :data:`MAX_FRAME_BYTES` is rejected before its body is read, and
    :meth:`check_eof` turns "the peer hung up mid-frame" into an error
    instead of a silent stall.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently held waiting for the rest of their frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Message]:
        """Absorb ``data`` and return every envelope it completed, in order."""
        self._buffer.extend(data)
        messages: List[Message] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return messages
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise WireError(
                    f"frame length {length} exceeds the {MAX_FRAME_BYTES} cap"
                )
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return messages
            body = bytes(self._buffer[_LENGTH.size:end])
            del self._buffer[:end]
            messages.append(decode_frame_body(body))

    def check_eof(self) -> None:
        """Raise :class:`WireError` when the stream ended inside a frame."""
        if self._buffer:
            raise WireError(
                f"stream ended mid-frame with {len(self._buffer)} bytes buffered"
            )


def iter_frames(payloads: Iterable[Message]) -> Tuple[bytes, ...]:
    """Encode several envelopes into their concatenation-ready frames."""
    return tuple(encode_message(message) for message in payloads)
