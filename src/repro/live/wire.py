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

The bytes are those of ``json.dumps(document, separators=(",", ":"),
sort_keys=True)`` over the tagged document, but the codec never builds that
document.  Encoding is compiled: every registered record and id type gets
one emitter, a closure made when this module loads (and when
:func:`register_wire_dataclass` adds a class).  It reads the fields with
one ``operator.attrgetter`` (an id's with one ``itemgetter``) and writes
JSON text directly, with the keys pre-sorted and pre-escaped.  Each field
is dispatched on its exact class: ``None``, the booleans and every enum
member are constant text, strings are escaped by ``json``'s own C escaper
and floats written by ``float.__repr__``, as ``json.dumps`` writes them.  A
value whose exact class has no emitter (a subclass, an unregistered type)
takes the generic path, which follows the tagged format's rules one
``isinstance`` at a time.
Decoding runs inside ``json``'s C parser: its object hook turns each tagged
object into its value bottom-up, and an untagged object is accepted only as
the envelope or as a record's body.  ``tests/live/golden_wire_frames.json``
pins the SHA-256 of a fixed corpus of frames, and a Hypothesis differential
holds both directions to the plain recursive codec kept in
``tests/live/reference_wire.py``.

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
from json.decoder import WHITESPACE
from json.encoder import encode_basestring_ascii as _escape
from math import isfinite
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Iterable, List, Tuple, Type

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
from repro.sim.actor import _EMPTY_METADATA, Message
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

# --------------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------------- #

_float_repr = float.__repr__
_int_repr = int.__repr__
_INFINITIES = (float("inf"), float("-inf"))

#: JSON text of the values that are singletons — ``None``, the booleans and
#: every registered enum member — keyed by ``id()``.  The objects are alive
#: for the whole process, so no other live object can share their ids, and
#: the lookup costs no Python-level ``__hash__`` (``Enum`` has one).
_CONSTANT_TEXT: Dict[int, str] = {id(None): "null", id(True): "true", id(False): "false"}
_constant_text = _CONSTANT_TEXT.get


def _emit_float(value: float) -> str:
    if isfinite(value):
        return _float_repr(value)
    raise WireError(f"non-finite float {value!r} cannot go on the wire")


def _emit_tuple(value: tuple) -> str:
    items = ",".join([_constant_text(id(x)) or _EMITTERS[type(x)](x) for x in value])
    return f'{{"__t":"tuple","v":[{items}]}}'


def _emit_list(value: list) -> str:
    items = ",".join([_constant_text(id(x)) or _EMITTERS[type(x)](x) for x in value])
    return f'{{"__t":"list","v":[{items}]}}'


def _emit_dict(value: dict) -> str:
    return f'{{"__t":"dict","v":{_emit_pairs(value)}}}'


def _emit_pairs(mapping: Any) -> str:
    """``[[key,value],...]`` over ``mapping.items()`` (a dict body, the metadata)."""
    pairs = ",".join(
        [
            f"[{_constant_text(id(k)) or _EMITTERS[type(k)](k)},"
            f"{_constant_text(id(v)) or _EMITTERS[type(v)](v)}]"
            for k, v in mapping.items()
        ]
    )
    return f"[{pairs}]"


def _emit_other(value: Any) -> str:
    """The generic path: a value that is not a constant and whose exact class has no emitter.

    It applies the format's rules in their defining order — strings, ints,
    floats, tuples, lists, dicts — so a subclass of a primitive or container
    is written as its base, exactly as ``json.dumps`` writes it, and
    anything else is refused.
    """
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, int):
        return _int_repr(value)
    if isinstance(value, float):
        if value != value or value in _INFINITIES:
            raise WireError(f"non-finite float {value!r} cannot go on the wire")
        return _float_repr(value)
    if isinstance(value, tuple):  # an exact id class has its own emitter
        return _emit_tuple(value)
    if isinstance(value, list):
        return _emit_list(value)
    if isinstance(value, dict):
        return _emit_dict(value)
    if isinstance(value, enum.Enum):  # a registered enum's members are constants
        raise WireError(f"enum {type(value).__name__!r} is not wire-encodable")
    raise WireError(f"value of type {type(value).__name__!r} is not wire-encodable")


class _Emitters(dict):
    """Exact class -> emitter; a class with no entry takes :func:`_emit_other`."""

    def __missing__(self, cls: type) -> Callable[[Any], str]:
        return _emit_other


_EMITTERS: Dict[type, Callable[[Any], str]] = _Emitters(
    {
        str: _escape,
        int: _int_repr,
        float: _emit_float,
        tuple: _emit_tuple,
        list: _emit_list,
        dict: _emit_dict,
    }
)


def _compile_emitter(tag: str, names: List[str], get: Callable) -> Callable[[Any], str]:
    """The emitter of a record tagged ``tag`` whose ``get`` reads ``names`` (sorted) in order.

    ``get(value)`` returns the field values in that order (one bare value
    for a single field, as ``attrgetter`` and ``itemgetter`` do); each is
    written after its pre-escaped key.
    """
    head = f'{{"__t":{_escape(tag)},"v":{{'
    if not names:
        text = head + "}}"
        return lambda value: text
    keys = [f"{_escape(names[0])}:"] + [f",{_escape(name)}:" for name in names[1:]]
    if len(names) == 1:
        head += keys[0]

        def emit_one(value: Any) -> str:
            x = get(value)
            return f"{head}{_constant_text(id(x)) or _EMITTERS[type(x)](x)}}}}}"

        return emit_one

    def emit(value: Any) -> str:
        text = head
        for key, x in zip(keys, get(value)):
            text += key + (_constant_text(id(x)) or _EMITTERS[type(x)](x))
        return text + "}}"

    return emit


def _compile_record(cls: Type[Any]) -> Callable[[Any], str]:
    """The emitter of a registered dataclass: its init fields, read by one attrgetter."""
    names = sorted(
        f.name
        for f in dataclasses.fields(cls)
        if f.init and not (cls is TransactionSpec and f.name == "logic")
    )
    emit = _compile_emitter(cls.__name__, names, attrgetter(*names) if names else None)
    if cls is not TransactionSpec:
        return emit

    def emit_spec(spec: TransactionSpec) -> str:
        if spec.logic is not None:
            raise WireError(
                f"transaction {spec.tid} carries a logic callable; live mode "
                "requires wire-serialisable specs (logic=None)"
            )
        return emit(spec)

    return emit_spec


def _compile_id(cls: Type[tuple]) -> Callable[[tuple], str]:
    """The emitter of an id type: its fields by position, in sorted name order."""
    names = sorted(cls._fields)
    get = itemgetter(*(cls._fields.index(name) for name in names))
    return _compile_emitter(cls.__name__, names, get)


def _emit_envelope_field(value: Any) -> str:
    """``kind``/``sender``/``receiver`` text: a string, or whatever ``json`` makes of it."""
    if isinstance(value, str):
        return _escape(value)
    return json.dumps(value, separators=(",", ":"), sort_keys=True, allow_nan=False)


def encode_message(message: Message) -> bytes:
    """Encode one envelope into a complete length-prefixed frame."""
    kind, sender, receiver, payload, send_time, _, metadata = message
    try:
        if type(send_time) is float and isfinite(send_time):
            time_text = _float_repr(send_time)
        else:
            time_text = _constant_text(id(send_time)) or _EMITTERS[type(send_time)](send_time)
        metadata_text = _emit_pairs(metadata) if metadata else "[]"
        payload_text = _constant_text(id(payload)) or _EMITTERS[type(payload)](payload)
        if type(kind) is str and type(sender) is str and type(receiver) is str:
            kind, sender, receiver = _escape(kind), _escape(sender), _escape(receiver)
        else:
            kind, sender, receiver = map(_emit_envelope_field, (kind, sender, receiver))
        body = (
            f'{{"kind":{kind},"metadata":{metadata_text},"payload":{payload_text},'
            f'"receiver":{receiver},"send_time":{time_text},"sender":{sender}}}'
        ).encode()
    except (TypeError, ValueError) as error:
        raise WireError(f"message is not JSON-encodable: {error}") from error
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return _LENGTH.pack(len(body)) + body


# --------------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------------- #

#: How the object hook decodes each tag: ``(kind, argument)``.  A record's
#: argument is ``(cls, get, size)``: an id type (``size`` fields, ``get``
#: reads them from the body in order) is built straight from its field
#: tuple; a dataclass (``size`` 0) through its constructor.
_TUPLE, _LIST, _DICT, _ENUM, _RECORD = range(5)
_DECODERS: Dict[str, Tuple[int, Any]] = {
    "tuple": (_TUPLE, None),
    "list": (_LIST, None),
    "dict": (_DICT, None),
}

#: What a dict or metadata pair may be: a JSON array, or (as the reference
#: format always allowed) a two-character string.
_PAIR_TYPES = frozenset((list, str))

#: What no parse produces: the "last untagged object" before the first one.
_NOTHING = object()

_tuple_new = tuple.__new__
_skip_space = WHITESPACE.match


def _make_decoder() -> Callable[[Any], Message]:
    """A frame-body decoder with its own parser state (one per stream).

    The object hook runs inside ``json``'s parser, bottom-up.  It counts the
    untagged objects it sees and the ones a record tag consumes as its body
    (a record's body is always the last untagged object closed before the
    record itself), so after the parse ``untagged == consumed + 1`` holds
    exactly when the only other untagged object is the envelope.  Lists a
    ``"list"`` tag produced are remembered by ``id`` (they stay alive in the
    decoded tree) so they are never taken for a raw JSON array where the
    format wants one: a container tag's body, a dict pair, the metadata.
    """
    untagged = consumed = 0
    last_untagged: Any = _NOTHING
    tagged_lists: set = set()

    def pairs(body: list) -> dict:
        # Every pair must be a raw JSON array (or a string), never a tagged value.
        if not _PAIR_TYPES.issuperset(map(type, body)):
            raise ValueError("a pair is not a JSON array")
        if tagged_lists and not tagged_lists.isdisjoint(map(id, body)):
            raise ValueError("a pair is a tagged list")
        return dict(body)

    def hook(obj: dict) -> Any:
        nonlocal untagged, consumed, last_untagged
        if "__t" not in obj:
            untagged += 1
            last_untagged = obj
            return obj
        tag = obj["__t"]
        if type(tag) is not str or "v" not in obj:
            raise WireError(f"tagged value missing __t/v: {obj!r}")
        if len(obj) != 2:
            raise WireError(f"tagged value has keys besides __t and v: {obj!r}")
        decoder = _DECODERS.get(tag)
        if decoder is None:
            raise WireError(f"unknown wire tag {tag!r}")
        body = obj["v"]
        kind, argument = decoder
        if kind == _RECORD:
            if body is not last_untagged:
                raise WireError(f"record body for {tag!r} is not an object")
            consumed += 1
            cls, get, size = argument
            if size and len(body) == size:
                try:
                    return _tuple_new(cls, get(body))
                except KeyError:
                    pass
            try:
                return cls(**body)
            except Exception as error:
                raise WireError(f"cannot decode {tag!r} payload: {error}") from error
        if kind == _ENUM:
            try:
                return argument[body]
            except (KeyError, TypeError) as error:
                raise WireError(f"cannot decode {tag!r} payload: {error}") from error
        if not ((type(body) is list and id(body) not in tagged_lists) or type(body) is str):
            raise WireError(f"cannot decode {tag!r} payload: body is not a JSON array")
        if kind == _TUPLE:
            return tuple(body)
        if kind == _DICT:
            try:
                return pairs(body)
            except (TypeError, ValueError) as error:
                raise WireError(f"cannot decode {tag!r} payload: {error}") from error
        result = body if type(body) is list else list(body)
        tagged_lists.add(id(result))
        return result

    scan = json.JSONDecoder(object_hook=hook).scan_once

    def decode(body: Any) -> Message:
        nonlocal untagged, consumed, last_untagged
        untagged = consumed = 0
        last_untagged = _NOTHING
        tagged_lists.clear()
        try:
            text = body.decode("utf-8")
            if text.startswith("\ufeff"):
                raise json.JSONDecodeError("Unexpected UTF-8 BOM", text, 0)
            try:
                document, end = scan(text, _skip_space(text, 0).end())
            except StopIteration as stop:
                raise json.JSONDecodeError("Expecting value", text, stop.value) from None
            if end != len(text) and _skip_space(text, end).end() != len(text):
                raise json.JSONDecodeError("Extra data", text, end)
        except ValueError as error:  # UnicodeDecodeError, JSONDecodeError, int digit limit
            raise WireError(f"frame body is not valid JSON: {error}") from error
        if type(document) is not dict:
            raise WireError("frame body is not a JSON object")
        if document is not last_untagged:
            raise WireError("frame body is a tagged value, not an envelope")
        if untagged != consumed + 1:
            raise WireError("tagged value missing __t/v: an untagged object outside a record body")
        try:
            kind = document["kind"]
            sender = document["sender"]
            receiver = document["receiver"]
        except KeyError as error:
            raise WireError(f"frame is missing the {error.args[0]!r} field") from None
        if not (type(kind) is str and type(sender) is str and type(receiver) is str):
            raise WireError("frame kind/sender/receiver must be strings")
        metadata_pairs = document.get("metadata", [])
        if type(metadata_pairs) is not list or id(metadata_pairs) in tagged_lists:
            raise WireError("frame metadata must be a pair list")
        metadata = _EMPTY_METADATA
        if metadata_pairs:
            try:
                metadata = pairs(metadata_pairs)
            except (TypeError, ValueError) as error:
                raise WireError(f"malformed metadata pair list: {error}") from error
        send_time = document.get("send_time", 0.0)
        if not isinstance(send_time, (int, float)) or isinstance(send_time, bool):
            raise WireError("frame send_time must be a number")
        payload = document.get("payload")
        return Message(kind, sender, receiver, payload, float(send_time), 0.0, metadata)

    return decode


def _install(tag: str, cls: type) -> None:
    """Compile ``cls``'s emitter and decoder entry (a registered record or id type).

    A tag that is already a container or enum tag keeps decoding as one,
    as the format's rule order has it.
    """
    if _IDS.get(tag) is cls:
        _EMITTERS[cls] = _compile_id(cls)
        entry = (_RECORD, (cls, itemgetter(*cls._fields), len(cls._fields)))
    else:
        _EMITTERS[cls] = _compile_record(cls)
        entry = (_RECORD, (cls, None, 0))
    if _DECODERS.setdefault(tag, entry)[0] == _RECORD:
        _DECODERS[tag] = entry


for _tag, _enum_cls in _ENUMS.items():
    _DECODERS[_tag] = (_ENUM, dict(_enum_cls.__members__))
    for _member in _enum_cls:
        _CONSTANT_TEXT[id(_member)] = f'{{"__t":{_escape(_tag)},"v":{_escape(_member.name)}}}'
for _tag, _record_cls in (*_IDS.items(), *_DATACLASSES.items()):
    _install(_tag, _record_cls)


def register_wire_dataclass(cls: Type[Any]) -> Type[Any]:
    """Add a dataclass to the codec registry (usable as a decorator).

    The live daemon/driver control payloads register themselves through
    this instead of being hard-wired here, keeping the codec's core list
    limited to the protocol types.  Registering compiles the class's
    emitter and decoder entry.
    """
    if not dataclasses.is_dataclass(cls):
        raise WireError(f"{cls!r} is not a dataclass")
    existing = _DATACLASSES.get(cls.__name__, _IDS.get(cls.__name__))
    if existing is not None and existing is not cls:
        raise WireError(f"wire tag {cls.__name__!r} is already registered")
    _DATACLASSES[cls.__name__] = cls
    _install(cls.__name__, cls)
    return cls


def decode_frame_body(body: bytes) -> Message:
    """Decode one frame body (without its length prefix) into an envelope."""
    return _make_decoder()(body)


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
        self._decode = _make_decoder()

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently held waiting for the rest of their frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Message]:
        """Absorb ``data`` and return every envelope it completed, in order."""
        buffer = self._buffer
        buffer += data
        messages: List[Message] = []
        start = 0
        available = len(buffer)
        try:
            while available - start >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(buffer, start)
                if length > MAX_FRAME_BYTES:
                    raise WireError(f"frame length {length} exceeds the {MAX_FRAME_BYTES} cap")
                end = start + _LENGTH.size + length
                if available < end:
                    break
                body = buffer[start + _LENGTH.size : end]
                start = end
                messages.append(self._decode(body))
        finally:
            del buffer[:start]
        return messages

    def check_eof(self) -> None:
        """Raise :class:`WireError` when the stream ended inside a frame."""
        if self._buffer:
            raise WireError(
                f"stream ended mid-frame with {len(self._buffer)} bytes buffered"
            )


def iter_frames(payloads: Iterable[Message]) -> Tuple[bytes, ...]:
    """Encode several envelopes into their concatenation-ready frames."""
    return tuple(encode_message(message) for message in payloads)
