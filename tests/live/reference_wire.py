"""The reference wire codec: a plain recursive walk over the tagged-JSON format.

This is the codec :mod:`repro.live.wire` shipped before its encoders were
compiled per type and its decoder moved into ``json``'s parser.  It is
kept as the specification the fast codec is tested against
(``tests/live/test_wire_codec.py``): for every value, both encoders must
produce the same bytes, both decoders the same values of the same exact
classes, and every frame this decoder rejects the fast one must reject
too.  It shares the fast codec's closed registry of record, enum and id
types.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Any

from repro.common.transactions import TransactionSpec
from repro.live.wire import _DATACLASSES, _ENUMS, _IDS, _LENGTH, MAX_FRAME_BYTES, WireError
from repro.sim.actor import Message


def encode_value(value: Any) -> Any:
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
            fields = {name: encode_value(item) for name, item in zip(cls._fields, value)}
            return {"__t": cls.__name__, "v": fields}
        return {"__t": "tuple", "v": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"__t": "list", "v": [encode_value(item) for item in value]}
    if isinstance(value, dict):
        return {
            "__t": "dict",
            "v": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
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
            f.name: encode_value(getattr(value, f.name))
            for f in dataclasses.fields(cls)
            if f.init and not (cls is TransactionSpec and f.name == "logic")
        }
        return {"__t": cls.__name__, "v": fields}
    raise WireError(f"value of type {cls.__name__!r} is not wire-encodable")


def decode_value(value: Any) -> Any:
    """Reverse :func:`encode_value`, rejecting unknown tags and malformed shapes."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        # A bare array can only come from a hand-built frame (the encoder
        # always tags sequences); decode it as a list for symmetry.
        return [decode_value(item) for item in value]
    if not isinstance(value, dict):
        raise WireError(f"undecodable JSON value {value!r}")
    tag = value.get("__t")
    if not isinstance(tag, str) or "v" not in value:
        raise WireError(f"tagged value missing __t/v: {value!r}")
    body = value["v"]
    try:
        if tag == "tuple":
            return tuple(decode_value(item) for item in body)
        if tag == "list":
            return [decode_value(item) for item in body]
        if tag == "dict":
            return {decode_value(k): decode_value(v) for k, v in body}
        enum_cls = _ENUMS.get(tag)
        if enum_cls is not None:
            return enum_cls[body]
        data_cls = _DATACLASSES.get(tag) or _IDS.get(tag)
        if data_cls is not None:
            if not isinstance(body, dict):
                raise WireError(f"record body for {tag!r} is not an object")
            return data_cls(**{str(name): decode_value(item) for name, item in body.items()})
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
        "payload": encode_value(message.payload),
        "send_time": encode_value(message.send_time),
        "metadata": [[encode_value(k), encode_value(v)] for k, v in message.metadata.items()],
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
        metadata = {decode_value(k): decode_value(v) for k, v in metadata_pairs}
    except (TypeError, ValueError) as error:
        raise WireError(f"malformed metadata pair list: {error}") from error
    send_time = document.get("send_time", 0.0)
    if not isinstance(send_time, (int, float)) or isinstance(send_time, bool):
        raise WireError("frame send_time must be a number")
    return Message(
        kind=kind,
        sender=sender,
        receiver=receiver,
        payload=decode_value(document.get("payload")),
        send_time=float(send_time),
        metadata=metadata,
    )
