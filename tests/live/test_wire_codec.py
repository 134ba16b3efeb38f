"""Property tests for the live wire codec and the frozen message envelope.

The codec's contract is stronger than "decode(encode(x)) == x": re-encoding
the decoded message must reproduce the original frame *byte for byte*, and
the incremental :class:`~repro.live.wire.FrameDecoder` must tolerate the
stream being split at any byte boundary — exactly what a TCP receiver sees.
Hypothesis drives both properties over the full set of registered payload
types (ids, requests, commit messages, specs, tuples, and dicts keyed by
non-string values such as ``CopyId``).  The id types are tuples, so a
further property walks every decoded value and checks that each id — bare,
nested in a container, a dict key, or a field of a registered payload —
comes back as its exact class and not as a plain tuple.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.live.wire import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    WireError,
    decode_frame_body,
    encode_message,
)
from repro.sim.actor import Message
from repro.storage.log import CommitDecision, LogEntry
from repro.system.queue_manager_actor import GrantDelivery
from tests.live import reference_wire

# ---------------------------------------------------------------------------
# Strategies over the registered wire types
# ---------------------------------------------------------------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
small_text = st.text(max_size=12)
names = st.text(min_size=1, max_size=16)

tids = st.builds(TransactionId, site=st.integers(0, 7), seq=st.integers(0, 999))
copies = st.builds(CopyId, item=st.integers(0, 63), site=st.integers(0, 7))
request_ids = st.builds(
    RequestId, transaction=tids, index=st.integers(0, 9), attempt=st.integers(0, 4)
)
protocols = st.sampled_from(list(Protocol))
op_types = st.sampled_from(list(OperationType))
lock_modes = st.sampled_from(list(LockMode))
decisions = st.sampled_from(list(CommitDecision))

requests = st.builds(
    Request,
    request_id=request_ids,
    transaction=tids,
    protocol=protocols,
    op_type=op_types,
    copy=copies,
    timestamp=finite_floats,
    backoff_interval=finite_floats,
    issuer=small_text,
)

grants = st.builds(
    GrantIssued,
    request=requests,
    mode=lock_modes,
    normal=st.booleans(),
    time=finite_floats,
)

effects = st.one_of(
    grants,
    st.builds(BackoffIssued, request=requests, new_timestamp=finite_floats, time=finite_floats),
    st.builds(RequestRejected, request=requests, time=finite_floats, reason=small_text),
)

#: Values a frame payload may carry, including nested containers and dicts
#: whose keys are dataclasses (the ``writes: Dict[CopyId, Any]`` case).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    finite_floats,
    small_text,
    tids,
    copies,
    request_ids,
    protocols,
    op_types,
    lock_modes,
    decisions,
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=3),
        st.dictionaries(st.one_of(small_text, copies, tids), children, max_size=3),
    ),
    max_leaves=8,
)

# TransactionSpec validates itself (non-empty access set, non-negative
# times), so the strategy only generates legal specs.
non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
specs = st.builds(
    TransactionSpec,
    tid=tids,
    read_items=st.tuples(st.integers(0, 63)),
    write_items=st.tuples(st.integers(0, 63)),
    compute_time=non_negative,
    protocol=st.one_of(st.none(), protocols),
    arrival_time=non_negative,
)

prepares = st.builds(
    PrepareRequest,
    transaction=tids,
    attempt=st.integers(0, 4),
    coordinator=names,
    requests=st.tuples(requests),
    writes=st.dictionaries(copies, values, max_size=3),
    participants=st.tuples(st.integers(0, 7)),
    force_log=st.booleans(),
    ack_decision=st.one_of(st.none(), decisions),
)

attempts = st.integers(0, 4)
sites = st.integers(0, 7)
commit_messages = st.one_of(
    prepares,
    st.builds(VoteMessage, transaction=tids, attempt=attempts, site=sites, commit=st.booleans()),
    st.builds(DecisionMessage, transaction=tids, attempt=attempts, decision=decisions),
    st.builds(StatusQuery, transaction=tids, attempt=attempts, reply_to=names),
    st.builds(StatusReply, transaction=tids, attempt=attempts, decision=decisions),
    st.builds(PeerQuery, transaction=tids, attempt=attempts, reply_to=names),
    st.builds(
        PeerReply,
        transaction=tids,
        attempt=attempts,
        decision=st.one_of(st.none(), decisions),
        site=sites,
    ),
    st.builds(AckMessage, transaction=tids, attempt=attempts, site=sites),
)

payloads = st.one_of(
    values,
    requests,
    effects,
    specs,
    commit_messages,
    st.builds(LogicalOperation, op_type=op_types, item=st.integers(0, 63)),
    st.builds(PhysicalOperation, op_type=op_types, copy=copies),
    st.builds(
        LogEntry,
        copy=copies,
        transaction=tids,
        op_type=op_types,
        protocol=protocols,
        time=finite_floats,
        attempt=st.integers(0, 4),
    ),
)

grant_deliveries = st.builds(GrantDelivery, effect=grants, read_value=values)

#: Ids nested in every container the codec tags: tuples, lists, dict keys
#: (one id type per dict, as in the system), the ``(tid, attempt)`` pair —
#: next to plain int pairs, which must stay plain tuples.
ids = st.one_of(tids, copies, request_ids)
nested_ids = st.recursive(
    st.one_of(ids, st.tuples(st.integers(0, 9), st.integers(0, 9))),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.tuples(tids, attempts),
        st.lists(children, max_size=3),
        st.dictionaries(tids, children, max_size=3),
        st.dictionaries(copies, children, max_size=3),
        st.dictionaries(request_ids, children, max_size=3),
    ),
    max_leaves=8,
)

messages = st.builds(
    Message,
    kind=names,
    sender=names,
    receiver=names,
    payload=payloads,
    send_time=finite_floats,
    metadata=st.dictionaries(small_text, scalars, max_size=3),
)


def assert_same_message(left: Message, right: Message) -> None:
    """Field-wise envelope equality (metadata is a read-only view)."""
    assert left.kind == right.kind
    assert left.sender == right.sender
    assert left.receiver == right.receiver
    assert left.payload == right.payload
    assert left.send_time == right.send_time
    assert dict(left.metadata) == dict(right.metadata)


class TestRoundTrip:
    @given(message=messages)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_byte_identical(self, message: Message) -> None:
        frame = encode_message(message)
        decoded = decode_frame_body(frame[4:])
        assert_same_message(decoded, message)
        assert encode_message(decoded) == frame

    @given(batch=st.lists(messages, min_size=1, max_size=4), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_decoder_accepts_any_byte_boundary(self, batch, data) -> None:
        stream = b"".join(encode_message(message) for message in batch)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(stream)), max_size=8, unique=True)
            )
        )
        decoder = FrameDecoder()
        received = []
        previous = 0
        for cut in [*cuts, len(stream)]:
            received.extend(decoder.feed(stream[previous:cut]))
            previous = cut
        decoder.check_eof()
        assert len(received) == len(batch)
        for got, sent in zip(received, batch):
            assert_same_message(got, sent)

    @given(message=messages)
    @settings(max_examples=50, deadline=None)
    def test_one_byte_at_a_time(self, message: Message) -> None:
        frame = encode_message(message)
        decoder = FrameDecoder()
        received = []
        for index in range(len(frame)):
            received.extend(decoder.feed(frame[index : index + 1]))
        decoder.check_eof()
        assert len(received) == 1
        assert_same_message(received[0], message)


def assert_same_classes(left, right) -> None:
    """``left`` and ``right`` agree in exact class at every level.

    Ids are tuples, so ``==`` alone cannot tell a decoded ``TransactionId``
    from a plain ``(site, seq)`` tuple; this walk can.
    """
    assert type(left) is type(right), (left, right)
    if isinstance(left, (tuple, list)):
        assert len(left) == len(right)
        for mine, theirs in zip(left, right):
            assert_same_classes(mine, theirs)
    elif isinstance(left, dict):
        assert len(left) == len(right)
        for (key, value), (other_key, other_value) in zip(left.items(), right.items()):
            assert_same_classes(key, other_key)
            assert_same_classes(value, other_value)
    elif dataclasses.is_dataclass(left):
        for field in dataclasses.fields(left):
            assert_same_classes(getattr(left, field.name), getattr(right, field.name))


class TestIdsKeepTheirClass:
    """Ids decode to their exact class wherever they sit in a payload."""

    @given(payload=st.one_of(nested_ids, payloads, grant_deliveries))
    @settings(max_examples=300, deadline=None)
    def test_decoded_values_keep_their_exact_class(self, payload) -> None:
        frame = encode_message(Message("k", "a", "b", payload=payload))
        decoded = decode_frame_body(frame[4:]).payload
        assert decoded == payload
        assert_same_classes(decoded, payload)
        assert encode_message(Message("k", "a", "b", payload=decoded)) == frame

    def test_ids_and_plain_tuples_are_told_apart(self) -> None:
        payload = (TransactionId(0, 7), (0, 7), CopyId(0, 7), {TransactionId(1, 2): (1, 2)})
        decoded = decode_frame_body(
            encode_message(Message("k", "a", "b", payload=payload))[4:]
        ).payload
        assert [type(item) for item in decoded] == [TransactionId, tuple, CopyId, dict]
        assert type(next(iter(decoded[3]))) is TransactionId
        assert type(decoded[3][TransactionId(1, 2)]) is tuple


class TestMalformedFrames:
    def test_truncated_frame_reported_at_eof(self) -> None:
        frame = encode_message(Message("kind", "a", "b"))
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        with pytest.raises(WireError, match="mid-frame"):
            decoder.check_eof()

    def test_truncated_length_prefix_reported_at_eof(self) -> None:
        decoder = FrameDecoder()
        assert decoder.feed(b"\x00\x00") == []
        with pytest.raises(WireError, match="mid-frame"):
            decoder.check_eof()

    def test_oversized_length_prefix_rejected_before_body(self) -> None:
        decoder = FrameDecoder()
        with pytest.raises(WireError, match="exceeds"):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_invalid_json_body(self) -> None:
        with pytest.raises(WireError, match="JSON"):
            decode_frame_body(b"{not json")

    def test_non_utf8_body(self) -> None:
        with pytest.raises(WireError, match="JSON"):
            decode_frame_body(b"\xff\xfe")

    def test_non_object_body(self) -> None:
        with pytest.raises(WireError, match="object"):
            decode_frame_body(b"[1,2,3]")

    def test_missing_envelope_field(self) -> None:
        with pytest.raises(WireError, match="kind"):
            decode_frame_body(b'{"sender":"a","receiver":"b"}')

    def test_unknown_tag_rejected(self) -> None:
        body = json.dumps(
            {
                "kind": "k",
                "sender": "a",
                "receiver": "b",
                "payload": {"__t": "EvilClass", "v": {}},
            }
        ).encode()
        with pytest.raises(WireError, match="unknown wire tag"):
            decode_frame_body(body)

    def test_wrong_dataclass_fields_rejected(self) -> None:
        body = json.dumps(
            {
                "kind": "k",
                "sender": "a",
                "receiver": "b",
                "payload": {"__t": "TransactionId", "v": {"bogus": 1}},
            }
        ).encode()
        with pytest.raises(WireError, match="TransactionId"):
            decode_frame_body(body)

    def test_tag_without_value_rejected(self) -> None:
        body = json.dumps(
            {"kind": "k", "sender": "a", "receiver": "b", "payload": {"__t": "tuple"}}
        ).encode()
        with pytest.raises(WireError, match="__t/v"):
            decode_frame_body(body)

    def test_spec_with_logic_refused(self) -> None:
        spec = TransactionSpec(
            tid=TransactionId(site=0, seq=1),
            read_items=(1,),
            write_items=(2,),
            logic=lambda reads: {},
        )
        with pytest.raises(WireError, match="logic"):
            encode_message(Message("submit", "drv", "ri-0", payload=spec))

    def test_non_finite_float_refused(self) -> None:
        with pytest.raises(WireError, match="non-finite"):
            encode_message(Message("k", "a", "b", payload=float("inf")))
        with pytest.raises(WireError, match="non-finite"):
            encode_message(Message("k", "a", "b", payload=float("nan")))

    def test_unregistered_type_refused(self) -> None:
        class NotOnTheWire:
            pass

        with pytest.raises(WireError, match="not wire-encodable"):
            encode_message(Message("k", "a", "b", payload=NotOnTheWire()))


class TestMessageEnvelope:
    """Regression tests for the shared-mutable ``Message`` hazard.

    One envelope may be held by the transport queue, a trace hook, the
    receiving actor and (live mode) an outbound frame encoder at once; the
    fix froze the dataclass and made ``metadata`` a defensive read-only
    copy so no holder can change what the others observe.
    """

    def test_fields_are_frozen(self) -> None:
        message = Message("k", "a", "b", payload=1)
        with pytest.raises(AttributeError):
            message.kind = "other"
        with pytest.raises(AttributeError):
            message.payload = 2

    def test_metadata_view_is_read_only(self) -> None:
        message = Message("k", "a", "b", metadata={"hop": 1})
        with pytest.raises(TypeError):
            message.metadata["hop"] = 2

    def test_metadata_is_defensively_copied(self) -> None:
        source = {"hop": 1}
        message = Message("k", "a", "b", metadata=source)
        source["hop"] = 99
        source["extra"] = True
        assert dict(message.metadata) == {"hop": 1}

    def test_replace_copies_with_a_change(self) -> None:
        message = Message("k", "a", "b", payload=1, metadata={"hop": 1})
        moved = message.replace(deliver_time=2.5)
        assert type(moved) is Message
        assert (moved.kind, moved.payload, moved.deliver_time) == ("k", 1, 2.5)
        assert message.deliver_time == 0.0
        source = {"hop": 2}
        changed = message.replace(metadata=source)
        source["hop"] = 99
        assert dict(changed.metadata) == {"hop": 2}
        with pytest.raises(TypeError):
            changed.metadata["hop"] = 3
        bare = Message("k", "a", "b")
        assert bare.replace(deliver_time=1.0).metadata is bare.metadata


# ---------------------------------------------------------------------------
# Differential against the reference codec
# ---------------------------------------------------------------------------


def assert_same_decoding(new: Message, reference: Message) -> None:
    """Equal envelopes whose payload and metadata agree in exact class throughout."""
    assert_same_message(new, reference)
    assert_same_classes(new.payload, reference.payload)
    assert_same_classes(dict(new.metadata), dict(reference.metadata))


def reference_outcome(action, *args):
    """``("ok", result)`` or ``("rejected", None)`` when the reference raises ``WireError``."""
    try:
        return "ok", action(*args)
    except WireError:
        return "rejected", None


#: Tags, field names and keys the random frames draw from, so that many of
#: them are well-formed or nearly so.
TAGS = ["tuple", "list", "dict", "TransactionId", "CopyId", "LockMode", "VoteMessage", "Evil"]
KEYS = ["site", "seq", "item", "transaction", "attempt", "commit", "__t", "v", "x"]

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["READ", "WRITE", "ab", "", "tuple", "__t"]),
)


def _json_values(children):
    tagged = st.builds(lambda tag, body: {"__t": tag, "v": body}, st.sampled_from(TAGS), children)
    return st.one_of(
        tagged,
        st.builds(
            lambda tag, body, extra: {"__t": tag, "v": body, **extra},
            st.sampled_from(TAGS),
            children,
            st.dictionaries(st.sampled_from(KEYS), children, max_size=1),
        ),
        st.lists(children, max_size=3),
        st.lists(st.lists(children, min_size=2, max_size=2), max_size=2),
        st.dictionaries(st.sampled_from(KEYS), children, max_size=3),
    )


json_values = st.recursive(json_leaves, _json_values, max_leaves=10)

frames_json = st.builds(
    lambda envelope, extra: {**envelope, **extra},
    st.fixed_dictionaries(
        {"kind": st.just("k"), "sender": st.just("a"), "receiver": st.just("b")},
        optional={
            "payload": json_values,
            "metadata": st.one_of(
                st.lists(st.lists(json_values, min_size=2, max_size=2), max_size=2), json_values
            ),
            "send_time": st.one_of(st.integers(0, 9), st.floats(0, 9)),
        },
    ),
    st.dictionaries(st.sampled_from(["__t", "v", "extra"]), json_values, max_size=1),
)

#: The six envelope keys; the reference ignores any other.
ENVELOPE_KEYS = {"kind", "sender", "receiver", "payload", "send_time", "metadata"}


def stricter_case(document) -> bool:
    """Whether a frame the reference accepts falls in a case the new decoder rejects on purpose.

    They are: an envelope with a ``__t`` key; an envelope key the reference
    ignores holding anything but a plain JSON value; a tagged object with keys besides
    ``__t`` and ``v``; and a JSON object where the reference iterated a
    sequence — a tuple/list/dict tag's body, a dict or metadata pair.
    """

    def plain(value) -> bool:
        if isinstance(value, list):
            return all(plain(item) for item in value)
        return not isinstance(value, dict)

    def visit(value) -> bool:
        if isinstance(value, list):
            return any(visit(item) for item in value)
        if not isinstance(value, dict):
            return False
        if set(value) != {"__t", "v"}:
            return True
        body = value["v"]
        if value["__t"] in ("tuple", "list", "dict"):
            if isinstance(body, dict):
                return True
            if value["__t"] == "dict" and isinstance(body, list):
                if any(isinstance(pair, dict) for pair in body):
                    return True
                return any(visit(item) for pair in body for item in pair)
        if isinstance(body, dict) and "__t" not in body:
            return any(visit(item) for item in body.values())
        return visit(body)

    if "__t" in document:
        return True
    if any(not plain(document[key]) for key in set(document) - ENVELOPE_KEYS):
        return True
    metadata = document.get("metadata", [])
    if isinstance(metadata, list) and any(isinstance(pair, dict) for pair in metadata):
        return True
    return visit(document.get("payload")) or visit(metadata)


class TestReferenceDifferential:
    """The compiled codec against the plain recursive one, byte for byte and value for value."""

    @given(message=messages, payload=st.one_of(nested_ids, grant_deliveries, payloads))
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_and_same_values(self, message: Message, payload) -> None:
        for sent in (message, message.replace(payload=payload)):
            frame = encode_message(sent)
            assert frame == reference_wire.encode_message(sent)
            new = decode_frame_body(frame[4:])
            assert_same_decoding(new, reference_wire.decode_frame_body(frame[4:]))
            assert_same_classes(new.payload, sent.payload)

    @pytest.mark.parametrize(
        "body",
        [
            b"{not json",
            b"\xff\xfe",
            b"[1,2,3]",
            b'{"sender":"a","receiver":"b"}',
            b'{"kind":"k","sender":"a","receiver":"b","payload":{"__t":"EvilClass","v":{}}}',
            b'{"kind":"k","sender":"a","receiver":"b",'
            b'"payload":{"__t":"TransactionId","v":{"bogus":1}}}',
            b'{"kind":"k","sender":"a","receiver":"b","payload":{"__t":"tuple"}}',
            # An untagged object as a value: the payload, a tuple item, a field.
            b'{"kind":"k","sender":"a","receiver":"b","payload":{"x":1}}',
            b'{"kind":"k","sender":"a","receiver":"b","payload":{"__t":"tuple","v":[{"x":1}]}}',
            b'{"kind":"k","sender":"a","receiver":"b",'
            b'"payload":{"__t":"TransactionId","v":{"site":{"x":1},"seq":2}}}',
            b'{"kind":"k","sender":"a","receiver":"b","metadata":[[{"x":1},1]]}',
            # A record whose body is an array, or a tagged value.
            b'{"kind":"k","sender":"a","receiver":"b","payload":{"__t":"CopyId","v":[1,2]}}',
            b'{"kind":"k","sender":"a","receiver":"b",'
            b'"payload":{"__t":"CopyId","v":{"__t":"dict","v":[["item",1],["site",2]]}}}',
            # A dict whose body is not a list of pairs.
            b'{"kind":"k","sender":"a","receiver":"b","payload":{"__t":"dict","v":5}}',
            b'{"kind":"k","sender":"a","receiver":"b","payload":{"__t":"dict","v":[[1,2,3]]}}',
            b'{"kind":"k","sender":"a","receiver":"b","payload":{"__t":"dict","v":["abc"]}}',
            b'{"kind":"k","sender":"a","receiver":"b","payload":{"__t":"dict","v":[[[1],2]]}}',
            # Other shapes: enum names, envelope fields, metadata, send time.
            b'{"kind":"k","sender":"a","receiver":"b","payload":{"__t":"LockMode","v":"NOPE"}}',
            b'{"kind":"k","sender":"a","receiver":"b","payload":{"__t":"LockMode","v":[1]}}',
            b'{"kind":"k","sender":"a","receiver":"b","payload":{"__t":"tuple","v":7}}',
            b'{"kind":1,"sender":"a","receiver":"b"}',
            b'{"kind":"k","sender":"a","receiver":"b","metadata":{"x":1}}',
            b'{"kind":"k","sender":"a","receiver":"b","metadata":null}',
            b'{"kind":"k","sender":"a","receiver":"b","metadata":[[1]]}',
            b'{"kind":"k","sender":"a","receiver":"b","send_time":true}',
            b'{"kind":"k","sender":"a","receiver":"b","send_time":"0"}',
            b'{"kind":"k","sender":"a","receiver":"b"} extra',
            b"\xef\xbb\xbf{}",
            b"",
        ],
    )
    def test_what_the_reference_rejects_is_rejected(self, body: bytes) -> None:
        assert reference_outcome(reference_wire.decode_frame_body, body)[0] == "rejected"
        with pytest.raises(WireError):
            decode_frame_body(body)

    @pytest.mark.parametrize(
        "payload",
        [
            float("inf"),
            float("nan"),
            (1, [2, {3: -float("inf")}]),
            TransactionSpec(
                tid=TransactionId(0, 1), read_items=(1,), write_items=(), logic=lambda r: {}
            ),
            Protocol,
            object(),
            enum.Enum("Unregistered", "A").A,
            {TransactionId(0, 1): {"x": frozenset()}},
        ],
    )
    def test_values_the_reference_refuses_are_refused(self, payload) -> None:
        message = Message("k", "a", "b", payload=payload)
        assert reference_outcome(reference_wire.encode_message, message)[0] == "rejected"
        with pytest.raises(WireError):
            encode_message(message)
        with pytest.raises(WireError):
            encode_message(Message("k", "a", "b", metadata={"m": payload}))

    def test_subclasses_take_the_generic_path(self) -> None:
        class Int(int):
            def __repr__(self):
                return "Int!"

        class Float(float):
            def __repr__(self):
                return "Float!"

            __str__ = __repr__

        class Str(str):
            pass

        class Tuple(tuple):
            pass

        class List(list):
            pass

        class Dict(dict):
            pass

        class Small(enum.IntEnum):
            ONE = 1

        class Tid(TransactionId):
            __slots__ = ()

        payload = [
            Int(5),
            Float(2.5),
            Str("s"),
            Tuple((1, TransactionId(0, 1))),
            List([CopyId(1, 2)]),
            Dict({CopyId(1, 2): Int(3)}),
            Small.ONE,
            Tid(1, 2),
        ]
        for message in (
            Message("k", "a", "b", payload=payload, send_time=Float(1.5)),
            Message(Str("k"), "a", "b", metadata={Str("m"): Int(1)}),
            Message(("k", 1), "a", "b"),
        ):
            assert encode_message(message) == reference_wire.encode_message(message)

    @given(document=st.data())
    @settings(max_examples=300, deadline=None)
    def test_hand_built_frames_decode_alike(self, document) -> None:
        """Random tagged-JSON frames: the new decoder never accepts what the reference
        rejects, never decodes to a different value, and rejects what it accepts only
        in the stricter cases the module lists (:func:`stricter_case`)."""
        body = json.dumps(document.draw(frames_json)).encode()
        reference = reference_outcome(reference_wire.decode_frame_body, body)
        new = reference_outcome(decode_frame_body, body)
        if reference[0] == "rejected":
            assert new[0] == "rejected", body
        elif new[0] == "ok":
            assert_same_decoding(new[1], reference[1])
        else:
            assert stricter_case(json.loads(body)), body
