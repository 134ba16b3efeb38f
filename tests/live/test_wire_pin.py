"""The wire codec's bytes, pinned: SHA-256 of every frame of a fixed corpus.

``golden_wire_frames.json`` holds, per group of :mod:`wire_corpus`, the
frame count, the byte count and the SHA-256 of the group's frames
concatenated in order.  The codec's contract is that these bytes never
change: a peer running another build of the program must read what this one
writes.  A change to the codec's internals that must not alter the format
reproduces every digest; a deliberate format change re-pins and says why::

    PYTHONPATH=src python tests/live/test_wire_pin.py --write

The same corpus gates the codec's cost, counted in Python calls per frame
(the ``sys.setprofile`` count of ``tests/system/test_run_length_calls.py``):
deterministic where a timing would drown in machine noise.
"""

import hashlib
import json
import pathlib
import sys

import pytest

import wire_corpus  # this directory: first on sys.path under pytest and as a script
from repro.live.wire import FrameDecoder, decode_frame_body, encode_message

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_wire_frames.json"

CORPUS = wire_corpus.corpus()


def _pin(messages):
    """``{"frames", "bytes", "sha256"}`` of one group's encoded frames."""
    digest = hashlib.sha256()
    total = 0
    for message in messages:
        frame = encode_message(message)
        digest.update(frame)
        total += len(frame)
    return {"frames": len(messages), "bytes": total, "sha256": digest.hexdigest()}


def test_every_group_is_pinned():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CORPUS)


@pytest.mark.parametrize("group", sorted(CORPUS))
def test_frames_match_the_pin(group):
    golden = json.loads(GOLDEN_PATH.read_text())[group]
    assert _pin(CORPUS[group]) == golden, f"{group}: the encoded frames changed"


@pytest.mark.parametrize("group", sorted(CORPUS))
def test_pinned_frames_round_trip(group):
    for message in CORPUS[group]:
        frame = encode_message(message)
        decoded = decode_frame_body(frame[4:])
        assert decoded.payload == message.payload
        assert dict(decoded.metadata) == dict(message.metadata)
        assert decoded.send_time == message.send_time
        if type(message.send_time) is float:  # an int send time decodes as a float
            assert encode_message(decoded) == frame


#: Python calls per frame over the pinned corpus, measured on CPython 3.11:
#: ``encode_message`` and ``FrameDecoder.feed`` (one frame per feed).  The
#: recursive codec with one ``json.dumps``/``json.loads`` per frame made
#: 41.01 and 33.69; the compiled emitters and the parser's object hook make
#: 7.95 and 15.59.
ENCODE_CALLS_MEASURED = 7.95
DECODE_CALLS_MEASURED = 15.59

#: The gates: the measured values plus 10%.  They guard the codec's shape —
#: no per-value Python walk creeping back into either direction — and are
#: not a speed claim.
ENCODE_CALLS_CEILING = ENCODE_CALLS_MEASURED * 1.10
DECODE_CALLS_CEILING = DECODE_CALLS_MEASURED * 1.10


def _calls_per_frame(action, items):
    """Python calls made by ``action`` on every item, per item."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    results = []
    sys.setprofile(count)
    try:
        for item in items:
            results.append(action(item))
    finally:
        sys.setprofile(None)
    return calls / len(items), results


def test_codec_calls_per_frame_stay_lean():
    messages = [message for group in sorted(CORPUS) for message in CORPUS[group]]
    encode_calls, frames = _calls_per_frame(encode_message, messages)
    decode_calls, decoded = _calls_per_frame(FrameDecoder().feed, frames)
    assert [len(batch) for batch in decoded] == [1] * len(messages)
    assert encode_calls <= ENCODE_CALLS_CEILING, encode_calls
    assert decode_calls <= DECODE_CALLS_CEILING, decode_calls


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        pins = {group: _pin(CORPUS[group]) for group in sorted(CORPUS)}
        GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    else:
        sys.exit("usage: test_wire_pin.py --write")
