import io
import struct

import pytest
from hypothesis import given, strategies as st

from toolgrid import wire
from toolgrid.errors import FrameError
from toolgrid.wire import Frame, FrameReader, chunk_frames, decode_frame, encode_frame

# The byte assignments are load-bearing: peers of different builds must agree.
FROZEN_TYPES = {
    "HELLO": 0x01, "ERROR": 0x02, "PING": 0x03, "PONG": 0x04,
    "ANNOUNCE": 0x10, "RETRACT": 0x11, "LIST": 0x12,
    "DOC_REQUEST": 0x20, "DOC_RESPONSE": 0x21,
    "EXEC_REQUEST": 0x30, "CHALLENGE": 0x31, "PROOF": 0x32,
    "BLOB_CHUNK": 0x33, "LOG_CHUNK": 0x34, "EXEC_RESULT": 0x35,
    "RUN_SUBMIT": 0x40, "RUN_EVENT": 0x41,
    "DATA_QUERY": 0x42, "DATA_RESULT": 0x43,
}


def test_type_bytes_frozen():
    for name, value in FROZEN_TYPES.items():
        assert getattr(wire, name) == value
    assert wire.TYPE_NAMES == {v: k for k, v in FROZEN_TYPES.items()}


def test_limits_frozen():
    assert wire.MAX_FRAME == 1 << 20
    assert wire.CHUNK_SIZE == 64 << 10
    assert wire.BINARY_TYPES == {wire.BLOB_CHUNK, wire.LOG_CHUNK}


def test_empty_frame_is_five_bytes():
    data = encode_frame(Frame(wire.PING))
    assert data == struct.pack(">IB", 1, wire.PING)
    assert decode_frame(data) == Frame(wire.PING, None, b"")


def test_body_json_is_compact_and_sorted():
    data = encode_frame(Frame(wire.HELLO, {"b": 2, "a": 1}))
    assert data[5:] == b'{"a":1,"b":2}'


def test_binary_frame_layout_and_roundtrip():
    # binary section may itself contain newlines; only the first newline splits
    blob = b"line1\nline2\n\x00\xff"
    frame = Frame(wire.BLOB_CHUNK, {"seq": 0}, blob)
    back = decode_frame(encode_frame(frame))
    assert back.body == {"seq": 0}
    assert back.binary == blob


def test_binary_section_rejected_on_json_only_types():
    with pytest.raises(FrameError) as err:
        Frame(wire.HELLO, {}, b"extra")
    assert err.value.code == "UNKNOWN_TYPE"


def test_frame_type_must_be_a_byte():
    with pytest.raises(FrameError):
        Frame(-1)
    with pytest.raises(FrameError):
        Frame(256)


def test_decode_rejects_short_and_inconsistent_lengths():
    with pytest.raises(FrameError) as err:
        decode_frame(b"\x00\x00")
    assert err.value.code == "TRUNCATED"

    whole = encode_frame(Frame(wire.PONG, {"n": 1}))
    with pytest.raises(FrameError):
        decode_frame(whole[:-1])  # one byte short of the declared length
    with pytest.raises(FrameError):
        decode_frame(whole + b"\x00")  # trailing garbage

    zero_len = struct.pack(">I", 0) + b"\x01"
    with pytest.raises(FrameError):
        decode_frame(zero_len)


def test_decode_rejects_oversize_declared_length():
    data = struct.pack(">IB", wire.MAX_FRAME + 1, wire.PING)
    with pytest.raises(FrameError) as err:
        decode_frame(data)
    assert err.value.code == "FRAME_TOO_LARGE"


def test_encode_rejects_oversize_payload():
    big = b"x" * wire.MAX_FRAME
    with pytest.raises(FrameError) as err:
        encode_frame(Frame(wire.BLOB_CHUNK, {}, big))
    assert err.value.code == "FRAME_TOO_LARGE"


def test_bad_json_body_rejected():
    payload = b"{not json"
    data = struct.pack(">IB", 1 + len(payload), wire.HELLO) + payload
    with pytest.raises(FrameError) as err:
        decode_frame(data)
    assert err.value.code == "BAD_BODY"


def test_non_object_body_rejected():
    payload = b"[1,2]"
    data = struct.pack(">IB", 1 + len(payload), wire.HELLO) + payload
    with pytest.raises(FrameError) as err:
        decode_frame(data)
    assert err.value.code == "BAD_BODY"


def test_binary_frame_without_separator_rejected():
    payload = b'{"a":1}'  # no newline, so no binary section boundary
    data = struct.pack(">IB", 1 + len(payload), wire.BLOB_CHUNK) + payload
    with pytest.raises(FrameError) as err:
        decode_frame(data)
    assert err.value.code == "TRUNCATED"


def test_reader_yields_frames_then_none():
    frames = [Frame(wire.PING, {"request_id": "r"}),
              Frame(wire.LOG_CHUNK, {"stream": "stdout"}, b"hello\n"),
              Frame(wire.LIST)]
    stream = io.BytesIO(b"".join(encode_frame(f) for f in frames))
    reader = FrameReader(stream.read)
    assert [reader.next_frame() for _ in range(3)] == frames
    assert reader.next_frame() is None


def test_reader_handles_one_byte_reads():
    frame = Frame(wire.EXEC_RESULT, {"status": "ok", "outputs": {}})
    stream = io.BytesIO(encode_frame(frame))
    reader = FrameReader(lambda n: stream.read(min(n, 1)))
    assert reader.next_frame() == frame
    assert reader.next_frame() is None


def test_reader_truncated_mid_frame():
    frame = Frame(wire.HELLO, {"protocol_version": 1})
    stream = io.BytesIO(encode_frame(frame)[:-3])
    reader = FrameReader(stream.read)
    with pytest.raises(FrameError) as err:
        reader.next_frame()
    assert err.value.code == "TRUNCATED"


def test_reader_rejects_hostile_length_before_buffering():
    # a poisoned length prefix must be refused after the 4-byte header,
    # before any payload allocation
    served = []

    def read(n):
        served.append(n)
        if len(served) == 1:
            return struct.pack(">I", 0xFFFFFFFF)
        raise AssertionError("reader tried to buffer the declared payload")

    with pytest.raises(FrameError) as err:
        FrameReader(read).next_frame()
    assert err.value.code == "FRAME_TOO_LARGE"
    assert served == [4]


CHUNK_HEADERS = [
    (wire.BLOB_CHUNK, {"request_id": "req", "digest": "d" * 64, "role": "output"}),
    (wire.LOG_CHUNK, {"request_id": "req", "stream": "stdout"}),
]


def test_chunk_blob_empty_still_sends_one_frame():
    for frame_type, header in CHUNK_HEADERS:
        frames = list(chunk_frames(frame_type, header, b""))
        assert len(frames) == 1
        assert frames[0].type == frame_type
        assert frames[0].body == dict(header, seq=0, last=True)
        assert frames[0].binary == b""


def test_chunk_blob_splits_and_reassembles():
    data = bytes(range(256)) * 300  # 76800 bytes, two chunks
    frames = list(chunk_frames(*CHUNK_HEADERS[0], data))
    assert len(frames) == 2
    assert [f.body["seq"] for f in frames] == [0, 1]
    assert [f.body["last"] for f in frames] == [False, True]
    assert all(f.body["role"] == "output" for f in frames)
    assert len(frames[0].binary) == wire.CHUNK_SIZE
    assert b"".join(f.binary for f in frames) == data

    log = bytes(range(256)) * (wire.CHUNK_SIZE * 5 // 2 // 256)  # 2.5 chunks
    frames = list(chunk_frames(*CHUNK_HEADERS[1], log))
    assert [f.body["seq"] for f in frames] == [0, 1, 2]
    assert [f.body["last"] for f in frames] == [False, False, True]
    assert all(f.body["stream"] == "stdout" for f in frames)
    assert [len(f.binary) for f in frames] == [wire.CHUNK_SIZE] * 2 + [wire.CHUNK_SIZE // 2]
    assert b"".join(decode_frame(encode_frame(f)).binary for f in frames) == log


json_text = st.text(
    alphabet=st.characters(max_codepoint=0x10FFFF, exclude_categories=("Cs",)),
    max_size=20)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 53, 2 ** 53)
    | st.floats(allow_nan=False, allow_infinity=False) | json_text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(json_text, children, max_size=4),
    max_leaves=20)
bodies = st.none() | st.dictionaries(json_text, json_values, max_size=6)


@st.composite
def frames(draw):
    frame_type = draw(st.sampled_from(sorted(wire.TYPE_NAMES)))
    body = draw(bodies)
    binary = b""
    if frame_type in wire.BINARY_TYPES:
        binary = draw(st.binary(max_size=2000))
        if body is None:
            body = {}  # binary frames always carry a body in practice
    return Frame(frame_type, body, binary)


@given(frames())
def test_random_frames_roundtrip(frame):
    assert decode_frame(encode_frame(frame)) == frame
