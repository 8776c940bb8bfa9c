"""Length-prefixed frame codec shared by peer and relay connections.

Wire layout, big-endian:

    u32 length | u8 type | payload

``length`` counts the type byte plus the payload, so an empty frame is five
bytes total. The payload is a compact JSON body; frames that carry bytes
(BLOB_CHUNK, LOG_CHUNK) append a single newline after the JSON and the raw
binary after that. Compact JSON contains no newline, so the first newline is
an unambiguous separator and binary data is never re-split.

Frames are capped at 1 MiB; a declared length beyond the cap is rejected
before any payload is buffered. Blob and log payloads travel as 64 KiB chunks.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import FrameError
from .values import TEXT, misfit

MAX_FRAME = 1 << 20  # 1 MiB over the wire, including the type byte
CHUNK_SIZE = 64 << 10  # payload bytes per BLOB_CHUNK or LOG_CHUNK frame

HELLO = 0x01
ERROR = 0x02
PING = 0x03
PONG = 0x04
ANNOUNCE = 0x10
RETRACT = 0x11
LIST = 0x12
DOC_REQUEST = 0x20
DOC_RESPONSE = 0x21
EXEC_REQUEST = 0x30
CHALLENGE = 0x31
PROOF = 0x32
BLOB_CHUNK = 0x33
LOG_CHUNK = 0x34
EXEC_RESULT = 0x35
RUN_SUBMIT = 0x40
RUN_EVENT = 0x41
DATA_QUERY = 0x42
DATA_RESULT = 0x43

TYPE_NAMES = {
    HELLO: "HELLO", ERROR: "ERROR", PING: "PING", PONG: "PONG",
    ANNOUNCE: "ANNOUNCE", RETRACT: "RETRACT", LIST: "LIST",
    DOC_REQUEST: "DOC_REQUEST", DOC_RESPONSE: "DOC_RESPONSE",
    EXEC_REQUEST: "EXEC_REQUEST", CHALLENGE: "CHALLENGE", PROOF: "PROOF",
    BLOB_CHUNK: "BLOB_CHUNK", LOG_CHUNK: "LOG_CHUNK", EXEC_RESULT: "EXEC_RESULT",
    RUN_SUBMIT: "RUN_SUBMIT", RUN_EVENT: "RUN_EVENT",
    DATA_QUERY: "DATA_QUERY", DATA_RESULT: "DATA_RESULT",
}

BINARY_TYPES = frozenset({BLOB_CHUNK, LOG_CHUNK})

# The body of each frame type a node reads after HELLO, as values.misfit
# checks it. Shapes are open, so a key the relay adds (origin, target) fits.
_ERROR_DOC = {"code": TEXT, "message": str}
_OFFER_KEY = {"publisher": TEXT, "sequence": int, "group": TEXT, "slot": TEXT,
              "origin?": str}
_EXEC_ERROR = dict(_ERROR_DOC, **{"stage?": str, "exit_status?": int,
                                  "stdout?": str, "stderr?": str})
# the plain payload of an offer, in an ANNOUNCE or decrypted from one; its
# endpoint lists are read by workflow.interface_from_json
OFFER = {"name": TEXT, "version": TEXT, "doc_digest?": str}
SHAPES = {
    ERROR: _ERROR_DOC,
    ANNOUNCE: dict(_OFFER_KEY, payload=dict),
    RETRACT: _OFFER_KEY,
    DOC_REQUEST: {"request_id": TEXT, "component": str, "group": str,
                  "target?": str},
    DOC_RESPONSE: {"request_id": TEXT, "ok": bool, "encrypted?": bool,
                   "doc?": str, "error?": _ERROR_DOC},
    EXEC_REQUEST: {"request_id": TEXT, "component": str, "group": str,
                   "inputs": {"*": dict}, "blobs": [str], "target?": str},
    CHALLENGE: {"request_id": TEXT, "nonce": str},
    PROOF: {"request_id": TEXT, "tag": str, "target?": str},
    BLOB_CHUNK: {"request_id": TEXT, "digest": str, "role": str, "seq": int,
                 "last": bool},
    LOG_CHUNK: {"request_id": TEXT, "stream": str, "seq": int, "last": bool},
    EXEC_RESULT: {"request_id": TEXT, "status": str, "exit_status?": int,
                  "outputs?": {"*": dict}, "stdout?": str, "stderr?": str,
                  "started_at?": int, "finished_at?": int, "error?": _EXEC_ERROR},
    RUN_SUBMIT: {"request_id": TEXT, "workflow": str, "overrides?": {"*": str},
                 "watch?": bool},
    RUN_EVENT: {"request_id": TEXT, "kind": str, "run_id?": TEXT, "state?": str,
                "event_doc?": dict, "code?": str, "message?": str,
                "diagnostics?": [dict]},
    DATA_QUERY: {"request_id": TEXT, "query": str, "run_id?": str},
    DATA_RESULT: {"request_id": TEXT, "runs?": [dict], "meta?": dict,
                  "records?": [dict], "events?": [dict], "error?": _ERROR_DOC},
}


def type_name(frame_type: int) -> str:
    return TYPE_NAMES.get(frame_type, f"0x{frame_type:02x}")


def body_misfit(frame: "Frame") -> Optional[tuple[str, str]]:
    """Where ``frame``'s body departs from the shape of its type, or None
    (also for a type that has no shape)."""
    shape = SHAPES.get(frame.type)
    return None if shape is None else misfit(shape, frame.body or {})


@dataclass(frozen=True)
class Frame:
    type: int
    body: Optional[dict] = None
    binary: bytes = field(default=b"")

    def __post_init__(self):
        if not 0 <= self.type <= 0xFF:
            raise FrameError("UNKNOWN_TYPE", f"type {self.type} is not a byte")
        if self.binary and self.type not in BINARY_TYPES:
            raise FrameError("UNKNOWN_TYPE",
                             f"{type_name(self.type)} frames carry no binary section",
                             frame_type=self.type)


def encode_frame(frame: Frame) -> bytes:
    if frame.body is None:
        body = b""
    else:
        body = json.dumps(frame.body, separators=(",", ":"),
                          sort_keys=True).encode()
    if frame.type in BINARY_TYPES:
        payload = body + b"\n" + frame.binary
    else:
        payload = body
    length = 1 + len(payload)
    if length > MAX_FRAME:
        raise FrameError("FRAME_TOO_LARGE",
                         f"frame of {length} bytes exceeds the {MAX_FRAME} cap",
                         frame_type=frame.type)
    return struct.pack(">IB", length, frame.type) + payload


def _parse_payload(frame_type: int, payload: bytes) -> Frame:
    if frame_type in BINARY_TYPES:
        sep = payload.find(b"\n")
        if sep < 0:
            raise FrameError("TRUNCATED", "binary frame without body separator",
                             frame_type=frame_type)
        body_bytes, binary = payload[:sep], payload[sep + 1:]
    else:
        body_bytes, binary = payload, b""
    if body_bytes:
        try:
            body = json.loads(body_bytes)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FrameError("BAD_BODY", f"frame body is not valid JSON: {exc}",
                             frame_type=frame_type) from exc
        if not isinstance(body, dict):
            raise FrameError("BAD_BODY", "frame body must be a JSON object",
                             frame_type=frame_type)
    else:
        body = None
    return Frame(frame_type, body, binary)


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame from ``data``; data must be exactly one frame."""
    stream = io.BytesIO(data)
    frame = FrameReader(stream.read).next_frame()
    if frame is None or stream.tell() != len(data):
        raise FrameError("TRUNCATED", f"{len(data)} bytes are not exactly one frame")
    return frame


class FrameReader:
    """Incremental decoder over a read(n) callable (socket or file-like).

    The declared length is validated before the payload is buffered, so a
    hostile length prefix cannot force a large allocation.
    """

    def __init__(self, read):
        self._read = read

    def _read_exact(self, n: int) -> bytes:
        parts = []
        remaining = n
        while remaining:
            chunk = self._read(remaining)
            if not chunk:
                raise FrameError("TRUNCATED",
                                 f"stream ended {remaining} bytes short")
            parts.append(chunk)
            remaining -= len(chunk)
        return b"".join(parts)

    def next_frame(self) -> Optional[Frame]:
        """The next frame, or None on clean end-of-stream between frames."""
        first = self._read(4)
        if not first:
            return None
        header = first if len(first) == 4 else first + self._read_exact(4 - len(first))
        (length,) = struct.unpack(">I", header)
        if length > MAX_FRAME:
            raise FrameError("FRAME_TOO_LARGE",
                             f"declared length {length} exceeds the {MAX_FRAME} cap")
        if length < 1:
            raise FrameError("TRUNCATED", "declared length misses the type byte")
        rest = self._read_exact(length)
        return _parse_payload(rest[0], rest[1:])


def chunk_frames(frame_type: int, header: dict, data: bytes) -> Iterator[Frame]:
    """Split ``data`` into CHUNK_SIZE pieces, one ``frame_type`` frame each.

    Every body is ``header`` plus ``seq`` and ``last``; empty data still
    yields one frame, so the receiver always sees ``last``.
    """
    total = max(1, (len(data) + CHUNK_SIZE - 1) // CHUNK_SIZE)
    for i in range(total):
        piece = data[i * CHUNK_SIZE:(i + 1) * CHUNK_SIZE]
        yield Frame(frame_type, dict(header, seq=i, last=i == total - 1), piece)
