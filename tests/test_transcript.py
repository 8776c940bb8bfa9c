"""Wire transcripts: the frames each end sends, in order, pinned.

A recording proxy sits on a TCP connection and decodes the bytes that pass
in each direction; it forwards them unchanged. Values that differ from run
to run (node ids, group key ids and slots, request ids, nonces, proof tags,
ciphertexts, announcement sequences and timestamps) are replaced by labels,
and free-text ``message`` fields, which only people read, are not pinned.
Every frame type, field name, code, digest, chunk boundary and binary length
is, so a change to how the program sends frames cannot move the wire format.
"""

import hashlib
import socket
import threading

import pytest

from toolgrid import wire
from toolgrid.config import PROTOCOL_VERSION, UplinkSettings
from toolgrid.errors import FrameError, NetworkError
from toolgrid.groups import announcement_slot, new_group_key
from toolgrid.values import Datum
from toolgrid.wire import Frame, FrameReader

from test_node import stamp_descriptor, wait_until
from test_uplink import TOKENS, RawClient

VARYING = {"sequence", "nonce", "tag", "ciphertext", "started_at",
           "finished_at", "message"}

PAYLOAD = bytes(range(256)) * 275  # 70,400 bytes: two chunks each way


def _forward(src: socket.socket, dst: socket.socket, frames: list) -> None:
    def read(n):
        data = src.recv(n)
        if data:
            dst.sendall(data)
        return data

    reader = FrameReader(read)
    try:
        while (frame := reader.next_frame()) is not None:
            frames.append(frame)
    except (OSError, FrameError):
        pass
    try:
        dst.shutdown(socket.SHUT_WR)
    except OSError:
        pass


class Recorder:
    """A TCP proxy to ``target`` for one connection, recording both ways.

    ``up`` holds the frames the dialing end sent, ``down`` the frames the
    target sent.
    """

    def __init__(self, target):
        self.up: list[Frame] = []
        self.down: list[Frame] = []
        self._target = target
        self._socks: list[socket.socket] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = ("127.0.0.1", self._listener.getsockname()[1])
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        try:
            near, _ = self._listener.accept()
        except OSError:
            return
        far = socket.create_connection(self._target)
        self._socks += [near, far]
        threading.Thread(target=_forward, args=(near, far, self.up),
                         daemon=True).start()
        threading.Thread(target=_forward, args=(far, near, self.down),
                         daemon=True).start()

    def close(self):
        self._listener.close()
        for sock in self._socks:
            sock.close()


class ScriptedPeer:
    """Accepts one connection, answers its first frame with ``replies`` and
    then records whatever else arrives until the dialer closes."""

    def __init__(self, replies):
        self.received: list[Frame] = []
        self._replies = replies
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = ("127.0.0.1", self._listener.getsockname()[1])
        self.done = threading.Event()
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        self._listener.close()  # later dials are refused
        with sock:
            reader = FrameReader(sock.recv)
            try:
                self.received.append(reader.next_frame())
                for frame in self._replies:
                    sock.sendall(wire.encode_frame(frame))
                while (frame := reader.next_frame()) is not None:
                    self.received.append(frame)
            except (OSError, FrameError):
                pass
        self.done.set()

    def close(self):
        self._listener.close()


@pytest.fixture
def recorders():
    opened = []

    def build(target):
        recorder = Recorder(target)
        opened.append(recorder)
        return recorder

    yield build
    for recorder in opened:
        recorder.close()


def transcript(frames, labels):
    """Each frame as [type name, labelled body, binary length]."""
    requests: dict = {}

    def label(value, key=None):
        if isinstance(value, dict):
            return {k: label(v, k) for k, v in value.items()}
        if isinstance(value, list):
            return [label(v) for v in value]
        if key in VARYING:
            return f"<{key}>"
        if key == "request_id":
            return requests.setdefault(value, f"<request-{len(requests) + 1}>")
        if isinstance(value, str) and value in labels:
            return labels[value]
        return value

    return [[wire.type_name(f.type), label(f.body), len(f.binary)]
            for f in frames]


def settled(frames, last_type):
    """The frames, once one of ``last_type`` has been recorded."""
    assert wait_until(lambda: any(f.type == last_type for f in frames))
    return frames


EMPTY = hashlib.sha256(b"").hexdigest()  # the stamp tool prints nothing


def _digests():
    """What the stamp tool reads and writes."""
    return (hashlib.sha256(PAYLOAD).hexdigest(),
            hashlib.sha256(PAYLOAD + b"stamped\n").hexdigest())


def exec_frames(src, dst, group, *, target=None):
    """The frames of one group exec of the stamp tool, per direction."""
    request = {"blobs": [src], "component": "stamp@1", "group": group,
               "inputs": {"src": {"type": "file", "digest": src,
                                  "filename": "in.bin"}},
               "request_id": "<request-1>"}
    proof = {"request_id": "<request-1>", "tag": "<tag>"}
    if target is not None:
        request["target"] = target
        proof["target"] = target
    chunk = {"request_id": "<request-1>"}
    caller = [
        ["EXEC_REQUEST", request, 0],
        ["BLOB_CHUNK", dict(chunk, digest=src, role="input", seq=0, last=False),
         65536],
        ["BLOB_CHUNK", dict(chunk, digest=src, role="input", seq=1, last=True),
         len(PAYLOAD) - 65536],
        ["PROOF", proof, 0],
    ]
    host = [
        ["CHALLENGE", {"nonce": "<nonce>", "request_id": "<request-1>"}, 0],
        ["LOG_CHUNK", dict(chunk, stream="stdout", seq=0, last=True), 0],
        ["LOG_CHUNK", dict(chunk, stream="stderr", seq=0, last=True), 0],
        ["BLOB_CHUNK", dict(chunk, digest=dst, role="output", seq=0, last=False),
         65536],
        ["BLOB_CHUNK", dict(chunk, digest=dst, role="output", seq=1, last=True),
         len(PAYLOAD) + 8 - 65536],
        ["EXEC_RESULT", {
            "exit_status": 0, "finished_at": "<finished_at>",
            "outputs": {"dst": {"type": "file", "digest": dst,
                                "filename": "stamped.txt"}},
            "request_id": "<request-1>", "started_at": "<started_at>",
            "status": "ok", "stderr": EMPTY, "stdout": EMPTY}, 0],
    ]
    return caller, host


def announcement(origin=None):
    body = {"group": "<group>", "payload": {"ciphertext": "<ciphertext>"},
            "publisher": "<host>", "sequence": "<sequence>", "slot": "<slot>"}
    if origin is not None:
        body["origin"] = origin
    return ["ANNOUNCE", body, 0]


def grouped_host(make_node, tmp_path, label, **kwargs):
    host = make_node(label, **kwargs)
    key = new_group_key("optics")
    host.add_group_key(key)
    host.install_descriptor(stamp_descriptor(tmp_path))
    host.publish("stamp@1", group="optics")
    return host, key


def test_lan_group_exec_with_a_file_each_way(make_node, recorders, tmp_path):
    host, key = grouped_host(make_node, tmp_path, "alpha")
    caller = make_node("beta")
    caller.add_group_key(key)
    recorder = recorders(("127.0.0.1", host.listen("127.0.0.1", 0)))
    caller.connect(recorder.address)
    assert wait_until(lambda: caller.remote_components())

    src = caller.blobs.put(PAYLOAD)
    outcome = caller.remote_execute(host.node_id, "stamp@1", key.key_id,
                                    {"src": Datum.file(src, "in.bin")})
    dst = outcome.outputs["dst"].value.digest
    assert (src, dst) == _digests()

    labels = {host.node_id: "<host>", caller.node_id: "<caller>",
              key.key_id: "<group>",
              announcement_slot(key.material.mac_key, "stamp"): "<slot>"}
    calls, answers = exec_frames(src, dst, "<group>")
    hello = {"protocol_version": PROTOCOL_VERSION}
    assert transcript(settled(recorder.up, wire.PROOF), labels) == [
        ["HELLO", dict(hello, node_id="<caller>", display_name="beta"), 0],
        *calls,
    ]
    assert transcript(settled(recorder.down, wire.EXEC_RESULT), labels) == [
        ["HELLO", dict(hello, node_id="<host>", display_name="alpha"), 0],
        announcement(),
        *answers,
    ]


def _uplink(recorder, client_id):
    return UplinkSettings(relay="%s:%d" % recorder.address, client_id=client_id,
                          token=TOKENS[client_id])


def test_relay_group_exec_with_a_file_each_way(make_relay, make_node, recorders,
                                               tmp_path):
    server, port = make_relay(TOKENS)
    host_link = recorders(("127.0.0.1", port))
    host, key = grouped_host(make_node, tmp_path, "alpha",
                             uplink=_uplink(host_link, "acme"))
    host.start()
    assert wait_until(lambda: any("acme LIST" in line for line in server.log_lines))

    caller_link = recorders(("127.0.0.1", port))
    caller = make_node("beta", uplink=_uplink(caller_link, "beta"))
    caller.add_group_key(key)
    caller.start()
    assert wait_until(lambda: caller.remote_components())

    src = caller.blobs.put(PAYLOAD)
    outcome = caller.remote_execute(host.node_id, "acme::stamp@1", key.key_id,
                                    {"src": Datum.file(src, "in.bin")})
    dst = outcome.outputs["dst"].value.digest
    assert (src, dst) == _digests()

    labels = {host.node_id: "<host>", caller.node_id: "<caller>",
              key.key_id: "<group>",
              announcement_slot(key.material.mac_key, "stamp"): "<slot>"}
    calls, answers = exec_frames(src, dst, "<group>", target="acme")
    relay_hello = ["HELLO", {"protocol_version": PROTOCOL_VERSION,
                             "relay": True}, 0]

    def hello(client_id, node_id, name):
        return ["HELLO", {"auth_token": TOKENS[client_id], "client_id": client_id,
                          "display_name": name, "node_id": node_id,
                          "protocol_version": PROTOCOL_VERSION}, 0]

    # the host re-announces when the caller's LIST reaches it
    assert transcript(settled(host_link.up, wire.EXEC_RESULT), labels) == [
        hello("acme", "<host>", "alpha"),
        announcement(),
        ["LIST", None, 0],
        announcement(),
        *answers,
    ]
    assert transcript(settled(host_link.down, wire.PROOF), labels) == [
        relay_hello,
        ["LIST", None, 0],
        *calls,
    ]
    assert transcript(settled(caller_link.up, wire.PROOF), labels) == [
        hello("beta", "<caller>", "beta"),
        ["LIST", None, 0],
        *calls,
    ]
    assert transcript(settled(caller_link.down, wire.EXEC_RESULT), labels) == [
        relay_hello,
        announcement(origin="acme"),
        *answers,
    ]


# -- handshakes ------------------------------------------------------------------------


def _until_closed(client):
    frames = []
    while (frame := client.recv()) is not None:
        frames.append(frame)
    return frames


@pytest.mark.parametrize("client_id, hello, code", [
    ("acme", {}, None),
    ("acme", None, "BAD_HANDSHAKE"),
    ("acme", {"protocol_version": PROTOCOL_VERSION + 3}, "VERSION_MISMATCH"),
    ("acme", {"auth_token": "wrong"}, "AUTH_FAILED"),
    ("nobody", {"auth_token": "whatever"}, "AUTH_FAILED"),
    ("acme", {}, "DUPLICATE_CLIENT"),
])
def test_relay_handshake_answers(make_relay, client_id, hello, code):
    _, port = make_relay(TOKENS)
    first = None
    if code == "DUPLICATE_CLIENT":
        first = RawClient(port, "acme")
        first.expect(wire.HELLO)
    client = RawClient(port, client_id, hello=False)
    if hello is None:
        client.send(Frame(wire.PING, None))
    else:
        client.send(Frame(wire.HELLO, dict({
            "protocol_version": PROTOCOL_VERSION, "client_id": client_id,
            "auth_token": TOKENS.get(client_id)}, **hello)))
    try:
        if code is None:
            assert transcript([client.recv()], {}) == [
                ["HELLO", {"protocol_version": PROTOCOL_VERSION, "relay": True}, 0]]
        else:
            assert transcript(_until_closed(client), {}) == [
                ["ERROR", {"code": code, "message": "<message>"}, 0]]
    finally:
        client.close()
        if first is not None:
            first.close()


def test_lan_handshake_refuses_another_version(make_node):
    node = make_node("srv")
    port = node.listen("127.0.0.1", 0)
    client = RawClient(port, hello=False)
    client.send(Frame(wire.HELLO, {"protocol_version": PROTOCOL_VERSION + 1,
                                   "node_id": "f" * 32,
                                   "display_name": "future"}))
    try:
        assert transcript(_until_closed(client), {node.node_id: "<srv>"}) == [
            ["HELLO", {"display_name": "srv", "node_id": "<srv>",
                       "protocol_version": PROTOCOL_VERSION}, 0],
            ["ERROR", {"code": "VERSION_MISMATCH", "message": "<message>"}, 0],
        ]
    finally:
        client.close()


@pytest.mark.parametrize("code", ["AUTH_FAILED", "DUPLICATE_CLIENT",
                                  "VERSION_MISMATCH"])
def test_uplink_dial_sends_hello_and_stops_at_a_refusal(make_node, code):
    peer = ScriptedPeer([Frame(wire.ERROR, {"code": code, "message": "no"})])
    node = make_node("dialer", uplink=UplinkSettings(
        relay="%s:%d" % peer.address, client_id="acme", token="t0k"))
    try:
        with pytest.raises(NetworkError) as err:
            node.start()
        assert err.value.code == code
        assert peer.done.wait(5)
    finally:
        peer.close()
    assert transcript(peer.received, {node.node_id: "<node>"}) == [
        ["HELLO", {"auth_token": "t0k", "client_id": "acme",
                   "display_name": "dialer", "node_id": "<node>",
                   "protocol_version": PROTOCOL_VERSION}, 0],
    ]
