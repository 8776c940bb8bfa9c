"""LAN sessions and the relay uplink share one Channel behaviour."""

import socket
import sys
import threading
import time

import pytest

from toolgrid import node as node_module
from toolgrid import wire
from toolgrid.config import UplinkSettings
from toolgrid.groups import PUBLIC
from toolgrid.node import PeerSession
from toolgrid.uplink import UplinkLink
from toolgrid.wire import Frame

from test_node import identity_descriptor


@pytest.fixture
def channel_for():
    """Build an unconnected uplink or a socketpair-backed LAN session."""
    opened = []

    def build(kind, node):
        if kind == "uplink":
            return UplinkLink(node, UplinkSettings(
                relay="127.0.0.1:9", client_id="acme", token="t"))
        ours, theirs = socket.socketpair()
        session = PeerSession(node, ours)
        opened.extend([session, theirs])
        return session

    yield build
    for closable in opened:
        closable.close()


@pytest.mark.parametrize("kind", ["uplink", "lan"])
def test_closed_channel_releases_the_exec_worker(kind, make_node, tmp_path,
                                                 channel_for, monkeypatch):
    host = make_node("host")
    host.install_descriptor(identity_descriptor(tmp_path))
    host.publish("identity@1")
    channel = channel_for(kind, host)
    monkeypatch.setattr(node_module, "REQUEST_TIMEOUT", 5.0)
    request = Frame(wire.EXEC_REQUEST, {
        "request_id": "req-1", "component": "identity@1", "group": PUBLIC,
        "inputs": {}, "blobs": ["ab" * 32]})
    queue = channel.request_queue("req-1")  # as Node._on_frame opens it
    channel.close()  # the connection goes away before the blob arrives

    started = time.monotonic()
    host._serve_request(channel, request, queue)
    assert time.monotonic() - started < 1.0


def test_every_queue_opened_around_a_close_sees_none(make_node, channel_for):
    channel = channel_for("lan", make_node("host"))
    queues = []
    go = threading.Barrier(9)

    def opener(n):
        go.wait(5)
        for i in range(200):
            queues.append(channel.request_queue(f"{n}-{i}"))

    threads = [threading.Thread(target=opener, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        go.wait(5)
        channel.close()
        for thread in threads:
            thread.join(5)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(queues) == 8 * 200
    assert all(queue.get(timeout=1) is None for queue in queues)


@pytest.mark.parametrize("kind, served", [
    ("uplink", [wire.EXEC_REQUEST, wire.DOC_REQUEST]),
    ("lan", [wire.RUN_SUBMIT, wire.DATA_QUERY, wire.EXEC_REQUEST,
             wire.DOC_REQUEST]),
])
def test_controller_requests_are_served_on_the_lan_only(kind, served, make_node,
                                                       channel_for, monkeypatch):
    host = make_node("host")
    channel = channel_for(kind, host)
    submitted = []
    monkeypatch.setattr(host._pool, "submit",
                        lambda fn, chan, frame, queue: submitted.append(frame.type))
    for frame_type in (wire.RUN_SUBMIT, wire.DATA_QUERY, wire.EXEC_REQUEST,
                       wire.DOC_REQUEST):
        host._on_frame(channel, Frame(frame_type, {"request_id": f"r{frame_type}"}))
    assert submitted == served
