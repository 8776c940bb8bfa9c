"""LAN sessions and the relay uplink share one Channel behaviour."""

import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toolgrid import node as node_module
from toolgrid import wire
from toolgrid.config import PROTOCOL_VERSION, UplinkSettings
from toolgrid.errors import NetworkError, ToolgridError
from toolgrid.groups import PUBLIC, new_group_key
from toolgrid.node import PeerSession
from toolgrid.store import _blob_refs, sha256_hex
from toolgrid.uplink import UplinkLink
from toolgrid.values import Datum
from toolgrid.wire import MAX_FRAME, Frame, FrameReader

from helpers import edge, instance, link_nodes, wait_until, workflow
from test_node import identity_descriptor
from test_uplink import TOKENS, RawClient, uplinked


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


@pytest.mark.parametrize("kind", ["lan", "relay"])
def test_an_oversized_frame_ends_the_link_for_the_other_end(kind, make_node,
                                                           make_relay):
    """A peer announces a frame above MAX_FRAME in the middle of a request."""
    if kind == "lan":
        ours, theirs = socket.socketpair()
        theirs.sendall(wire.encode_frame(Frame(wire.HELLO, {
            "protocol_version": PROTOCOL_VERSION, "node_id": "f" * 32})))
        session = make_node("host").attach(ours)
        failures = []

        def ask():
            try:
                session.request(wire.DOC_REQUEST, {"component": "x@1",
                                                   "group": PUBLIC})
            except NetworkError as exc:
                failures.append(exc.code)

        waiter = threading.Thread(target=ask, daemon=True)
        waiter.start()
        reader = FrameReader(theirs.recv)
        while reader.next_frame().type != wire.DOC_REQUEST:
            pass  # past the node's HELLO
        theirs.sendall(struct.pack(">I", MAX_FRAME + 1))
        waiter.join(2)
        theirs.close()
        assert failures == ["TRANSPORT"]
    else:
        _, port = make_relay(TOKENS)
        caller, host = RawClient(port, "acme"), RawClient(port, "beta")
        caller.expect(wire.HELLO)
        host.expect(wire.HELLO)
        caller.send(Frame(wire.EXEC_REQUEST, {"request_id": "req-1",
                                              "target": "beta"}))
        host.expect(wire.EXEC_REQUEST)
        host.send_raw(struct.pack(">I", MAX_FRAME + 1))
        error = caller.expect(wire.ERROR)
        caller.close()
        host.close()
        assert error.body["code"] == "ROUTE_UNAVAILABLE"
        assert error.body["request_id"] == "req-1"


def _failing_host(kind, request, make_node, make_relay, tmp_path, monkeypatch):
    """A host whose serving code raises OSError for ``request``, and a
    function that makes that request from a linked caller."""
    if kind == "lan":
        host, caller = make_node("host"), make_node("caller")
        link_nodes(host, caller)
        component = "identity@1"
    else:
        _, port = make_relay(TOKENS)
        host = uplinked(make_node, port, "acme", "host")
        caller = uplinked(make_node, port, "beta", "caller")
        component = "acme::identity@1"
    host.install_descriptor(identity_descriptor(tmp_path))
    host.publish("identity@1")
    assert wait_until(lambda: caller.remote_components())

    def broken(*args, **kwargs):
        raise OSError("disk gone")

    if request == "exec":
        monkeypatch.setattr(node_module, "execute_tool", broken)
        return host, lambda: caller.remote_execute(
            host.node_id, component, PUBLIC, {"x": Datum.integer(1)})
    if request == "doc":
        monkeypatch.setattr(host, "_offered", broken)
        return host, lambda: caller.request_documentation(
            host.node_id, component, PUBLIC)
    if request == "run":
        monkeypatch.setattr(host, "start_run", broken)
        return host, lambda: caller.submit_run(host.node_id, "{}")
    monkeypatch.setattr(host.store, "list_runs", broken)
    return host, lambda: caller.query_runs(host.node_id)


@pytest.mark.parametrize("kind, request_kind", [
    ("lan", "exec"), ("lan", "doc"), ("lan", "run"), ("lan", "data"),
    ("relay", "exec"), ("relay", "doc"),
])
def test_a_host_that_fails_still_answers(kind, request_kind, make_node, make_relay,
                                         tmp_path, monkeypatch):
    host, call = _failing_host(kind, request_kind, make_node, make_relay,
                               tmp_path, monkeypatch)
    codes = []

    def caller():
        try:
            call()
        except ToolgridError as exc:
            codes.append(exc.code)

    waiter = threading.Thread(target=caller, daemon=True)
    waiter.start()
    waiter.join(5)
    assert codes == ["INTERNAL"]
    if kind == "relay":
        # the answer is a reply the relay forwards, not a bare ERROR that
        # would end the host's session
        assert host.uplink.connected()


NO_LOG = sha256_hex(b"")  # the digest of a log the host sent no chunk of


def _host_that_replies(make_node, result):
    """A caller node linked over a socketpair to a fake host that offers
    fake@1 and answers every EXEC_REQUEST with ``result``."""
    host_id = "f" * 32
    ours, theirs = socket.socketpair()
    theirs.sendall(wire.encode_frame(Frame(wire.HELLO, {
        "protocol_version": PROTOCOL_VERSION, "node_id": host_id})))
    caller = make_node("caller")
    caller.attach(ours)
    theirs.sendall(wire.encode_frame(Frame(wire.ANNOUNCE, {
        "publisher": host_id, "sequence": 1, "group": PUBLIC, "slot": "fake",
        "payload": {"name": "fake", "version": "1",
                    "inputs": [{"name": "x", "type": "integer"}],
                    "outputs": [{"name": "out", "type": "integer"}]}})))

    def serve():
        reader = FrameReader(theirs.recv)
        with theirs:
            while (frame := reader.next_frame()) is not None:
                if frame.type == wire.EXEC_REQUEST:
                    theirs.sendall(wire.encode_frame(Frame(wire.EXEC_RESULT, {
                        "request_id": frame.body["request_id"], "status": "ok",
                        "stdout": NO_LOG, "stderr": NO_LOG, **result})))

    threading.Thread(target=serve, daemon=True).start()
    assert wait_until(lambda: caller.remote_components())
    return caller, host_id


UNDECODABLE_RESULTS = {
    "integer-beyond-int64": {"outputs": {"out": {"type": "integer", "value": 2 ** 70}}},
    "file-without-digest": {"outputs": {"out": {"type": "file"}}},
    "outputs-not-a-map": {"outputs": "out"},
    "exit-status-not-a-number": {"outputs": {}, "exit_status": "soon"},
    "failed-exit-status-not-a-number": {"status": "failed", "error": {
        "code": "TOOL_FAILED", "message": "exit", "exit_status": "soon"}},
    "failed-stage-not-text": {"status": "failed", "error": {
        "code": "TOOL_FAILED", "message": "exit", "stage": {"a": 1}}},
    "failed-stage-unknown": {"status": "failed", "error": {
        "code": "TOOL_FAILED", "message": "exit", "stage": "later"}},
}


@pytest.mark.parametrize("result", UNDECODABLE_RESULTS.values(),
                         ids=UNDECODABLE_RESULTS.keys())
def test_an_undecodable_exec_result_ends_the_call_as_transport(result, make_node):
    caller, host_id = _host_that_replies(make_node, result)
    with pytest.raises(NetworkError) as err:
        caller.remote_execute(host_id, "fake@1", PUBLIC, {"x": Datum.integer(1)})
    assert err.value.code == "TRANSPORT"


def test_a_run_through_an_undecodable_exec_result_fails_as_transport(make_node):
    caller, _ = _host_that_replies(
        make_node, UNDECODABLE_RESULTS["integer-beyond-int64"])
    engine = caller.start_run(workflow(
        "remote", [instance("t", "fake@1", {"x": 1})], []))
    assert engine.wait(10) == "FAILED"
    assert engine.failure["code"] == "TRANSPORT"


# each body departs from fake@1's interface (one integer output, out) or from
# the EXEC_RESULT shape; the rest of the result is valid
MISMATCHED_RESULTS = {
    "exit-status-text": {"exit_status": "7"},
    "exit-status-true": {"exit_status": True},
    "exit-status-float": {"exit_status": 3.9},
    "exit-status-not-zero": {"exit_status": 7},
    "no-outputs": {"outputs": {}},
    "output-of-another-type": {"outputs": {"out": {"type": "text", "value": "7"}}},
    "an-extra-output": {"outputs": {"out": {"type": "integer", "value": 7},
                                    "bogus": {"type": "integer", "value": 1}}},
    "started-at-text": {"started_at": "12"},
}


def _run_through(caller, tmp_path):
    """Run fake@1 into an output-writer on ``caller``; the finished engine."""
    engine = caller.start_run(workflow("remote", [
        instance("t", "fake@1", {"x": 1}),
        instance("sink", "output-writer@1", {"target": str(tmp_path / "out"),
                                             "inputs": {"v": "integer"}})],
        [edge("t.out", "sink.v")]))
    engine.wait(10)
    return engine


def test_a_result_that_matches_the_interface_completes_the_run(make_node, tmp_path):
    caller, _ = _host_that_replies(make_node, {
        "exit_status": 0, "outputs": {"out": {"type": "integer", "value": 7}},
        "started_at": 12, "finished_at": 13})
    engine = _run_through(caller, tmp_path)
    assert engine.run_state() == "COMPLETED"
    assert [r.instance_id for r in caller.store.query_run(engine.run_id)] == [
        "t", "sink"]


@pytest.mark.parametrize("result", MISMATCHED_RESULTS.values(),
                         ids=MISMATCHED_RESULTS.keys())
def test_a_result_that_does_not_match_the_interface_fails_as_transport(
        result, make_node, tmp_path):
    caller, _ = _host_that_replies(make_node, {
        "exit_status": 0, "outputs": {"out": {"type": "integer", "value": 7}},
        **result})
    engine = _run_through(caller, tmp_path)
    assert engine.run_state() == "FAILED"
    assert engine.failure["code"] == "TRANSPORT"
    # the writer never fired, and the failed firing records no output
    [record] = caller.store.query_run(engine.run_id)
    assert (record.instance_id, record.status, record.outputs) == ("t", "failed", {})


def _host_that_answers(make_node, reply_type, reply):
    """A caller node linked over a socketpair to a fake host that offers
    fake@1 and answers every request with a ``reply_type`` frame whose body is
    ``reply`` and the request's id."""
    host_id = "f" * 32
    ours, theirs = socket.socketpair()
    theirs.sendall(wire.encode_frame(Frame(wire.HELLO, {
        "protocol_version": PROTOCOL_VERSION, "node_id": host_id})))
    caller = make_node("caller")
    caller.attach(ours)
    theirs.sendall(wire.encode_frame(Frame(wire.ANNOUNCE, {
        "publisher": host_id, "sequence": 1, "group": PUBLIC, "slot": "fake",
        "payload": {"name": "fake", "version": "1", "inputs": [], "outputs": []}})))

    def serve():
        reader = FrameReader(theirs.recv)
        with theirs:
            while (frame := reader.next_frame()) is not None:
                if "request_id" in (frame.body or {}):
                    theirs.sendall(wire.encode_frame(Frame(reply_type, dict(
                        reply, request_id=frame.body["request_id"]))))

    threading.Thread(target=serve, daemon=True).start()
    assert wait_until(lambda: caller.remote_components())
    return caller, host_id


# each request a caller makes of a host, given the host and the group
REQUESTS = {
    "exec": lambda caller, host, group: caller.remote_execute(host, "fake@1", group, {}),
    "doc": lambda caller, host, group: caller.request_documentation(host, "fake@1",
                                                                    group),
    "runs": lambda caller, host, _: caller.query_runs(host),
    "run": lambda caller, host, _: caller.query_run_records(host, "r1"),
    "submit": lambda caller, host, _: caller.submit_run(host, "{}"),
    "watch": lambda caller, host, _: caller.submit_run(
        host, "{}", watch=lambda event: event.get("event")),
}

# request, reply type, reply body: each reply is one the caller cannot read
UNREADABLE_REPLIES = {
    "challenge-nonce-not-hex": ("exec", wire.CHALLENGE, {"nonce": "zz"}),
    "challenge-nonce-too-short": ("exec", wire.CHALLENGE, {"nonce": "abcd"}),
    "exec-error-is-text": ("exec", wire.EXEC_RESULT,
                           {"status": "failed", "error": "boom"}),
    "doc-error-is-text": ("doc", wire.DOC_RESPONSE, {"ok": False, "error": "boom"}),
    "doc-not-base64": ("doc", wire.DOC_RESPONSE,
                       {"ok": True, "encrypted": True, "doc": "abc"}),
    "data-error-is-text": ("runs", wire.DATA_RESULT, {"error": "boom"}),
    "data-runs-not-a-list": ("runs", wire.DATA_RESULT, {"runs": 5}),
    "data-records-not-a-list": ("run", wire.DATA_RESULT,
                                {"meta": {}, "records": 5, "events": []}),
    "run-diagnostics-are-text": ("submit", wire.RUN_EVENT, {
        "kind": "rejected", "code": "VALIDATION_FAILED", "message": "no",
        "diagnostics": "bad"}),
    "run-accepted-without-id": ("submit", wire.RUN_EVENT, {"kind": "accepted"}),
    "run-id-not-text": ("submit", wire.RUN_EVENT, {"kind": "accepted", "run_id": 5}),
    "run-event-doc-is-text": ("watch", wire.RUN_EVENT,
                              {"kind": "event", "event_doc": "started"}),
}


@pytest.mark.parametrize("request_kind, reply_type, reply", UNREADABLE_REPLIES.values(),
                         ids=UNREADABLE_REPLIES.keys())
def test_a_reply_the_caller_cannot_read_ends_the_call_as_transport(
        request_kind, reply_type, reply, make_node):
    caller, host_id = _host_that_answers(make_node, reply_type, reply)
    key = new_group_key("team")
    caller.add_group_key(key)  # lets the encrypted documentation be read
    with pytest.raises(NetworkError) as err:
        REQUESTS[request_kind](caller, host_id, key.key_id)
    assert err.value.code == "TRANSPORT"


def test_a_failed_remote_firing_records_only_the_logs_it_received(make_node):
    """The host names a stdout it never sent; the record names no such blob."""
    caller, _ = _host_that_answers(make_node, wire.EXEC_RESULT, {
        "status": "failed", "error": {"code": "TOOL_FAILED", "message": "exit 1",
                                      "exit_status": 1, "stdout": "a" * 64}})
    engine = caller.start_run(workflow("remote", [instance("t", "fake@1")], []))
    assert engine.wait(10) == "FAILED"
    [record] = caller.store.query_run(engine.run_id)
    assert record.status == "failed" and record.error["code"] == "TRANSPORT"
    assert all(caller.blobs.has(digest) for digest in _blob_refs(record))


# a valid reply body per request; the fuzz below mutates it
VALID_REPLIES = {
    "exec": (wire.EXEC_RESULT, {
        "status": "ok", "exit_status": 0, "outputs": {}, "stdout": NO_LOG,
        "stderr": NO_LOG, "started_at": 1, "finished_at": 2}),
    "doc": (wire.DOC_RESPONSE, {"ok": True, "encrypted": False, "doc": "manual"}),
    "runs": (wire.DATA_RESULT, {"runs": [{"run_id": "r1", "state": "COMPLETED"}]}),
    "run": (wire.DATA_RESULT, {"meta": {"run_id": "r1"}, "records": [],
                               "events": []}),
    "submit": (wire.RUN_EVENT, {"kind": "accepted", "run_id": "r1"}),
}
# one value of each JSON type
JSON_VALUES = [None, True, 7, 2.5, "x", [1], {"a": 1}]


@pytest.mark.parametrize("request_kind", VALID_REPLIES)
def test_a_mutated_reply_ends_the_call_as_transport_or_is_read(request_kind,
                                                               make_node):
    """Drop a key of a valid reply, swap a value's JSON type or add a key:
    the call succeeds only on a body that fits its shape, and fails only as
    TRANSPORT, never INTERNAL."""
    reply_type, valid = VALID_REPLIES[request_kind]
    reply = dict(valid)  # the fake host answers with what this holds now
    caller, host_id = _host_that_answers(make_node, reply_type, reply)
    mutation = st.one_of(
        st.tuples(st.just("drop"), st.sampled_from(sorted(valid))),
        st.tuples(st.just("swap"), st.sampled_from(sorted(valid)),
                  st.sampled_from(JSON_VALUES)),
        st.tuples(st.just("add"), st.sampled_from(["extra", "origin", "target"]),
                  st.sampled_from(JSON_VALUES)))

    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(st.lists(mutation, min_size=1, max_size=3))
    def mutated(mutations):
        body = dict(valid)
        for kind, key, *value in mutations:
            if kind == "drop":
                body.pop(key, None)
            elif kind == "add" or type(value[0]) is not type(valid[key]):
                body[key] = value[0]
        reply.clear()
        reply.update(body)
        fits = wire.body_misfit(Frame(reply_type, dict(body, request_id="r"))) is None
        if request_kind == "exec":
            engine = caller.start_run(workflow("fuzz", [instance("t", "fake@1")], []))
            assert engine.wait(10) in ("COMPLETED", "FAILED")
            [record] = caller.store.query_run(engine.run_id)
            assert record.status == "failed" or fits, body
            assert engine.failure is None or engine.failure["code"] == "TRANSPORT"
            return
        try:
            REQUESTS[request_kind](caller, host_id, PUBLIC)
        except ToolgridError as exc:
            assert exc.code == "TRANSPORT", body
        else:
            assert fits, body

    mutated()
