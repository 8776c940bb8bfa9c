import json
import socket
import struct
import threading
import time

import pytest

from toolgrid import wire
from toolgrid.config import PROTOCOL_VERSION, UplinkSettings
from toolgrid.errors import ConfigError, EngineError, NetworkError
from toolgrid.groups import PUBLIC, new_group_key
from toolgrid.node import KEEPALIVE_COUNT, KEEPALIVE_IDLE, KEEPALIVE_INTERVAL, Node
from toolgrid.tools import parse_descriptor
from toolgrid.uplink import (ALLOWLIST, LOG_LINES_KEPT, RelayServer, UplinkLink,
                             load_token_table)
from toolgrid.values import Datum
from toolgrid.wire import Frame, FrameReader

from helpers import edge, instance, link_nodes, wait_until, workflow
from test_node import identity_descriptor

TOKENS = {"acme": "alpha-token", "beta": "beta-token", "corp": "corp-token"}


class RawClient:
    """Bare framed socket speaking the relay handshake, for protocol probes."""

    def __init__(self, port, client_id="acme", token=None, *,
                 version=PROTOCOL_VERSION, hello=True):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.sock.settimeout(5)
        self.reader = FrameReader(self.sock.recv)
        if hello:
            self.send(Frame(wire.HELLO, {
                "protocol_version": version,
                "client_id": client_id,
                "auth_token": TOKENS.get(client_id) if token is None else token,
            }))

    def send(self, frame):
        self.sock.sendall(wire.encode_frame(frame))

    def send_raw(self, data):
        self.sock.sendall(data)

    def recv(self):
        """Next frame, or None once the relay hangs up."""
        return self.reader.next_frame()

    def expect(self, frame_type):
        frame = self.recv()
        assert frame is not None and frame.type == frame_type, frame
        return frame

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


@pytest.fixture
def relay(make_relay):
    server, port = make_relay(TOKENS)
    clients = []

    def connect(client_id="acme", **kwargs):
        client = RawClient(port, client_id, **kwargs)
        clients.append(client)
        return client

    yield server, port, connect
    for client in clients:
        client.close()


def activate(connect, client_id="acme"):
    client = connect(client_id)
    hello = client.expect(wire.HELLO)
    assert hello.body["relay"] is True
    return client


def test_relay_log_keeps_only_the_newest_lines():
    server = RelayServer(TOKENS)
    for i in range(LOG_LINES_KEPT + 5):
        server._log(f"line {i}")
    assert len(server.log_lines) == LOG_LINES_KEPT
    assert server.log_lines[0] == "line 5"
    assert server.log_lines[-1] == f"line {LOG_LINES_KEPT + 4}"


# -- token table ---------------------------------------------------------------------


def test_token_table_parses_entries_and_comments(tmp_path):
    path = tmp_path / "tokens"
    path.write_text("# relay clients\n\nacme: alpha-token \nbeta:beta-token\n")
    assert load_token_table(path) == {"acme": "alpha-token",
                                      "beta": "beta-token"}


@pytest.mark.parametrize("line", ["acme", "acme:", ":token", " : "])
def test_token_table_rejects_malformed_lines(tmp_path, line):
    path = tmp_path / "tokens"
    path.write_text(f"good:token\n{line}\n")
    with pytest.raises(ConfigError) as err:
        load_token_table(path)
    assert err.value.code == "MALFORMED"
    assert ":2:" in err.value.message  # names the offending line


# -- handshake -----------------------------------------------------------------------


def test_handshake_then_ping(relay):
    _, _, connect = relay
    client = activate(connect)
    client.send(Frame(wire.PING, {"request_id": "r1"}))
    pong = client.expect(wire.PONG)
    assert pong.body == {"request_id": "r1"}


def test_bad_token_refused(relay):
    _, _, connect = relay
    client = connect("acme", token="wrong")
    error = client.expect(wire.ERROR)
    assert error.body["code"] == "AUTH_FAILED"
    assert client.recv() is None


def test_unknown_client_refused(relay):
    _, _, connect = relay
    client = connect("nobody", token="whatever")
    assert client.expect(wire.ERROR).body["code"] == "AUTH_FAILED"


def test_unknown_client_without_a_token_refused(relay):
    _, _, connect = relay
    client = connect("nobody", hello=False)
    client.send(Frame(wire.HELLO, {"protocol_version": PROTOCOL_VERSION,
                                   "client_id": "nobody"}))
    assert client.expect(wire.ERROR).body["code"] == "AUTH_FAILED"
    assert client.recv() is None


def test_version_mismatch_refused(relay):
    _, _, connect = relay
    client = connect("acme", version=PROTOCOL_VERSION + 3)
    assert client.expect(wire.ERROR).body["code"] == "VERSION_MISMATCH"
    assert client.recv() is None


def test_non_hello_first_frame_refused(relay):
    _, _, connect = relay
    client = connect(hello=False)
    client.send(Frame(wire.PING, None))
    assert client.expect(wire.ERROR).body["code"] == "BAD_HANDSHAKE"
    assert client.recv() is None


def test_duplicate_client_refused_while_first_lives(relay):
    _, _, connect = relay
    first = activate(connect)
    second = connect("acme")
    assert second.expect(wire.ERROR).body["code"] == "DUPLICATE_CLIENT"
    assert second.recv() is None
    # the original session is unaffected
    first.send(Frame(wire.PING, {"request_id": "p"}))
    first.expect(wire.PONG)


# -- allowlist enforcement --------------------------------------------------------------


@pytest.mark.parametrize("frame_type", [wire.RUN_SUBMIT, wire.DATA_QUERY,
                                        wire.RUN_EVENT, wire.DATA_RESULT,
                                        wire.HELLO, wire.ERROR])
def test_forbidden_types_close_the_session(relay, frame_type):
    server, _, connect = relay
    client = activate(connect)
    client.send(Frame(frame_type, {"request_id": "r", "workflow": "{}"}))
    error = client.expect(wire.ERROR)
    assert error.body["code"] == "PROTOCOL_VIOLATION"
    assert client.recv() is None
    assert any("PROTOCOL_VIOLATION" in line for line in server.log_lines)


def test_unknown_type_byte_closes_the_session(relay):
    _, _, connect = relay
    client = activate(connect)
    client.send_raw(struct.pack(">IB", 1, 0x7F))  # empty unregistered frame
    error = client.expect(wire.ERROR)
    assert error.body["code"] == "PROTOCOL_VIOLATION"
    assert client.recv() is None


def test_run_operations_are_not_forwardable(relay):
    # the two controller operations must never reach another client
    server, _, connect = relay
    observer = activate(connect, "beta")
    for frame_type in (wire.RUN_SUBMIT, wire.DATA_QUERY):
        attacker = activate(connect, "acme")
        attacker.send(Frame(frame_type, {"request_id": "r",
                                         "target": "beta"}))
        attacker.expect(wire.ERROR)
        assert attacker.recv() is None
    observer.send(Frame(wire.PING, {"request_id": "alive"}))
    assert observer.expect(wire.PONG).body == {"request_id": "alive"}


def test_a_violator_can_reconnect_as_soon_as_it_reads_eof(relay):
    # the relay frees the client id before it closes the socket, after
    # either kind of violation
    _, _, connect = relay
    for round_ in range(30):
        client = activate(connect, "acme")
        if round_ % 2:
            client.send(Frame(wire.RUN_SUBMIT, {"request_id": "r"}))
        else:
            client.send(Frame(wire.ANNOUNCE,
                              dict(announcement_body(), origin="beta")))
        client.expect(wire.ERROR)
        assert client.recv() is None
        client.close()


def test_allowlist_is_exactly_the_published_set():
    assert ALLOWLIST == {
        wire.ANNOUNCE, wire.RETRACT, wire.LIST,
        wire.DOC_REQUEST, wire.DOC_RESPONSE,
        wire.EXEC_REQUEST, wire.CHALLENGE, wire.PROOF,
        wire.BLOB_CHUNK, wire.LOG_CHUNK, wire.EXEC_RESULT,
        wire.PING, wire.PONG,
    }
    assert len(ALLOWLIST) == 13


# -- namespacing -------------------------------------------------------------------------


def announcement_body(slot="ident", sequence=1):
    return {"publisher": "a" * 32, "sequence": sequence, "group": PUBLIC,
            "slot": slot,
            "payload": {"name": "ident", "version": "1",
                        "inputs": [], "outputs": []}}


def test_announcements_get_stamped_with_the_sender(relay):
    _, _, connect = relay
    acme = activate(connect, "acme")
    beta = activate(connect, "beta")
    acme.send(Frame(wire.ANNOUNCE, announcement_body()))
    seen = beta.expect(wire.ANNOUNCE)
    assert seen.body["origin"] == "acme"
    assert seen.body["slot"] == "ident"
    # retraction carries the same stamp
    acme.send(Frame(wire.RETRACT, {"publisher": "a" * 32, "sequence": 2,
                                   "group": PUBLIC, "slot": "ident"}))
    assert beta.expect(wire.RETRACT).body["origin"] == "acme"


def test_spoofed_origin_closes_the_session(relay):
    server, _, connect = relay
    acme = activate(connect, "acme")
    beta = activate(connect, "beta")
    body = announcement_body()
    body["origin"] = "beta"  # claim somebody else's namespace
    acme.send(Frame(wire.ANNOUNCE, body))
    assert acme.expect(wire.ERROR).body["code"] == "PROTOCOL_VIOLATION"
    assert acme.recv() is None
    # nothing leaked to the impersonated client
    beta.send(Frame(wire.PING, {"request_id": "x"}))
    assert beta.expect(wire.PONG).body == {"request_id": "x"}


def test_restating_your_own_origin_is_allowed(relay):
    _, _, connect = relay
    acme = activate(connect, "acme")
    beta = activate(connect, "beta")
    body = announcement_body()
    body["origin"] = "acme"
    acme.send(Frame(wire.ANNOUNCE, body))
    assert beta.expect(wire.ANNOUNCE).body["origin"] == "acme"


def test_list_fans_out_to_other_clients(relay):
    _, _, connect = relay
    acme = activate(connect, "acme")
    beta = activate(connect, "beta")
    acme.send(Frame(wire.LIST, None))
    assert beta.expect(wire.LIST).type == wire.LIST


# -- request routing ---------------------------------------------------------------------


def test_request_routing_follows_the_target_then_the_route(relay):
    _, _, connect = relay
    acme = activate(connect, "acme")
    beta = activate(connect, "beta")

    acme.send(Frame(wire.EXEC_REQUEST, {
        "request_id": "req-1", "target": "beta", "component": "ident@1",
        "group": PUBLIC, "inputs": {}, "blobs": []}))
    request = beta.expect(wire.EXEC_REQUEST)
    assert request.body["component"] == "ident@1"

    # replies ride the recorded route with no target field
    beta.send(Frame(wire.LOG_CHUNK, {"request_id": "req-1", "stream": "stdout",
                                     "seq": 0, "last": True}, b"hi\n"))
    log = acme.expect(wire.LOG_CHUNK)
    assert log.binary == b"hi\n"
    beta.send(Frame(wire.EXEC_RESULT, {"request_id": "req-1", "status": "ok",
                                       "exit_status": 0, "outputs": {},
                                       "stdout": "", "stderr": ""}))
    assert acme.expect(wire.EXEC_RESULT).body["status"] == "ok"

    # the route is torn down once the result passes through
    beta.send(Frame(wire.LOG_CHUNK, {"request_id": "req-1", "stream": "stdout",
                                     "seq": 1, "last": True}, b"late\n"))
    acme.send(Frame(wire.PING, {"request_id": "alive"}))
    assert acme.expect(wire.PONG).body == {"request_id": "alive"}  # no stray chunk


@pytest.mark.parametrize("leaver", ["host", "caller"])
def test_a_broken_route_is_reported_to_the_survivor(relay, leaver):
    server, _, connect = relay
    acme = activate(connect, "acme")
    beta = activate(connect, "beta")
    acme.send(Frame(wire.EXEC_REQUEST, {"request_id": "req-7", "target": "beta"}))
    assert beta.expect(wire.EXEC_REQUEST).body["request_id"] == "req-7"

    gone, survivor = (beta, acme) if leaver == "host" else (acme, beta)
    gone.close()
    error = survivor.expect(wire.ERROR)
    assert error.body["code"] == "ROUTE_UNAVAILABLE"
    assert error.body["request_id"] == "req-7"
    assert any("ROUTE_UNAVAILABLE" in line and "req-7" in line
               for line in server.log_lines)


def test_unroutable_target_errors_without_closing(relay):
    _, _, connect = relay
    acme = activate(connect, "acme")
    acme.send(Frame(wire.EXEC_REQUEST, {"request_id": "req-9",
                                        "target": "ghost"}))
    error = acme.expect(wire.ERROR)
    assert error.body["code"] == "ROUTE_UNAVAILABLE"
    assert error.body["request_id"] == "req-9"
    acme.send(Frame(wire.PING, {"request_id": "still-here"}))
    acme.expect(wire.PONG)


def test_self_targeting_is_unroutable(relay):
    _, _, connect = relay
    acme = activate(connect, "acme")
    acme.send(Frame(wire.EXEC_REQUEST, {"request_id": "req-2",
                                        "target": "acme"}))
    assert acme.expect(wire.ERROR).body["code"] == "ROUTE_UNAVAILABLE"


# -- full nodes over a relay ----------------------------------------------------------


def uplinked(make_node, port, client_id, label):
    node = make_node(label, uplink=UplinkSettings(
        relay=f"127.0.0.1:{port}", client_id=client_id,
        token=TOKENS[client_id]))
    node.start()
    assert wait_until(node.uplink.connected)
    return node


def test_cross_relay_publish_and_execute(make_relay, make_node, tmp_path):
    server, port = make_relay(TOKENS)
    a = uplinked(make_node, port, "acme", "origin-a")
    b = uplinked(make_node, port, "beta", "origin-b")

    a.install_descriptor(identity_descriptor(tmp_path))
    a.publish("identity@1")
    assert wait_until(lambda: any(str(r.ref) == "acme::identity@1"
                                  for r in b.remote_components()))
    remote = next(iter(b.remote_components()))
    assert remote.origin == "acme"
    assert remote.publisher == a.node_id

    outcome = b.remote_execute(a.node_id, "acme::identity@1", PUBLIC,
                               {"x": Datum.integer(41)})
    assert outcome.outputs["out"] == Datum.integer(41)
    assert b.request_documentation(a.node_id, "acme::identity@1",
                                   PUBLIC) == ""

    a.unpublish("identity@1")
    assert wait_until(lambda: not b.remote_components())


def test_a_tool_behind_a_lost_uplink_is_refused_before_the_run_opens(
        make_relay, make_node, tmp_path):
    server, port = make_relay(TOKENS)
    a = uplinked(make_node, port, "acme", "origin-a")
    b = uplinked(make_node, port, "beta", "origin-b")
    a.install_descriptor(identity_descriptor(tmp_path))
    a.publish("identity@1")
    assert wait_until(lambda: any(str(r.ref) == "acme::identity@1"
                                  for r in b.remote_components()))

    server.stop()
    assert wait_until(lambda: not b.uplink.connected())
    # relay offers outlive the uplink, so placement still picks acme's node
    text = workflow(
        "cut-off",
        [instance("src", "input-provider@1", {"values": {"x": 1}}),
         instance("echo", "acme::identity@1")],
        [edge("src.x", "echo.x")])
    with pytest.raises(EngineError) as err:
        b.start_run(text)
    assert err.value.code == "PLACEMENT_UNREACHABLE"
    assert b.store.list_runs() == []


def test_a_relay_firing_after_the_uplink_drops_is_unreachable(
        make_relay, make_node, tmp_path):
    server, port = make_relay(TOKENS)
    a = uplinked(make_node, port, "acme", "drop-a")
    b = uplinked(make_node, port, "beta", "drop-b")
    a.install_descriptor(identity_descriptor(tmp_path))
    a.publish("identity@1")
    assert wait_until(lambda: b.remote_components())
    server.stop()
    assert wait_until(lambda: not b.uplink.connected())
    with pytest.raises(NetworkError) as err:
        b.execute(a.node_id, "acme::identity@1", PUBLIC, {"x": Datum.integer(1)})
    assert err.value.code == "UNREACHABLE"


def test_a_lan_and_relay_run_lists_the_registry_once(make_relay, make_node,
                                                      tmp_path, monkeypatch):
    server, port = make_relay(TOKENS)
    ctrl = uplinked(make_node, port, "beta", "count-ctrl")
    partner = uplinked(make_node, port, "acme", "count-partner")
    lan = make_node("count-lan")
    link_nodes(ctrl, lan)
    key = new_group_key("exchange")
    ctrl.add_group_key(key)
    partner.add_group_key(key)
    lan.install_descriptor(identity_descriptor(tmp_path, name="hop"))
    lan.publish("hop@1")
    partner.install_descriptor(identity_descriptor(tmp_path))
    partner.publish("identity@1", group="exchange")
    assert wait_until(lambda: len(ctrl.remote_components()) == 2)

    listings = []
    listing = Node.remote_components
    monkeypatch.setattr(Node, "remote_components",
                        lambda self: listings.append(self) or listing(self))
    text = workflow(
        "counted",
        [instance("src", "input-provider@1", {"values": {"x": 4}}),
         instance("hop", "hop@1"),
         instance("echo", "acme::identity@1")],
        [edge("src.x", "hop.x"), edge("hop.out", "echo.x")])
    engine = ctrl.start_run(text)
    assert engine.wait(60) == "COMPLETED"
    records = {r.instance_id: r for r in ctrl.store.query_run(engine.run_id)}
    assert (records["hop"].node, records["echo"].node) == (lan.node_id,
                                                           partner.node_id)
    assert sum(node is ctrl for node in listings) == 1


def test_group_material_never_reaches_the_relay(make_relay, make_node, tmp_path):
    server, port = make_relay(TOKENS)
    a = uplinked(make_node, port, "acme", "grp-a")
    b = uplinked(make_node, port, "beta", "grp-b")

    key = new_group_key("exchange")
    a.add_group_key(key)
    a.install_descriptor(identity_descriptor(tmp_path, doc="partner doc"))
    a.publish("identity@1", group="exchange")
    time.sleep(0.4)
    assert b.remote_components() == []  # not a member yet

    b.add_group_key(key)
    assert wait_until(lambda: b.remote_components())
    outcome = b.remote_execute(a.node_id, "acme::identity@1", key.key_id,
                               {"x": Datum.integer(5)})
    assert outcome.outputs["out"] == Datum.integer(5)
    assert b.request_documentation(a.node_id, "acme::identity@1",
                                   key.key_id) == "partner doc"

    # the relay saw types and ids only: no secret, no key id, no tool name
    transcript = "\n".join(server.log_lines)
    assert key.secret.hex() not in transcript
    assert key.key_id not in transcript
    assert "identity" not in transcript


def test_host_leaving_mid_exec_fails_the_call_at_once(make_relay, make_node,
                                                      tmp_path):
    server, port = make_relay(TOKENS)
    a = uplinked(make_node, port, "acme", "leaving-host")
    b = uplinked(make_node, port, "beta", "stranded-caller")
    a.install_descriptor(parse_descriptor(json.dumps({
        "name": "slow", "version": "1", "commands": {"linux": "sleep 3"}})))
    a.publish("slow@1")
    assert wait_until(lambda: b.remote_components())
    stopped = []

    def leave():
        # once the host has the request, its uplink goes away mid-run
        wait_until(lambda: any("EXEC_REQUEST" in line for line in server.log_lines))
        stopped.append(time.monotonic())
        a.uplink.stop()

    threading.Thread(target=leave, daemon=True).start()
    with pytest.raises(NetworkError) as err:
        b.remote_execute(a.node_id, "acme::slow@1", PUBLIC, {})
    assert err.value.code == "ROUTE_UNAVAILABLE"
    assert time.monotonic() - stopped[0] < 2.0


def test_every_tcp_socket_probes_for_a_vanished_peer(make_relay, make_node):
    server, port = make_relay(TOKENS)
    a = uplinked(make_node, port, "acme", "probed-a")
    b = make_node("probed-b")
    b.connect(("127.0.0.1", a.listen("127.0.0.1", 0)))
    assert wait_until(lambda: a.session_for(b.node_id) is not None)
    sockets = {
        "connect": b.session_for(a.node_id)._sock,
        "accept": a.session_for(b.node_id)._sock,
        "uplink": a.uplink._sock,
        "relay": server._sessions["acme"]._sock,
    }
    for name, sock in sockets.items():
        assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE) == 1, name
        if hasattr(socket, "TCP_KEEPIDLE"):
            assert sock.getsockopt(socket.IPPROTO_TCP,
                                   socket.TCP_KEEPIDLE) == KEEPALIVE_IDLE, name
        if hasattr(socket, "TCP_USER_TIMEOUT"):
            # unacknowledged bytes give up when keepalive would
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_USER_TIMEOUT) == (
                KEEPALIVE_IDLE + KEEPALIVE_INTERVAL * KEEPALIVE_COUNT) * 1000, name


def test_every_tcp_socket_sends_without_delay(make_relay, make_node):
    server, port = make_relay(TOKENS)
    a = uplinked(make_node, port, "acme", "eager-a")
    b = make_node("eager-b")
    b.connect(("127.0.0.1", a.listen("127.0.0.1", 0)))
    assert wait_until(lambda: a.session_for(b.node_id) is not None)
    sockets = {
        "connect": b.session_for(a.node_id)._sock,
        "accept": a.session_for(b.node_id)._sock,
        "uplink": a.uplink._sock,
        "relay": server._sessions["acme"]._sock,
    }
    for name, sock in sockets.items():
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1, name


def test_stop_frees_the_port(make_relay, make_node):
    before = set(threading.enumerate())
    server, relay_port = make_relay(TOKENS)
    node = make_node("stopper")
    node_port = node.listen("127.0.0.1", 0)
    accepting = [thread for thread in set(threading.enumerate()) - before
                 if "accept" in thread.name]
    assert len(accepting) == 2
    node.stop()
    server.stop()
    for port in (node_port, relay_port):
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=2).close()
    assert wait_until(lambda: not any(thread.is_alive() for thread in accepting))
    replacement = RelayServer(TOKENS)
    assert replacement.start("127.0.0.1", relay_port) == relay_port
    replacement.stop()


def test_relay_route_unavailable_surfaces_as_network_error(make_relay, make_node):
    server, port = make_relay(TOKENS)
    b = uplinked(make_node, port, "beta", "lonely")
    with pytest.raises(NetworkError) as err:
        b.remote_execute("f" * 32, "acme::ghost@1", PUBLIC, {})
    assert err.value.code in ("UNREACHABLE", "ROUTE_UNAVAILABLE")


def test_clients_reconverge_after_relay_restart(make_node, tmp_path):
    server = RelayServer(TOKENS)
    port = server.start("127.0.0.1", 0)
    try:
        a = uplinked(make_node, port, "acme", "boon-a")
        b = uplinked(make_node, port, "beta", "boon-b")
        a.install_descriptor(identity_descriptor(tmp_path))
        a.publish("identity@1")
        assert wait_until(lambda: b.remote_components())
    finally:
        server.stop()
    assert wait_until(lambda: not a.uplink.connected(), timeout=5)

    replacement = RelayServer(TOKENS)
    replacement.start("127.0.0.1", port)
    try:
        assert wait_until(lambda: a.uplink.connected()
                          and b.uplink.connected(), timeout=10)
        # fresh routes through the new process
        outcome = b.remote_execute(a.node_id, "acme::identity@1", PUBLIC,
                                   {"x": Datum.integer(1)})
        assert outcome.outputs["out"] == Datum.integer(1)
        # new announcements cross the replacement relay too
        a.install_descriptor(identity_descriptor(tmp_path, name="second"))
        a.publish("second@1")
        assert wait_until(
            lambda: any(str(r.ref) == "acme::second@1"
                        for r in b.remote_components()), timeout=10)
    finally:
        replacement.stop()


def test_a_garbled_relay_reply_is_a_connect_failure(make_node):
    listener = socket.create_server(("127.0.0.1", 0))

    def garble():
        sock, _ = listener.accept()
        listener.close()
        with sock:
            FrameReader(sock.recv).next_frame()  # the client's HELLO
            sock.sendall(wire.encode_frame(Frame(wire.PING, None)))
            sock.recv(1 << 16)

    threading.Thread(target=garble, daemon=True).start()
    node = make_node("garbled", uplink=UplinkSettings(
        relay="127.0.0.1:%d" % listener.getsockname()[1], client_id="acme",
        token="t"))
    node.uplink = UplinkLink(node, node.config.uplink)
    with pytest.raises(NetworkError) as err:
        node.uplink._connect_once()
    assert err.value.code == "CONNECT_FAILED"


def test_auth_failure_aborts_node_start(make_relay, make_node):
    _, port = make_relay(TOKENS)
    node = make_node("badtoken", uplink=UplinkSettings(
        relay=f"127.0.0.1:{port}", client_id="acme", token="nope"))
    with pytest.raises(NetworkError) as err:
        node.start()
    assert err.value.code == "AUTH_FAILED"
