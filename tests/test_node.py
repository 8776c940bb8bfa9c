import json
import socket
import sys
import threading
import time

import pytest

from toolgrid import wire
from toolgrid.config import PROTOCOL_VERSION
from toolgrid.errors import ConfigError, NetworkError
from toolgrid.groups import PUBLIC, new_group_key
from toolgrid.node import Registry, canonical_digest, link_nodes
from toolgrid.tools import parse_descriptor
from toolgrid.values import Datum, DatumType
from toolgrid.wire import Frame, FrameReader
from toolgrid.workflow import ComponentRef

from helpers import PRELUDE, edge, instance, logged, script_config, workflow

PY = sys.executable or "python3"


def wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def identity_descriptor(tmp_path, name="identity", doc=None):
    script = tmp_path / f"{name}.py"
    script.write_text(PRELUDE +
                      "(wd / 'outputs.json').write_text(json.dumps({'out': doc['x']}))\n")
    descriptor = {
        "name": name, "version": "1",
        "commands": {"linux": f"{PY} {script} ${{workdir}}"},
        "inputs": [{"name": "x", "type": "integer"}],
        "outputs": [{"name": "out", "type": "integer"}],
    }
    if doc is not None:
        descriptor["documentation"] = doc
    return parse_descriptor(json.dumps(descriptor))


def stamp_descriptor(tmp_path):
    # copies its file input to a file output with a suffix line
    script = tmp_path / "stamp.py"
    script.write_text(PRELUDE + (
        "data = (wd / doc['src']).read_bytes()\n"
        "(wd / 'outputs' / 'stamped.txt').write_bytes(data + b'stamped\\n')\n"
        "(wd / 'outputs.json').write_text(json.dumps(\n"
        "    {'dst': 'outputs/stamped.txt'}))\n"))
    return parse_descriptor(json.dumps({
        "name": "stamp", "version": "1",
        "commands": {"linux": f"{PY} {script} ${{workdir}}"},
        "inputs": [{"name": "src", "type": "file"}],
        "outputs": [{"name": "dst", "type": "file"}],
    }))


def test_handshake_and_ping(lan_pair):
    a, b = lan_pair
    assert a.session_for(b.node_id) is not None
    assert b.session_for(a.node_id) is not None
    assert a.session_for(b.node_id).peer_display_name == "beta"
    assert a.ping(b.node_id)
    assert b.ping(a.node_id)
    assert not a.ping("0" * 32)  # unknown peer


def test_version_mismatch_is_refused(make_node):
    node = make_node("srv")
    port = node.listen("127.0.0.1", 0)
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(wire.encode_frame(Frame(wire.HELLO, {
            "protocol_version": PROTOCOL_VERSION + 1,
            "node_id": "f" * 32, "display_name": "future"})))
        reader = FrameReader(sock.recv)
        frames = []
        while True:
            frame = reader.next_frame()
            if frame is None:
                break
            frames.append(frame)
    errors = [f for f in frames if f.type == wire.ERROR]
    assert errors and errors[-1].body["code"] == "VERSION_MISMATCH"


def test_public_announcement_reaches_peers(lan_pair, tmp_path):
    a, b = lan_pair
    a.install_descriptor(identity_descriptor(tmp_path))
    a.publish("identity@1")
    assert wait_until(lambda: any(str(r.ref) == "identity@1"
                                  for r in b.remote_components()))
    remote = next(r for r in b.remote_components() if str(r.ref) == "identity@1")
    assert remote.publisher == a.node_id
    assert remote.group == PUBLIC
    assert remote.origin is None  # direct peer, no relay prefix
    types = {e.name: e.datum_type for e in remote.interface.inputs}
    assert types == {"x": DatumType.INTEGER}


def test_publish_requires_installed_tool_and_known_group(node, tmp_path):
    with pytest.raises(ConfigError) as err:
        node.publish("ghost@9")
    assert err.value.code == "UNKNOWN_TOOL"
    node.install_descriptor(identity_descriptor(tmp_path))
    with pytest.raises(ConfigError) as err:
        node.publish("identity@1", group="nonexistent")
    assert err.value.code == "UNKNOWN_GROUP"


def test_unpublish_retracts_everywhere(lan_pair, tmp_path):
    a, b = lan_pair
    a.install_descriptor(identity_descriptor(tmp_path))
    a.publish("identity@1")
    assert wait_until(lambda: b.remote_components())
    a.unpublish("identity@1")
    assert wait_until(lambda: not b.remote_components())


def test_group_announcements_are_opaque_to_outsiders(lan_pair, tmp_path):
    a, b = lan_pair
    key = new_group_key("optics")
    a.add_group_key(key)
    a.install_descriptor(identity_descriptor(tmp_path))
    a.publish("identity@1", group="optics")

    # b holds no key: the announcement lands in its registry but yields nothing
    time.sleep(0.3)
    assert b.remote_components() == []

    b.add_group_key(key)
    assert wait_until(lambda: any(str(r.ref) == "identity@1"
                                  for r in b.remote_components()))
    remote = next(iter(b.remote_components()))
    assert remote.group == key.key_id


def test_remote_execute_public(lan_pair, tmp_path):
    a, b = lan_pair
    a.install_descriptor(identity_descriptor(tmp_path))
    a.publish("identity@1")
    assert wait_until(lambda: b.remote_components())
    outcome = b.remote_execute(a.node_id, "identity@1", PUBLIC,
                               {"x": Datum.integer(7)})
    assert outcome.exit_status == 0
    assert outcome.outputs["out"] == Datum.integer(7)
    # stdout/stderr arrive as blobs in the caller's store, even when empty
    assert b.blobs.get(outcome.stdout_ref) == b""
    assert b.blobs.get(outcome.stderr_ref) == b""


def test_remote_execute_moves_file_blobs_both_ways(lan_pair, tmp_path):
    a, b = lan_pair
    a.install_descriptor(stamp_descriptor(tmp_path))
    a.publish("stamp@1")
    assert wait_until(lambda: b.remote_components())

    digest = b.blobs.put(b"payload line\n")
    outcome = b.remote_execute(a.node_id, "stamp@1", PUBLIC,
                               {"src": Datum.file(digest, "in.txt")})
    result = outcome.outputs["dst"]
    assert result.value.filename == "stamped.txt"
    # the output blob is fetchable on the calling side
    assert b.blobs.get(result.value.digest) == b"payload line\nstamped\n"
    # and the input blob landed on the hosting side
    assert a.blobs.get(digest) == b"payload line\n"


def test_remote_execute_unknown_component(lan_pair):
    a, b = lan_pair
    with pytest.raises(NetworkError) as err:
        b.remote_execute(a.node_id, "ghost@1", PUBLIC, {})
    assert err.value.code == "UNKNOWN_COMPONENT"


def test_remote_execute_tool_failure_travels_back(lan_pair, tmp_path):
    a, b = lan_pair
    script = tmp_path / "fail.py"
    script.write_text("import sys\nsys.stderr.write('dies\\n')\nsys.exit(9)\n")
    a.install_descriptor(parse_descriptor(json.dumps({
        "name": "dies", "version": "1",
        "commands": {"linux": f"{PY} {script}"},
        "inputs": [], "outputs": [],
    })))
    a.publish("dies@1")
    assert wait_until(lambda: b.remote_components())
    from toolgrid.errors import ToolExecutionError
    with pytest.raises(ToolExecutionError) as err:
        b.remote_execute(a.node_id, "dies@1", PUBLIC, {})
    assert err.value.code == "TOOL_FAILED"
    assert err.value.exit_status == 9


def test_group_execution_requires_membership(lan_pair, tmp_path):
    a, b = lan_pair
    key = new_group_key("classified")
    a.add_group_key(key)
    a.install_descriptor(identity_descriptor(tmp_path))
    a.publish("identity@1", group="classified")
    time.sleep(0.3)

    workdirs_before = len(list(a.work_dir.iterdir())) if a.work_dir.exists() else 0
    with pytest.raises(NetworkError) as err:
        b.remote_execute(a.node_id, "identity@1", key.key_id,
                         {"x": Datum.integer(1)})
    assert err.value.code == "AUTH_FAILED"
    # the host refused before spawning anything
    workdirs_after = len(list(a.work_dir.iterdir())) if a.work_dir.exists() else 0
    assert workdirs_after == workdirs_before

    b.add_group_key(key)
    outcome = b.remote_execute(a.node_id, "identity@1", key.key_id,
                               {"x": Datum.integer(5)})
    assert outcome.outputs["out"] == Datum.integer(5)


def test_documentation_request(lan_pair, tmp_path):
    a, b = lan_pair
    a.install_descriptor(identity_descriptor(tmp_path, doc="Echoes its input."))
    a.publish("identity@1")
    assert wait_until(lambda: b.remote_components())
    assert b.request_documentation(a.node_id, "identity@1",
                                   PUBLIC) == "Echoes its input."
    with pytest.raises(NetworkError):
        b.request_documentation(a.node_id, "ghost@1", PUBLIC)


def test_group_documentation_is_encrypted_in_flight(lan_pair, tmp_path):
    a, b = lan_pair
    key = new_group_key("optics")
    a.add_group_key(key)
    b.add_group_key(key)
    a.install_descriptor(identity_descriptor(tmp_path, doc="Members only."))
    a.publish("identity@1", group="optics")
    assert wait_until(lambda: b.remote_components())
    assert b.request_documentation(a.node_id, "identity@1",
                                   key.key_id) == "Members only."


def test_spoofed_announcement_is_dropped(lan_pair):
    a, b = lan_pair
    session = b.session_for(a.node_id)
    session.send(Frame(wire.ANNOUNCE, {
        "publisher": "e" * 32,  # not b's node id
        "sequence": 1, "group": PUBLIC, "slot": "fake",
        "payload": {"name": "fake", "version": "1",
                    "inputs": [], "outputs": []}}))
    time.sleep(0.3)
    assert a.remote_components() == []
    # the session survives the bad frame
    assert b.ping(a.node_id)


def test_registry_sequence_supersession():
    registry = Registry()
    body = {"publisher": "p1", "sequence": 5, "group": PUBLIC, "slot": "t",
            "payload": {"name": "t", "version": "1",
                        "inputs": [], "outputs": []}}
    assert registry.apply(body, tombstone=False)
    stale = dict(body, sequence=4)
    assert not registry.apply(stale, tombstone=True)  # older sequence ignored
    assert len(registry.listing({})) == 1
    newer = dict(body, sequence=6)
    assert registry.apply(newer, tombstone=True)
    assert registry.listing({}) == []


def test_registry_rejects_transplanted_group_slots():
    # an attacker re-files a valid encrypted payload under a different slot;
    # the listing drops entries whose slot does not match the inner name
    from toolgrid.groups import announcement_slot, derive_group_key_material, \
        encrypt_payload_json
    key = new_group_key("g")
    material = derive_group_key_material(key.secret)
    inner = {"name": "real", "version": "1", "inputs": [], "outputs": []}
    import base64
    payload = {"ciphertext": base64.b64encode(
        encrypt_payload_json(inner, material.enc_key)).decode()}

    registry = Registry()
    good = {"publisher": "p1", "sequence": 1, "group": key.key_id,
            "slot": announcement_slot(material.mac_key, "real"), "payload": payload}
    registry.apply(good, tombstone=False)
    assert [str(r.ref) for r in registry.listing({key.key_id: key})] == ["real@1"]

    forged = {"publisher": "p1", "sequence": 2, "group": key.key_id,
              "slot": announcement_slot(material.mac_key, "elsewhere"),
              "payload": payload}
    registry.apply(forged, tombstone=False)
    listed = [str(r.ref) for r in registry.listing({key.key_id: key})]
    assert listed == ["real@1"]  # the transplant never surfaces


def test_list_triggers_reannouncement(lan_pair, tmp_path):
    a, b = lan_pair
    a.install_descriptor(identity_descriptor(tmp_path))
    a.publish("identity@1")
    assert wait_until(lambda: b.remote_components())
    # wipe b's registry, then ask the network to repeat itself
    b.registry.forget(b.session_for(a.node_id))
    assert b.remote_components() == []
    b.session_for(a.node_id).send(Frame(wire.LIST, {}))
    assert wait_until(lambda: b.remote_components())


def test_a_departed_peers_offers_leave_with_its_session(make_node, tmp_path):
    controller = make_node("placer")
    publishers = [make_node("pub-1"), make_node("pub-2")]
    for publisher in publishers:
        link_nodes(controller, publisher)
        publisher.install_descriptor(parse_descriptor(json.dumps({
            "name": "noop", "version": "1", "commands": {"linux": "true"}})))
        publisher.publish("noop@1")
    ref = ComponentRef.parse("noop@1")
    assert wait_until(lambda: len(controller.providers().get(ref, ())) == 2)

    # auto-placement picks the smallest node id, so stop that one
    gone, survivor = sorted(publishers, key=lambda node: node.node_id)
    gone.stop()
    assert wait_until(lambda: controller.providers()[ref] == {survivor.node_id})
    engine = controller.start_run(workflow("left", [instance("step", "noop@1")], []))
    assert engine.wait(60) == "COMPLETED"
    [record] = controller.store.query_run(engine.run_id)
    assert record.node == survivor.node_id


def test_distributed_run_places_work_on_the_publisher(lan_pair, tmp_path):
    a, b = lan_pair
    a.install_descriptor(identity_descriptor(tmp_path))
    a.publish("identity@1")
    assert wait_until(lambda: b.remote_components())

    target = tmp_path / "out"
    text = workflow(
        "spread",
        [instance("src", "input-provider@1", {"values": {"v": 11}}),
         instance("echo", "identity@1"),
         instance("sink", "output-writer@1",
                  {"target": str(target), "inputs": {"r": "integer"}})],
        [edge("src.v", "echo.x"), edge("echo.out", "sink.r")])
    engine = b.start_run(text)
    assert engine.wait(60) == "COMPLETED"
    assert logged(target, "r") == [11]

    records = {r.instance_id: r for r in b.store.query_run(engine.run_id)}
    assert records["echo"].node == a.node_id  # only a publishes identity@1
    assert records["src"].node == b.node_id
    assert records["sink"].node == b.node_id
    # the controller's store holds the full history including remote firings
    assert records["echo"].outputs["out"] == {"type": "integer", "value": 11}


def test_submit_run_and_watch(lan_pair, tmp_path):
    a, b = lan_pair
    target = tmp_path / "out"
    text = workflow(
        "submitted",
        [instance("src", "input-provider@1", {"values": {"v": 2.0}}),
         instance("sink", "output-writer@1",
                  {"target": str(target), "inputs": {"r": "float"}})],
        [edge("src.v", "sink.r")])

    events = []
    run_id = b.submit_run(a.node_id, text, watch=events.append)
    assert run_id
    kinds = [e["event"] for e in events]
    assert kinds[0] == "run-started" and kinds[-1] == "run-finished"

    # the run lives on the controller, not the submitter
    assert a.store.run_state(run_id) == "COMPLETED"
    assert b.query_runs(a.node_id) == [
        {"run_id": run_id, "state": "COMPLETED",
         "created_at": a.store.run_meta(run_id)["created_at"]}]
    reply = b.query_run_records(a.node_id, run_id)
    assert reply["meta"]["state"] == "COMPLETED"
    assert [r["instance_id"] for r in reply["records"]] == ["src", "sink"]


def test_watched_submits_hold_no_controller_worker(lan_pair):
    # more watchers than the controller has pool workers; each run still
    # needs a worker for its tool firing
    a, b = lan_pair
    text = workflow("watched", [instance("step", "script@1", {"command": "true"})],
                    [])
    run_ids = []

    def submit():
        run_ids.append(b.submit_run(a.node_id, text, watch=lambda event: None))

    threads = [threading.Thread(target=submit, daemon=True) for _ in range(32)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 30
    for thread in threads:
        thread.join(max(deadline - time.monotonic(), 0))
    assert not any(thread.is_alive() for thread in threads)
    assert len(set(run_ids)) == 32
    assert all(a.store.run_state(run_id) == "COMPLETED" for run_id in run_ids)


def test_submit_rejects_invalid_workflow(lan_pair):
    a, b = lan_pair
    bad = workflow("broken", [instance("x", "ghost@1")], [])
    from toolgrid.errors import EngineError
    with pytest.raises(EngineError) as err:
        b.submit_run(a.node_id, bad)
    assert err.value.code == "VALIDATION_FAILED"
    assert any(d["code"] == "UNKNOWN_COMPONENT" for d in err.value.diagnostics)


def test_canonical_digest_stable_under_reencoding():
    body = {"b": 1, "a": {"nested": [1, 2.5, "x"]}}
    reencoded = json.loads(json.dumps(body))
    assert canonical_digest(body) == canonical_digest(reencoded)
    assert canonical_digest(body) != canonical_digest({**body, "b": 2})
