import base64
import json
import logging
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from toolgrid import node as node_module, wire
from toolgrid.config import PROTOCOL_VERSION, NodeConfig
from toolgrid.components import BuiltinCatalog
from toolgrid.errors import (ConfigError, DescriptorError, EngineError, NetworkError,
                             PlacementError)
from toolgrid.groups import PUBLIC, announcement_slot, decrypt_payload_json, \
    derive_group_key_material, encrypt_payload_json, new_group_key
from toolgrid.node import Node, Registry, canonical_digest
from toolgrid.tools import parse_descriptor
from toolgrid.values import Datum, DatumType
from toolgrid.wire import Frame, FrameReader
from toolgrid.workflow import ComponentRef

from helpers import (PRELUDE, edge, instance, link_nodes, logged, script_config,
                     wait_until, workflow)

PY = sys.executable or "python3"


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
    assert err.value.report.exit_status == 9


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


_NAMES = ("alpha", "beta", "gamma")
_MEMBER, _STRANGER = new_group_key("members"), new_group_key("strangers")


def _group_payload(key, name):
    material = derive_group_key_material(key.secret)
    inner = {"name": name, "version": "1",
             "inputs": [{"name": "x", "type": "integer"}], "outputs": []}
    return (announcement_slot(material.mac_key, name),
            {"ciphertext": base64.b64encode(
                encrypt_payload_json(inner, material.enc_key)).decode()})


# encrypting is slow next to a listing, so each (sealing key, name) is sealed once
_SEALED = {(key.key_id, name): _group_payload(key, name)
           for key in (_MEMBER, _STRANGER) for name in _NAMES}


def _announcement(publisher, group, name, sequence, sealed_by=_MEMBER):
    if group == PUBLIC:
        slot, payload = name, {"name": name, "version": str(sequence),
                               "inputs": [], "outputs": []}
    else:
        slot, payload = _SEALED[(sealed_by.key_id, name)]
    return {"publisher": publisher, "sequence": sequence, "group": group,
            "slot": slot, "payload": payload}


_HELD = ({}, {_MEMBER.key_id: _MEMBER}, {_STRANGER.key_id: _STRANGER},
         {_MEMBER.key_id: _MEMBER, _STRANGER.key_id: _STRANGER})
_registry_steps = st.lists(st.one_of(
    st.tuples(st.sampled_from(["announce", "retract"]),
              st.sampled_from(["p1", "p2"]),
              st.sampled_from([PUBLIC, _MEMBER.key_id]),
              st.sampled_from(_NAMES),
              st.integers(1, 4),
              st.sampled_from([_MEMBER, _STRANGER]),
              st.integers(0, 2)),
    st.tuples(st.just("forget"), st.integers(0, 2)),
    st.tuples(st.just("list"), st.integers(0, len(_HELD) - 1)),
), max_size=25)


@settings(max_examples=60, deadline=None)
@given(_registry_steps)
def test_registry_listing_matches_a_fresh_decode(steps):
    # the reference is a fresh registry fed only the entries that survive
    channels = [object() for _ in range(3)]
    registry = Registry()
    surviving: dict = {}  # entry key -> (sequence, body, tombstone, channel)
    held = _HELD[0]
    for step in steps:
        if step[0] == "forget":
            channel = channels[step[1]]
            registry.forget(channel)
            surviving = {k: v for k, v in surviving.items() if v[3] is not channel}
        elif step[0] == "list":
            held = _HELD[step[1]]
        else:
            kind, publisher, group, name, sequence, sealed_by, where = step
            body = _announcement(publisher, group, name, sequence, sealed_by)
            tombstone = kind == "retract"
            registry.apply(body, tombstone=tombstone, channel=channels[where])
            key = (publisher, group, body["slot"])
            if key not in surviving or surviving[key][0] < sequence:
                surviving[key] = (sequence, body, tombstone, channels[where])
        reference = Registry()
        for _, body, tombstone, channel in surviving.values():
            assert reference.apply(body, tombstone=tombstone, channel=channel)
        assert registry.listing(held) == reference.listing(held)


def test_an_unchanged_registry_is_decoded_once(monkeypatch):
    calls = []

    def counting(raw, enc_key):
        calls.append(1)
        return decrypt_payload_json(raw, enc_key)

    monkeypatch.setattr(node_module, "decrypt_payload_json", counting)
    registry = Registry()
    registry.apply(_announcement("p1", _MEMBER.key_id, "alpha", 1), tombstone=False)
    held = {_MEMBER.key_id: _MEMBER}
    first = registry.listing(held)
    assert [str(r.ref) for r in first] == ["alpha@1"] and len(calls) == 1
    assert registry.listing(held) == first
    assert len(calls) == 1  # nothing changed, so nothing was decrypted again


def test_a_mutated_listing_does_not_leak_into_the_next():
    registry = Registry()
    registry.apply(_announcement("p1", PUBLIC, "alpha", 1), tombstone=False)
    listed = registry.listing({})
    listed.clear()
    assert [str(r.ref) for r in registry.listing({})] == ["alpha@1"]


def test_a_joined_group_shows_offers_already_received(lan_pair, tmp_path):
    a, b = lan_pair
    key = new_group_key("optics")
    b.add_group_key(key)
    b.install_descriptor(identity_descriptor(tmp_path, name="secret"))
    b.install_descriptor(identity_descriptor(tmp_path, name="open"))
    b.publish("secret@1", group="optics")
    b.publish("open@1")
    # one session delivers in order, so the group offer is in by now
    assert wait_until(lambda: a.remote_components())
    assert [str(r.ref) for r in a.remote_components()] == ["open@1"]
    a.add_group_key(key)
    assert [str(r.ref) for r in a.remote_components()] == ["open@1", "secret@1"]


def test_a_listing_after_concurrent_applies_sees_them_all():
    # a decode that overlaps the last apply must not be kept over it; a short
    # switch interval makes the two threads interleave inside the decode
    registry = Registry()

    def apply_all():
        for i in range(200):
            registry.apply(_announcement("p1", PUBLIC, f"t{i}", 1), tombstone=False)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        applier = threading.Thread(target=apply_all)
        applier.start()
        while applier.is_alive():
            registry.listing({})
        applier.join()
    finally:
        sys.setswitchinterval(interval)
    assert len(registry.listing({})) == 200


def test_a_decode_that_overlaps_an_apply_is_not_kept(monkeypatch):
    registry = Registry()
    registry.apply(_announcement("p1", PUBLIC, "alpha", 1), tombstone=False)
    applier = threading.Thread(target=registry.apply, kwargs={
        "body": _announcement("p1", PUBLIC, "beta", 1), "tombstone": False})
    real = node_module.interface_from_json

    def overlapping(doc):
        if applier.ident is None:  # the first decoded entry starts the apply
            applier.start()
            applier.join(0.2)  # returns early only if the apply did not wait
        return real(doc)

    monkeypatch.setattr(node_module, "interface_from_json", overlapping)
    registry.listing({})
    applier.join()
    assert [str(r.ref) for r in registry.listing({})] == ["alpha@1", "beta@1"]


def test_installing_a_descriptor_adds_it_without_a_rescan(make_node, tmp_path):
    node = make_node("installer")
    first = identity_descriptor(tmp_path)
    node.install_descriptor(first)
    assert node.descriptor("identity@1") == first
    assert make_node("installer").descriptor("identity@1") == first
    # the same name@version again replaces the entry, here and on disk
    second = identity_descriptor(tmp_path, doc="Now documented.")
    node.install_descriptor(second)
    assert node.descriptor("identity@1") == second
    assert make_node("installer").descriptor("identity@1") == second


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


def test_a_list_round_leaves_an_unchanged_offer_as_it_was(lan_pair, tmp_path,
                                                         monkeypatch):
    a, b = lan_pair
    key = new_group_key("team")
    a.add_group_key(key)
    b.add_group_key(key)
    sealed = []
    encrypt = node_module.encrypt_payload_json
    monkeypatch.setattr(node_module, "encrypt_payload_json",
                        lambda *args: sealed.append(args) or encrypt(*args))
    received = []  # every ANNOUNCE or RETRACT body b applies
    apply = b.registry.apply
    monkeypatch.setattr(b.registry, "apply", lambda body, **kwargs: (
        received.append(dict(body)) or apply(body, **kwargs)))
    a.install_descriptor(identity_descriptor(tmp_path))
    a.publish("identity@1", group="team")
    assert wait_until(lambda: b.remote_components())
    offered, [listed] = received[-1], b.remote_components()

    session = b.session_for(a.node_id)
    session.send(Frame(wire.LIST, None))
    session.request(wire.PING, {})  # a answers LIST, then PING, in order
    assert len(received) == 2
    assert received[-1] == offered  # same sequence, same ciphertext
    assert b.remote_components()[0] is listed  # nothing was decoded again
    assert len(sealed) == 1

    a.publish("identity@1", group="team")
    assert wait_until(lambda: len(received) == 3)
    assert received[-1]["sequence"] > offered["sequence"]
    assert len(sealed) == 2
    a.unpublish("identity@1")
    assert wait_until(lambda: len(received) == 4)
    assert "payload" not in received[-1]
    assert received[-1]["sequence"] > received[-2]["sequence"]
    assert received[-1]["slot"] == offered["slot"]
    assert len(sealed) == 2
    assert wait_until(lambda: b.remote_components() == [])


def test_a_departed_peers_offers_leave_with_its_session(make_node, tmp_path):
    controller = make_node("placer")
    publishers = [make_node("pub-1"), make_node("pub-2")]
    for publisher in publishers:
        link_nodes(controller, publisher)
        publisher.install_descriptor(parse_descriptor(json.dumps({
            "name": "noop", "version": "1", "commands": {"linux": "true"}})))
        publisher.publish("noop@1")
    ref = ComponentRef.parse("noop@1")
    assert wait_until(lambda: len(controller.offers().get(ref, ())) == 2)

    # auto-placement picks the smallest node id, so stop that one
    gone, survivor = sorted(publishers, key=lambda node: node.node_id)
    gone.stop()
    assert wait_until(lambda: set(controller.offers()[ref]) == {survivor.node_id})
    engine = controller.start_run(workflow("left", [instance("step", "noop@1")], []))
    assert engine.wait(60) == "COMPLETED"
    [record] = controller.store.query_run(engine.run_id)
    assert record.node == survivor.node_id


def test_distributed_run_places_work_on_the_publisher(lan_pair, tmp_path,
                                                     monkeypatch):
    a, b = lan_pair
    a.install_descriptor(identity_descriptor(tmp_path))
    a.publish("identity@1")
    assert wait_until(lambda: b.remote_components())
    calls = {"listing": 0, "create": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Node, "remote_components",
                        counted("listing", Node.remote_components))
    monkeypatch.setattr(BuiltinCatalog, "create",
                        counted("create", BuiltinCatalog.create))

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
    # one registry listing places, builds and validates the run, the remote
    # firing needs none, and each built-in instance is built once
    assert calls == {"listing": 1, "create": 2}

    records = {r.instance_id: r for r in b.store.query_run(engine.run_id)}
    assert records["echo"].node == a.node_id  # only a publishes identity@1
    assert records["src"].node == b.node_id
    assert records["sink"].node == b.node_id
    # the controller's store holds the full history including remote firings
    assert records["echo"].outputs["out"] == {"type": "integer", "value": 11}


def _noop(name, inputs=()):
    return parse_descriptor(json.dumps({
        "name": name, "version": "1", "commands": {"linux": "true"},
        "inputs": [{"name": n, "type": "integer"} for n in inputs]}))


def test_an_instance_is_validated_against_the_offer_it_is_placed_on(lan_pair,
                                                                    tmp_path):
    low, high = sorted(lan_pair, key=lambda node: node.node_id)
    low.install_descriptor(_noop("identity", inputs=["y"]))
    low.publish("identity@1")
    high.install_descriptor(identity_descriptor(tmp_path))
    assert wait_until(lambda: high.remote_components())
    text = workflow(
        "mismatch",
        [instance("src", "input-provider@1", {"values": {"v": 3}}),
         instance("t", "identity@1")],
        [edge("src.v", "t.x")])
    # auto placement picks the lowest node id, whose identity@1 takes y
    with pytest.raises(EngineError) as err:
        high.start_run(text)
    assert err.value.code == "VALIDATION_FAILED"
    assert "UNKNOWN_ENDPOINT" in [d.code for d in err.value.diagnostics]
    assert high.store.list_runs() == []

    engine = high.start_run(text, overrides={"t": high.node_id})
    assert engine.wait(60) == "COMPLETED"


def test_a_peer_tool_named_like_a_builtin_leaves_the_builtin_local(lan_pair):
    low, high = sorted(lan_pair, key=lambda node: node.node_id)
    # install_descriptor refuses a built-in's name, so the offer is injected
    high.registry.apply({
        "publisher": low.node_id, "sequence": 1, "group": PUBLIC,
        "slot": "switch", "payload": {"name": "switch", "version": "1",
                                      "inputs": [], "outputs": []}},
        tombstone=False)
    assert wait_until(lambda: high.remote_components())
    text = workflow(
        "gate",
        [instance("src", "input-provider@1", {"values": {"v": 2.0}}),
         instance("gate", "switch@1", {"condition": "> 1"})],
        [edge("src.v", "gate.value")])
    engine = high.start_run(text)
    assert engine.wait(60) == "COMPLETED"
    records = high.store.query_run(engine.run_id)
    assert [r.node for r in records] == [high.node_id, high.node_id]
    with pytest.raises(PlacementError) as err:
        high.start_run(text, overrides={"gate": low.node_id})
    assert err.value.code == "OVERRIDE_INVALID"


def test_a_bad_builtin_config_fails_validation_before_the_run_opens(node):
    text = workflow(
        "bad-gate",
        [instance("src", "input-provider@1", {"values": {"v": 2.0}}),
         instance("gate", "switch@1", {"condition": "~~ nope"})],
        [edge("src.v", "gate.value")])
    with pytest.raises(EngineError) as err:
        node.start_run(text)
    assert err.value.code == "VALIDATION_FAILED"
    assert [(d.code, d.location) for d in err.value.diagnostics] == [
        ("BAD_CONFIG", "components.gate")]
    assert node.store.list_runs() == []


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


def test_a_descriptor_file_clash_is_refused(make_node):
    def tool(name, version, command="true"):
        return parse_descriptor(json.dumps({
            "name": name, "version": version, "commands": {"linux": command}}))

    node = make_node("clash")
    path = node.install_descriptor(tool("a-b", "1"))
    with pytest.raises(DescriptorError) as err:
        node.install_descriptor(tool("a", "b-1"))  # also tools/a-b-1.json
    assert err.value.code == "NAME_CLASH"
    assert node.descriptor("a@b-1") is None
    # installing the same component again replaces its file
    assert node.install_descriptor(tool("a-b", "1", "false")) == path
    fresh = Node(NodeConfig(node.config.config_dir))
    try:
        assert fresh.descriptor("a-b@1").commands == {"linux": "false"}
        assert fresh.descriptor("a@b-1") is None
    finally:
        fresh.stop()


def test_a_peer_offer_must_carry_a_plain_name(node):
    # only the relay's stamp may put "<origin>::" in a ref, since the route
    # to a relay tool follows it
    for slot, (name, version) in enumerate([("acme::score", "1"),
                                            ("bad name!", "1"),
                                            ("score", "1/../2"),
                                            ("score", "1")]):
        node.registry.apply({
            "publisher": "p" * 32, "sequence": 1, "group": PUBLIC,
            "slot": str(slot), "payload": {"name": name, "version": version,
                                           "inputs": [], "outputs": []}},
            tombstone=False)
    assert [str(r.ref) for r in node.remote_components()] == ["score@1"]


MALFORMED_ENDPOINT_LISTS = {
    "repeated-name": [{"name": "x", "type": "float"}, {"name": "x", "type": "text"}],
    "unknown-key": [{"name": "x", "type": "float", "unit": "m"}],
    "unknown-type": [{"name": "x", "type": "quaternion"}],
    "not-a-list": {"x": "float"},
}


@pytest.mark.parametrize("inputs", MALFORMED_ENDPOINT_LISTS.values(),
                         ids=MALFORMED_ENDPOINT_LISTS.keys())
def test_a_peer_offer_with_a_malformed_endpoint_list_is_not_listed(node, inputs):
    # descriptor files and announcements share one strict parse
    for slot, (name, endpoints) in enumerate([("bad", inputs),
                                              ("good", [{"name": "x", "type": "float"}])]):
        node.registry.apply({
            "publisher": "p" * 32, "sequence": 1, "group": PUBLIC,
            "slot": str(slot), "payload": {"name": name, "version": "1",
                                           "inputs": endpoints, "outputs": []}},
            tombstone=False)
    assert [str(r.ref) for r in node.remote_components()] == ["good@1"]


def test_a_seed_outside_int64_fails_validation_before_the_run_opens(node):
    # validation seeds through the engine's rule, so the run never opens
    text = workflow("big-seed", [instance("s", "script@1", {
        "command": "true", "inputs": {"x": "integer"}, "x": 2 ** 63})], [])
    with pytest.raises(EngineError) as err:
        node.start_run(text)
    assert err.value.code == "VALIDATION_FAILED"
    assert [(d.code, d.location) for d in err.value.diagnostics] == [
        ("TYPE_MISMATCH", "components.s.x")]
    assert node.store.list_runs() == []


def test_a_peer_that_does_not_say_hello_is_refused(make_node):
    node = make_node("srv")
    port = node.listen("127.0.0.1", 0)
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(wire.encode_frame(Frame(wire.PING, None)))
        reader = FrameReader(sock.recv)
        frames = []
        while (frame := reader.next_frame()) is not None:
            frames.append(frame)
    assert [f.type for f in frames] == [wire.HELLO, wire.ERROR]
    assert frames[-1].body["code"] == "BAD_HANDSHAKE"
    assert node.session_for("f" * 32) is None


@pytest.mark.parametrize("blobs", ["ab" * 32, 7, [1], [["ab"]]])
def test_an_exec_request_with_malformed_blobs_is_refused_at_once(lan_pair, tmp_path,
                                                                 blobs):
    a, b = lan_pair
    a.install_descriptor(identity_descriptor(tmp_path))
    a.publish("identity@1")
    reply = b.session_for(a.node_id).request(wire.EXEC_REQUEST, {
        "component": "identity@1", "group": PUBLIC, "inputs": {}, "blobs": blobs},
        time.monotonic() + 5)
    assert reply.type == wire.EXEC_RESULT
    assert reply.body["status"] == "failed"
    assert reply.body["error"]["code"] == "BAD_REQUEST"


@pytest.mark.parametrize("overrides", [["x"], "abc"])
def test_a_run_submit_with_malformed_overrides_is_the_callers_error(lan_pair, caplog,
                                                                    overrides):
    a, b = lan_pair
    text = workflow("submitted", [instance("src", "input-provider@1",
                                           {"values": {"v": 1.0}})], [])
    reply = b.session_for(a.node_id).request(wire.RUN_SUBMIT, {
        "workflow": text, "overrides": overrides, "watch": False},
        time.monotonic() + 5)
    assert reply.type == wire.RUN_EVENT
    assert reply.body["kind"] == "rejected"
    assert reply.body["code"] == "BAD_REQUEST"
    # the host logs before it replies, so any error record is here by now
    assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
    assert a.store.list_runs() == []


def test_a_fresh_node_writes_only_what_it_uses(make_node, tmp_path):
    node = make_node("fresh")
    root = node.config.config_dir
    assert sorted(p.name for p in root.iterdir()) == ["node_id", "work"]
    assert node.store.list_runs() == []
    assert list(node.blobs.digests()) == []

    node.install_descriptor(identity_descriptor(tmp_path))
    assert (root / "tools" / "identity-1.json").is_file()
    node.add_group_key(new_group_key("lab"))
    assert (root / "groups" / "lab.key").is_file()
    digest = node.blobs.put(b"payload")
    assert (root / "store" / "blobs" / digest[:2] / digest).is_file()
    node.store.open_run("r1", '{"name": "demo", "components": [], "connections": []}')
    assert (root / "store" / "runs" / "r1" / "records.log").is_file()
    assert sorted(p.name for p in root.iterdir()) == [
        "groups", "node_id", "store", "tools", "work"]
