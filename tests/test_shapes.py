"""Every JSON document a node reads has one declared shape.

``wire.SHAPES`` must describe what nodes send, and each file parser must name
where a document departs from its shape, reading a null optional key as
absent.
"""

import json

import pytest

from toolgrid import node as node_module
from toolgrid import wire
from toolgrid.config import load_config
from toolgrid.errors import ConfigError, DescriptorError, ToolExecutionError, \
    WorkflowParseError
from toolgrid.groups import PUBLIC, new_group_key
from toolgrid.tools import parse_descriptor
from toolgrid.values import Datum
from toolgrid.workflow import parse_workflow

from helpers import edge, instance, link_nodes, wait_until, workflow
from test_node import PY, identity_descriptor, stamp_descriptor
from test_uplink import TOKENS, uplinked


def test_every_frame_type_a_node_reads_after_hello_has_a_shape():
    unshaped = {wire.HELLO, wire.PING, wire.PONG, wire.LIST}
    assert set(wire.SHAPES) == set(wire.TYPE_NAMES) - unshaped


@pytest.fixture
def sent(monkeypatch):
    """Every frame any node or relay sends during the test."""
    frames = []
    send = node_module.FramedSocket.send

    def recording(self, frame):
        frames.append(frame)
        return send(self, frame)

    monkeypatch.setattr(node_module.FramedSocket, "send", recording)
    return frames


def test_every_frame_a_node_sends_fits_its_shape(sent, make_node, make_relay,
                                                 tmp_path):
    host, caller = make_node("host"), make_node("caller")
    link_nodes(host, caller)
    key = new_group_key("team")
    for node in (host, caller):
        node.add_group_key(key)
    fails = tmp_path / "fails.py"
    fails.write_text("import sys\nprint('dying')\nsys.exit(3)\n")
    host.install_descriptor(parse_descriptor(json.dumps({
        "name": "fails", "version": "1", "commands": {"linux": f"{PY} {fails}"}})))
    host.install_descriptor(stamp_descriptor(tmp_path))
    host.install_descriptor(identity_descriptor(tmp_path, doc="Echoes."))
    host.publish("stamp@1")
    host.publish("fails@1")
    host.publish("identity@1", group="team")
    assert wait_until(lambda: len(caller.remote_components()) == 3)

    # a LAN exec with file blobs, a group tool, both kinds of documentation
    digest = caller.blobs.put(b"payload\n")
    caller.remote_execute(host.node_id, "stamp@1", PUBLIC,
                          {"src": Datum.file(digest, "in.txt")})
    caller.remote_execute(host.node_id, "identity@1", key.key_id,
                          {"x": Datum.integer(3)})
    assert caller.request_documentation(host.node_id, "identity@1",
                                        key.key_id) == "Echoes."
    assert caller.request_documentation(host.node_id, "stamp@1", PUBLIC) == ""
    with pytest.raises(ToolExecutionError):
        caller.remote_execute(host.node_id, "fails@1", PUBLIC, {})
    # a watched run submit and both data queries
    events = []
    run_id = caller.submit_run(host.node_id, workflow(
        "pinned", [instance("src", "input-provider@1", {"values": {"x": 2}}),
                   instance("echo", "identity@1")],
        [edge("src.x", "echo.x")]), watch=events.append)
    assert events[-1]["state"] == "COMPLETED"
    assert caller.query_runs(host.node_id)
    assert caller.query_run_records(host.node_id, run_id)["records"]

    # an exec through the relay, and a retraction
    _, port = make_relay(TOKENS)
    acme = uplinked(make_node, port, "acme", "acme")
    beta = uplinked(make_node, port, "beta", "beta")
    acme.install_descriptor(identity_descriptor(tmp_path))
    acme.publish("identity@1")
    assert wait_until(lambda: beta.remote_components())
    beta.remote_execute(acme.node_id, "acme::identity@1", PUBLIC,
                        {"x": Datum.integer(4)})
    acme.unpublish("identity@1")
    assert wait_until(lambda: not beta.remote_components())

    misfits = [(wire.type_name(frame.type), wire.body_misfit(frame))
               for frame in sent if wire.body_misfit(frame) is not None]
    assert misfits == []
    # every shape but a refusal's ERROR was exercised
    assert {frame.type for frame in sent} >= set(wire.SHAPES) - {wire.ERROR}


# document kind, document, the error code and the location it must name
MISFITS = {
    "config-relay-not-text": ("config", {"uplink": {
        "relay": 5, "client_id": "c", "token": "t"}}, "MALFORMED", "uplink.relay"),
    "config-unknown-uplink-key": ("config", {"uplink": {
        "relay": "r:1", "client_id": "c", "token": "t", "tls": True}},
        "UNKNOWN_KEY", "uplink.tls"),
    "workflow-placement-not-text": ("workflow", {"components": [
        {"id": "a", "component": "x@1"},
        {"id": "b", "component": "x@1", "placement": 5}]},
        "SYNTAX", "components[1].placement"),
    "workflow-unknown-component-key": ("workflow", {"components": [
        {"id": "a", "component": "x@1", "retries": 3}]},
        "UNKNOWN_FIELD", "components[0].retries"),
    "descriptor-command-not-text": ("descriptor", {
        "name": "t", "version": "1", "commands": {"linux": 5}},
        "SYNTAX", "commands.linux"),
}


def _parse(kind, doc, tmp_path):
    if kind == "config":
        (tmp_path / "config.json").write_text(json.dumps(doc))
        return load_config(tmp_path)
    if kind == "workflow":
        return parse_workflow(json.dumps(doc))
    return parse_descriptor(json.dumps(doc))


@pytest.mark.parametrize("kind, doc, code, location", MISFITS.values(),
                         ids=MISFITS.keys())
def test_a_document_that_misfits_names_where(kind, doc, code, location, tmp_path):
    with pytest.raises((ConfigError, WorkflowParseError, DescriptorError)) as err:
        _parse(kind, doc, tmp_path)
    assert err.value.code == code
    assert f"{location}: " in err.value.message
    if kind == "config":
        assert err.value.key == location
    if kind == "workflow":
        assert err.value.location == location


def test_a_null_optional_key_reads_as_absent(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps({
        "display_name": None, "listen": None, "peers": None, "uplink": None,
        "published": [{"component": "wc@1", "group": None}]}))
    config = load_config(tmp_path)
    assert (config.display_name, config.listen, config.peers, config.uplink) == (
        "toolgrid-node", None, [], None)
    assert config.published[0].group == "PUBLIC"

    graph = parse_workflow(json.dumps({"name": None, "labels": None, "components": [
        {"id": "a", "component": "x@1", "config": None, "placement": None}],
        "connections": None}))
    assert (graph.name, graph.labels, graph.connections) == ("", (), ())
    assert (graph.components[0].config, graph.components[0].placement) == ({}, "auto")

    descriptor = parse_descriptor(json.dumps({
        "name": "t", "version": "1", "commands": {"linux": "t"}, "inputs": None,
        "outputs": [{"name": "y", "type": "float"}],
        "preScript": None, "postScript": None, "documentation": None}))
    assert descriptor.interface.inputs == ()
    assert (descriptor.pre_script, descriptor.documentation) == (None, None)


def test_a_group_offer_whose_ciphertext_is_not_text_is_not_listed(node):
    key = new_group_key("team")
    node.add_group_key(key)
    node.registry.apply({"publisher": "p" * 32, "sequence": 1, "group": key.key_id,
                         "slot": "s", "payload": {"ciphertext": 5}}, tombstone=False)
    assert node.remote_components() == []
