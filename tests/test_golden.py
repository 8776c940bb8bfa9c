"""Golden records: small runs whose records.log must stay the same bytes.

Each test runs a workflow, normalises its records.log (see
``helpers.normalise_records``) and compares it with a file under
``tests/golden/``. Set TOOLGRID_REGENERATE_GOLDEN=1 to rewrite the files
from the current code instead; a change that does so says why.
"""

import json
import os
from pathlib import Path

from toolgrid.groups import new_group_key
from toolgrid.tools import parse_descriptor

from helpers import (BABYLONIAN_BODY, edge, grid_loop, instance, link_nodes,
                     normalise_records, script_config, wait_until, workflow,
                     write_tool)
from test_node import PY, identity_descriptor, stamp_descriptor
from test_uplink import TOKENS, uplinked

GOLDEN = Path(__file__).parent / "golden"
REGENERATE = os.environ.get("TOOLGRID_REGENERATE_GOLDEN") == "1"


def records_log(node, workflow_text: str) -> tuple[str, str]:
    """Run ``workflow_text`` on ``node``: its end state and records.log text."""
    engine = node.start_run(workflow_text)
    state = engine.wait(30)
    return state, (node.config.store_dir / "runs" / engine.run_id
                   / "records.log").read_text()


def check_golden(name: str, text: str) -> None:
    path = GOLDEN / name
    if REGENERATE:
        path.write_text(text)
    assert text == path.read_text()


def test_a_grid_loop_records_the_golden_log(node):
    state, text = records_log(node, grid_loop("golden-grid", 20))
    assert state == "COMPLETED"
    check_golden("grid_loop.log", normalise_records(text, {node.node_id: "solo"}))


def test_a_failing_script_records_the_golden_log(node, tmp_path):
    script = write_tool(tmp_path / "fail.py", (
        "sys.stderr.write('no convergence\\n')\n"
        "sys.exit(3)\n"))
    state, text = records_log(node, workflow(
        "golden-script", [instance("fail", "script@1", script_config(script, {}, {}))],
        []))
    assert state == "FAILED"
    check_golden("script_failure.log", normalise_records(text, {node.node_id: "solo"}))


def test_a_lan_file_tool_records_the_golden_log(make_node, tmp_path):
    host, controller = make_node("host"), make_node("controller")
    link_nodes(host, controller)
    host.install_descriptor(stamp_descriptor(tmp_path))
    host.publish("stamp@1")
    assert wait_until(lambda: controller.remote_components())
    source = tmp_path / "in.txt"
    source.write_bytes(b"payload line\n")
    state, text = records_log(controller, workflow(
        "golden-lan",
        [instance("src", "input-provider@1", {"files": {"data": str(source)}}),
         instance("stamp", "stamp@1", placement=host.node_id),
         instance("sink", "output-writer@1",
                  {"target": str(tmp_path / "out"), "inputs": {"f": "file"}})],
        [edge("src.data", "stamp.src"), edge("stamp.dst", "sink.f")]))
    assert state == "COMPLETED"
    check_golden("lan_file_tool.log", normalise_records(
        text, {controller.node_id: "controller", host.node_id: "host"}))


def test_a_failing_lan_tool_records_the_golden_log(make_node, tmp_path):
    host, controller = make_node("host"), make_node("controller")
    link_nodes(host, controller)
    script = write_tool(tmp_path / "fail.py", (
        "sys.stderr.write('no convergence\\n')\n"
        "sys.exit(4)\n"))
    host.install_descriptor(parse_descriptor(json.dumps({
        "name": "fails", "version": "1",
        "commands": {"linux": f"{PY} {script} ${{workdir}}"},
        "inputs": [], "outputs": []})))
    host.publish("fails@1")
    assert wait_until(lambda: controller.remote_components())
    state, text = records_log(controller, workflow(
        "golden-lan-failure", [instance("fail", "fails@1", placement=host.node_id)],
        []))
    assert state == "FAILED"
    check_golden("lan_tool_failure.log", normalise_records(
        text, {controller.node_id: "controller", host.node_id: "host"}))


def test_a_group_tool_through_the_relay_records_the_golden_log(
        make_node, make_relay, tmp_path):
    _, port = make_relay(TOKENS)
    host = uplinked(make_node, port, "acme", "host")
    controller = uplinked(make_node, port, "beta", "controller")
    key = new_group_key("exchange")
    host.add_group_key(key)
    controller.add_group_key(key)
    host.install_descriptor(identity_descriptor(tmp_path))
    host.publish("identity@1", group="exchange")
    assert wait_until(lambda: controller.remote_components())
    state, text = records_log(controller, workflow(
        "golden-relay",
        [instance("src", "input-provider@1", {"values": {"x": 4}}),
         instance("echo", "acme::identity@1")],
        [edge("src.x", "echo.x")]))
    assert state == "COMPLETED"
    check_golden("relay_group_tool.log", normalise_records(
        text, {controller.node_id: "controller", host.node_id: "host"}))


def test_a_converger_loop_records_the_golden_log(node, tmp_path):
    step = write_tool(tmp_path / "bab.py", BABYLONIAN_BODY)
    state, text = records_log(node, workflow(
        "golden-converger",
        [instance("conv", "converger@1", {"eps_abs": 1e-6, "max_iterations": 20}),
         instance("step", "script@1",
                  script_config(step, {"x": "float"}, {"y": "float"}, x=1.0))],
        [edge("conv.loop", "step.x"), edge("step.y", "conv.x")]))
    assert state == "COMPLETED"
    check_golden("converger_loop.log", normalise_records(text, {node.node_id: "solo"}))


def test_a_lan_tool_that_writes_stdout_records_the_golden_log(make_node, tmp_path):
    host, controller = make_node("host"), make_node("controller")
    link_nodes(host, controller)
    script = write_tool(tmp_path / "chatty.py", (
        "print('doubling', doc['x'])\n"
        "(wd / 'outputs.json').write_text(json.dumps({'out': doc['x'] * 2}))\n"))
    host.install_descriptor(parse_descriptor(json.dumps({
        "name": "chatty", "version": "1",
        "commands": {"linux": f"{PY} {script} ${{workdir}}"},
        "inputs": [{"name": "x", "type": "integer"}],
        "outputs": [{"name": "out", "type": "integer"}]})))
    host.publish("chatty@1")
    assert wait_until(lambda: controller.remote_components())
    state, text = records_log(controller, workflow(
        "golden-lan-stdout",
        [instance("src", "input-provider@1", {"values": {"x": 21}}),
         instance("twice", "chatty@1", placement=host.node_id)],
        [edge("src.x", "twice.x")]))
    assert state == "COMPLETED"
    check_golden("lan_tool_stdout.log", normalise_records(
        text, {controller.node_id: "controller", host.node_id: "host"}))


def test_a_stall_records_the_golden_log(node, tmp_path):
    # 20 leaves the gate on "false", so the writer's input b never fills
    state, text = records_log(node, workflow(
        "golden-stall",
        [instance("src", "input-provider@1", {"values": {"v": 1.0, "w": 20.0}}),
         instance("gate", "switch@1", {"condition": "< 10"}),
         instance("sink", "output-writer@1",
                  {"target": str(tmp_path / "out"),
                   "inputs": {"a": "float", "b": "float"}})],
        [edge("src.v", "sink.a"), edge("src.w", "gate.value"),
         edge("gate.true", "sink.b")]))
    assert state == "STALLED"
    check_golden("stall.log", normalise_records(text, {node.node_id: "solo"}))
