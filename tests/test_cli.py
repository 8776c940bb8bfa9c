import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

import toolgrid
from toolgrid.cli import main
from toolgrid.config import NodeConfig, Publication, load_config, save_config
from toolgrid.node import Node
from toolgrid.store import RunStore
from toolgrid.uplink import RelayServer

from helpers import (ADD_BODY, edge, grid_loop, instance, logged, script_config,
                     wait_until, workflow, write_tool)
from test_node import identity_descriptor

runner = CliRunner()


@pytest.fixture
def cfg(tmp_path):
    return tmp_path / "conf"


def invoke(cfg, *args, json_out=False):
    head = ["--config-dir", str(cfg)]
    if json_out:
        head.append("--json")
    return runner.invoke(main, head + list(args))


def json_docs(text):
    """Parse a stream of concatenated (possibly pretty-printed) JSON docs."""
    decoder = json.JSONDecoder()
    docs, idx = [], 0
    while idx < len(text):
        if text[idx].isspace():
            idx += 1
            continue
        doc, idx = decoder.raw_decode(text, idx)
        docs.append(doc)
    return docs


def completed_workflow(tmp_path):
    target = tmp_path / "cli-out"
    text = workflow(
        "cli-smoke",
        [instance("src", "input-provider@1", {"values": {"v": 4.0}}),
         instance("sink", "output-writer@1",
                  {"target": str(target), "inputs": {"r": "float"}})],
        [edge("src.v", "sink.r")])
    path = tmp_path / "smoke.workflow.json"
    path.write_text(text)
    return path, target


# -- run ------------------------------------------------------------------------------


def test_run_completed_exits_zero(cfg, tmp_path):
    path, target = completed_workflow(tmp_path)
    result = invoke(cfg, "run", str(path))
    assert result.exit_code == 0, result.output
    assert "COMPLETED" in result.stdout
    assert logged(target, "r") == [4.0]


def test_run_json_emits_run_id_and_state(cfg, tmp_path):
    path, _ = completed_workflow(tmp_path)
    result = invoke(cfg, "run", str(path), json_out=True)
    assert result.exit_code == 0
    docs = json_docs(result.stdout)
    assert docs[0]["run_id"]
    assert docs[-1] == {"run_id": docs[0]["run_id"], "state": "COMPLETED"}


def test_run_watch_streams_events(cfg, tmp_path):
    path, _ = completed_workflow(tmp_path)
    result = invoke(cfg, "run", str(path), "--watch", json_out=True)
    assert result.exit_code == 0
    kinds = [d["event"] for d in json_docs(result.stdout) if "event" in d]
    assert kinds[0] == "run-started" and kinds[-1] == "run-finished"
    assert "firing-finished" in kinds


def test_run_invalid_workflow_exits_two(cfg, tmp_path):
    path = tmp_path / "bad.workflow.json"
    path.write_text(workflow("bad", [instance("x", "ghost@1")], []))
    result = invoke(cfg, "run", str(path))
    assert result.exit_code == 2
    assert "UNKNOWN_COMPONENT" in result.stderr


def test_run_failed_tool_exits_one(cfg, tmp_path):
    script = tmp_path / "die.py"
    script.write_text("import sys; sys.exit(7)\n")
    path = tmp_path / "dies.workflow.json"
    path.write_text(workflow(
        "dies",
        [instance("src", "input-provider@1", {"values": {"v": 1}}),
         instance("calc", "script@1",
                  script_config(script, {"x": "integer"}, {"out": "integer"}))],
        [edge("src.v", "calc.x")]))
    result = invoke(cfg, "run", str(path))
    assert result.exit_code == 1
    assert "FAILED" in result.stderr
    assert "TOOL_FAILED" in result.stderr


def test_run_stalled_exits_one_and_names_the_endpoint(cfg, tmp_path):
    join = write_tool(tmp_path / "join.py", ADD_BODY)
    path = tmp_path / "stalls.workflow.json"
    path.write_text(workflow(
        "stalls",
        [instance("src", "input-provider@1", {"values": {"v": 20.0}}),
         instance("gate", "switch@1", {"condition": "< 10"}),
         instance("sum", "script@1",
                  script_config(join, {"a": "float", "b": "float"},
                                {"total": "float"})),
         instance("tap", "input-provider@1", {"values": {"w": 1.0}})],
        [edge("src.v", "gate.value"),
         edge("gate.true", "sum.b"),
         edge("tap.w", "sum.a")]))
    result = invoke(cfg, "run", str(path))
    assert result.exit_code == 1
    assert "STALLED" in result.stderr
    # the starved endpoint is named
    assert "'b'" in result.stderr and "'sum'" in result.stderr


def test_run_bad_place_spec_exits_two(cfg, tmp_path):
    path, _ = completed_workflow(tmp_path)
    result = invoke(cfg, "run", str(path), "--place", "noequals")
    assert result.exit_code == 2


def test_run_missing_file_exits_two(cfg):
    result = invoke(cfg, "run", "/nonexistent/wf.json")
    assert result.exit_code == 2


def test_run_remote_controller_unreachable_exits_three(cfg, tmp_path):
    path, _ = completed_workflow(tmp_path)
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listens here now
    result = invoke(cfg, "run", str(path), "--controller", f"127.0.0.1:{port}")
    assert result.exit_code == 3


# -- check ----------------------------------------------------------------------------


def test_check_reports_ok(cfg, tmp_path):
    path, _ = completed_workflow(tmp_path)
    result = invoke(cfg, "check", str(path))
    assert result.exit_code == 0
    assert result.stdout.strip() == "ok"


def test_check_lists_diagnostics_and_exits_two(cfg, tmp_path):
    path = tmp_path / "bad.workflow.json"
    path.write_text(workflow(
        "bad",
        [instance("src", "input-provider@1", {"values": {"v": 1}}),
         instance("sink", "output-writer@1",
                  {"target": "/tmp/x", "inputs": {"r": "integer"}})],
        [edge("src.v", "sink.r"), edge("src.v", "sink.r")]))
    result = invoke(cfg, "check", str(path), json_out=True)
    assert result.exit_code == 2
    doc = json.loads(result.stdout)
    codes = [d["code"] for d in doc["diagnostics"]]
    assert "DUPLICATE_INPUT_CONNECTION" in codes


def test_check_applies_the_workflows_pins_as_run_does(cfg, tmp_path):
    path = tmp_path / "pinned.workflow.json"
    path.write_text(workflow(
        "pinned", [instance("src", "input-provider@1", {"values": {"v": 1}},
                            placement="f" * 32)], []))
    for command in ("check", "run"):
        result = invoke(cfg, command, str(path))
        assert result.exit_code == 2, command
        assert "OVERRIDE_INVALID" in result.stderr, command


def test_check_refuses_a_seed_outside_int64(cfg, tmp_path):
    path = tmp_path / "big-seed.workflow.json"
    path.write_text(workflow("big-seed", [instance("s", "script@1", {
        "command": "true", "inputs": {"x": "integer"}, "x": 2 ** 63})], []))
    result = invoke(cfg, "check", str(path), json_out=True)
    assert result.exit_code == 2
    assert [(d["code"], d["location"]) for d in json.loads(result.stdout)["diagnostics"]] == [
        ("TYPE_MISMATCH", "components.s.x")]


def test_check_parse_error_exits_two(cfg, tmp_path):
    path = tmp_path / "broken.workflow.json"
    path.write_text("{not json")
    result = invoke(cfg, "check", str(path))
    assert result.exit_code == 2
    assert "SYNTAX" in result.stderr


# -- tool -----------------------------------------------------------------------------


def test_tool_integrate_list_publish_cycle(cfg):
    result = invoke(cfg, "tool", "integrate", "--name", "wc", "--command",
                    "wc -c ${in:text}", "--input", "text:file",
                    "--output", "count:integer", json_out=True)
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    assert doc["component"] == "wc@1"
    descriptor = json.loads((cfg / "tools" / "wc-1.json").read_text())
    assert descriptor["name"] == "wc"
    assert descriptor["inputs"] == [{"name": "text", "type": "file",
                                     "handling": "queued"}]

    listing = invoke(cfg, "tool", "list", json_out=True)
    rows = json.loads(listing.stdout)["components"]
    assert {"component": "wc@1", "where": "local", "published": None} in rows

    published = invoke(cfg, "tool", "publish", "wc@1")
    assert published.exit_code == 0
    config = load_config(cfg)
    assert [(p.component, p.group) for p in config.published] == [("wc@1", "PUBLIC")]

    listing = invoke(cfg, "tool", "list")
    assert "[published: PUBLIC]" in listing.stdout

    gone = invoke(cfg, "tool", "unpublish", "wc@1")
    assert gone.exit_code == 0
    assert load_config(cfg).published == []


def test_tool_integrate_takes_a_handling_on_inputs_only(cfg):
    accepted = invoke(cfg, "tool", "integrate", "--name", "scale", "--command",
                      "scale ${in:x}", "--input", "x:float:constant")
    assert accepted.exit_code == 0, accepted.output
    descriptor = json.loads((cfg / "tools" / "scale-1.json").read_text())
    assert descriptor["inputs"] == [{"name": "x", "type": "float",
                                     "handling": "constant"}]
    refused = invoke(cfg, "tool", "integrate", "--name", "shift", "--command",
                     "shift", "--output", "y:float:queued")
    assert refused.exit_code == 2
    assert "SYNTAX" in refused.stderr
    assert not (cfg / "tools" / "shift-1.json").exists()


def test_tool_integrate_refuses_a_descriptor_file_clash(cfg):
    first = invoke(cfg, "tool", "integrate", "--name", "a-b", "--command", "true")
    assert first.exit_code == 0, first.output
    # a@b-1 would be written to the same tools/a-b-1.json
    clash = invoke(cfg, "tool", "integrate", "--name", "a", "--version", "b-1",
                   "--command", "true")
    assert clash.exit_code == 2
    assert "NAME_CLASH" in clash.stderr
    again = invoke(cfg, "tool", "integrate", "--name", "a-b", "--command", "false")
    assert again.exit_code == 0, again.output
    rows = json.loads(invoke(cfg, "tool", "list", json_out=True).stdout)["components"]
    assert [row["component"] for row in rows] == ["a-b@1"]


def test_tool_integrate_refuses_a_builtins_name(cfg):
    result = invoke(cfg, "tool", "integrate", "--name", "switch", "--command", "true")
    assert result.exit_code == 2
    assert "NAME_CLASH" in result.stderr
    assert not list((cfg / "tools").glob("*"))


def test_tool_publish_unknown_exits_two(cfg):
    result = invoke(cfg, "tool", "publish", "ghost@1")
    assert result.exit_code == 2
    assert "UNKNOWN_TOOL" in result.stderr


def test_tool_publish_to_unknown_group_exits_two(cfg):
    invoke(cfg, "tool", "integrate", "--name", "wc", "--command",
           "wc -c ${in:text}", "--input", "text:file",
           "--output", "count:integer")
    result = invoke(cfg, "tool", "publish", "wc@1", "--group", "nobody")
    assert result.exit_code == 2


def test_tool_unpublish_unknown_exits_two(cfg):
    result = invoke(cfg, "tool", "unpublish", "never@1")
    assert result.exit_code == 2


def test_tool_integrate_rejects_bad_placeholder(cfg):
    result = invoke(cfg, "tool", "integrate", "--name", "bad", "--command",
                    "prog ${in:missing}", "--output", "count:integer")
    assert result.exit_code == 2


def test_a_stale_publication_does_not_block_its_repair(cfg):
    save_config(NodeConfig(cfg, published=[Publication("gone@1", "PUBLIC")]))
    assert invoke(cfg, "group", "list").exit_code == 0
    integrated = invoke(cfg, "tool", "integrate", "--name", "gone", "--command", "true")
    assert integrated.exit_code == 0, integrated.output
    rows = json.loads(invoke(cfg, "tool", "list", json_out=True).stdout)["components"]
    assert rows == [{"component": "gone@1", "where": "local", "published": "PUBLIC"}]


# -- group ----------------------------------------------------------------------------


def test_group_create_export_import_roundtrip(cfg, tmp_path):
    created = invoke(cfg, "group", "create", "optics", json_out=True)
    assert created.exit_code == 0
    display = json.loads(created.stdout)["group"]
    assert display.startswith("optics/")
    assert (cfg / "groups" / "optics.key").exists()

    secret = invoke(cfg, "group", "export-key", "optics")
    assert secret.exit_code == 0
    secret_hex = secret.stdout.strip()
    assert len(secret_hex) == 64

    other = tmp_path / "conf2"
    imported = invoke(other, "group", "import-key", "optics",
                      "--secret", secret_hex)
    assert imported.exit_code == 0
    # both sides derive the same key id
    assert invoke(other, "group", "export-key", "optics").stdout == \
        secret.stdout

    listing = invoke(cfg, "group", "list")
    assert display in listing.stdout


def test_group_import_key_from_stdin(cfg):
    secret_hex = "ab" * 32
    result = runner.invoke(main, ["--config-dir", str(cfg), "group",
                                  "import-key", "ops"], input=secret_hex + "\n")
    assert result.exit_code == 0
    assert (cfg / "groups" / "ops.key").read_text().strip() == secret_hex


def test_group_import_rejects_bad_hex(cfg):
    result = invoke(cfg, "group", "import-key", "ops", "--secret", "zz")
    assert result.exit_code == 2


def test_group_export_unknown_exits_one(cfg):
    result = invoke(cfg, "group", "export-key", "nope")
    assert result.exit_code == 1


# -- data -----------------------------------------------------------------------------


def run_one(cfg, tmp_path):
    path, _ = completed_workflow(tmp_path)
    result = invoke(cfg, "run", str(path), json_out=True)
    assert result.exit_code == 0
    return json_docs(result.stdout)[0]["run_id"]


def test_data_runs_show_export(cfg, tmp_path):
    run_id = run_one(cfg, tmp_path)

    runs = invoke(cfg, "data", "runs", json_out=True)
    docs = json.loads(runs.stdout)["runs"]
    assert [d["run_id"] for d in docs] == [run_id]
    assert docs[0]["state"] == "COMPLETED"

    shown = invoke(cfg, "data", "show", run_id, json_out=True)
    doc = json.loads(shown.stdout)
    assert doc["meta"]["state"] == "COMPLETED"
    assert [r["instance_id"] for r in doc["records"]] == ["src", "sink"]

    dest = tmp_path / "exported"
    exported = invoke(cfg, "data", "export", run_id, str(dest), json_out=True)
    assert exported.exit_code == 0
    manifest = json.loads(exported.stdout)
    assert manifest["run_id"] == run_id
    assert (dest / "manifest.json").exists()


def test_data_runs_on_a_fresh_node_lists_nothing(cfg):
    Node(NodeConfig(cfg)).stop()
    assert not (cfg / "store").exists()
    result = invoke(cfg, "data", "runs", json_out=True)
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"runs": []}
    assert sorted(p.name for p in cfg.iterdir()) == ["node_id", "work"]


def test_data_show_unknown_run_exits_one(cfg):
    result = invoke(cfg, "data", "show", "no-such-run")
    assert result.exit_code == 1
    assert "NOT_FOUND" in result.stderr


def test_data_show_an_undecodable_log_exits_one(cfg, tmp_path):
    run_id = run_one(cfg, tmp_path)
    with open(cfg / "store" / "runs" / run_id / "records.log", "ab") as fh:
        fh.write(b'{"at": 1, "event": "\xff"}\n')
    result = invoke(cfg, "data", "show", run_id)
    assert result.exit_code == 1
    assert "CORRUPT" in result.stderr and "line " in result.stderr


# -- serve and uplink ------------------------------------------------------------------


def test_serve_bind_conflict_exits_three(cfg):
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        cfg.mkdir(parents=True, exist_ok=True)
        save_config(NodeConfig(cfg, listen=f"127.0.0.1:{port}"))
        result = invoke(cfg, "serve")
        assert result.exit_code == 3
        assert "BIND_FAILED" in result.stderr
    finally:
        blocker.close()


@contextlib.contextmanager
def serving(cfg):
    """``toolgrid serve`` for a fresh listening config, in a child process;
    yields the process and its port, and kills it on the way out."""
    cfg.mkdir(parents=True)
    save_config(NodeConfig(cfg, listen="127.0.0.1:0"))
    src = Path(toolgrid.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "toolgrid.cli", "--config-dir", str(cfg), "--json",
         "serve"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        lines = []
        for line in proc.stdout:  # one pretty-printed JSON document
            lines.append(line)
            if line.rstrip() == "}":
                break
        yield proc, json.loads("".join(lines))["port"]
    finally:
        proc.kill()
        proc.wait()


def test_serve_takes_up_a_publish_and_frees_its_port_on_sigterm(cfg, make_node):
    with serving(cfg) as (proc, port):
        peer = make_node("peer")
        peer.connect(("127.0.0.1", port))

        integrated = invoke(cfg, "tool", "integrate", "--name", "wc", "--command",
                            "wc -c ${in:text}", "--input", "text:file",
                            "--output", "count:integer")
        assert integrated.exit_code == 0, integrated.output
        assert invoke(cfg, "tool", "publish", "wc@1").exit_code == 0
        # serve re-reads config.json once a second
        assert wait_until(lambda: [str(r.ref) for r in peer.remote_components()]
                          == ["wc@1"], timeout=5)

        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=20)
    assert proc.returncode == 0, err
    socket.create_server(("127.0.0.1", port)).close()


def test_serve_reload_skips_a_publication_it_cannot_make(cfg, make_node):
    with serving(cfg) as (proc, port):
        peer = make_node("peer")
        peer.connect(("127.0.0.1", port))
        integrated = invoke(cfg, "tool", "integrate", "--name", "wc", "--command",
                            "wc -c ${in:text}", "--input", "text:file",
                            "--output", "count:integer")
        assert integrated.exit_code == 0, integrated.output
        # gone@1 is not installed; it must not hold back wc@1
        save_config(replace(load_config(cfg), published=[
            Publication("gone@1", "PUBLIC"), Publication("wc@1", "PUBLIC")]))
        assert wait_until(lambda: [str(r.ref) for r in peer.remote_components()]
                          == ["wc@1"], timeout=5)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=20)
    assert proc.returncode == 0, err
    assert "config reload skipped" not in err


def test_uplink_serve_rejects_bad_address(cfg, tmp_path):
    tokens = tmp_path / "tokens"
    tokens.write_text("acme:token\n")
    result = invoke(cfg, "uplink", "serve", "--listen", "nonsense",
                    "--tokens", str(tokens))
    assert result.exit_code == 2


def test_uplink_connect_dead_relay_exits_three(cfg):
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    result = invoke(cfg, "uplink", "connect", "--relay", f"127.0.0.1:{port}",
                    "--id", "acme", "--token", "x")
    assert result.exit_code == 3


def test_uplink_connect_bad_token_exits_two(cfg):
    relay = RelayServer({"acme": "right"})
    port = relay.start("127.0.0.1", 0)
    try:
        result = invoke(cfg, "uplink", "connect", "--relay",
                        f"127.0.0.1:{port}", "--id", "acme", "--token", "wrong")
        assert result.exit_code == 2
        assert "AUTH_FAILED" in result.stderr
    finally:
        relay.stop()


class _NoSleep:
    """The time module as toolgrid.cli sees it, with sleep refused."""

    def __getattr__(self, name):
        return getattr(time, name)

    @staticmethod
    def sleep(seconds):
        raise AssertionError(f"slept {seconds} s")


def _serving_peers(make_node, tmp_path, count):
    """Listening nodes that each publish identity@1."""
    peers = []
    for i in range(count):
        peer = make_node(f"peer{i}")
        peer.install_descriptor(identity_descriptor(tmp_path))
        peer.publish("identity@1")
        peer.listen("127.0.0.1", 0)
        peers.append(peer)
    return peers


def test_run_with_lan_peers_places_without_sleeping(cfg, tmp_path, make_node,
                                                    monkeypatch):
    peers = _serving_peers(make_node, tmp_path, 2)
    save_config(NodeConfig(cfg, peers=[f"127.0.0.1:{peer.listen_port}"
                                       for peer in peers]))
    path = tmp_path / "echo.workflow.json"
    path.write_text(workflow(
        "echo",
        [instance("src", "input-provider@1", {"values": {"x": 3}}),
         instance("echo", "identity@1")],
        [edge("src.x", "echo.x")]))
    monkeypatch.setattr("toolgrid.cli.time", _NoSleep())
    result = invoke(cfg, "run", str(path), json_out=True)
    assert result.exit_code == 0, result.output
    run_id = json_docs(result.stdout)[0]["run_id"]
    store = RunStore(NodeConfig(cfg).store_dir)
    try:
        placed = {r.instance_id: r.node for r in store.query_run(run_id)}
    finally:
        store.close()
    assert placed["echo"] == min(peer.node_id for peer in peers)


def test_tool_list_remote_shows_a_lan_peer_without_sleeping(cfg, tmp_path,
                                                            make_node,
                                                            monkeypatch):
    peer, = _serving_peers(make_node, tmp_path, 1)
    save_config(NodeConfig(cfg, peers=[f"127.0.0.1:{peer.listen_port}"]))
    monkeypatch.setattr("toolgrid.cli.time", _NoSleep())
    result = invoke(cfg, "tool", "list", "--remote", json_out=True)
    assert result.exit_code == 0, result.output
    rows = json.loads(result.stdout)["components"]
    assert {"component": "identity@1", "where": peer.node_id,
            "group": "PUBLIC"} in rows


def test_run_against_serving_node(cfg, tmp_path):
    server_cfg = tmp_path / "server-conf"
    server_cfg.mkdir(parents=True)
    save_config(NodeConfig(server_cfg, display_name="ctrl",
                           listen="127.0.0.1:0"))

    from toolgrid.config import load_config as load
    from toolgrid.node import Node
    node = Node(load(server_cfg))
    node.start()
    try:
        path, target = completed_workflow(tmp_path)
        result = invoke(cfg, "run", str(path), "--controller",
                        f"127.0.0.1:{node.listen_port}", "--watch")
        assert result.exit_code == 0, result.output
        assert "COMPLETED" in result.stdout
        assert logged(target, "r") == [4.0]
        # the run was recorded on the serving node, not the submitter
        assert len(node.store.list_runs()) == 1
    finally:
        node.stop()


def test_ctrl_c_cancels_a_local_run(cfg, tmp_path):
    path = tmp_path / "long.workflow.json"
    path.write_text(grid_loop("long", 100_000))
    src = Path(toolgrid.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "toolgrid.cli", "--config-dir", str(cfg), "run", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
        assert line.startswith("run "), line
        run_id = line.split()[1]
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=20)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1, err
    assert f"run {run_id} ended CANCELLED" in err
    shown = invoke(cfg, "data", "show", run_id, json_out=True)
    assert json.loads(shown.stdout)["meta"]["state"] == "CANCELLED"
    exported = invoke(cfg, "data", "export", run_id, str(tmp_path / "export"))
    assert exported.exit_code == 0, exported.output


# -- every command ---------------------------------------------------------------------


@pytest.mark.parametrize("args", [
    ["serve"], ["run", "WF"], ["check", "WF"],
    ["tool", "integrate", "--name", "wc", "--command", "true"], ["tool", "list"],
    ["tool", "publish", "wc@1"], ["tool", "unpublish", "wc@1"],
    ["group", "create", "team"], ["group", "export-key", "team"],
    ["group", "import-key", "team", "--secret", "ab" * 32], ["group", "list"],
    ["data", "runs"], ["data", "show", "r1"], ["data", "export", "r1", "DEST"],
    ["uplink", "connect", "--relay", "127.0.0.1:1", "--id", "a", "--token", "t"],
], ids=" ".join)
def test_every_command_ends_a_malformed_config_the_same_way(cfg, tmp_path, args):
    cfg.mkdir()
    (cfg / "config.json").write_text("{not json")
    path = tmp_path / "w.workflow.json"
    path.write_text(workflow("w", [instance("src", "input-provider@1",
                                            {"values": {"v": 1}})], []))
    swap = {"WF": str(path), "DEST": str(tmp_path / "export")}
    result = invoke(cfg, *[swap.get(arg, arg) for arg in args])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("MALFORMED:"), result.stderr
