"""End-to-end gate: every required behavior as one test with one verdict line.

Each test prints "[PASS] <nn> <behavior>" on success (or "[FAIL] ..." before
the traceback), so a -s / -rA run reads as a checklist. Fixtures are built
from scratch in every test; nothing here depends on the other test modules
passing first.
"""

import json
import random
import socket
import struct
import threading
from contextlib import contextmanager
from decimal import Decimal, getcontext

import pytest
from click.testing import CliRunner

from toolgrid import wire
from toolgrid.cli import main as cli_main
from toolgrid.config import NodeConfig, UplinkSettings, save_config
from toolgrid.errors import NetworkError
from toolgrid.groups import PUBLIC, GroupKey, derive_group_key_material
from toolgrid.store import RunStore
from toolgrid.tools import parse_descriptor
from toolgrid.uplink import ALLOWLIST
from toolgrid.values import Datum
from toolgrid.wire import (BINARY_TYPES, MAX_FRAME, TYPE_NAMES, Frame,
                           FrameReader, decode_frame, encode_frame)

from helpers import (BABYLONIAN_BODY, PRELUDE, SQUARE_GAP_BODY, edge,
                     instance, link_nodes, logged, script_config, wait_until,
                     workflow, write_tool)
from test_node import identity_descriptor

PY = "python3"


@contextmanager
def verdict(tag):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {tag}")
        raise
    print(f"[PASS] {tag}")


# -- the five-stage evaluation pipeline, reused by several criteria -------------------


def pipeline_descriptors(tmp_path):
    """One simulation feeding three evaluations feeding one consolidation."""
    scripts = {
        "scenario-sim": PRELUDE + (
            "(wd / 'outputs' / 'telemetry.csv').write_text(\n"
            "    'altitude,speed,fuel\\n1000,250,80\\n2000,240,75\\n')\n"
            "(wd / 'outputs.json').write_text(json.dumps(\n"
            "    {'data': 'outputs/telemetry.csv'}))\n"),
        "econ-eval": PRELUDE + (
            "data = (wd / doc['data']).read_bytes()\n"
            "(wd / 'outputs.json').write_text(json.dumps("
            "{'score': len(data) * 0.5}))\n"),
        "perf-eval": PRELUDE + (
            "data = (wd / doc['data']).read_bytes()\n"
            "(wd / 'outputs.json').write_text(json.dumps("
            "{'score': sum(data) / 100.0}))\n"),
        "ecol-eval": PRELUDE + (
            "data = (wd / doc['data']).read_bytes()\n"
            "(wd / 'outputs.json').write_text(json.dumps("
            "{'score': float(len(data.splitlines()) * 3)}))\n"),
        "consolidate": PRELUDE + (
            "total = doc['economic'] + doc['performance'] + doc['ecological']\n"
            "(wd / 'outputs' / 'report.txt').write_text('total=%.6f\\n' % total)\n"
            "(wd / 'outputs.json').write_text(json.dumps(\n"
            "    {'total': total, 'report': 'outputs/report.txt'}))\n"),
    }
    shapes = {
        "scenario-sim": ([], [{"name": "data", "type": "file"}]),
        "econ-eval": ([{"name": "data", "type": "file"}],
                      [{"name": "score", "type": "float"}]),
        "perf-eval": ([{"name": "data", "type": "file"}],
                      [{"name": "score", "type": "float"}]),
        "ecol-eval": ([{"name": "data", "type": "file"}],
                      [{"name": "score", "type": "float"}]),
        "consolidate": ([{"name": "economic", "type": "float"},
                         {"name": "performance", "type": "float"},
                         {"name": "ecological", "type": "float"}],
                        [{"name": "total", "type": "float"},
                         {"name": "report", "type": "file"}]),
    }
    descriptors = {}
    for name, body in scripts.items():
        script = tmp_path / f"{name}.py"
        script.write_text(body)
        inputs, outputs = shapes[name]
        descriptors[name] = parse_descriptor(json.dumps({
            "name": name, "version": "1",
            "commands": {"linux": f"{PY} {script} ${{workdir}}"},
            "inputs": inputs, "outputs": outputs,
        }))
    return descriptors


PIPELINE = workflow(
    "evaluation-pipeline",
    [instance("sim", "scenario-sim@1"),
     instance("econ", "econ-eval@1"),
     instance("perf", "perf-eval@1"),
     instance("ecol", "ecol-eval@1"),
     instance("summary", "consolidate@1")],
    [edge("sim.data", "econ.data"),
     edge("sim.data", "perf.data"),
     edge("sim.data", "ecol.data"),
     edge("econ.score", "summary.economic"),
     edge("perf.score", "summary.performance"),
     edge("ecol.score", "summary.ecological")])


def run_pipeline(node, tmp_path):
    engine = node.start_run(PIPELINE)
    assert engine.wait(60) == "COMPLETED"
    return engine.run_id, {r.instance_id: r for r in node.store.query_run(engine.run_id)}


def file_digests(records):
    out = set()
    for record in records.values():
        for doc in record.outputs.values():
            if doc.get("type") == "file":
                out.add(doc["digest"])
    return out


def test_01_pipeline_fidelity(node, tmp_path):
    with verdict("01 five-stage pipeline: one record each, full lineage on the join"):
        for descriptor in pipeline_descriptors(tmp_path).values():
            node.install_descriptor(descriptor)
        _, records = run_pipeline(node, tmp_path)

        assert set(records) == {"sim", "econ", "perf", "ecol", "summary"}
        assert all(r.execution_index == 1 for r in records.values())
        assert all(r.status == "ok" for r in records.values())

        summary = records["summary"]
        assert len(summary.inputs) == 3
        assert summary.upstream == {
            "economic": {"instance": "econ", "execution_index": 1,
                         "output": "score"},
            "performance": {"instance": "perf", "execution_index": 1,
                            "output": "score"},
            "ecological": {"instance": "ecol", "execution_index": 1,
                           "output": "score"},
        }


def test_02_optimizer_loop(node, tmp_path):
    with verdict("02 optimizer loop: descent hits the minimum, grid matches brute force"):
        sq = write_tool(tmp_path / "sq.py", SQUARE_GAP_BODY)

        def optimize(strategy, target):
            text = workflow(
                f"opt-{strategy}",
                [instance("opt", "optimizer@1", {
                    "strategy": strategy,
                    "variables": [{"name": "x", "lower": 0.0, "upper": 10.0,
                                   "initial_step": 1.0}],
                    "tol": 1e-3, "max_evals": 200}),
                 instance("sq", "script@1",
                          script_config(sq, {"x": "float"}, {"y": "float"})),
                 instance("wr", "output-writer@1",
                          {"target": str(target), "inputs": {"report": "text"}})],
                [edge("opt.x", "sq.x"), edge("sq.y", "opt.objective"),
                 edge("opt.optimum", "wr.report")])
            engine = node.start_run(text)
            assert engine.wait(120) == "COMPLETED"
            evaluations = [r for r in node.store.query_run(engine.run_id)
                           if r.instance_id == "sq"]
            return json.loads(logged(target, "report")[0]), evaluations

        report, evaluations = optimize("coordinate_descent", tmp_path / "cd-out")
        assert abs(report["point"]["x"] - 3.0) <= 1e-3
        assert report["evaluations"] <= 200
        assert len(evaluations) == report["evaluations"]

        report, evaluations = optimize("grid", tmp_path / "grid-out")
        lattice = [float(v) for v in range(11)]
        brute = min(lattice, key=lambda v: (v - 3.0) ** 2)
        assert report["point"]["x"] == brute == 3.0
        assert report["value"] == 0.0
        assert len(evaluations) == len(lattice)


def test_03_convergence_loop(node, tmp_path):
    with verdict("03 convergence loop: iterated root-finding settles at sqrt(2)"):
        bab = write_tool(tmp_path / "bab.py", BABYLONIAN_BODY)
        target = tmp_path / "conv-out"
        text = workflow(
            "heron",
            [instance("conv", "converger@1",
                      {"eps_abs": 1e-9, "max_iterations": 50}),
             instance("step", "script@1",
                      script_config(bab, {"x": "float"}, {"y": "float"}, x=1.0)),
             instance("wr", "output-writer@1",
                      {"target": str(target),
                       "inputs": {"value": "float", "finished": "boolean"}})],
            [edge("conv.loop", "step.x"), edge("step.y", "conv.x"),
             edge("conv.converged", "wr.value"), edge("conv.done", "wr.finished")])
        engine = node.start_run(text)
        assert engine.wait(60) == "COMPLETED"

        getcontext().prec = 40
        independent_sqrt2 = float(Decimal(2).sqrt())
        result = logged(target, "value")[0]
        assert logged(target, "finished") == [True]
        assert abs(result - independent_sqrt2) <= 1e-6


def test_04_distributed_equivalence(make_node, tmp_path):
    with verdict("04 distributed placement: same digests and values as all-local"):
        descriptors = pipeline_descriptors(tmp_path)

        solo = make_node("solo")
        for descriptor in descriptors.values():
            solo.install_descriptor(descriptor)
        _, local_records = run_pipeline(solo, tmp_path)

        controller = make_node("ctrl")
        worker_a = make_node("worker-a")
        worker_b = make_node("worker-b")
        link_nodes(controller, worker_a)
        link_nodes(controller, worker_b)
        controller.install_descriptor(descriptors["scenario-sim"])
        for name in ("econ-eval", "perf-eval"):
            worker_a.install_descriptor(descriptors[name])
            worker_a.publish(f"{name}@1")
        for name in ("ecol-eval", "consolidate"):
            worker_b.install_descriptor(descriptors[name])
            worker_b.publish(f"{name}@1")
        assert wait_until(lambda: len(controller.remote_components()) == 4)
        _, spread_records = run_pipeline(controller, tmp_path)

        # work really ran on three machines
        assert spread_records["sim"].node == controller.node_id
        assert spread_records["econ"].node == worker_a.node_id
        assert spread_records["perf"].node == worker_a.node_id
        assert spread_records["ecol"].node == worker_b.node_id
        assert spread_records["summary"].node == worker_b.node_id

        for instance_id, local in local_records.items():
            assert spread_records[instance_id].outputs == local.outputs
        assert file_digests(spread_records) == file_digests(local_records)
        assert spread_records["summary"].outputs["total"] == \
            local_records["summary"].outputs["total"]
        for digest in file_digests(spread_records):
            assert controller.blobs.has(digest)


def test_05_authorization_soundness(make_node, tmp_path):
    with verdict("05 authorization: 0 outsider decrypts, 0 outsider spawns, 100/100 members"):
        a = make_node("host")
        b = make_node("guest")
        link_nodes(a, b)
        rng = random.Random(0x5EED)

        def spawned():
            return len(list(a.work_dir.iterdir())) if a.work_dir.exists() else 0

        outsider_decrypts = 0
        outsider_spawns = 0
        member_successes = 0
        for trial in range(100):
            secret = bytes(rng.getrandbits(8) for _ in range(32))
            key = GroupKey(f"trial{trial}", secret)
            payload_marker = "".join(rng.choice("0123456789abcdef")
                                     for _ in range(24))
            a.add_group_key(key)
            a.install_descriptor(identity_descriptor(tmp_path, doc=payload_marker))
            a.publish("identity@1", group=key.name)
            assert wait_until(
                lambda: b.registry.listing({key.key_id: key}))  # it arrived

            # outsider: sees nothing, cannot execute, causes no process
            outsider_decrypts += sum(r.group == key.key_id
                                     for r in b.remote_components())
            before = spawned()
            with pytest.raises(NetworkError) as err:
                b.remote_execute(a.node_id, "identity@1", key.key_id,
                                 {"x": Datum.integer(trial)})
            assert err.value.code == "AUTH_FAILED"
            outsider_spawns += spawned() - before

            # member: sees it and runs it
            b.add_group_key(key)
            assert any(r.group == key.key_id for r in b.remote_components())
            outcome = b.remote_execute(a.node_id, "identity@1", key.key_id,
                                       {"x": Datum.integer(trial)})
            if outcome.outputs["out"] == Datum.integer(trial):
                member_successes += 1

        assert outsider_decrypts == 0
        assert outsider_spawns == 0
        assert member_successes == 100


def test_06_relay_allowlist_sweep(make_node, make_relay, tmp_path):
    with verdict("06 relay allowlist: 13 types pass, the other 243 close with zero effects"):
        tokens = {f"c{value:03d}": f"t{value}" for value in range(256)}
        tokens["watcher"] = "wtok"
        tokens["raw-watch"] = "rtok"
        server, port = make_relay(tokens)

        # a full node watches for registry / run / execution side effects
        watcher = make_node("watcher", uplink=UplinkSettings(
            relay=f"127.0.0.1:{port}", client_id="watcher", token="wtok"))
        watcher.start()
        assert wait_until(watcher.uplink.connected)

        # a raw session records every frame the relay forwards
        raw = socket.create_connection(("127.0.0.1", port), timeout=5)
        raw.sendall(encode_frame(Frame(wire.HELLO, {
            "protocol_version": 1, "client_id": "raw-watch",
            "auth_token": "rtok"})))
        raw_reader = FrameReader(raw.recv)
        assert raw_reader.next_frame().type == wire.HELLO
        forwarded_types = []
        raw_done = threading.Event()

        def drain():
            try:
                while True:
                    frame = raw_reader.next_frame()
                    if frame is None:
                        return
                    forwarded_types.append(frame.type)
            except OSError:
                pass  # the test closes the socket under us when done
            finally:
                raw_done.set()

        threading.Thread(target=drain, daemon=True).start()

        accepted = set()
        violations = set()
        from toolgrid.config import PROTOCOL_VERSION
        for value in range(256):
            sock = socket.create_connection(("127.0.0.1", port), timeout=5)
            sock.settimeout(5)
            reader = FrameReader(sock.recv)
            sock.sendall(encode_frame(Frame(wire.HELLO, {
                "protocol_version": PROTOCOL_VERSION,
                "client_id": f"c{value:03d}",
                "auth_token": f"t{value}"})))
            assert reader.next_frame().type == wire.HELLO
            if value in TYPE_NAMES:
                body = {"request_id": f"probe{value}", "target": "nobody"}
                binary = b"x" if value in BINARY_TYPES else b""
                probe = encode_frame(Frame(value, body, binary))
            else:
                probe = struct.pack(">IB", 1, value)
            try:
                sock.sendall(probe)
                sock.sendall(encode_frame(Frame(wire.PING, {
                    "request_id": f"alive{value}"})))
            except OSError:
                pass
            while True:
                try:
                    frame = reader.next_frame()
                except OSError:
                    break
                if frame is None:
                    break
                if frame.type == wire.ERROR and \
                        (frame.body or {}).get("code") == "PROTOCOL_VIOLATION":
                    violations.add(value)
                if frame.type == wire.PONG and \
                        (frame.body or {}).get("request_id") == f"alive{value}":
                    accepted.add(value)
                    break
            sock.close()

        assert accepted == ALLOWLIST
        assert violations == set(range(256)) - ALLOWLIST
        assert wire.RUN_SUBMIT in violations and wire.DATA_QUERY in violations

        # nothing outside the allowlist was ever forwarded to a bystander
        raw.close()
        raw_done.wait(5)
        assert set(forwarded_types) <= {wire.ANNOUNCE, wire.RETRACT, wire.LIST}
        # and the full node saw no registry, run, or execution side effects
        assert watcher.remote_components() == []
        assert watcher.store.list_runs() == []
        assert not any(watcher.work_dir.iterdir())


def test_07_cross_relay_execution(make_node, make_relay, tmp_path):
    with verdict("07 cross-relay execution equals local; relay log holds no secrets"):
        server, port = make_relay({"acme": "a-token", "beta": "b-token"})
        a = make_node("relay-a", uplink=UplinkSettings(
            relay=f"127.0.0.1:{port}", client_id="acme", token="a-token"))
        b = make_node("relay-b", uplink=UplinkSettings(
            relay=f"127.0.0.1:{port}", client_id="beta", token="b-token"))
        a.start()
        b.start()
        assert wait_until(a.uplink.connected) and wait_until(b.uplink.connected)

        key = GroupKey("partners", bytes(range(32)))
        a.add_group_key(key)
        b.add_group_key(key)
        a.install_descriptor(identity_descriptor(tmp_path, doc="secret handbook"))
        a.publish("identity@1", group="partners")
        assert wait_until(lambda: b.remote_components())

        local = a.execute(a.node_id, "identity@1", PUBLIC, {"x": Datum.integer(612)})
        remote = b.remote_execute(a.node_id, "acme::identity@1",
                                  key.key_id, {"x": Datum.integer(612)})
        assert remote.outputs == local.outputs
        assert remote.exit_status == local.exit_status == 0

        material = derive_group_key_material(key.secret)
        transcript = "\n".join(server.log_lines)
        for sensitive in (key.secret.hex(), material.enc_key.hex(),
                          material.mac_key.hex(), key.key_id,
                          "identity", "secret handbook"):
            assert sensitive not in transcript


def test_08_client_detachment(make_node, tmp_path):
    with verdict("08 submitting client may vanish; the run finishes and is queryable"):
        controller = make_node("detach-ctrl", listen="127.0.0.1:0")
        controller.start()
        slow = tmp_path / "slow.py"
        slow.write_text(PRELUDE + (
            "import time\n"
            "time.sleep(0.6)\n"
            "(wd / 'outputs.json').write_text(json.dumps({'out': doc['x'] + 1}))\n"))
        controller.install_descriptor(parse_descriptor(json.dumps({
            "name": "slow-step", "version": "1",
            "commands": {"linux": f"{PY} {slow} ${{workdir}}"},
            "inputs": [{"name": "x", "type": "integer"}],
            "outputs": [{"name": "out", "type": "integer"}],
        })))

        target = tmp_path / "detach-out"
        path = tmp_path / "detach.workflow.json"
        path.write_text(workflow(
            "detached",
            [instance("src", "input-provider@1", {"values": {"v": 9}}),
             instance("work", "slow-step@1"),
             instance("sink", "output-writer@1",
                      {"target": str(target), "inputs": {"r": "integer"}})],
            [edge("src.v", "work.x"), edge("work.out", "sink.r")]))

        cfg = tmp_path / "client-conf"
        result = CliRunner().invoke(cli_main, [
            "--config-dir", str(cfg), "--json", "run", str(path),
            "--controller", f"127.0.0.1:{controller.listen_port}"])
        assert result.exit_code == 0, result.output
        run_id = json.loads(result.stdout)["run_id"]
        # the submitting process is already gone; the run is still going
        assert wait_until(
            lambda: controller.store.run_state(run_id) == "COMPLETED",
            timeout=30)
        assert logged(target, "r") == [10]

        # a fresh connection reads the full history back
        later = make_node("detach-query")
        later.connect(("127.0.0.1", controller.listen_port))
        reply = later.query_run_records(controller.node_id, run_id)
        assert reply["meta"]["state"] == "COMPLETED"
        assert [r["instance_id"] for r in reply["records"]] == \
            ["src", "work", "sink"]
        assert all(r["status"] == "ok" for r in reply["records"])


def strip_volatile(doc):
    # run ids, wall-clock stamps, and arrival-order seq numbers may differ
    # between reruns; the content and provenance must not
    drop = {"run_id", "seq", "at"}
    return {k: v for k, v in doc.items()
            if k not in drop and not k.endswith("_at")}


def test_09_determinism_and_closure(node, tmp_path):
    with verdict("09 reruns are bit-identical and every blob reference resolves"):
        for descriptor in pipeline_descriptors(tmp_path).values():
            node.install_descriptor(descriptor)
        run_a, records_a = run_pipeline(node, tmp_path)
        run_b, records_b = run_pipeline(node, tmp_path)

        for instance_id, record in records_a.items():
            twin = records_b[instance_id]
            assert twin.outputs == record.outputs
            assert twin.stdout == record.stdout
            assert twin.stderr == record.stderr
        assert file_digests(records_a) == file_digests(records_b)

        # nothing recorded anywhere points at a missing blob
        for meta in node.store.list_runs():
            assert all(map(node.store.blobs.has,
                           node.store.referenced_blobs(meta["run_id"])))

        export_a = node.store.export_run(run_a, tmp_path / "export-a")
        export_b = node.store.export_run(run_b, tmp_path / "export-b")
        assert export_a["run_id"] != export_b["run_id"]
        assert export_a["state"] == export_b["state"]

        by_path_a = {f["path"]: f["sha256"] for f in export_a["files"]}
        by_path_b = {f["path"]: f["sha256"] for f in export_b["files"]}
        assert set(by_path_a) == set(by_path_b)  # same blobs, same layout
        differing = {p for p in by_path_a if by_path_a[p] != by_path_b[p]}
        assert differing <= {"run.json", "records.log"}

        meta_a = json.loads((tmp_path / "export-a" / "run.json").read_text())
        meta_b = json.loads((tmp_path / "export-b" / "run.json").read_text())
        assert strip_volatile(meta_a) == strip_volatile(meta_b)

        def canonical_log(export_dir):
            lines = (export_dir / "records.log").read_text().splitlines()
            return sorted(json.dumps(strip_volatile(json.loads(line)),
                                     sort_keys=True) for line in lines)

        assert canonical_log(tmp_path / "export-a") == \
            canonical_log(tmp_path / "export-b")


def test_10_stall_diagnosis(node, tmp_path):
    with verdict("10 a starved two-input component stalls and is named precisely"):
        join = write_tool(tmp_path / "join.py",
                          "(wd / 'outputs.json').write_text(json.dumps("
                          "{'total': doc['a'] + doc['b']}))\n")
        text = workflow(
            "starves",
            [instance("src", "input-provider@1", {"values": {"v": 20.0}}),
             instance("gate", "switch@1", {"condition": "< 10"}),
             instance("sum", "script@1",
                      script_config(join, {"a": "float", "b": "float"},
                                    {"total": "float"})),
             instance("tap", "input-provider@1", {"values": {"w": 1.0}})],
            [edge("src.v", "gate.value"),
             edge("gate.true", "sum.b"),
             edge("tap.w", "sum.a")])
        engine = node.start_run(text)
        assert engine.wait(60) == "STALLED"
        diagnostics = engine.stall_diagnostics
        assert any(d.code == "STARVED_INPUT" and
                   d.location == "components.sum.b" for d in diagnostics)
        assert not any(r.instance_id == "sum"
                       for r in node.store.query_run(engine.run_id))


def random_json(rng, depth=0):
    kinds = ["str", "int", "float", "bool", "null"]
    if depth < 2:
        kinds += ["list", "dict"]
    kind = rng.choice(kinds)
    if kind == "str":
        return "".join(rng.choice("abcdefghijklmnop é中")
                       for _ in range(rng.randrange(12)))
    if kind == "int":
        return rng.randrange(-10**9, 10**9)
    if kind == "float":
        return rng.uniform(-1e6, 1e6)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "null":
        return None
    if kind == "list":
        return [random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {f"k{i}": random_json(rng, depth + 1)
            for i in range(rng.randrange(4))}


def test_11_codec_robustness():
    with verdict("11 codec: 10,000 roundtrips, hostile inputs refused within bounds"):
        rng = random.Random(0xC0DEC)
        types = sorted(TYPE_NAMES)
        for _ in range(10_000):
            frame_type = rng.choice(types)
            body = {f"f{i}": random_json(rng) for i in range(rng.randrange(4))} \
                or None
            binary = (bytes(rng.getrandbits(8) for _ in range(rng.randrange(256)))
                      if frame_type in BINARY_TYPES else b"")
            frame = Frame(frame_type, body, binary)
            assert decode_frame(encode_frame(frame)) == frame

        from toolgrid.errors import FrameError
        sample = encode_frame(Frame(wire.ANNOUNCE, {"publisher": "p"}))
        for cut in (0, 3, 4, len(sample) - 1):
            with pytest.raises(FrameError) as err:
                decode_frame(sample[:cut])
            assert err.value.code == "TRUNCATED"

        with pytest.raises(FrameError) as err:
            decode_frame(struct.pack(">IB", MAX_FRAME + 1, wire.PING))
        assert err.value.code == "FRAME_TOO_LARGE"
        with pytest.raises(FrameError) as err:
            encode_frame(Frame(wire.BLOB_CHUNK, {"seq": 0}, b"x" * MAX_FRAME))
        assert err.value.code == "FRAME_TOO_LARGE"

        # a hostile length prefix is refused before any payload is buffered
        class MeteredFeed:
            def __init__(self, data):
                self.data, self.served = data, 0

            def __call__(self, n):
                chunk = self.data[self.served:self.served + n]
                self.served += len(chunk)
                return chunk

        feed = MeteredFeed(struct.pack(">I", 0x7FFFFFFF) + b"\x01" + b"A" * 65536)
        with pytest.raises(FrameError) as err:
            FrameReader(feed).next_frame()
        assert err.value.code == "FRAME_TOO_LARGE"
        assert feed.served <= 5  # the four length bytes, nothing more


def placement_workflow(tmp_path, tag, target):
    path = tmp_path / f"place-{tag}.workflow.json"
    path.write_text(workflow(
        "placed",
        [instance("src", "input-provider@1", {"values": {"v": 3}}),
         instance("echo", "identity@1"),
         instance("sink", "output-writer@1",
                  {"target": str(target), "inputs": {"r": "integer"}})],
        [edge("src.v", "echo.x"), edge("echo.out", "sink.r")]))
    return path


def test_12_placement_override(make_node, tmp_path):
    with verdict("12 auto placement is deterministic and --place reroutes the work"):
        first = make_node("prov-1", listen="127.0.0.1:0")
        second = make_node("prov-2", listen="127.0.0.1:0")
        first.start()
        second.start()
        for provider in (first, second):
            provider.install_descriptor(identity_descriptor(tmp_path))
            provider.publish("identity@1")
        lower, higher = sorted((first, second), key=lambda n: n.node_id)

        # with the full offer table in view, auto placement is a pure function
        controller = make_node("pilot-lib")
        controller.connect(("127.0.0.1", first.listen_port))
        controller.connect(("127.0.0.1", second.listen_port))
        assert wait_until(lambda: sum(
            r.ref.name == "identity" for r in controller.remote_components()) == 2)
        for attempt in range(3):
            engine = controller.start_run(placement_workflow(
                tmp_path, f"auto{attempt}", tmp_path / f"auto-out{attempt}").read_text())
            assert engine.wait(60) == "COMPLETED"
            records = {r.instance_id: r
                       for r in controller.store.query_run(engine.run_id)}
            assert records["echo"].node == lower.node_id
        engine = controller.start_run(
            placement_workflow(tmp_path, "lib-pin",
                               tmp_path / "lib-pin-out").read_text(),
            overrides={"echo": higher.node_id})
        assert engine.wait(60) == "COMPLETED"
        records = {r.instance_id: r
                   for r in controller.store.query_run(engine.run_id)}
        assert records["echo"].node == higher.node_id

        # the command-line flag reroutes the same workflow either way
        cfg = tmp_path / "pilot-conf"
        cfg.mkdir(parents=True)
        save_config(NodeConfig(
            cfg, display_name="pilot",
            peers=[f"127.0.0.1:{first.listen_port}",
                   f"127.0.0.1:{second.listen_port}"]))

        def run_cli(pin_to, target):
            path = placement_workflow(tmp_path, pin_to.node_id[:6], target)
            result = CliRunner().invoke(cli_main, [
                "--config-dir", str(cfg), "--json", "run", str(path),
                "--place", f"echo={pin_to.node_id}"])
            assert result.exit_code == 0, result.output
            decoder = json.JSONDecoder()
            return decoder.raw_decode(result.stdout.strip())[0]["run_id"]

        store = RunStore(NodeConfig(cfg).store_dir)
        for pin_to, target in ((higher, tmp_path / "cli-high-out"),
                               (lower, tmp_path / "cli-low-out")):
            run_id = run_cli(pin_to, target)
            placed = {r.instance_id: r for r in store.query_run(run_id)}
            assert placed["echo"].node == pin_to.node_id
            assert logged(target, "r") == [3]
