import errno
import json
import time

import pytest

from toolgrid.errors import DataError, EngineError
from toolgrid.store import BlobStore, _blob_refs, sha256_hex

from helpers import (
    BABYLONIAN_BODY,
    DOUBLE_BODY,
    IDENTITY_BODY,
    PRELUDE,
    edge,
    grid_loop,
    instance,
    logged,
    script_config,
    workflow,
)


def write_tool(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(PRELUDE + body)
    return path


def linear_workflow(tmp_path, target):
    double = write_tool(tmp_path, "double.py", DOUBLE_BODY)
    return workflow(
        "linear",
        [instance("src", "input-provider@1", {"values": {"v": 21}}),
         instance("calc", "script@1",
                  script_config(double, {"x": "integer"}, {"out": "integer"})),
         instance("sink", "output-writer@1",
                  {"target": str(target), "inputs": {"r": "integer"}})],
        [edge("src.v", "calc.x"), edge("calc.out", "sink.r")])


def test_linear_pipeline_completes(node, tmp_path):
    target = tmp_path / "out"
    events = []
    engine = node.start_run(linear_workflow(tmp_path, target),
                            on_event=events.append)
    assert engine.wait(60) == "COMPLETED"
    assert logged(target, "r") == [42]

    records = node.store.query_run(engine.run_id)
    assert [(r.instance_id, r.execution_index) for r in records] == [
        ("src", 1), ("calc", 1), ("sink", 1)]
    assert all(r.status == "ok" for r in records)
    assert all(r.node == node.node_id for r in records)
    assert all(r.started_at <= r.finished_at for r in records)

    calc = records[1]
    assert calc.component == "script@1"
    assert calc.inputs == {"x": {"type": "integer", "value": 21}}
    assert calc.outputs == {"out": {"type": "integer", "value": 42}}
    assert calc.upstream == {
        "x": {"instance": "src", "execution_index": 1, "output": "v"}}
    # subprocess streams are captured even when empty
    assert calc.stdout is not None and node.blobs.has(calc.stdout)

    kinds = [e["event"] for e in events]
    assert kinds[0] == "run-started"
    assert kinds[-1] == "run-finished"
    assert kinds.count("firing-started") == 3
    assert kinds.count("firing-finished") == 3
    assert events[-1]["state"] == "COMPLETED"

    meta = node.store.run_meta(engine.run_id)
    assert meta["state"] == "COMPLETED"
    assert meta["controller_node"] == node.node_id
    assert meta["placement"] == {"src": node.node_id, "calc": node.node_id,
                                 "sink": node.node_id}


def test_run_ids_are_unique_and_settable(node, tmp_path):
    target = tmp_path / "out"
    text = linear_workflow(tmp_path, target)
    engine = node.start_run(text, run_id="custom-run-7")
    assert engine.run_id == "custom-run-7"
    assert engine.wait(60) == "COMPLETED"
    with pytest.raises(Exception):
        node.start_run(text, run_id="custom-run-7")  # ids are write-once


def test_validation_failure_carries_diagnostics(node):
    text = workflow("broken", [instance("w", "output-writer@1",
                                        {"target": "/tmp/x", "inputs": {"r": "float"}})],
                    [])
    with pytest.raises(EngineError) as err:
        node.start_run(text)
    assert err.value.code == "VALIDATION_FAILED"
    codes = [d.code for d in err.value.diagnostics]
    assert codes == ["INPUT_UNCONNECTED"]


def test_source_components_fire_exactly_once(node, tmp_path):
    target = tmp_path / "out"
    text = workflow(
        "fanout",
        [instance("src", "input-provider@1", {"values": {"a": 1, "b": 2}}),
         instance("sink", "output-writer@1",
                  {"target": str(target), "inputs": {"x": "integer", "y": "integer"}})],
        [edge("src.a", "sink.x"), edge("src.b", "sink.y")])
    engine = node.start_run(text)
    assert engine.wait(60) == "COMPLETED"
    records = node.store.query_run(engine.run_id)
    assert [(r.instance_id, r.execution_index) for r in records] == [
        ("src", 1), ("sink", 1)]


def test_loop_with_config_seed_and_constants(node, tmp_path):
    # heron iteration: step.x is seeded by config and then fed by the loop
    # edge; the constant input k arrives once and is reused by every firing
    step_tool = tmp_path / "step.py"
    step_tool.write_text(PRELUDE + (
        "x, k = doc['x'], doc['k']\n"
        "(wd / 'outputs.json').write_text(json.dumps({'y': (x + k / x) / 2.0}))\n"))
    target = tmp_path / "out"
    text = workflow(
        "sqrt-k",
        [instance("kprov", "input-provider@1", {"values": {"k": 2.0}}),
         instance("step", "script@1",
                  script_config(step_tool,
                                {"x": "float", "k": "float:constant"},
                                {"y": "float"}, x=1.0)),
         instance("conv", "converger@1", {"eps_abs": 1e-6, "max_iterations": 50}),
         instance("sink", "output-writer@1",
                  {"target": str(target), "inputs": {"r": "float", "ok": "boolean"}})],
        [edge("kprov.k", "step.k"),
         edge("step.y", "conv.x"),
         edge("conv.loop", "step.x"),
         edge("conv.converged", "sink.r"),
         edge("conv.done", "sink.ok")])
    engine = node.start_run(text)
    assert engine.wait(60) == "COMPLETED"
    result = logged(target, "r")
    assert len(result) == 1 and abs(result[0] - 2 ** 0.5) <= 1e-6
    assert logged(target, "ok") == [True]

    steps = node.store.query_run(engine.run_id, instance_id="step")
    assert [r.execution_index for r in steps] == list(range(1, len(steps) + 1))
    assert len(steps) >= 4
    # the seeded firing has no upstream producer for x
    assert steps[0].upstream["x"] is None
    assert steps[1].upstream["x"] == {
        "instance": "conv", "execution_index": 1, "output": "loop"}
    # the constant was delivered once but appears in every firing's inputs
    assert all(r.inputs["k"] == {"type": "float", "value": 2.0} for r in steps)
    assert all(r.upstream["k"] == {"instance": "kprov", "execution_index": 1,
                                   "output": "k"} for r in steps)


def test_optimizer_bootstrap_firing(node, tmp_path):
    gap = write_tool(tmp_path, "gap.py",
                     "(wd / 'outputs.json').write_text("
                     "json.dumps({'y': (doc['x'] - 3.0) ** 2}))\n")
    target = tmp_path / "out"
    text = workflow(
        "tune",
        [instance("driver", "optimizer@1",
                  {"strategy": "coordinate_descent",
                   "variables": [{"name": "x", "lower": 0.0, "upper": 10.0,
                                  "initial_step": 1.0}],
                   "tol": 1e-3, "max_evals": 200}),
         instance("f", "script@1",
                  script_config(gap, {"x": "float"}, {"y": "float"})),
         instance("sink", "output-writer@1",
                  {"target": str(target), "inputs": {"best": "text"}})],
        [edge("driver.x", "f.x"),
         edge("f.y", "driver.objective"),
         edge("driver.optimum", "sink.best")])
    engine = node.start_run(text)
    assert engine.wait(120) == "COMPLETED"

    driver_records = node.store.query_run(engine.run_id, instance_id="driver")
    first = driver_records[0]
    assert first.execution_index == 1
    assert first.inputs == {}  # loop drivers start without input
    report = json.loads(logged(target, "best")[0])
    assert report == {"evaluations": 24, "point": {"x": 3.0}, "value": 0.0}
    assert len(node.store.query_run(engine.run_id, instance_id="f")) == 24


def test_stall_names_the_starved_endpoint(node, tmp_path):
    join = write_tool(tmp_path, "join.py",
                      "(wd / 'outputs.json').write_text(json.dumps({}))\n")
    text = workflow(
        "starved",
        [instance("src", "input-provider@1", {"values": {"v": 1.0, "w": 20.0}}),
         instance("gate", "switch@1", {"condition": "< 10"}),
         instance("join", "script@1",
                  script_config(join, {"a": "float", "b": "float"}, {}))],
        [edge("src.v", "join.a"),
         edge("src.w", "gate.value"),
         edge("gate.true", "join.b")])  # 20 exits on gate.false: b starves
    engine = node.start_run(text)
    assert engine.wait(60) == "STALLED"
    diags = engine.stall_diagnostics
    assert [d.code for d in diags] == ["STARVED_INPUT"]
    assert diags[0].location == "components.join.b"
    assert "'b'" in diags[0].message
    assert node.store.run_state(engine.run_id) == "STALLED"
    events = [e["event"] for e in node.store.events(engine.run_id)]
    assert "stall" in events
    # the starved join never fired
    assert node.store.query_run(engine.run_id, instance_id="join") == []


def test_tool_failure_fails_the_run(node, tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import sys\nsys.stderr.write('no license\\n')\nsys.exit(7)\n")
    target = tmp_path / "out"
    text = workflow(
        "doomed",
        [instance("src", "input-provider@1", {"values": {"v": 1.0}}),
         instance("calc", "script@1",
                  script_config(bad, {"x": "float"}, {"y": "float"})),
         instance("sink", "output-writer@1",
                  {"target": str(target), "inputs": {"r": "float"}})],
        [edge("src.v", "calc.x"), edge("calc.y", "sink.r")])
    engine = node.start_run(text)
    assert engine.wait(60) == "FAILED"
    assert engine.failure["code"] == "TOOL_FAILED"
    assert engine.failure["instance"] == "calc"

    failed = node.store.query_run(engine.run_id, instance_id="calc")[0]
    assert failed.status == "failed"
    assert failed.exit_status == 7
    assert node.blobs.get(failed.stderr).endswith(b"no license\n")
    assert node.store.query_run(engine.run_id, instance_id="sink") == []
    assert not (target / "values.log").exists()


def test_cancel_run(node, tmp_path):
    slow = tmp_path / "slow.py"
    slow.write_text("import time\ntime.sleep(120)\n")
    text = workflow(
        "sleepy",
        [instance("src", "input-provider@1", {"values": {"v": 1.0}}),
         instance("calc", "script@1",
                  script_config(slow, {"x": "float"}, {}))],
        [edge("src.v", "calc.x")])
    events = []
    engine = node.start_run(text, on_event=events.append)
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        if any(e["event"] == "firing-started" and e.get("instance") == "calc"
               for e in list(events)):
            break
        time.sleep(0.02)
    engine.cancel(grace=0.5)
    assert engine.wait(30) == "CANCELLED"
    assert node.store.run_state(engine.run_id) == "CANCELLED"


def test_repeat_runs_are_bit_identical(node, tmp_path):
    emitter = tmp_path / "emit.py"
    emitter.write_text(PRELUDE + (
        "(wd / 'outputs' / 'table.bin').write_bytes(b'col\\n%.3f\\n' % doc['x'])\n"
        "(wd / 'outputs.json').write_text(json.dumps(\n"
        "    {'y': doc['x'] * 2.0, 'table': 'outputs/table.bin'}))\n"))

    def run(tag):
        target = tmp_path / f"out-{tag}"
        text = workflow(
            "repeat",
            [instance("src", "input-provider@1", {"values": {"v": 1.25}}),
             instance("calc", "script@1",
                      script_config(emitter, {"x": "float"},
                                    {"y": "float", "table": "file"})),
             instance("sink", "output-writer@1",
                      {"target": str(target),
                       "inputs": {"r": "float", "t": "file"}})],
            [edge("src.v", "calc.x"), edge("calc.y", "sink.r"),
             edge("calc.table", "sink.t")])
        engine = node.start_run(text)
        assert engine.wait(60) == "COMPLETED"
        return engine.run_id, target

    run_a, target_a = run("a")
    run_b, target_b = run("b")

    def output_digests(run_id):
        return [(r.instance_id, r.execution_index,
                 sha256_hex(json.dumps(r.outputs, sort_keys=True).encode()))
                for r in node.store.query_run(run_id)]

    assert output_digests(run_a) == output_digests(run_b)
    assert ((target_a / "values.log").read_bytes()
            == (target_b / "values.log").read_bytes())
    assert ((target_a / "sink-t-1-table.bin").read_bytes()
            == (target_b / "sink-t-1-table.bin").read_bytes())
    # no record references a blob the store does not hold
    for run_id in (run_a, run_b):
        assert all(map(node.store.blobs.has, node.store.referenced_blobs(run_id)))


def test_records_log_keeps_dispatch_order(node, tmp_path):
    # all built-ins, so every firing is inline and the order is fixed: a
    # source that fires once, an optimizer bootstrap, a writer whose constant
    # is seeded from config, and a join that stalls on its starved input
    text = workflow(
        "order",
        [instance("sink", "output-writer@1",
                  {"target": str(tmp_path / "sink"),
                   "inputs": {"best": "text", "k": "float:constant"}, "k": 2.0}),
         instance("opt", "optimizer@1",
                  {"strategy": "grid",
                   "variables": [{"name": "x", "lower": 0.0, "upper": 2.0,
                                  "initial_step": 1.0}],
                   "tol": 1e-3, "max_evals": 3}),
         instance("loop", "switch@1", {"condition": ">= -1.0"}),
         instance("src", "input-provider@1", {"values": {"v": 1.0, "w": 20.0}}),
         instance("join", "output-writer@1",
                  {"target": str(tmp_path / "join"),
                   "inputs": {"a": "float", "b": "float"}}),
         instance("gate", "switch@1", {"condition": "< 10"})],
        [edge("opt.x", "loop.value"),
         edge("loop.true", "opt.objective"),
         edge("opt.optimum", "sink.best"),
         edge("src.v", "join.a"),
         edge("src.w", "gate.value"),
         edge("gate.true", "join.b")])
    engine = node.start_run(text)
    assert engine.wait(60) == "STALLED"
    path = node.store.root / "runs" / engine.run_id / "records.log"
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    fields = ("kind", "event", "instance_id", "instance", "endpoint",
              "execution_index", "state")
    sequence = [" ".join(str(doc[k]) for k in fields if k in doc) for doc in lines]

    def firing(inst, index):
        return [f"event firing-started {inst} {index}",
                f"execution {inst} {index}",
                f"event firing-finished {inst} {index}"]

    assert sequence == (
        ["event run-started"]
        + firing("opt", 1) + firing("loop", 1)
        + firing("src", 1) + firing("gate", 1)
        + firing("opt", 2) + firing("loop", 2)
        + firing("opt", 3) + firing("loop", 3)
        + firing("opt", 4)
        + firing("sink", 1)
        + ["event stall join b", "event run-finished STALLED"])
    sink = node.store.query_run(engine.run_id, instance_id="sink")[0]
    assert sink.inputs["k"] == {"type": "float", "value": 2.0}
    assert sink.upstream["k"] is None


def test_loop_state_is_per_run(node):
    # each run builds its own optimizer, so a second run of the same
    # workflow on the same node searches the whole grid again
    text = workflow(
        "rerun",
        [instance("opt", "optimizer@1",
                  {"strategy": "grid",
                   "variables": [{"name": "x", "lower": 0.0, "upper": 4.0,
                                  "initial_step": 1.0}],
                   "tol": 1e-3, "max_evals": 5}),
         instance("gate", "switch@1", {"condition": ">= -1.0"})],
        [edge("opt.x", "gate.value"), edge("gate.true", "opt.objective")])
    optima = []
    for _ in range(2):
        engine = node.start_run(text)
        assert engine.wait(60) == "COMPLETED"
        records = node.store.query_run(engine.run_id)
        assert len([r for r in records if r.instance_id == "gate"]) == 5
        driver = [r for r in records if r.instance_id == "opt"]
        assert len(driver) == 6  # the bootstrap plus one per evaluation
        optima.append(json.loads(driver[-1].outputs["optimum"]["value"]))
    assert optima[0] == optima[1] == {"evaluations": 5, "point": {"x": 0.0},
                                      "value": 0.0}


def test_every_records_log_line_is_canonical_json(node, tmp_path):
    # each line the engine writes must read back and re-encode to itself:
    # json.dumps(doc, sort_keys=True) plus the newline
    data = tmp_path / "data.txt"
    data.write_text("tool chain input\n")
    upper = write_tool(tmp_path, "upper.py", (
        "text = (wd / doc['data']).read_text()\n"
        "(wd / 'outputs' / 'up.txt').write_text(text.upper())\n"
        "(wd / 'outputs.json').write_text(json.dumps(\n"
        "    {'up': 'outputs/up.txt', 'n': len(text)}))\n"))
    failing = write_tool(tmp_path, "fail.py", "raise SystemExit(3)\n")
    slow = write_tool(tmp_path, "slow.py", "import time\ntime.sleep(0.5)\n")
    awkward = '%s {"}" \\ é   \x01'
    runs = {
        "loop": ("COMPLETED", workflow("loop", [
            instance("opt", "optimizer@1", {
                "strategy": "grid", "tol": 1e-3, "max_evals": 20,
                "variables": [{"name": "x", "lower": -1.0, "upper": 1.0,
                               "initial_step": 0.1}]}),
            instance("gate", "switch@1", {"condition": ">= -1.0"}),
            instance("src", "input-provider@1", {"values": {"i": 5, "t": awkward}}),
            instance("sink", "output-writer@1", {
                "target": str(tmp_path / "loop"),
                "inputs": {"best": "text", "k": "float", "t": "text"}})],
            [edge("opt.x", "gate.value"), edge("gate.true", "opt.objective"),
             edge("opt.optimum", "sink.best"), edge("src.i", "sink.k"),
             edge("src.t", "sink.t")])),
        "files": ("COMPLETED", workflow("files", [
            instance("src", "input-provider@1", {"files": {"data": str(data)}}),
            instance("calc", "script@1", script_config(
                upper, {"data": "file"}, {"up": "file", "n": "integer"})),
            instance("sink", "output-writer@1", {
                "target": str(tmp_path / "files"),
                "inputs": {"up": "file", "n": "integer"}})],
            [edge("src.data", "calc.data"), edge("calc.up", "sink.up"),
             edge("calc.n", "sink.n")])),
        "failing": ("FAILED", workflow("failing", [
            instance("src", "input-provider@1", {"values": {"v": 1.0}}),
            instance("calc", "script@1", script_config(failing, {"x": "float"}, {}))],
            [edge("src.v", "calc.x")])),
        "stalled": ("STALLED", workflow("stalled", [
            instance("src", "input-provider@1", {"values": {"v": 1.0, "w": 20.0}}),
            instance("gate", "switch@1", {"condition": "< 10"}),
            instance("join", "output-writer@1", {
                "target": str(tmp_path / "join"),
                "inputs": {"a": "float", "b": "float"}})],
            [edge("src.v", "join.a"), edge("src.w", "gate.value"),
             edge("gate.true", "join.b")])),
    }
    run_ids, seen = [], set()
    for name, (state, text) in runs.items():
        engine = node.start_run(text)
        assert engine.wait(60) == state, name
        run_ids.append(engine.run_id)
    events = []
    engine = node.start_run(workflow("cancelled", [
        instance("src", "input-provider@1", {"values": {"v": 1.0}}),
        instance("calc", "script@1", script_config(slow, {"x": "float"}, {}))],
        [edge("src.v", "calc.x")]), on_event=events.append)
    deadline = time.monotonic() + 20
    while not any(e["event"] == "firing-started" and e["instance"] == "calc"
                  for e in list(events)) and time.monotonic() < deadline:
        time.sleep(0.01)
    engine.cancel(grace=0.05)
    assert engine.wait(30) == "CANCELLED"
    run_ids.append(engine.run_id)

    for run_id in run_ids:
        path = node.store.root / "runs" / run_id / "records.log"
        for line in path.read_text().splitlines(keepends=True):
            doc = json.loads(line)
            assert json.dumps(doc, sort_keys=True) + "\n" == line
            seen.add(doc.get("event", doc["kind"]))
    assert seen == {"run-started", "firing-started", "execution", "firing-finished",
                    "run-failed", "stall", "run-cancelled", "run-finished"}
    # an integer routed to a float input is recorded as the float it became
    [sink] = node.store.query_run(run_ids[0], instance_id="sink")
    assert sink.inputs["k"] == {"type": "float", "value": 5.0}
    assert sink.inputs["t"] == {"type": "text", "value": awkward}


def tool_runs(tmp_path):
    """A file-in, file-out tool that writes stdout and stderr, and a failing tool."""
    data = tmp_path / "data.txt"
    data.write_text("tool chain input\n")
    upper = write_tool(tmp_path, "upper.py", (
        "print('upper out')\n"
        "print('upper err', file=sys.stderr)\n"
        "text = (wd / doc['data']).read_text()\n"
        "(wd / 'outputs' / 'up.txt').write_text(text.upper())\n"
        "(wd / 'outputs.json').write_text(json.dumps({'up': 'outputs/up.txt'}))\n"))
    failing = write_tool(tmp_path, "fail.py", "print('fail out')\nraise SystemExit(3)\n")
    return {
        "files": workflow("files", [
            instance("src", "input-provider@1", {"files": {"data": str(data)}}),
            instance("calc", "script@1",
                     script_config(upper, {"data": "file"}, {"up": "file"})),
            instance("sink", "output-writer@1", {
                "target": str(tmp_path / "files"), "inputs": {"up": "file"}})],
            [edge("src.data", "calc.data"), edge("calc.up", "sink.up")]),
        "failing": workflow("failing", [
            instance("src", "input-provider@1", {"values": {"v": 1.0}}),
            instance("calc", "script@1", script_config(failing, {"x": "float"}, {}))],
            [edge("src.v", "calc.x")]),
    }


def test_the_dangling_check_sees_every_blob_a_record_names(node, tmp_path, monkeypatch):
    has, asked = BlobStore.has, set()

    def spy(blobs, digest):
        asked.add(digest)
        return has(blobs, digest)

    monkeypatch.setattr(BlobStore, "has", spy)
    runs = tool_runs(tmp_path)
    run_ids = []
    for name, state in (("files", "COMPLETED"), ("failing", "FAILED")):
        engine = node.start_run(runs[name])
        assert engine.wait(60) == state, name
        run_ids.append(engine.run_id)
    named = set().union(*(_blob_refs(record) for run_id in run_ids
                          for record in node.store.query_run(run_id)))
    assert asked == named
    assert {sha256_hex(text) for text in (b"tool chain input\n", b"TOOL CHAIN INPUT\n",
                                          b"upper out\n", b"upper err\n",
                                          b"fail out\n")} <= named

    # a tool's stdout that the blob store does not hold fails the run
    denied = sha256_hex(b"upper out\n")
    monkeypatch.setattr(BlobStore, "has",
                        lambda blobs, digest: digest != denied and has(blobs, digest))
    engine = node.start_run(runs["files"])
    assert engine.wait(60) == "FAILED"
    assert engine.failure["code"] == "DANGLING_REF"
    assert denied in engine.failure["message"]
    assert [r.instance_id for r in node.store.query_run(engine.run_id)] == ["src"]


def test_each_watcher_event_matches_its_line(node, tmp_path):
    runs = tool_runs(tmp_path)
    for name, text, state in (("loop", grid_loop("loop", 5), "COMPLETED"),
                              ("files", runs["files"], "COMPLETED"),
                              ("failing", runs["failing"], "FAILED")):
        events = []
        engine = node.start_run(text, on_event=events.append)
        assert engine.wait(60) == state, name
        lines = [{"run_id": engine.run_id, **{k: v for k, v in doc.items() if k != "kind"}}
                 for doc in node.store.events(engine.run_id)]
        assert events == lines, name
        assert {"firing-started", "firing-finished", "run-finished"} <= {
            e["event"] for e in events}, name


# -- every run ends: stop, store failures, long inline loops, cancel --------------


def wait_for_firing(events, inst, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not any(e["event"] == "firing-started" and e.get("instance") == inst
                  for e in list(events)):
        assert time.monotonic() < deadline, f"{inst} never fired"
        time.sleep(0.01)


def test_stopping_the_node_cancels_a_live_run(node, tmp_path):
    # src -> a -> b, each a one-second tool; the node stops while a runs
    slow = write_tool(tmp_path, "slow.py", "import time\ntime.sleep(1)\n" + IDENTITY_BODY)
    text = workflow(
        "stopped",
        [instance("src", "input-provider@1", {"values": {"v": 1.0}}),
         instance("a", "script@1", script_config(slow, {"x": "float"}, {"out": "float"})),
         instance("b", "script@1", script_config(slow, {"x": "float"}, {"out": "float"}))],
        [edge("src.v", "a.x"), edge("a.out", "b.x")])
    events = []
    engine = node.start_run(text, on_event=events.append)
    wait_for_firing(events, "a")
    node.stop()
    assert engine.wait(10) == "CANCELLED"
    assert node.store.run_state(engine.run_id) == "CANCELLED"
    # a finished within the grace; b never started
    records = node.store.query_run(engine.run_id)
    assert [(r.instance_id, r.status) for r in records] == [("src", "ok"), ("a", "ok")]
    manifest = node.store.export_run(engine.run_id, tmp_path / "export")
    assert manifest["state"] == "CANCELLED"


@pytest.mark.parametrize("fault, code", [
    (OSError(errno.ENOSPC, "No space left on device"), "INTERNAL"),
    (DataError("DANGLING_REF", "record references unstored blobs"), "DANGLING_REF"),
], ids=["oserror", "store-error"])
def test_a_store_failure_on_a_tool_record_fails_the_run(node, tmp_path, monkeypatch,
                                                        fault, code):
    double = write_tool(tmp_path, "double.py", DOUBLE_BODY)
    text = workflow(
        "unrecorded",
        [instance("src", "input-provider@1", {"values": {"v": 2}}),
         instance("calc", "script@1",
                  script_config(double, {"x": "integer"}, {"out": "integer"})),
         instance("sink", "output-writer@1",
                  {"target": str(tmp_path / "out"), "inputs": {"r": "integer"}})],
        [edge("src.v", "calc.x"), edge("calc.out", "sink.r")])
    record_execution = node.store.record_execution

    def failing(run_id, key, refs, line):
        if key[0] == "calc":
            raise fault
        record_execution(run_id, key, refs, line)

    monkeypatch.setattr(node.store, "record_execution", failing)
    engine = node.start_run(text)
    assert engine.wait(10) == "FAILED"
    assert engine.failure["code"] == code
    assert node.store.run_state(engine.run_id) == "FAILED"
    assert [r.instance_id for r in node.store.query_run(engine.run_id)] == ["src"]
    events = node.store.events(engine.run_id)
    assert [e["event"] for e in events[-2:]] == ["run-failed", "run-finished"]
    assert events[-2]["code"] == code
    node.store.export_run(engine.run_id, tmp_path / "export")


def test_start_run_returns_before_a_long_inline_loop_ends(node, tmp_path):
    t0 = time.monotonic()
    engine = node.start_run(grid_loop("long", 100_000))
    assert engine.run_state() == "RUNNING", time.monotonic() - t0
    t1 = time.monotonic()
    engine.cancel(grace=1.0)
    assert engine.wait(1.0) == "CANCELLED", time.monotonic() - t1
    assert node.store.run_state(engine.run_id) == "CANCELLED"
    node.store.export_run(engine.run_id, tmp_path / "export")


def test_cancel_on_a_finished_run_is_already_terminal(node):
    engine = node.start_run(grid_loop("short", 3))
    assert engine.wait(60) == "COMPLETED"
    with pytest.raises(EngineError) as err:
        engine.cancel()
    assert err.value.code == "ALREADY_TERMINAL"


def test_each_run_stamps_from_its_own_clock(node):
    """Four stamps per inline firing run a busy run's clock ahead of wall time;
    the next run's clock starts at wall time again."""
    busy = node.start_run(grid_loop("busy", 1_000))
    assert busy.wait(60) == "COMPLETED"
    wall = time.time() * 1000
    engine = node.start_run(grid_loop("next", 2))
    assert engine.wait(60) == "COMPLETED"
    assert abs(node.store.run_meta(engine.run_id)["created_at"] - wall) < 1000
