"""The traced benchmark wraps layer functions by the names the program uses.

``bench/tracing.py`` replaces each target attribute with a timing wrapper and
puts the original back afterwards. A renamed or removed layer function makes
``enable`` fail here, in tier-1, instead of only in the benchmark's smoke run,
and an append that bypasses the wrapped names changes the traced append count.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
from helpers import edge, grid_loop, instance, workflow  # noqa: E402
from test_node import identity_descriptor  # noqa: E402


def test_tracer_patches_and_restores_every_target():
    tracer = tracing.Tracer()
    tracer.enable()
    try:
        patched = list(tracer._saved)
        assert len(patched) == len(tracer._targets()) + 1  # plus BlobStore.put
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.disable()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_every_firing_makes_three_store_appends(node):
    tracer = tracing.Tracer()
    tracer.enable()
    try:
        tracer.begin_run(1)
        engine = node.start_run(grid_loop("traced", 20))
        assert engine.wait(60) == "COMPLETED"
    finally:
        tracer.run = None
        tracer.disable()
    firings = node.store.query_run(engine.run_id)
    assert len(firings) == 41
    appends = [span for span in tracer.spans if span[1] == "store.append"]
    # firing-started, the record and firing-finished for every firing, plus
    # run-started and run-finished
    assert len(appends) == 3 * len(firings) + 2
    # each firing-started append names its instance, which the queue wait reads
    assert [span[6]["instance"] for span in appends if span[6]] == [
        record.instance_id for record in firings]


def test_a_placed_tool_fires_through_node_execute(node, tmp_path):
    node.install_descriptor(identity_descriptor(tmp_path, name="ident"))
    text = workflow(
        "traced-tool",
        [instance("src", "input-provider@1", {"values": {"x": 7}}),
         instance("tool", "ident@1"),
         instance("step", "script@1",
                  {"command": "true", "inputs": {"x": "integer"}, "outputs": {}})],
        [edge("src.x", "tool.x"), edge("tool.out", "step.x")])
    tracer = tracing.Tracer()
    tracer.enable()
    try:
        tracer.begin_run(1)
        engine = node.start_run(text)
        assert engine.wait(60) == "COMPLETED"
    finally:
        tracer.run = None
        tracer.disable()
    # script@1 runs its command itself; only the placed tool goes through
    # Node.execute, which runs the installed tool
    executes = [span for span in tracer.spans if span[1] == "node.execute"]
    assert len(executes) == 1
    assert executes[0][6]["route"] == "local"
    tools = [span for span in tracer.spans if span[1] == "tools.execute"]
    assert len(tools) == 1
    assert tools[0][4] == executes[0][0]
