import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from toolgrid.errors import DescriptorError, ToolExecutionError
from toolgrid.store import BlobStore, sha256_hex
from toolgrid.tools import (
    ToolDescriptor,
    descriptor_to_json,
    execute_tool,
    parse_descriptor,
    render_command,
    scaffold_descriptor,
    select_command,
)
from toolgrid.values import INT64_MAX, INT64_MIN, Datum, DatumType, scalar_datum
from toolgrid.workflow import (ComponentInstance, ComponentInterface, ComponentRef,
                               Endpoint, WorkflowGraph, validate_graph)

from helpers import PRELUDE

PY = sys.executable or "python3"


def make_descriptor(command, inputs=(), outputs=(), **extra):
    doc = {"name": "tool", "version": "1", "commands": {"linux": command},
           "inputs": list(inputs), "outputs": list(outputs)}
    doc.update(extra)
    return parse_descriptor(json.dumps(doc))


def tool_script(tmp_path, body, filename="tool.py"):
    path = tmp_path / filename
    path.write_text(PRELUDE + body)
    return path


@pytest.fixture
def blobs(tmp_path):
    return BlobStore(tmp_path / "store")


# --- descriptors ----------------------------------------------------------------


def test_parse_descriptor_full_document():
    text = json.dumps({
        "name": "meshtool",
        "version": "2.4",
        "commands": {"linux": "meshtool ${in:grid} ${out:mesh}",
                     "windows": "meshtool.exe ${in:grid} ${out:mesh}"},
        "inputs": [{"name": "grid", "type": "file"},
                   {"name": "refine", "type": "integer", "handling": "constant"}],
        "outputs": [{"name": "mesh", "type": "file"}],
        "preScript": "test -d ${workdir}",
        "postScript": "ls ${workdir}",
        "documentation": "Refines structured grids.",
    })
    d = parse_descriptor(text)
    assert d.name == "meshtool" and d.version == "2.4"
    assert set(d.commands) == {"linux", "windows"}
    assert d.interface.input("grid").handling == "queued"  # default for inputs
    assert d.interface.input("refine").handling == "constant"
    assert d.interface.output("mesh").datum_type is DatumType.FILE
    assert d.documentation == "Refines structured grids."


def test_parse_descriptor_rejections():
    base = {"name": "t", "version": "1", "commands": {"linux": "t"}}
    cases = [
        ({**base, "name": "9bad"}, "SYNTAX"),
        ({**base, "version": "v 1"}, "SYNTAX"),
        ({**base, "extra": 1}, "UNKNOWN_FIELD"),
        ({**base, "commands": {"macos": "t"}}, "SYNTAX"),
        ({**base, "commands": {}}, "MISSING_COMMAND"),
        ({**base, "commands": {"linux": "  "}}, "SYNTAX"),
        ({**base, "inputs": [{"name": "a", "type": "float"},
                             {"name": "a", "type": "float"}]}, "DUPLICATE_ENDPOINT"),
        ({**base, "inputs": [{"name": "a", "type": "quaternion"}]}, "SYNTAX"),
        ({**base, "inputs": [{"name": "a", "type": "float", "unit": "m"}]}, "SYNTAX"),
        ({**base, "outputs": [{"name": "a", "type": "float",
                               "handling": "queued"}]}, "SYNTAX"),
        ({**base, "preScript": 4}, "SYNTAX"),
    ]
    for doc, code in cases:
        with pytest.raises(DescriptorError) as err:
            parse_descriptor(json.dumps(doc))
        assert err.value.code == code, doc

    with pytest.raises(DescriptorError):
        parse_descriptor("{oops")


def test_parse_descriptor_checks_placeholders():
    base = {"name": "t", "version": "1",
            "inputs": [{"name": "a", "type": "float"}],
            "outputs": [{"name": "b", "type": "file"}]}
    ok = {**base, "commands": {"linux": "t ${workdir} ${in:a} ${out:b}"}}
    parse_descriptor(json.dumps(ok))

    for command in ("t ${in:missing}", "t ${out:missing}", "t ${weird}",
                    "t ${in}", "t ${outdir:b}"):
        with pytest.raises(DescriptorError) as err:
            parse_descriptor(json.dumps({**base, "commands": {"linux": command}}))
        assert err.value.code == "BAD_PLACEHOLDER"

    bad_pre = {**base, "commands": {"linux": "t"}, "preScript": "x ${in:nope}"}
    with pytest.raises(DescriptorError):
        parse_descriptor(json.dumps(bad_pre))


def test_descriptor_json_roundtrip():
    d = make_descriptor("run ${in:x}", inputs=[{"name": "x", "type": "float"}],
                        outputs=[{"name": "y", "type": "text"}],
                        preScript="echo pre", documentation="doc")
    assert parse_descriptor(descriptor_to_json(d)) == d



def test_readme_descriptor_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Tool descriptors", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert parse_descriptor(example).name == "wordcount"

def test_scaffold_descriptor():
    text = scaffold_descriptor(
        "conv", "1.0", "conv ${in:image} ${out:thumb}",
        ["image:file", "scale:float:constant"], ["thumb:file"],
        os_key="linux", documentation="Makes thumbnails.")
    d = parse_descriptor(text)
    assert d.interface.input("image").handling == "queued"
    assert d.interface.input("scale").handling == "constant"
    assert d.commands == {"linux": "conv ${in:image} ${out:thumb}"}

    with pytest.raises(DescriptorError):
        scaffold_descriptor("t", "1", "t", ["justname"], [])
    with pytest.raises(DescriptorError):
        scaffold_descriptor("t", "1", "t ${in:ghost}", ["x:float"], [])


def test_select_command():
    d = make_descriptor("run")
    assert select_command(d, "linux") == "run"
    with pytest.raises(DescriptorError) as err:
        select_command(d, "windows")
    assert err.value.code == "OS_UNSUPPORTED"


# --- command rendering ------------------------------------------------------------


def test_render_splits_before_substitution(tmp_path):
    # values containing spaces must stay single argv tokens
    argv = render_command("run --label ${in:label} ${workdir}", tmp_path,
                          {"label": Datum.text("two words")})
    assert argv == ["run", "--label", "two words", str(tmp_path.resolve())]


def test_render_scalar_literals(tmp_path):
    inputs = {"flag": Datum.boolean(True), "count": Datum.integer(-3),
              "ratio": Datum.of_float(0.25)}
    argv = render_command("t ${in:flag} ${in:count} ${in:ratio}", tmp_path, inputs)
    assert argv == ["t", "true", "-3", "0.25"]


def test_render_file_paths_are_relative(tmp_path):
    inputs = {"grid": Datum.file("0" * 64, "grid.vtk")}
    argv = render_command("t ${in:grid} ${out:mesh}", tmp_path, inputs)
    assert argv == ["t", "inputs/grid/grid.vtk", "outputs/mesh"]


def test_render_embedded_placeholder(tmp_path):
    argv = render_command("t --path=${workdir}/sub", tmp_path, {})
    assert argv == ["t", f"--path={tmp_path.resolve()}/sub"]


def test_render_missing_input_fails(tmp_path):
    with pytest.raises(ToolExecutionError) as err:
        render_command("t ${in:gone}", tmp_path, {})
    assert err.value.code == "UNRESOLVED_PLACEHOLDER"


# --- execution ---------------------------------------------------------------------


def test_execute_layout_and_outputs(tmp_path, blobs):
    # the tool records what it observed so the test can audit the layout
    script = tool_script(tmp_path, (
        "observed = {\n"
        "    'doc': doc,\n"
        "    'outputs_empty': sorted(p.name for p in (wd / 'outputs').iterdir()),\n"
        "    'file_bytes': (wd / doc['table']).read_text(),\n"
        "}\n"
        "print('tool says hi')\n"
        "sys.stderr.write('warning: demo\\n')\n"
        "(wd / 'outputs.json').write_text(json.dumps(\n"
        "    {'observed': json.dumps(observed, sort_keys=True), 'total': 5}))\n"
    ))
    digest = blobs.put(b"a,b\n1,2\n")
    descriptor = make_descriptor(
        f"{PY} {script} ${{workdir}}",
        inputs=[{"name": "table", "type": "file"},
                {"name": "scale", "type": "float"}],
        outputs=[{"name": "observed", "type": "text"},
                 {"name": "total", "type": "integer"}])
    outcome = execute_tool(descriptor, {
        "table": Datum.file(digest, "data.csv"),
        "scale": Datum.integer(2),  # integer accepted by the float input
    }, tmp_path / "work", blobs)

    assert outcome.exit_status == 0
    assert outcome.outputs["total"] == Datum.integer(5)
    observed = json.loads(outcome.outputs["observed"].value)
    assert observed["doc"] == {"table": "inputs/table/data.csv", "scale": 2.0}
    assert observed["outputs_empty"] == []
    assert observed["file_bytes"] == "a,b\n1,2\n"

    assert blobs.get(outcome.stdout_ref) == b"tool says hi\n"
    assert blobs.get(outcome.stderr_ref) == b"warning: demo\n"
    assert outcome.started_at <= outcome.finished_at

    # the working directory layout survives for debugging
    workdir = tmp_path / "work" / outcome.workdir.rsplit("/", 1)[-1]
    assert (workdir / "inputs" / "table" / "data.csv").read_bytes() == b"a,b\n1,2\n"
    inputs_json = (workdir / "inputs.json").read_text()
    assert inputs_json == json.dumps(
        {"scale": 2.0, "table": "inputs/table/data.csv"},
        indent=2, sort_keys=True) + "\n"


def test_execute_input_set_must_match(tmp_path, blobs):
    descriptor = make_descriptor("true", inputs=[{"name": "a", "type": "float"}])
    with pytest.raises(ToolExecutionError) as err:
        execute_tool(descriptor, {}, tmp_path / "w", blobs)
    assert err.value.code == "INPUT_MISMATCH"
    with pytest.raises(ToolExecutionError):
        execute_tool(descriptor, {"a": Datum.of_float(1.0), "b": Datum.of_float(1.0)},
                     tmp_path / "w", blobs)
    with pytest.raises(ToolExecutionError):
        execute_tool(descriptor, {"a": Datum.text("x")}, tmp_path / "w", blobs)


def test_execute_nonzero_exit(tmp_path, blobs):
    script = tool_script(tmp_path, "sys.stderr.write('boom\\n')\nsys.exit(3)\n")
    descriptor = make_descriptor(f"{PY} {script} ${{workdir}}")
    with pytest.raises(ToolExecutionError) as err:
        execute_tool(descriptor, {}, tmp_path / "w", blobs)
    exc = err.value
    assert exc.code == "TOOL_FAILED"
    assert exc.stage == "main"
    assert exc.report.exit_status == 3
    assert blobs.get(exc.report.stderr_ref) == b"boom\n"
    assert exc.report.started_at <= exc.report.finished_at


def test_execute_spawn_failure(tmp_path, blobs):
    descriptor = make_descriptor("/definitely/not/a/binary")
    with pytest.raises(ToolExecutionError) as err:
        execute_tool(descriptor, {}, tmp_path / "w", blobs)
    assert err.value.code == "SPAWN_FAILED"
    assert err.value.stage == "main"


def test_execute_output_contract_violations(tmp_path, blobs):
    outputs = [{"name": "y", "type": "float"}]

    silent = tool_script(tmp_path, "pass\n", "silent.py")
    d = make_descriptor(f"{PY} {silent} ${{workdir}}", outputs=outputs)
    with pytest.raises(ToolExecutionError) as err:
        execute_tool(d, {}, tmp_path / "w", blobs)
    assert err.value.code == "OUTPUT_MISSING"

    wrong_key = tool_script(
        tmp_path, "(wd / 'outputs.json').write_text(json.dumps({'z': 1.0}))\n",
        "wrongkey.py")
    d = make_descriptor(f"{PY} {wrong_key} ${{workdir}}", outputs=outputs)
    with pytest.raises(ToolExecutionError) as err:
        execute_tool(d, {}, tmp_path / "w", blobs)
    assert err.value.code == "OUTPUT_MISSING"

    bad_type = tool_script(
        tmp_path, "(wd / 'outputs.json').write_text(json.dumps({'y': 'high'}))\n",
        "badtype.py")
    d = make_descriptor(f"{PY} {bad_type} ${{workdir}}", outputs=outputs)
    with pytest.raises(ToolExecutionError) as err:
        execute_tool(d, {}, tmp_path / "w", blobs)
    assert err.value.code == "OUTPUT_TYPE_MISMATCH"

    not_object = tool_script(
        tmp_path, "(wd / 'outputs.json').write_text('[1]')\n", "notobj.py")
    d = make_descriptor(f"{PY} {not_object} ${{workdir}}", outputs=outputs)
    with pytest.raises(ToolExecutionError) as err:
        execute_tool(d, {}, tmp_path / "w", blobs)
    assert err.value.code == "OUTPUT_MISSING"


def test_execute_file_outputs(tmp_path, blobs):
    good = tool_script(tmp_path, (
        "(wd / 'outputs' / 'result.bin').write_bytes(b'payload')\n"
        "(wd / 'outputs.json').write_text(json.dumps({'res': 'outputs/result.bin'}))\n"
    ), "good.py")
    d = make_descriptor(f"{PY} {good} ${{workdir}}",
                        outputs=[{"name": "res", "type": "file"}])
    outcome = execute_tool(d, {}, tmp_path / "w", blobs)
    datum = outcome.outputs["res"]
    assert datum.value.filename == "result.bin"
    assert datum.value.digest == sha256_hex(b"payload")
    assert blobs.get(datum.value.digest) == b"payload"


def test_execute_file_output_escapes_rejected(tmp_path, blobs):
    outside = tmp_path / "secret.txt"
    outside.write_text("keep out")
    for value in ("outputs/../../secret.txt", "inputs/x", "/etc/hostname"):
        script = tool_script(tmp_path, (
            f"(wd / 'outputs.json').write_text(json.dumps({{'res': {value!r}}}))\n"
        ), f"esc{abs(hash(value)) % 1000}.py")
        d = make_descriptor(f"{PY} {script} ${{workdir}}",
                            outputs=[{"name": "res", "type": "file"}])
        with pytest.raises(ToolExecutionError) as err:
            execute_tool(d, {}, tmp_path / "w", blobs)
        assert err.value.code == "OUTPUT_TYPE_MISMATCH", value


def test_execute_missing_output_file(tmp_path, blobs):
    script = tool_script(tmp_path, (
        "(wd / 'outputs.json').write_text(json.dumps({'res': 'outputs/ghost.bin'}))\n"
    ), "ghost.py")
    d = make_descriptor(f"{PY} {script} ${{workdir}}",
                        outputs=[{"name": "res", "type": "file"}])
    with pytest.raises(ToolExecutionError) as err:
        execute_tool(d, {}, tmp_path / "w", blobs)
    assert err.value.code == "OUTPUT_MISSING"


def test_execute_stage_order_and_pre_failure(tmp_path, blobs):
    main = tool_script(tmp_path, (
        "marker = (wd / 'outputs' / 'pre-ran').exists()\n"
        "(wd / 'outputs.json').write_text(json.dumps({'saw_pre': marker}))\n"
    ), "main.py")
    pre = tmp_path / "pre.py"
    pre.write_text(
        "import sys\nfrom pathlib import Path\n"
        "(Path(sys.argv[1]) / 'outputs' / 'pre-ran').write_text('1')\n")
    text = json.dumps({
        "name": "staged", "version": "1",
        "commands": {"linux": f"{PY} {main} ${{workdir}}"},
        "preScript": f"{PY} {pre} ${{workdir}}",
        "inputs": [], "outputs": [{"name": "saw_pre", "type": "boolean"}],
    })
    outcome = execute_tool(parse_descriptor(text), {}, tmp_path / "w", blobs)
    assert outcome.outputs["saw_pre"] == Datum.boolean(True)

    failing_pre = json.dumps({
        "name": "staged", "version": "1",
        "commands": {"linux": f"{PY} {main} ${{workdir}}"},
        "preScript": "false",
        "inputs": [], "outputs": [{"name": "saw_pre", "type": "boolean"}],
    })
    with pytest.raises(ToolExecutionError) as err:
        execute_tool(parse_descriptor(failing_pre), {}, tmp_path / "w", blobs)
    assert err.value.stage == "pre"


def test_execute_post_failure_reports_post_stage(tmp_path, blobs):
    text = json.dumps({
        "name": "t", "version": "1",
        "commands": {"linux": "true"},
        "postScript": "false",
        "inputs": [], "outputs": [],
    })
    with pytest.raises(ToolExecutionError) as err:
        execute_tool(parse_descriptor(text), {}, tmp_path / "w", blobs)
    assert err.value.stage == "post"
    assert err.value.code == "TOOL_FAILED"


def test_execute_without_declared_outputs_needs_no_outputs_json(tmp_path, blobs):
    outcome = execute_tool(make_descriptor("true"), {}, tmp_path / "w", blobs)
    assert outcome.exit_status == 0
    assert outcome.outputs == {}


def test_execute_env_passthrough(tmp_path, blobs, monkeypatch):
    script = tmp_path / "envdump.py"
    script.write_text(
        "import json, os, sys\nfrom pathlib import Path\n"
        "wd = Path(sys.argv[1])\n"
        "(wd / 'outputs.json').write_text(json.dumps({'v': os.environ['DEMO_FLAG']}))\n")
    d = make_descriptor(f"{PY} {script} ${{workdir}}",
                        outputs=[{"name": "v", "type": "text"}])
    monkeypatch.setenv("DEMO_FLAG", "on")
    outcome = execute_tool(d, {}, tmp_path / "w", blobs)
    assert outcome.outputs["v"] == Datum.text("on")


# --- one scalar rule: seeds, tool outputs and scalar_datum agree -----------------

SCALAR_TYPES = (DatumType.BOOLEAN, DatumType.INTEGER, DatumType.FLOAT, DatumType.TEXT)
EDGE_SCALARS = [INT64_MIN - 1, INT64_MIN, INT64_MAX, INT64_MAX + 1, 2 ** 70, 10 ** 400,
                True, False, 0, 1.5, -0.0, math.nan, math.inf, -math.inf, "", "1",
                None, [], [1], {"a": 1}]
JSON_SCALARS = st.one_of(st.sampled_from(EDGE_SCALARS), st.booleans(), st.integers(),
                         st.floats(), st.text(max_size=4), st.none(),
                         st.lists(st.integers(), max_size=2))


@pytest.fixture(scope="module")
def rule_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("rule")


def rule_fails(value, dtype) -> bool:
    try:
        scalar_datum(value, dtype)
    except ValueError:
        return True
    return False


def seed_codes(value, dtype) -> list[str]:
    graph = WorkflowGraph(
        "seeded", (ComponentInstance("t", ComponentRef("t", "1"), {"x": value}),), ())
    interface = ComponentInterface((Endpoint("x", "input", dtype, "queued"),), ())
    return [d.code for d in validate_graph(graph, lambda _: interface)]


def output_code(value, dtype, where: Path):
    """The error code of a tool whose outputs.json holds ``value``, or None."""
    written = where / "outputs.json"
    written.write_text(json.dumps({"y": value}))
    tool = make_descriptor(f"cp {written} outputs.json",
                           outputs=[{"name": "y", "type": dtype.value}])
    try:
        execute_tool(tool, {}, where / "work", BlobStore(where / "store"))
    except ToolExecutionError as exc:
        return exc.code
    return None


def assert_one_rule(value, where: Path) -> None:
    for dtype in SCALAR_TYPES:
        fails = rule_fails(value, dtype)
        assert seed_codes(value, dtype) == (["TYPE_MISMATCH"] if fails else []), dtype
        assert output_code(value, dtype, where) == (
            "OUTPUT_TYPE_MISMATCH" if fails else None), dtype
    # a file output is checked by its path (a missing one is OUTPUT_MISSING),
    # so only the seed check and the rule must agree there
    assert rule_fails(value, DatumType.FILE)
    assert seed_codes(value, DatumType.FILE) == ["TYPE_MISMATCH"]


@pytest.mark.parametrize("value", EDGE_SCALARS, ids=lambda v: repr(v)[:24])
def test_seed_output_and_rule_agree_on_the_edges(value, rule_dir):
    assert_one_rule(value, rule_dir)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(value=JSON_SCALARS)
def test_seed_output_and_rule_agree(value, rule_dir):
    assert_one_rule(value, rule_dir)
