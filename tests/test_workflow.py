import json

import pytest

from toolgrid.errors import (CryptoError, DataError, DescriptorError, PlacementError,
                             WorkflowParseError)
from toolgrid.groups import GroupKey
from toolgrid.store import BlobStore, RunStore
from toolgrid.tools import parse_descriptor
from toolgrid.values import DatumType
from toolgrid.workflow import (
    ComponentInterface,
    ComponentRef,
    Connection,
    Endpoint,
    WorkflowGraph,
    parse_workflow,
    plan_placement,
    serialize_workflow,
    validate_graph,
)

from helpers import edge, instance, workflow


class TableCatalog:
    """Test double resolving refs from a fixed name@version table."""

    def __init__(self, table):
        self.table = table

    def __call__(self, instance):
        return self.table.get(str(instance.component))


SRC = ComponentInterface((), (Endpoint("x", "output", DatumType.FLOAT),))
SINK = ComponentInterface((Endpoint("x", "input", DatumType.FLOAT, "queued"),), ())
MIX = ComponentInterface(
    (Endpoint("a", "input", DatumType.FLOAT, "queued"),
     Endpoint("b", "input", DatumType.TEXT, "constant")),
    (Endpoint("out", "output", DatumType.FLOAT),))
COUNT = ComponentInterface((), (Endpoint("n", "output", DatumType.INTEGER),))

CATALOG = TableCatalog({"src@1": SRC, "sink@1": SINK, "mix@1": MIX, "count@1": COUNT})


def study_text():
    # five instances, eight connections: a source fans out into a two-stage
    # simulation pair whose results converge on a summary stage
    return workflow(
        "wing-study",
        [instance("scenarios", "scenario-gen@1.0"),
         instance("aero", "flow-sim@2", {"mesh": "coarse"}),
         instance("struct", "load-sim@2", placement="lab-12"),
         instance("post", "field-post@1"),
         instance("summary", "study-summary@1")],
        [edge("scenarios.case", "aero.case"),
         edge("scenarios.case2", "struct.case"),
         edge("aero.field", "post.field"),
         edge("struct.loads", "post.loads"),
         edge("post.metrics", "summary.metrics"),
         edge("aero.residual", "summary.aero_residual"),
         edge("struct.residual", "summary.struct_residual"),
         edge("scenarios.manifest", "summary.manifest")],
        labels=["nightly", "wing-7c"])


def test_parse_study_document():
    graph = parse_workflow(study_text())
    assert graph.name == "wing-study"
    assert [c.instance_id for c in graph.components] == [
        "scenarios", "aero", "struct", "post", "summary"]
    assert len(graph.connections) == 8
    assert graph.labels == ("nightly", "wing-7c")

    aero = graph.instance("aero")
    assert aero.component == ComponentRef("flow-sim", "2")
    assert aero.config == {"mesh": "coarse"}
    assert aero.placement == "auto"  # default
    assert graph.instance("struct").placement == "lab-12"

    assert graph.connections[0] == Connection("scenarios", "case", "aero", "case")
    assert graph.inbound("summary") == list(graph.connections[4:])
    assert [c for c in graph.connections
            if (c.from_instance, c.output) == ("scenarios", "case")] == [graph.connections[0]]


def test_component_ref_forms():
    assert str(ComponentRef.parse("solver@2.1")) == "solver@2.1"
    # names offered across a relay carry the publishing party as a prefix
    ref = ComponentRef.parse("acme::imager@1")
    assert ref.name == "acme::imager"
    for bad in ("noversion", "@1", "name@", "sp ace@1", "a@b@", "x::@1", "::x@1"):
        with pytest.raises(ValueError):
            ComponentRef.parse(bad)


def test_parse_rejects_duplicate_instance_ids():
    text = workflow("w", [instance("a", "x@1"), instance("a", "y@1")], [])
    with pytest.raises(WorkflowParseError) as err:
        parse_workflow(text)
    assert err.value.code == "DUPLICATE_INSTANCE_ID"


def test_parse_rejects_unknown_fields():
    with pytest.raises(WorkflowParseError) as err:
        parse_workflow(json.dumps({"name": "w", "pipeline": []}))
    assert err.value.code == "UNKNOWN_FIELD"

    text = json.dumps({"components": [
        {"id": "a", "component": "x@1", "retries": 3}]})
    with pytest.raises(WorkflowParseError) as err:
        parse_workflow(text)
    assert err.value.code == "UNKNOWN_FIELD"
    assert "retries" in str(err.value)

    text = json.dumps({"connections": [
        {"from": "a.x", "to": "b.y", "buffered": True}]})
    with pytest.raises(WorkflowParseError) as err:
        parse_workflow(text)
    assert err.value.code == "UNKNOWN_FIELD"


def test_parse_rejects_bad_endpoint_references():
    for bad in ("a", "a.b.c", "a.", ".b", "1a.b", "a.-b", 7):
        text = json.dumps({"connections": [{"from": bad, "to": "b.y"}]})
        with pytest.raises(WorkflowParseError) as err:
            parse_workflow(text)
        assert err.value.code == "SYNTAX"


def test_parse_json_errors_carry_position():
    with pytest.raises(WorkflowParseError) as err:
        parse_workflow('{"name": "w",\n  "components": [}')
    assert err.value.code == "SYNTAX"
    assert err.value.line == 2


def test_parse_shape_errors():
    with pytest.raises(WorkflowParseError):
        parse_workflow("[1, 2]")
    with pytest.raises(WorkflowParseError):
        parse_workflow(json.dumps({"components": "nope"}))
    with pytest.raises(WorkflowParseError):
        parse_workflow(json.dumps({"labels": ["ok", 3]}))
    with pytest.raises(WorkflowParseError):
        parse_workflow(json.dumps(
            {"components": [{"id": "a", "component": "x@1", "config": []}]}))
    with pytest.raises(WorkflowParseError):
        parse_workflow(json.dumps(
            {"components": [{"id": "a", "component": "x@1", "placement": ""}]}))


def test_serialize_parse_roundtrip():
    graph = parse_workflow(study_text())
    assert parse_workflow(serialize_workflow(graph)) == graph

    empty = WorkflowGraph("bare", (), ())
    assert parse_workflow(serialize_workflow(empty)) == empty


def test_validate_clean_graph():
    text = workflow(
        "ok",
        [instance("s", "src@1"), instance("m", "mix@1", {"b": "label"}),
         instance("k", "sink@1")],
        [edge("s.x", "m.a"), edge("m.out", "k.x")])
    assert validate_graph(parse_workflow(text), CATALOG) == []


def test_validate_unknown_component():
    text = workflow("w", [instance("a", "ghost@9")], [])
    diags = validate_graph(parse_workflow(text), CATALOG)
    assert [d.code for d in diags] == ["UNKNOWN_COMPONENT"]
    assert diags[0].location == "components.a"


def test_validate_unknown_instance_and_endpoint():
    text = workflow(
        "w", [instance("s", "src@1"), instance("k", "sink@1")],
        [edge("s.x", "nobody.x"), edge("s.y", "k.x"), edge("s.x", "k.z")])
    codes = [d.code for d in validate_graph(parse_workflow(text), CATALOG)]
    assert "UNKNOWN_INSTANCE" in codes
    assert codes.count("UNKNOWN_ENDPOINT") == 2


def test_validate_type_rules():
    # text output into float input: rejected
    table = dict(CATALOG.table)
    table["texter@1"] = ComponentInterface((), (Endpoint("t", "output", DatumType.TEXT),))
    cat = TableCatalog(table)
    text = workflow(
        "w", [instance("t", "texter@1"), instance("k", "sink@1")],
        [edge("t.t", "k.x")])
    diags = validate_graph(parse_workflow(text), cat)
    assert [d.code for d in diags] == ["TYPE_MISMATCH"]

    # integer output into float input: the one sanctioned conversion
    text = workflow(
        "w", [instance("c", "count@1"), instance("k", "sink@1")],
        [edge("c.n", "k.x")])
    assert validate_graph(parse_workflow(text), CATALOG) == []


def test_validate_one_incoming_edge_per_input():
    text = workflow(
        "w",
        [instance("s1", "src@1"), instance("s2", "src@1"), instance("k", "sink@1")],
        [edge("s1.x", "k.x"), edge("s2.x", "k.x")])
    diags = validate_graph(parse_workflow(text), CATALOG)
    assert [d.code for d in diags] == ["DUPLICATE_INPUT_CONNECTION"]
    assert diags[0].location == "connections[1]"


def test_validate_queued_inputs_need_a_source():
    text = workflow("w", [instance("k", "sink@1")], [])
    diags = validate_graph(parse_workflow(text), CATALOG)
    assert [d.code for d in diags] == ["INPUT_UNCONNECTED"]

    # a config seed satisfies the requirement (loop bootstrap relies on this)
    seeded = workflow("w", [instance("k", "sink@1", {"x": 0.5})], [])
    assert validate_graph(parse_workflow(seeded), CATALOG) == []

    # seed and connection may coexist: the seed primes the first firing
    both = workflow(
        "w", [instance("s", "src@1"), instance("k", "sink@1", {"x": 0.5})],
        [edge("s.x", "k.x")])
    assert validate_graph(parse_workflow(both), CATALOG) == []


def test_validate_seed_type_rules():
    bad = workflow("w", [instance("k", "sink@1", {"x": "not-a-number"})], [])
    diags = validate_graph(parse_workflow(bad), CATALOG)
    assert [d.code for d in diags] == ["TYPE_MISMATCH"]

    not_scalar = workflow("w", [instance("k", "sink@1", {"x": [1.0]})], [])
    diags = validate_graph(parse_workflow(not_scalar), CATALOG)
    assert [d.code for d in diags] == ["TYPE_MISMATCH"]

    promoted = workflow("w", [instance("k", "sink@1", {"x": 2})], [])
    assert validate_graph(parse_workflow(promoted), CATALOG) == []


def test_validate_unseeded_constant_is_a_warning():
    text = workflow(
        "w", [instance("s", "src@1"), instance("m", "mix@1")],
        [edge("s.x", "m.a")])
    diags = validate_graph(parse_workflow(text), CATALOG)
    assert [(d.severity, d.code) for d in diags] == [("warning", "UNSEEDED_CONSTANT")]
    assert [d for d in diags if d.severity == "error"] == []


def test_endpoint_shape_rules():
    with pytest.raises(ValueError):
        Endpoint("x", "output", DatumType.FLOAT, "queued")
    with pytest.raises(ValueError):
        Endpoint("x", "input", DatumType.FLOAT)  # inputs must pick a handling
    with pytest.raises(ValueError):
        Endpoint("x", "sideways", DatumType.FLOAT)
    with pytest.raises(ValueError):
        Endpoint("9x", "output", DatumType.FLOAT)


def ref(text):
    return ComponentRef.parse(text)


def test_placement_prefers_lexicographic_minimum():
    graph = parse_workflow(workflow("w", [instance("a", "tool@1")], []))
    plan = plan_placement(graph, {ref("tool@1"): {"zulu", "alpha", "mike"}})
    assert plan["a"] == "alpha"


def test_placement_single_provider_and_missing():
    graph = parse_workflow(workflow("w", [instance("a", "tool@1")], []))
    assert plan_placement(graph, {ref("tool@1"): {"n9"}}) == {"a": "n9"}
    assert plan_placement(graph, {}) == {}


def test_placement_override_must_name_a_provider():
    graph = parse_workflow(workflow("w", [instance("a", "tool@1")], []))
    providers = {ref("tool@1"): {"n1", "n2"}}
    plan = plan_placement(graph, providers, overrides={"a": "n2"})
    assert plan["a"] == "n2"
    with pytest.raises(PlacementError) as err:
        plan_placement(graph, providers, overrides={"a": "n3"})
    assert err.value.code == "OVERRIDE_INVALID"


def test_placement_pin_in_document_behaves_like_override():
    graph = parse_workflow(workflow(
        "w", [instance("a", "tool@1", placement="n2")], []))
    providers = {ref("tool@1"): {"n1", "n2"}}
    assert plan_placement(graph, providers)["a"] == "n2"
    # an explicit override still outranks the document pin
    assert plan_placement(graph, providers,
                          overrides={"a": "n1"})["a"] == "n1"
    with pytest.raises(PlacementError):
        plan_placement(graph, {ref("tool@1"): {"n1"}})


def test_placement_plan_accessors():
    graph = parse_workflow(workflow(
        "w", [instance("a", "tool@1"), instance("b", "tool@1")], []))
    plan = plan_placement(graph, {ref("tool@1"): {"n1"}})
    assert set(plan.values()) == {"n1"}
    assert plan == {"a": "n1", "b": "n1"}


def descriptor_text(name="wc", version="1"):
    return json.dumps({"name": name, "version": version,
                       "commands": {"linux": "true"}})


@pytest.mark.parametrize("attempt, error, code", [
    (lambda root: parse_descriptor(descriptor_text(name="wc\n")),
     DescriptorError, "SYNTAX"),
    (lambda root: parse_descriptor(descriptor_text(version="1\n")),
     DescriptorError, "SYNTAX"),
    (lambda root: ComponentRef.parse("wc\n@1"), ValueError, None),
    (lambda root: ComponentRef.parse("wc@1\n"), ValueError, None),
    (lambda root: BlobStore(root).get("0" * 64 + "\n"), DataError, "BAD_DIGEST"),
    (lambda root: GroupKey("team\n", bytes(32)), CryptoError, "BAD_GROUP_NAME"),
    (lambda root: RunStore(root).open_run("r1\n", "{}"), DataError, "BAD_RUN_ID"),
], ids=["tool-name", "tool-version", "ref-name", "ref-version", "digest",
        "group-name", "run-id"])
def test_validators_refuse_a_trailing_newline(tmp_path, attempt, error, code):
    with pytest.raises(error) as err:
        attempt(tmp_path)
    assert getattr(err.value, "code", None) == code
    assert not list(tmp_path.iterdir())  # nothing written: no runs/r1\n/
