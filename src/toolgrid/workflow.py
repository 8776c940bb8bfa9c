"""Workflow graph model: parsing, validation, and placement planning.

Workflow files are declarative JSON documents:

    {
      "name": "airplane-eval",
      "components": [
        {"id": "sim", "component": "scenario-sim@1.0",
         "config": {"scenario": 2.0}, "placement": "auto"}
      ],
      "connections": [
        {"from": "sim.result", "to": "summary.perf"}
      ],
      "labels": ["any annotation"]
    }

Connection endpoints are written ``"<instance>.<endpoint>"``. Labels are inert
annotations and never influence execution. Cycles are legal; loop drivers
terminate them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable, Collection, Mapping, Optional

from .errors import DescriptorError, PlacementError, WorkflowParseError
from .values import TEXT, DatumType, convertible, misfit, scalar_datum

IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*\Z")
VERSION_RE = re.compile(r"^[A-Za-z0-9._-]+\Z")
# Component names gained through a relay carry the remote party's id as a
# "<party>::" prefix so two organizations' tools can never collide.
COMPONENT_NAME_RE = re.compile(
    r"^(?:[A-Za-z0-9_-]+::)?[A-Za-z_][A-Za-z0-9_-]*\Z")


@dataclass(frozen=True)
class ComponentRef:
    """A component identity: (name, version), rendered ``name@version``."""

    name: str
    version: str

    def __str__(self) -> str:
        return f"{self.name}@{self.version}"

    @classmethod
    def parse(cls, text: str) -> "ComponentRef":
        name, sep, version = text.partition("@")
        if not sep or not COMPONENT_NAME_RE.match(name) or not VERSION_RE.match(version):
            raise ValueError(f"bad component reference {text!r}, expected name@version")
        return cls(name, version)


@dataclass(frozen=True)
class Endpoint:
    """A named, typed port. ``handling`` applies to inputs only."""

    name: str
    direction: str  # "input" | "output"
    datum_type: DatumType
    handling: Optional[str] = None  # "queued" | "constant" for inputs

    def __post_init__(self):
        if not IDENT_RE.match(self.name):
            raise ValueError(f"bad endpoint name {self.name!r}")
        if self.direction not in ("input", "output"):
            raise ValueError(f"bad direction {self.direction!r}")
        if self.direction == "output":
            if self.handling is not None:
                raise ValueError("outputs have no handling attribute")
        elif self.handling not in ("queued", "constant"):
            raise ValueError(f"bad input handling {self.handling!r}")


@dataclass(frozen=True)
class ComponentInterface:
    """The typed surface of a component: what validation and routing need."""

    inputs: tuple[Endpoint, ...]
    outputs: tuple[Endpoint, ...]

    def input(self, name: str) -> Optional[Endpoint]:
        return next((e for e in self.inputs if e.name == name), None)

    def output(self, name: str) -> Optional[Endpoint]:
        return next((e for e in self.outputs if e.name == name), None)


def interface_to_json(interface: ComponentInterface) -> dict:
    """The ``inputs``/``outputs`` JSON of descriptor files and announcements."""
    return {
        "inputs": [{"name": e.name, "type": e.datum_type.value,
                    "handling": e.handling} for e in interface.inputs],
        "outputs": [{"name": e.name, "type": e.datum_type.value}
                    for e in interface.outputs],
    }


def interface_from_json(doc: Mapping) -> ComponentInterface:
    """Read the ``inputs``/``outputs`` lists that interface_to_json writes.

    An input's handling defaults to queued. Raises DescriptorError: SYNTAX
    for a malformed list or entry, DUPLICATE_ENDPOINT for a repeated name.
    """
    return ComponentInterface(_endpoint_list(doc.get("inputs"), "input"),
                              _endpoint_list(doc.get("outputs"), "output"))


_ENDPOINT_SHAPES = {"input": {"name": str, "type": str, "handling?": TEXT},
                    "output": {"name": str, "type": str}}


def _endpoint_list(raw, direction: str) -> tuple[Endpoint, ...]:
    """The endpoints of one list; None reads as an empty list."""
    where = f"{direction}s"
    raw = [] if raw is None else raw
    if found := misfit([_ENDPOINT_SHAPES[direction]], raw, where, closed=True):
        raise DescriptorError("SYNTAX", "{}: {}".format(*found))
    endpoints: dict[str, Endpoint] = {}
    for i, entry in enumerate(raw):
        name = entry["name"]
        if name in endpoints:
            raise DescriptorError("DUPLICATE_ENDPOINT",
                                  f"duplicate {direction} endpoint {name!r}")
        handling = (entry.get("handling") or "queued") if direction == "input" else None
        try:
            endpoints[name] = Endpoint(name, direction, DatumType.parse(entry["type"]),
                                       handling)
        except ValueError as exc:
            raise DescriptorError("SYNTAX", f"{where}[{i}]: {exc}") from exc
    return tuple(endpoints.values())


def typed_endpoint(name: str, spec: str, direction: str) -> Endpoint:
    """One endpoint from the ``TYPE[:HANDLING]`` form of built-in config maps
    and the CLI. Inputs default to queued; outputs take no handling.

    Raises ValueError for a bad name, type or handling.
    """
    type_name, sep, handling = spec.partition(":")
    if not sep:
        handling = "queued" if direction == "input" else None
    return Endpoint(name, direction, DatumType.parse(type_name), handling)


@dataclass(frozen=True)
class ComponentInstance:
    instance_id: str
    component: ComponentRef
    config: Mapping = field(default_factory=dict)
    placement: str = "auto"


@dataclass(frozen=True)
class Connection:
    from_instance: str
    output: str
    to_instance: str
    input: str

    def __str__(self) -> str:
        return f"{self.from_instance}.{self.output} -> {self.to_instance}.{self.input}"


@dataclass(frozen=True)
class WorkflowGraph:
    name: str
    components: tuple[ComponentInstance, ...]
    connections: tuple[Connection, ...]
    labels: tuple[str, ...] = ()

    def instance(self, instance_id: str) -> Optional[ComponentInstance]:
        return next((c for c in self.components if c.instance_id == instance_id), None)

    def inbound(self, instance_id: str) -> list[Connection]:
        return [c for c in self.connections if c.to_instance == instance_id]


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity} {self.code} at {self.location}: {self.message}"


# --- parsing -----------------------------------------------------------------

_WORKFLOW = {
    "name?": str,
    "components?": [{"id": str, "component": str, "config?": dict,
                     "placement?": TEXT}],
    "connections?": [{"from": str, "to": str}],
    "labels?": [str],
}


def _split_endpoint_ref(text: str, where: str) -> tuple[str, str]:
    instance, dot, endpoint = text.partition(".")
    if not dot or not IDENT_RE.match(instance) or not IDENT_RE.match(endpoint):
        raise WorkflowParseError("SYNTAX", f"expected \"<instance>.<endpoint>\", "
                                 f"got {text!r}", location=where)
    return instance, endpoint


def parse_workflow(text: str) -> WorkflowGraph:
    """Parse a workflow document, preserving declaration order.

    Raises WorkflowParseError with codes SYNTAX (with line/column for JSON
    errors), DUPLICATE_INSTANCE_ID, or UNKNOWN_FIELD; ``location`` names the
    entry, like ``components[1].placement``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkflowParseError("SYNTAX", exc.msg, line=exc.lineno, column=exc.colno) from exc
    if found := misfit(_WORKFLOW, doc, closed=True):
        where, reason = found
        raise WorkflowParseError("UNKNOWN_FIELD" if reason == "unknown field" else "SYNTAX",
                                 f"{where or 'workflow'}: {reason}", location=where or None)

    components: list[ComponentInstance] = []
    seen: set[str] = set()
    for i, entry in enumerate(doc.get("components") or []):
        where = f"components[{i}]"
        instance_id = entry["id"]
        if not IDENT_RE.match(instance_id):
            raise WorkflowParseError("SYNTAX", f"bad instance id {instance_id!r}",
                                     location=f"{where}.id")
        if instance_id in seen:
            raise WorkflowParseError(
                "DUPLICATE_INSTANCE_ID", f"duplicate instance id {instance_id!r}",
                location=where)
        seen.add(instance_id)
        try:
            ref = ComponentRef.parse(entry["component"])
        except ValueError as exc:
            raise WorkflowParseError("SYNTAX", str(exc), location=f"{where}.component") from exc
        components.append(ComponentInstance(instance_id, ref, entry.get("config") or {},
                                            entry.get("placement") or "auto"))

    connections = [
        Connection(*_split_endpoint_ref(entry["from"], f"connections[{i}].from"),
                   *_split_endpoint_ref(entry["to"], f"connections[{i}].to"))
        for i, entry in enumerate(doc.get("connections") or [])]
    return WorkflowGraph(doc.get("name") or "", tuple(components), tuple(connections),
                         tuple(doc.get("labels") or ()))


def serialize_workflow(graph: WorkflowGraph) -> str:
    """Canonical text form; parse_workflow(serialize_workflow(g)) == g."""
    doc = {
        "name": graph.name,
        "components": [
            {
                "id": c.instance_id,
                "component": str(c.component),
                "config": dict(c.config),
                "placement": c.placement,
            }
            for c in graph.components
        ],
        "connections": [
            {"from": f"{c.from_instance}.{c.output}", "to": f"{c.to_instance}.{c.input}"}
            for c in graph.connections
        ],
        "labels": list(graph.labels),
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


# --- validation ---------------------------------------------------------------

def validate_graph(
    graph: WorkflowGraph,
    resolve: Callable[[ComponentInstance], Optional[ComponentInterface]],
) -> list[Diagnostic]:
    """Check a parsed graph against the interface ``resolve`` gives each
    instance (None: the component is not available). ``resolve`` is called
    once per instance, in declaration order.

    Returns an empty list iff the graph is executable. Never raises; all
    problems come back as diagnostics.
    """
    out: list[Diagnostic] = []
    interfaces: dict[str, ComponentInterface] = {}

    for comp in graph.components:
        try:
            iface = resolve(comp)
        except Exception as exc:  # bad built-in config surfaces here
            code = getattr(exc, "code", "BAD_CONFIG")
            out.append(Diagnostic("error", code, f"components.{comp.instance_id}", str(exc)))
            continue
        if iface is None:
            out.append(Diagnostic(
                "error", "UNKNOWN_COMPONENT", f"components.{comp.instance_id}",
                f"component {comp.component} is not available"))
            continue
        interfaces[comp.instance_id] = iface

    incoming: dict[tuple[str, str], int] = {}
    for i, conn in enumerate(graph.connections):
        where = f"connections[{i}]"
        src = graph.instance(conn.from_instance)
        dst = graph.instance(conn.to_instance)
        if src is None:
            out.append(Diagnostic("error", "UNKNOWN_INSTANCE", where,
                                  f"no instance {conn.from_instance!r}"))
        if dst is None:
            out.append(Diagnostic("error", "UNKNOWN_INSTANCE", where,
                                  f"no instance {conn.to_instance!r}"))
        if src is None or dst is None:
            continue
        src_iface = interfaces.get(conn.from_instance)
        dst_iface = interfaces.get(conn.to_instance)
        out_ep = src_iface.output(conn.output) if src_iface else None
        in_ep = dst_iface.input(conn.input) if dst_iface else None
        if src_iface and out_ep is None:
            out.append(Diagnostic("error", "UNKNOWN_ENDPOINT", where,
                                  f"{conn.from_instance} has no output {conn.output!r}"))
        if dst_iface and in_ep is None:
            out.append(Diagnostic("error", "UNKNOWN_ENDPOINT", where,
                                  f"{conn.to_instance} has no input {conn.input!r}"))
        if out_ep and in_ep and not convertible(out_ep.datum_type, in_ep.datum_type):
            out.append(Diagnostic(
                "error", "TYPE_MISMATCH", where,
                f"{out_ep.datum_type.value} output cannot feed "
                f"{in_ep.datum_type.value} input"))
        key = (conn.to_instance, conn.input)
        incoming[key] = incoming.get(key, 0) + 1
        if incoming[key] == 2:
            out.append(Diagnostic(
                "error", "DUPLICATE_INPUT_CONNECTION", where,
                f"input {conn.to_instance}.{conn.input} has more than one incoming connection"))

    for comp in graph.components:
        iface = interfaces.get(comp.instance_id)
        if iface is None:
            continue
        for ep in iface.inputs:
            connected = (comp.instance_id, ep.name) in incoming
            seeded = ep.name in comp.config
            where = f"components.{comp.instance_id}.{ep.name}"
            if seeded:
                try:  # the engine seeds through the same rule
                    scalar_datum(comp.config[ep.name], ep.datum_type)
                except ValueError as exc:
                    out.append(Diagnostic("error", "TYPE_MISMATCH", where,
                                          f"config seed: {exc}"))
            if ep.handling == "queued" and not connected and not seeded:
                out.append(Diagnostic(
                    "error", "INPUT_UNCONNECTED", where,
                    f"queued input {ep.name!r} is neither connected nor seeded by config"))
            if ep.handling == "constant" and not connected and not seeded:
                out.append(Diagnostic(
                    "warning", "UNSEEDED_CONSTANT", where,
                    f"constant input {ep.name!r} never receives a value"))
    return out


# --- placement ----------------------------------------------------------------

def plan_placement(
    graph: WorkflowGraph,
    providers: Mapping[ComponentRef, Collection[str]],
    overrides: Mapping[str, str] | None = None,
) -> dict[str, str]:
    """Assign each instance to a publishing node: instance_id -> node id.

    Per instance: explicit override wins (and must actually publish the
    component); a graph-level placement pin is treated the same way; otherwise
    the single provider, or the lexicographically smallest node id when
    several publish it. An instance nobody publishes is left out; validation
    reports it as UNKNOWN_COMPONENT.
    """
    overrides = overrides or {}
    assignments: dict[str, str] = {}
    for comp in graph.components:
        nodes = providers.get(comp.component)
        if not nodes:
            continue
        pinned = overrides.get(comp.instance_id)
        if pinned is None and comp.placement != "auto":
            pinned = comp.placement
        if pinned is not None:
            if pinned not in nodes:
                raise PlacementError(
                    "OVERRIDE_INVALID",
                    f"node {pinned!r} does not publish {comp.component} "
                    f"(instance {comp.instance_id!r})")
            assignments[comp.instance_id] = pinned
            continue
        assignments[comp.instance_id] = min(nodes)
    return assignments
