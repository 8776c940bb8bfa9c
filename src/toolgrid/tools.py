"""Descriptor-driven integration of external executables.

A descriptor file names an executable, its command line per operating system,
and its typed inputs and outputs. Execution happens in a throwaway working
directory with a fixed layout:

    <workdir>/inputs/<NAME>/<filename>   one subdirectory per file input
    <workdir>/inputs.json                input name -> scalar or relative path
    <workdir>/outputs/                   empty; the tool writes here
    <workdir>/outputs.json               written by the tool: name -> scalar
                                         or relative path under outputs/

Command templates are split on whitespace first, then placeholders
(``${workdir}``, ``${in:NAME}``, ``${out:NAME}``) are substituted per token,
so substituted values are never re-split. Pre and post scripts are ordinary
subprocesses using the same template language; a non-zero exit at any stage
aborts the sequence. Nothing in the working directory is deleted afterwards.
"""

from __future__ import annotations

import json
import platform
import re
import subprocess
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .errors import DescriptorError, ToolExecutionError
from .store import BlobStore
from .values import Datum, DatumType, convert, convertible, misfit, scalar_datum
from .workflow import (IDENT_RE, VERSION_RE, ComponentInterface, Endpoint,
                       interface_from_json, interface_to_json, typed_endpoint)

PLACEHOLDER_RE = re.compile(r"\$\{([^}]*)\}")
KNOWN_OS = ("linux", "windows")


def current_os() -> str:
    """The descriptor OS key for this host. Non-Windows hosts count as linux."""
    return "windows" if platform.system() == "Windows" else "linux"


@dataclass(frozen=True)
class ToolDescriptor:
    name: str
    version: str
    commands: Mapping[str, str]  # os key -> command template
    interface: ComponentInterface
    pre_script: Optional[str] = None
    post_script: Optional[str] = None
    documentation: Optional[str] = None


@dataclass(slots=True)
class FiringResult:
    """What one firing produced: its emissions, in order, and for a tool run
    its exit status, log digests, stamps and working directory."""

    emissions: list[tuple[str, Datum]] = field(default_factory=list)
    exit_status: Optional[int] = 0
    stdout_ref: Optional[str] = None
    stderr_ref: Optional[str] = None
    started_at: Optional[int] = None
    finished_at: Optional[int] = None
    workdir: Optional[str] = None

    @property
    def outputs(self) -> dict[str, Datum]:
        return dict(self.emissions)


def _check_placeholders(template: str, where: str,
                        inputs: set[str], outputs: set[str]) -> None:
    for match in PLACEHOLDER_RE.finditer(template):
        token = match.group(1)
        if token == "workdir":
            continue
        kind, sep, name = token.partition(":")
        if not sep or kind not in ("in", "out") or not IDENT_RE.match(name):
            raise DescriptorError("BAD_PLACEHOLDER",
                                  f"malformed placeholder ${{{token}}} in {where}")
        if kind == "in" and name not in inputs:
            raise DescriptorError("BAD_PLACEHOLDER",
                                  f"{where} references ${{in:{name}}} but no input {name!r}")
        if kind == "out" and name not in outputs:
            raise DescriptorError("BAD_PLACEHOLDER",
                                  f"{where} references ${{out:{name}}} but no output {name!r}")


_DESCRIPTOR = {"name": str, "version": str, "commands?": {"*": str},
               "inputs?": list, "outputs?": list, "preScript?": str,
               "postScript?": str, "documentation?": str}


def parse_descriptor(text: str) -> ToolDescriptor:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError("SYNTAX", f"bad descriptor JSON: {exc.msg}") from exc
    if found := misfit(_DESCRIPTOR, doc, closed=True):
        where, reason = found
        raise DescriptorError("UNKNOWN_FIELD" if reason == "unknown field" else "SYNTAX",
                              f"{where or 'descriptor'}: {reason}")

    name, version = doc["name"], doc["version"]
    if not IDENT_RE.match(name):
        raise DescriptorError("SYNTAX", f"bad tool name {name!r}")
    if not VERSION_RE.match(version):
        raise DescriptorError("SYNTAX", f"bad version {version!r}")
    commands = doc.get("commands") or {}
    for os_key, template in commands.items():
        if os_key not in KNOWN_OS:
            raise DescriptorError("SYNTAX", f"unknown OS key {os_key!r}")
        if not template.strip():
            raise DescriptorError("SYNTAX", f"command for {os_key} must be non-empty text")
    if not commands:
        raise DescriptorError("MISSING_COMMAND", "descriptor declares no OS command")

    interface = interface_from_json(doc)
    in_names = {e.name for e in interface.inputs}
    out_names = {e.name for e in interface.outputs}
    templates = {f"commands.{os_key}": template for os_key, template in commands.items()}
    templates.update(preScript=doc.get("preScript"), postScript=doc.get("postScript"))
    for where, template in templates.items():
        if template:
            _check_placeholders(template, where, in_names, out_names)
    return ToolDescriptor(name, version, commands, interface, templates["preScript"],
                          templates["postScript"], doc.get("documentation"))


def descriptor_to_json(descriptor: ToolDescriptor) -> str:
    doc: dict = {
        "name": descriptor.name,
        "version": descriptor.version,
        "commands": dict(descriptor.commands),
    }
    doc.update(interface_to_json(descriptor.interface))
    if descriptor.pre_script is not None:
        doc["preScript"] = descriptor.pre_script
    if descriptor.post_script is not None:
        doc["postScript"] = descriptor.post_script
    if descriptor.documentation is not None:
        doc["documentation"] = descriptor.documentation
    return json.dumps(doc, indent=2) + "\n"


def scaffold_descriptor(name: str, version: str, command: str,
                        input_specs: Sequence[str], output_specs: Sequence[str],
                        *, os_key: str | None = None,
                        documentation: str | None = None) -> str:
    """Build descriptor text from short answers and validate it end to end.

    Each endpoint spec is ``NAME:TYPE[:HANDLING]``, the handling for inputs
    only; a bad one is DescriptorError(SYNTAX).
    """
    def endpoints(specs: Sequence[str], direction: str) -> tuple[Endpoint, ...]:
        out = []
        for spec in specs:
            endpoint_name, _, type_spec = spec.partition(":")
            try:
                out.append(typed_endpoint(endpoint_name, type_spec, direction))
            except ValueError as exc:
                raise DescriptorError(
                    "SYNTAX", f"bad {direction} spec {spec!r}: {exc}") from exc
        return tuple(out)

    text = descriptor_to_json(ToolDescriptor(
        name, version, {os_key or current_os(): command},
        ComponentInterface(endpoints(input_specs, "input"),
                           endpoints(output_specs, "output")),
        documentation=documentation))
    parse_descriptor(text)  # reject bad answers before anything is written
    return text


def select_command(descriptor: ToolDescriptor, host_os: str) -> str:
    template = descriptor.commands.get(host_os)
    if template is None:
        raise DescriptorError(
            "OS_UNSUPPORTED",
            f"tool {descriptor.name}@{descriptor.version} has no {host_os} command")
    return template


def render_command(template: str, workdir: Path,
                   inputs: Mapping[str, Datum]) -> list[str]:
    """Split on whitespace, then substitute placeholders inside each token."""
    workdir = Path(workdir)

    def substitute(match: re.Match) -> str:
        token = match.group(1)
        if token == "workdir":
            return str(workdir.resolve())
        kind, _, name = token.partition(":")
        if kind == "in":
            datum = inputs.get(name)
            if datum is None:
                raise ToolExecutionError("UNRESOLVED_PLACEHOLDER",
                                         f"no input value for ${{in:{name}}}")
            if datum.type is DatumType.FILE:
                return f"inputs/{name}/{datum.value.filename}"
            return datum.literal()
        if kind == "out":
            return f"outputs/{name}"
        raise ToolExecutionError("UNRESOLVED_PLACEHOLDER",
                                 f"malformed placeholder ${{{token}}}")

    return [PLACEHOLDER_RE.sub(substitute, word) for word in template.split()]


def _now_ms() -> int:
    return int(time.time() * 1000)


def _coerce_output(name: str, declared: Endpoint, value, workdir: Path,
                   blobs: BlobStore) -> Datum:
    dtype = declared.datum_type
    if dtype is DatumType.FILE:
        if not isinstance(value, str) or not value.startswith("outputs/"):
            raise ToolExecutionError(
                "OUTPUT_TYPE_MISMATCH",
                f"output {name!r} must be a relative path under outputs/, got {value!r}")
        path = (workdir / value).resolve()
        if workdir.resolve() not in path.parents:
            raise ToolExecutionError("OUTPUT_TYPE_MISMATCH",
                                     f"output {name!r} escapes the working directory")
        if not path.is_file():
            raise ToolExecutionError("OUTPUT_MISSING",
                                     f"output {name!r} names missing file {value!r}")
        digest = blobs.put(path.read_bytes())
        return Datum.file(digest, path.name)
    try:
        return scalar_datum(value, dtype)
    except ValueError as exc:
        raise ToolExecutionError("OUTPUT_TYPE_MISMATCH",
                                 f"output {name!r}: {exc}") from exc


def execute_tool(descriptor: ToolDescriptor, inputs: Mapping[str, Datum],
                 workdir_root: Path, blobs: BlobStore) -> FiringResult:
    """Run one tool firing in a fresh working directory.

    Raises ToolExecutionError carrying the failed stage and the report of
    what ran: exit status and the stdout/stderr captured before the abort.
    """
    main_template = select_command(descriptor, current_os())

    declared = {e.name: e for e in descriptor.interface.inputs}
    if set(inputs) != set(declared):
        raise ToolExecutionError(
            "INPUT_MISMATCH",
            f"inputs {sorted(inputs)} do not match declared {sorted(declared)}")
    coerced: dict[str, Datum] = {}
    for name, datum in inputs.items():
        want = declared[name].datum_type
        if not convertible(datum.type, want):
            raise ToolExecutionError(
                "INPUT_MISMATCH",
                f"input {name!r} is {datum.type.value}, declared {want.value}")
        coerced[name] = convert(datum, want)

    workdir = Path(workdir_root) / uuid.uuid4().hex
    (workdir / "outputs").mkdir(parents=True)
    (workdir / "inputs").mkdir()

    inputs_doc: dict[str, object] = {}
    for name, datum in coerced.items():
        if datum.type is DatumType.FILE:
            slot = workdir / "inputs" / name
            slot.mkdir()
            (slot / datum.value.filename).write_bytes(blobs.get(datum.value.digest))
            inputs_doc[name] = f"inputs/{name}/{datum.value.filename}"
        else:
            inputs_doc[name] = datum.value
    (workdir / "inputs.json").write_text(
        json.dumps(inputs_doc, indent=2, sort_keys=True) + "\n")

    started_at = _now_ms()
    stdout_parts: list[bytes] = []
    stderr_parts: list[bytes] = []

    def report(exit_status: Optional[int],
               emissions: list[tuple[str, Datum]]) -> FiringResult:
        return FiringResult(emissions, exit_status,
                            blobs.put(b"".join(stdout_parts)),
                            blobs.put(b"".join(stderr_parts)),
                            started_at, _now_ms(), str(workdir))

    def fail(code: str, message: str, stage: str, status: int | None) -> ToolExecutionError:
        return ToolExecutionError(code, message, stage, report(status, []))

    stages = [("pre", descriptor.pre_script), ("main", main_template),
              ("post", descriptor.post_script)]
    for stage, template in stages:
        if not template:
            continue
        argv = render_command(template, workdir, coerced)
        try:
            proc = subprocess.run(argv, cwd=workdir, capture_output=True)
        except OSError as exc:
            raise fail("SPAWN_FAILED", f"{stage} stage could not start: {exc}",
                       stage, None) from exc
        stdout_parts.append(proc.stdout)
        stderr_parts.append(proc.stderr)
        if proc.returncode != 0:
            raise fail("TOOL_FAILED",
                       f"{stage} stage exited with status {proc.returncode}",
                       stage, proc.returncode)

    emissions: list[tuple[str, Datum]] = []
    if descriptor.interface.outputs:
        outputs_path = workdir / "outputs.json"
        if not outputs_path.is_file():
            raise fail("OUTPUT_MISSING", "tool wrote no outputs.json", "main", 0)
        try:
            outputs_doc = json.loads(outputs_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise fail("OUTPUT_MISSING", f"outputs.json is unreadable: {exc}",
                       "main", 0) from exc
        if not isinstance(outputs_doc, dict):
            raise fail("OUTPUT_MISSING", "outputs.json must be an object", "main", 0)
        for endpoint in descriptor.interface.outputs:
            if endpoint.name not in outputs_doc:
                raise fail("OUTPUT_MISSING",
                           f"declared output {endpoint.name!r} absent from outputs.json",
                           "main", 0)
            try:
                emissions.append((endpoint.name, _coerce_output(
                    endpoint.name, endpoint, outputs_doc[endpoint.name], workdir, blobs)))
            except ToolExecutionError as exc:
                raise fail(exc.code, exc.message, "main", 0) from exc

    return report(0, emissions)
