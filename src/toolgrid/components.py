"""Built-in workflow components: sources, sinks, scripting, branching, loops.

Each built-in is an object built from the instance's ``config`` map in the
workflow file: the constructor validates the config and derives the typed
interface, so one component name covers many shapes. The catalog publishes
six components, all version "1":

    input-provider   emit configured scalars and files once, then stop
    output-writer    append received scalars to a log, materialize files
    script           run a shell command under the external-tool contract
    switch           route a value to the "true" or "false" output
    converger        absolute-tolerance fixed-point loop driver
    optimizer        grid or coordinate-descent minimization loop driver

A run builds one object per built-in instance and calls it only from the
engine's scheduling loop, so loop drivers keep their state between firings
on the object itself and two runs never share it.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

from .errors import ComponentConfigError, DataError, DescriptorError
from .store import BlobStore
from .tools import (FiringResult, ToolDescriptor, _check_placeholders, current_os,
                    execute_tool)
from .values import Datum, DatumType, infer_scalar_type, misfit, scalar_datum
from .workflow import (IDENT_RE, ComponentInterface, ComponentRef, Endpoint,
                       typed_endpoint)

BUILTIN_VERSION = "1"


@dataclass
class FiringContext:
    """What a behavior sees for one firing."""

    instance_id: str
    execution_index: int  # 1-based
    blobs: BlobStore
    work_root: Path


# A behavior may hand back the result directly, or a thunk the engine runs on
# its worker pool (what script@1 and placed tools do, so the scheduling loop
# never blocks on child processes).
FireReturn = Union[FiringResult, Callable[[], FiringResult]]


class Behavior:
    """One instance per run; __init__ validates its config and sets ``interface``."""

    # True for loop drivers that must emit their first candidate before any
    # input exists; the engine grants them one input-less bootstrap firing.
    starts_without_input = False
    interface: ComponentInterface

    def setup(self) -> None:
        """Pre-run checks with side effects; raising here fails the run before any firing."""

    def fire(self, ctx: FiringContext, inputs: Mapping[str, Datum]) -> FireReturn:
        raise NotImplementedError


def _typed_endpoints(spec, direction: str, where: str) -> tuple[Endpoint, ...]:
    """Config maps like {"x": "float"} or {"x": "float:constant"} (inputs only)."""
    if found := misfit({"*": str}, spec, where):
        raise ComponentConfigError("BAD_CONFIG", "{}: {}".format(*found))
    endpoints = []
    for name, type_spec in spec.items():
        try:
            endpoints.append(typed_endpoint(str(name), type_spec, direction))
        except ValueError as exc:
            raise ComponentConfigError("BAD_CONFIG", f"{where}.{name}: {exc}") from exc
    return tuple(endpoints)


class InputProvider(Behavior):
    """Emits each configured value and file exactly once, on the first firing.

    config: {"values": {name: scalar}, "files": {name: path}}
    """

    def __init__(self, config: Mapping):
        values = config.get("values", {})
        files = config.get("files", {})
        if not isinstance(values, Mapping) or not isinstance(files, Mapping):
            raise ComponentConfigError("BAD_CONFIG", "values and files must be maps")
        outputs = []
        self._values: list[tuple[str, Datum]] = []
        for name, value in values.items():
            if not IDENT_RE.match(str(name)):
                raise ComponentConfigError("BAD_CONFIG", f"bad output name {name!r}")
            try:
                dtype = infer_scalar_type(value)
            except ValueError as exc:
                raise ComponentConfigError("BAD_CONFIG", f"values.{name}: {exc}") from exc
            outputs.append(Endpoint(name, "output", dtype))
            self._values.append((name, scalar_datum(value, dtype)))
        for name in files:
            if not IDENT_RE.match(str(name)):
                raise ComponentConfigError("BAD_CONFIG", f"bad output name {name!r}")
            outputs.append(Endpoint(name, "output", DatumType.FILE))
        if not outputs:
            raise ComponentConfigError("BAD_CONFIG", "provider emits nothing")
        self.interface = ComponentInterface((), tuple(outputs))
        self._files = dict(files)

    def setup(self) -> None:
        for name, path in self._files.items():
            if not Path(path).is_file():
                raise ComponentConfigError("FILE_NOT_FOUND",
                                           f"files.{name}: no such file {path!r}")

    def fire(self, ctx: FiringContext, inputs: Mapping[str, Datum]) -> FiringResult:
        emissions = list(self._values)
        for name, path in self._files.items():
            data = Path(path).read_bytes()
            emissions.append((name, Datum.file(ctx.blobs.put(data), Path(path).name)))
        return FiringResult(emissions)


class OutputWriter(Behavior):
    """Materializes received data under a target directory.

    config: {"target": dir, "inputs": {name: type}}. Scalars append one JSON
    line each to values.log; files land as
    <instance>-<endpoint>-<execution_index>-<filename>. Nothing is ever
    overwritten.
    """

    def __init__(self, config: Mapping):
        target = config.get("target")
        if not isinstance(target, str):
            raise ComponentConfigError("BAD_CONFIG", "writer needs a target directory")
        inputs = _typed_endpoints(config.get("inputs", {}), "input", "inputs")
        if not inputs:
            raise ComponentConfigError("BAD_CONFIG", "writer consumes nothing")
        self.interface = ComponentInterface(inputs, ())
        self._target = Path(target)

    def setup(self) -> None:
        target = self._target
        try:
            target.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ComponentConfigError("TARGET_UNWRITABLE", str(exc)) from exc
        if not target.is_dir():
            raise ComponentConfigError("TARGET_UNWRITABLE", f"{target} is not a directory")

    def fire(self, ctx: FiringContext, inputs: Mapping[str, Datum]) -> FiringResult:
        for name, datum in inputs.items():
            if datum.type is DatumType.FILE:
                dest = self._target / (f"{ctx.instance_id}-{name}-"
                                       f"{ctx.execution_index}-{datum.value.filename}")
                if dest.exists():
                    raise DataError("WOULD_OVERWRITE", f"{dest} already exists")
                dest.write_bytes(ctx.blobs.get(datum.value.digest))
            else:
                line = json.dumps({
                    "instance": ctx.instance_id, "endpoint": name,
                    "execution_index": ctx.execution_index, "value": datum.value,
                }, sort_keys=True)
                with open(self._target / "values.log", "a") as fh:
                    fh.write(line + "\n")
        return FiringResult([])


class Script(Behavior):
    """A user command run under the same contract as an integrated tool.

    config: {"command": template, "inputs": {name: type[:handling]},
    "outputs": {name: type}}. The command sees the standard working-directory
    layout and must write outputs.json.
    """

    def __init__(self, config: Mapping):
        command = config.get("command")
        if not isinstance(command, str) or not command.strip():
            raise ComponentConfigError("BAD_CONFIG", "script needs a command")
        inputs = _typed_endpoints(config.get("inputs", {}), "input", "inputs")
        outputs = _typed_endpoints(config.get("outputs", {}), "output", "outputs")
        try:
            _check_placeholders(command, "command",
                                {e.name for e in inputs}, {e.name for e in outputs})
        except DescriptorError as exc:
            raise ComponentConfigError("BAD_CONFIG", str(exc)) from exc
        self.interface = ComponentInterface(inputs, outputs)
        self._descriptor = ToolDescriptor("script", BUILTIN_VERSION,
                                          {current_os(): command}, self.interface)

    def fire(self, ctx: FiringContext, inputs: Mapping[str, Datum]) -> FireReturn:
        return partial(execute_tool, self._descriptor, dict(inputs),
                       ctx.work_root, ctx.blobs)


_OPERATORS: dict[str, Callable[[object, object], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "!=": lambda a, b: a != b,
}
_OPERATOR_ALIASES = {"≤": "<=", "≥": ">=", "≠": "!=", "=": "=="}
_ORDERING = {"<", "<=", ">=", ">"}
_CONDITION_RE = re.compile(r"^\s*(<=|>=|!=|==|≤|≥|≠|<|>|=)\s*(.+?)\s*$")


class Switch(Behavior):
    """Forwards input "value" to output "true" or "false" per the condition.

    config: {"condition": "<op> <constant>"} with operators < <= == >= > !=
    (unicode forms accepted). The endpoint type follows the constant.
    """

    def __init__(self, config: Mapping):
        condition = config.get("condition")
        if not isinstance(condition, str):
            raise ComponentConfigError("BAD_CONFIG", "switch needs a condition like \"< 10\"")
        match = _CONDITION_RE.match(condition)
        if not match:
            raise ComponentConfigError("BAD_CONFIG", f"cannot parse condition {condition!r}")
        op = _OPERATOR_ALIASES.get(match.group(1), match.group(1))
        try:
            constant = json.loads(match.group(2))
        except json.JSONDecodeError as exc:
            raise ComponentConfigError(
                "BAD_CONFIG", f"condition constant {match.group(2)!r} is not a literal") from exc
        if isinstance(constant, bool):
            dtype = DatumType.BOOLEAN
        elif isinstance(constant, (int, float)):
            dtype, constant = DatumType.FLOAT, float(constant)
        elif isinstance(constant, str):
            dtype = DatumType.TEXT
        else:
            raise ComponentConfigError("BAD_CONFIG", "condition constant must be a scalar")
        if op in _ORDERING and dtype is not DatumType.FLOAT:
            raise ComponentConfigError(
                "TYPE_MISMATCH", f"ordering comparison {op!r} needs a numeric constant")
        self._compare = _OPERATORS[op]
        self._constant = constant
        self.interface = ComponentInterface(
            (Endpoint("value", "input", dtype, "queued"),),
            (Endpoint("true", "output", dtype), Endpoint("false", "output", dtype)))

    def fire(self, ctx: FiringContext, inputs: Mapping[str, Datum]) -> FiringResult:
        datum = inputs["value"]
        branch = "true" if self._compare(datum.value, self._constant) else "false"
        return FiringResult([(branch, datum)])


class Converger(Behavior):
    """Absolute-tolerance loop driver.

    config: {"eps_abs": float, "max_iterations": int}. Input x feeds the
    loop; while successive values differ by more than eps_abs, x goes back
    out on "loop". On |x_t - x_{t-1}| <= eps_abs the value leaves on
    "converged" with done=true; hitting max_iterations emits the same way
    with done=false.
    """

    def __init__(self, config: Mapping):
        eps = config.get("eps_abs")
        max_iterations = config.get("max_iterations")
        if not isinstance(eps, (int, float)) or isinstance(eps, bool) or eps <= 0:
            raise ComponentConfigError("BAD_CONFIG", "eps_abs must be > 0")
        if not isinstance(max_iterations, int) or isinstance(max_iterations, bool) \
                or max_iterations < 1:
            raise ComponentConfigError("BAD_CONFIG", "max_iterations must be >= 1")
        self._eps_abs = float(eps)
        self._max_iterations = max_iterations
        self._previous: Optional[float] = None
        self.interface = ComponentInterface(
            (Endpoint("x", "input", DatumType.FLOAT, "queued"),),
            (Endpoint("loop", "output", DatumType.FLOAT),
             Endpoint("converged", "output", DatumType.FLOAT),
             Endpoint("done", "output", DatumType.BOOLEAN)))

    def fire(self, ctx: FiringContext, inputs: Mapping[str, Datum]) -> FiringResult:
        x = inputs["x"].value
        previous, self._previous = self._previous, x
        t = ctx.execution_index
        if previous is not None and abs(x - previous) <= self._eps_abs:
            return FiringResult([("converged", Datum.of_float(x)),
                                 ("done", Datum.boolean(True))])
        if t >= self._max_iterations:
            return FiringResult([("converged", Datum.of_float(x)),
                                 ("done", Datum.boolean(False))])
        return FiringResult([("loop", Datum.of_float(x))])


@dataclass(frozen=True)
class _Variable:
    name: str
    lower: float
    upper: float
    initial_step: float


def _grid_search(variables: list[_Variable], tol: float, max_evals: int):
    axes: list[list[float]] = []
    for var in variables:
        points, i = [], 0
        # tolerate accumulated float error so the upper bound itself is kept
        margin = var.initial_step * 1e-9
        while var.lower + i * var.initial_step <= var.upper + margin:
            points.append(min(var.lower + i * var.initial_step, var.upper))
            i += 1
        axes.append(points)
    best_point: Optional[list[float]] = None
    best_value = float("inf")
    evals = 0
    for trial in itertools.product(*axes):
        if evals >= max_evals:
            break
        value = yield list(trial)
        evals += 1
        if best_point is None or value < best_value:
            best_point, best_value = list(trial), value
    return {"point": best_point, "value": best_value, "evaluations": evals}


def _coordinate_descent(variables: list[_Variable], tol: float, max_evals: int):
    best_point = [var.lower for var in variables]
    steps = [var.initial_step for var in variables]
    best_value = yield list(best_point)
    evals = 1
    exhausted = evals >= max_evals
    while not exhausted and any(step > tol for step in steps):
        improved = False
        for i, var in enumerate(variables):
            if exhausted:
                break
            for candidate in (best_point[i] + steps[i], best_point[i] - steps[i]):
                if candidate < var.lower or candidate > var.upper:
                    continue
                if evals >= max_evals:
                    exhausted = True
                    break
                trial = list(best_point)
                trial[i] = candidate
                value = yield trial
                evals += 1
                if value < best_value:  # strict: ties keep the earlier point
                    best_point, best_value = trial, value
                    improved = True
                    break
        if not improved and not exhausted:
            steps = [step / 2.0 for step in steps]
    return {"point": best_point, "value": best_value, "evaluations": evals}


_STRATEGIES = {"grid": _grid_search, "coordinate_descent": _coordinate_descent}


class Optimizer(Behavior):
    """Minimization loop driver emitting one candidate design point at a time.

    config: {"strategy": "grid"|"coordinate_descent",
             "variables": [{name, lower, upper, initial_step}, ...],
             "tol": float, "max_evals": int}

    Outputs one Float per variable plus "optimum", a JSON text report
    {"point": {name: value}, "value": best, "evaluations": n} emitted once
    after the search ends.
    """

    starts_without_input = True

    def __init__(self, config: Mapping):
        strategy = config.get("strategy")
        if strategy not in ("grid", "coordinate_descent"):
            raise ComponentConfigError("BAD_CONFIG",
                                       "strategy must be grid or coordinate_descent")
        raw_vars = config.get("variables")
        if not isinstance(raw_vars, list) or not raw_vars:
            raise ComponentConfigError("BAD_CONFIG", "variables must be a non-empty list")
        variables: list[_Variable] = []
        seen: set[str] = set()
        for entry in raw_vars:
            if not isinstance(entry, Mapping):
                raise ComponentConfigError("BAD_CONFIG", "each variable must be an object")
            name = entry.get("name")
            if not isinstance(name, str) or not IDENT_RE.match(name) or name == "optimum":
                raise ComponentConfigError("BAD_CONFIG", f"bad variable name {name!r}")
            if name in seen:
                raise ComponentConfigError("BAD_CONFIG", f"duplicate variable {name!r}")
            seen.add(name)
            try:
                lower = float(entry["lower"])
                upper = float(entry["upper"])
                step = float(entry["initial_step"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ComponentConfigError(
                    "BAD_CONFIG", f"variable {name!r} needs numeric lower/upper/initial_step"
                ) from exc
            if not lower < upper:
                raise ComponentConfigError("BAD_BOUNDS",
                                           f"variable {name!r}: lower must be < upper")
            if step <= 0:
                raise ComponentConfigError("BAD_BOUNDS",
                                           f"variable {name!r}: initial_step must be > 0")
            variables.append(_Variable(name, lower, upper, step))
        tol = config.get("tol")
        if not isinstance(tol, (int, float)) or isinstance(tol, bool) or tol <= 0:
            raise ComponentConfigError("TOL_NONPOSITIVE", "tol must be > 0")
        max_evals = config.get("max_evals")
        if not isinstance(max_evals, int) or isinstance(max_evals, bool) or max_evals < 1:
            raise ComponentConfigError("BAD_CONFIG", "max_evals must be >= 1")
        self._variables = variables
        self._search = _STRATEGIES[strategy](variables, float(tol), max_evals)
        outputs = tuple(Endpoint(v.name, "output", DatumType.FLOAT) for v in variables)
        outputs += (Endpoint("optimum", "output", DatumType.TEXT),)
        self.interface = ComponentInterface(
            (Endpoint("objective", "input", DatumType.FLOAT, "queued"),), outputs)

    def fire(self, ctx: FiringContext, inputs: Mapping[str, Datum]) -> FiringResult:
        try:
            # the input-less bootstrap firing starts the search
            point = (self._search.send(inputs["objective"].value) if inputs
                     else next(self._search))
        except StopIteration as stop:
            report = dict(stop.value)
            report["point"] = {var.name: value for var, value
                               in zip(self._variables, report["point"])}
            return FiringResult([
                ("optimum", Datum.text(json.dumps(report, sort_keys=True)))])
        return FiringResult([(var.name, Datum.of_float(value))
                             for var, value in zip(self._variables, point)])


_BEHAVIORS: dict[str, type[Behavior]] = {
    "input-provider": InputProvider,
    "output-writer": OutputWriter,
    "script": Script,
    "switch": Switch,
    "converger": Converger,
    "optimizer": Optimizer,
}


class BuiltinCatalog:
    """The built-in component set."""

    def names(self) -> list[str]:
        return sorted(_BEHAVIORS)

    def refs(self) -> list[ComponentRef]:
        return [ComponentRef(name, BUILTIN_VERSION) for name in self.names()]

    def is_builtin(self, ref: ComponentRef) -> bool:
        return ref.name in _BEHAVIORS and ref.version == BUILTIN_VERSION

    def create(self, ref: ComponentRef, config: Mapping) -> Behavior:
        """A fresh behavior for one instance in one run."""
        if not self.is_builtin(ref):
            raise ComponentConfigError("UNKNOWN_COMPONENT", f"no built-in {ref}")
        return _BEHAVIORS[ref.name](config)
