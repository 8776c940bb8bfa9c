import json
import math
import sys

import pytest

from toolgrid.components import (
    BUILTIN_VERSION,
    BuiltinCatalog,
    Converger,
    FiringContext,
    FiringResult,
    InputProvider,
    Optimizer,
    OutputWriter,
    Script,
    Switch,
    _coordinate_descent,
    _grid_search,
    _Variable,
)
from toolgrid.errors import ComponentConfigError, DataError
from toolgrid.store import BlobStore
from toolgrid.values import Datum, DatumType
from toolgrid.workflow import ComponentRef

from helpers import PRELUDE

PY = sys.executable or "python3"


@pytest.fixture
def blobs(tmp_path):
    return BlobStore(tmp_path / "blobs")


def ctx(blobs, tmp_path, idx=1, inst="inst"):
    return FiringContext(inst, idx, blobs, tmp_path / "work")


def emitted(result):
    return {name: datum for name, datum in result.emissions}


# --- input-provider -----------------------------------------------------------


def test_provider_interface_infers_types(tmp_path):
    iface = InputProvider(
        {"values": {"n": 3, "r": 0.5, "ok": True, "tag": "x"},
         "files": {"data": str(tmp_path / "d.bin")}}).interface
    assert iface.inputs == ()
    types = {e.name: e.datum_type for e in iface.outputs}
    assert types == {"n": DatumType.INTEGER, "r": DatumType.FLOAT,
                     "ok": DatumType.BOOLEAN, "tag": DatumType.TEXT,
                     "data": DatumType.FILE}


def test_provider_config_rules():
    with pytest.raises(ComponentConfigError):
        InputProvider({}).interface  # emits nothing
    with pytest.raises(ComponentConfigError):
        InputProvider({"values": {"bad name": 1}}).interface
    with pytest.raises(ComponentConfigError):
        InputProvider({"values": {"x": [1, 2]}}).interface
    with pytest.raises(ComponentConfigError):
        InputProvider({"values": "nope"}).interface


def test_provider_emits_values_and_files(blobs, tmp_path):
    payload = tmp_path / "table.csv"
    payload.write_bytes(b"1,2\n")
    config = {"values": {"n": 3}, "files": {"table": str(payload)}}
    provider = InputProvider(config)
    provider.setup()
    out = emitted(provider.fire(ctx(blobs, tmp_path), {}))
    assert out["n"] == Datum.integer(3)
    assert out["table"].type is DatumType.FILE
    assert out["table"].value.filename == "table.csv"
    assert blobs.get(out["table"].value.digest) == b"1,2\n"


def test_provider_setup_requires_files_exist(blobs, tmp_path):
    config = {"files": {"gone": str(tmp_path / "missing.bin")}}
    with pytest.raises(ComponentConfigError) as err:
        InputProvider(config).setup()
    assert err.value.code == "FILE_NOT_FOUND"


# --- output-writer ------------------------------------------------------------


def test_writer_interface_rules(tmp_path):
    iface = OutputWriter(
        {"target": str(tmp_path), "inputs": {"x": "float", "f": "file"}}).interface
    assert iface.outputs == ()
    assert {e.name for e in iface.inputs} == {"x", "f"}
    with pytest.raises(ComponentConfigError):
        OutputWriter({"inputs": {"x": "float"}}).interface  # no target
    with pytest.raises(ComponentConfigError):
        OutputWriter({"target": str(tmp_path)}).interface  # consumes nothing


def test_writer_records_scalars_and_files(blobs, tmp_path):
    target = tmp_path / "results"
    config = {"target": str(target), "inputs": {"x": "float", "f": "file"}}
    writer = OutputWriter(config)
    writer.setup()
    digest = blobs.put(b"bytes")

    writer.fire(ctx(blobs, tmp_path, inst="w", idx=1),
                {"x": Datum.of_float(1.5), "f": Datum.file(digest, "out.bin")})
    writer.fire(ctx(blobs, tmp_path, inst="w", idx=2),
                {"x": Datum.of_float(2.5), "f": Datum.file(digest, "out.bin")})

    lines = [json.loads(l) for l in (target / "values.log").read_text().splitlines()]
    assert lines == [
        {"instance": "w", "endpoint": "x", "execution_index": 1, "value": 1.5},
        {"instance": "w", "endpoint": "x", "execution_index": 2, "value": 2.5},
    ]
    assert (target / "w-f-1-out.bin").read_bytes() == b"bytes"
    assert (target / "w-f-2-out.bin").read_bytes() == b"bytes"


def test_writer_never_overwrites(blobs, tmp_path):
    target = tmp_path / "results"
    config = {"target": str(target), "inputs": {"f": "file"}}
    writer = OutputWriter(config)
    writer.setup()
    digest = blobs.put(b"v1")
    writer.fire(ctx(blobs, tmp_path, idx=1), {"f": Datum.file(digest, "a")})
    with pytest.raises(DataError) as err:
        writer.fire(ctx(blobs, tmp_path, idx=1), {"f": Datum.file(digest, "a")})
    assert err.value.code == "WOULD_OVERWRITE"


def test_writer_target_must_be_mkdirable(blobs, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("in the way")
    config = {"target": str(blocker), "inputs": {"x": "float"}}
    with pytest.raises(ComponentConfigError) as err:
        OutputWriter(config).setup()
    assert err.value.code == "TARGET_UNWRITABLE"


# --- script ---------------------------------------------------------------------


def test_script_interface_and_handling(tmp_path):
    iface = Script({
        "command": "run ${in:x} ${out:y}",
        "inputs": {"x": "float", "mode": "text:constant"},
        "outputs": {"y": "float"}}).interface
    assert iface.input("x").handling == "queued"
    assert iface.input("mode").handling == "constant"
    assert iface.output("y").datum_type is DatumType.FLOAT


def test_a_script_output_spec_with_a_handling_is_bad_config():
    # the handling was dropped without a word; the CLI form already refused it
    with pytest.raises(ComponentConfigError) as err:
        Script({"command": "run", "inputs": {}, "outputs": {"y": "float:constant"}})
    assert err.value.code == "BAD_CONFIG"


def test_script_tolerates_seed_keys_in_config():
    # loop bootstrap stores the seed under the endpoint's own name
    iface = Script({
        "command": "run", "inputs": {"x": "float"}, "outputs": {}, "x": 1.0}).interface
    assert iface.input("x") is not None


def test_script_config_rules():
    with pytest.raises(ComponentConfigError):
        Script({"inputs": {}, "outputs": {}}).interface  # no command
    with pytest.raises(ComponentConfigError):
        Script({"command": "   ", "inputs": {}, "outputs": {}}).interface
    with pytest.raises(ComponentConfigError):
        Script({"command": "run ${in:ghost}", "inputs": {}, "outputs": {}}).interface
    with pytest.raises(ComponentConfigError):
        Script({"command": "run", "inputs": {"x": "nope"}, "outputs": {}}).interface


def test_script_fire_returns_thunk(blobs, tmp_path):
    script = tmp_path / "double.py"
    script.write_text(PRELUDE +
                      "(wd / 'outputs.json').write_text(json.dumps({'y': doc['x'] * 2}))\n")
    config = {"command": f"{PY} {script} ${{workdir}}",
              "inputs": {"x": "float"}, "outputs": {"y": "float"}}
    thunk = Script(config).fire(ctx(blobs, tmp_path), {"x": Datum.of_float(2.5)})
    assert callable(thunk)
    result = thunk()
    assert isinstance(result, FiringResult)
    assert emitted(result)["y"] == Datum.of_float(5.0)
    assert result.exit_status == 0
    assert result.stdout_ref is not None


# --- switch ---------------------------------------------------------------------


def test_switch_numeric_conditions(blobs, tmp_path):
    config = {"condition": "< 10"}
    iface = Switch(config).interface
    assert iface.input("value").datum_type is DatumType.FLOAT
    assert {e.name for e in iface.outputs} == {"true", "false"}

    low = Switch(config).fire(ctx(blobs, tmp_path), {"value": Datum.of_float(3.0)})
    assert emitted(low) == {"true": Datum.of_float(3.0)}
    high = Switch(config).fire(ctx(blobs, tmp_path), {"value": Datum.of_float(10.0)})
    assert emitted(high) == {"false": Datum.of_float(10.0)}


def test_switch_operator_spellings(blobs, tmp_path):
    value = {"value": Datum.of_float(10.0)}
    for condition, branch in (("<= 10", "true"), ("≤ 10", "true"),
                              (">= 10.5", "false"), ("≥ 10", "true"),
                              ("≠ 10", "false"), ("!= 3", "true"),
                              ("= 10", "true"), ("== 10", "true"),
                              ("> 9.5", "true"), ("< 10", "false")):
        result = Switch({"condition": condition}).fire(ctx(blobs, tmp_path), value)
        assert list(emitted(result)) == [branch], condition


def test_switch_text_and_boolean_conditions(blobs, tmp_path):
    config = {"condition": '== "ready"'}
    assert Switch(config).interface.input("value").datum_type is DatumType.TEXT
    result = Switch(config).fire(ctx(blobs, tmp_path), {"value": Datum.text("ready")})
    assert list(emitted(result)) == ["true"]

    config = {"condition": "!= true"}
    assert Switch(config).interface.input("value").datum_type is DatumType.BOOLEAN
    result = Switch(config).fire(ctx(blobs, tmp_path), {"value": Datum.boolean(False)})
    assert list(emitted(result)) == ["true"]


def test_switch_condition_rejections():
    for condition in (None, "10 <", "<", "< [1]", "~ 10", '< "text"', "≥ false"):
        with pytest.raises(ComponentConfigError):
            Switch({"condition": condition}).interface


# --- converger --------------------------------------------------------------------


def test_converger_interface():
    iface = Converger({"eps_abs": 1e-6, "max_iterations": 10}).interface
    assert iface.input("x").datum_type is DatumType.FLOAT
    assert {e.name for e in iface.outputs} == {"loop", "converged", "done"}
    for config in ({"eps_abs": 0, "max_iterations": 5},
                   {"eps_abs": 1e-3, "max_iterations": 0},
                   {"eps_abs": True, "max_iterations": 5},
                   {"max_iterations": 5}):
        with pytest.raises(ComponentConfigError):
            Converger(config).interface


def drive_converger(config, series):
    conv = Converger(config)
    outcome = []
    for i, x in enumerate(series, start=1):
        c = FiringContext("conv", i, None, None)
        outcome = conv.fire(c, {"x": Datum.of_float(x)}).emissions
        routed = dict(outcome)
        if "loop" not in routed:
            return i, routed
    raise AssertionError("series exhausted before the loop settled")


def test_converger_babylonian_iterates():
    # frozen: the heron iteration for sqrt(2) from 1.0
    series = [1.0, 1.5, 1.4166666666666665, 1.4142156862745097,
              1.4142135623746899, 1.414213562373095]
    steps, routed = drive_converger({"eps_abs": 1e-6, "max_iterations": 50}, series)
    assert steps == 6  # |x6 - x5| is the first gap within tolerance
    assert routed["done"] == Datum.boolean(True)
    assert abs(routed["converged"].value - math.sqrt(2)) < 1e-9


def test_converger_first_value_always_loops(blobs, tmp_path):
    config = {"eps_abs": 100.0, "max_iterations": 5}
    result = Converger(config).fire(
        FiringContext("c", 1, blobs, tmp_path), {"x": Datum.of_float(7.0)})
    assert dict(result.emissions) == {"loop": Datum.of_float(7.0)}


def test_converger_iteration_budget():
    # series that never settles: budget exhaustion emits done=false
    steps, routed = drive_converger({"eps_abs": 1e-9, "max_iterations": 4},
                                    [1.0, 2.0, 3.0, 4.0, 5.0])
    assert steps == 4
    assert routed["done"] == Datum.boolean(False)
    assert routed["converged"] == Datum.of_float(4.0)


# --- optimizer ---------------------------------------------------------------------


def opt_config(strategy, tol=1e-3, max_evals=200, **var):
    variable = {"name": "x", "lower": 0.0, "upper": 10.0, "initial_step": 1.0}
    variable.update(var)
    return {"strategy": strategy, "variables": [variable],
            "tol": tol, "max_evals": max_evals}


def test_optimizer_interface():
    iface = Optimizer(opt_config("grid")).interface
    assert iface.input("objective").handling == "queued"
    assert {e.name for e in iface.outputs} == {"x", "optimum"}
    assert Optimizer.starts_without_input is True


def test_optimizer_config_rejections():
    bad = [
        {**opt_config("annealing")},
        {**opt_config("grid"), "variables": []},
        {**opt_config("grid"), "variables": [{"name": "optimum", "lower": 0,
                                              "upper": 1, "initial_step": 1}]},
        {**opt_config("grid"), "tol": 0},
        {**opt_config("grid"), "max_evals": 0},
        opt_config("grid", lower=5.0, upper=5.0),
        opt_config("grid", initial_step=-1.0),
    ]
    for config in bad:
        with pytest.raises(ComponentConfigError):
            Optimizer(config).interface
    with pytest.raises(ComponentConfigError):
        Optimizer({"strategy": "grid", "tol": 1e-3, "max_evals": 5,
                             "variables": [{"name": "a", "lower": 0, "upper": 1,
                                            "initial_step": 0.5},
                                           {"name": "a", "lower": 0, "upper": 1,
                                            "initial_step": 0.5}]}).interface


def drive_search(gen, objective):
    """Run a search generator to completion, returning (points, report)."""
    points = []
    point = next(gen)
    while True:
        points.append(list(point))
        try:
            point = gen.send(objective(point))
        except StopIteration as stop:
            return points, stop.value


def test_grid_search_covers_lattice_and_finds_minimum():
    gen = _grid_search([_Variable("x", 0.0, 10.0, 1.0)], 1e-3, 200)
    points, report = drive_search(gen, lambda p: (p[0] - 3.0) ** 2)
    assert [p[0] for p in points] == [float(i) for i in range(11)]
    assert report == {"point": [3.0], "value": 0.0, "evaluations": 11}


def test_grid_search_matches_brute_force_oracle():
    # same lattice evaluated directly, minimum by linear scan
    objective = lambda p: math.sin(p[0]) + 0.1 * p[0]
    lattice = [[0.0 + 0.5 * i] for i in range(21)]
    best = min(lattice, key=lambda p: objective(p))
    gen = _grid_search([_Variable("x", 0.0, 10.0, 0.5)], 1e-3, 500)
    points, report = drive_search(gen, objective)
    assert points == lattice
    assert report["point"] == best
    assert report["value"] == objective(best)


def test_grid_search_respects_eval_budget():
    gen = _grid_search([_Variable("x", 0.0, 10.0, 1.0)], 1e-3, 4)
    points, report = drive_search(gen, lambda p: p[0])
    assert len(points) == 4
    assert report["evaluations"] == 4
    assert report["point"] == [0.0]


def test_grid_search_multi_variable_product():
    gen = _grid_search([_Variable("x", 0.0, 1.0, 1.0),
                        _Variable("y", 0.0, 2.0, 1.0)], 1e-3, 100)
    points, report = drive_search(gen, lambda p: (p[0] - 1) ** 2 + (p[1] - 2) ** 2)
    assert len(points) == 6  # 2 x values times 3 y values
    assert report["point"] == [1.0, 2.0]


def test_coordinate_descent_parabola_oracle():
    # frozen against a hand-driven run: 24 evaluations, exact minimum
    gen = _coordinate_descent([_Variable("x", 0.0, 10.0, 1.0)], 1e-3, 200)
    points, report = drive_search(gen, lambda p: (p[0] - 3.0) ** 2)
    assert report["point"] == [3.0]
    assert report["value"] == 0.0
    assert report["evaluations"] == 24
    assert len(points) == 24


def test_coordinate_descent_halves_steps_until_tol():
    # a linear slope drives the point to the boundary, then steps shrink
    gen = _coordinate_descent([_Variable("x", 0.0, 4.0, 1.0)], 0.5, 100)
    points, report = drive_search(gen, lambda p: p[0])
    assert report["point"] == [0.0]  # already optimal at the lower bound
    assert report["value"] == 0.0


def test_coordinate_descent_budget_stops_search():
    gen = _coordinate_descent([_Variable("x", 0.0, 10.0, 1.0)], 1e-9, 5)
    points, report = drive_search(gen, lambda p: (p[0] - 3.0) ** 2)
    assert report["evaluations"] == 5


def test_optimizer_behavior_loop(blobs, tmp_path):
    # drive the behavior exactly as the engine would: bootstrap firing first,
    # then one firing per objective value
    config = opt_config("coordinate_descent")
    opt = Optimizer(config)
    result = opt.fire(FiringContext("opt", 1, blobs, tmp_path), {})
    evaluations = 0
    idx = 1
    while True:
        routed = dict(result.emissions)
        if "optimum" in routed:
            break
        evaluations += 1
        x = routed["x"].value
        idx += 1
        result = opt.fire(FiringContext("opt", idx, blobs, tmp_path),
                          {"objective": Datum.of_float((x - 3.0) ** 2)})
    report = json.loads(routed["optimum"].value)
    assert report == {"evaluations": 24, "point": {"x": 3.0}, "value": 0.0}
    assert evaluations == 24


# --- catalog -------------------------------------------------------------------


def test_catalog_surface():
    catalog = BuiltinCatalog()
    assert catalog.names() == ["converger", "input-provider", "optimizer",
                               "output-writer", "script", "switch"]
    ref = ComponentRef("switch", BUILTIN_VERSION)
    assert catalog.is_builtin(ref)
    assert not catalog.is_builtin(ComponentRef("switch", "2"))
    assert not catalog.is_builtin(ComponentRef("ghost", "1"))
    assert isinstance(catalog.create(ref, {"condition": "< 10"}), Switch)
    with pytest.raises(ComponentConfigError):
        catalog.create(ComponentRef("ghost", "1"), {})
