import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from toolgrid.errors import DataError
from toolgrid.store import (BlobStore, ExecutionRecord, RunStore, _blob_refs, _encode_line,
                            compile_firing_lines, datum_json, sha256_hex)
from toolgrid.values import INT64_MAX, INT64_MIN, Datum, datum_from_json

WORKFLOW_TEXT = '{"name": "demo", "components": [], "connections": []}'


def record(seq=0, inst="a", idx=1, *, started=1000, status="ok",
           inputs=None, outputs=None, stdout=None, stderr=None,
           error=None, upstream=None):
    return ExecutionRecord(
        seq=seq, instance_id=inst, execution_index=idx, component="tool@1",
        node="n1", status=status, exit_status=0 if status == "ok" else 1,
        started_at=started, finished_at=started + 5,
        inputs=inputs or {}, outputs=outputs or {},
        stdout=stdout, stderr=stderr, error=error, upstream=upstream)


def execution(rec):
    """``rec`` as RunStore.record_execution takes it: key, blob refs and line."""
    return ((rec.instance_id, rec.execution_index), _blob_refs(rec),
            _encode_line(rec.to_json()))


def test_sha256_hex_empty_vector():
    assert sha256_hex(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    assert sha256_hex(b"abc") == hashlib.sha256(b"abc").hexdigest()


def test_blob_put_get_roundtrip(tmp_path):
    blobs = BlobStore(tmp_path)
    digest = blobs.put(b"hello")
    assert digest == sha256_hex(b"hello")
    assert blobs.get(digest) == b"hello"
    assert blobs.has(digest)
    # sharded by the first digest byte
    assert (tmp_path / "blobs" / digest[:2] / digest).is_file()
    # idempotent
    assert blobs.put(b"hello") == digest


def test_blob_invalid_digests(tmp_path):
    blobs = BlobStore(tmp_path)
    assert not blobs.has("nope")
    assert not blobs.has("A" * 64)
    with pytest.raises(DataError) as err:
        blobs.get("short")
    assert err.value.code == "BAD_DIGEST"
    with pytest.raises(DataError) as err:
        blobs.get("0" * 64)
    assert err.value.code == "NOT_FOUND"


def test_blob_detects_corruption(tmp_path):
    blobs = BlobStore(tmp_path)
    digest = blobs.put(b"payload")
    (tmp_path / "blobs" / digest[:2] / digest).write_bytes(b"tampered")
    with pytest.raises(DataError) as err:
        blobs.get(digest)
    assert err.value.code == "CORRUPT"


def test_blob_digest_listing(tmp_path):
    blobs = BlobStore(tmp_path)
    digests = {blobs.put(bytes([i])) for i in range(5)}
    assert set(blobs.digests()) == digests


def test_execution_record_roundtrip():
    rec = record(
        seq=3, inst="sim", idx=2,
        inputs={"x": Datum.of_float(1.5).to_json()},
        outputs={"y": Datum.file("b" * 64, "out.dat").to_json()},
        stdout="c" * 64, stderr="d" * 64,
        upstream={"x": {"instance_id": "src", "execution_index": 1, "output": "x"}})
    back = ExecutionRecord.from_json(rec.to_json())
    assert back == rec
    assert datum_from_json(back.inputs["x"]) == Datum.of_float(1.5)
    assert datum_from_json(back.outputs["y"]).value.filename == "out.dat"


def test_failed_record_roundtrip():
    rec = record(status="failed",
                 error={"code": "TOOL_FAILED", "message": "exit 9", "stage": "main"})
    back = ExecutionRecord.from_json(rec.to_json())
    assert back.error == {"code": "TOOL_FAILED", "message": "exit 9", "stage": "main"}


@pytest.fixture
def store(tmp_path):
    store = RunStore(tmp_path / "store")
    yield store
    store.close()


def test_open_run_layout(store):
    store.open_run("r1", WORKFLOW_TEXT, workflow_name="demo",
                   controller_node="n1", created_at=123)
    meta = store.run_meta("r1")
    assert meta["state"] == "RUNNING"
    assert meta["workflow_name"] == "demo"
    assert meta["controller_node"] == "n1"
    assert meta["created_at"] == 123
    assert meta["closed_at"] is None
    assert store.workflow_text("r1") == WORKFLOW_TEXT
    assert store.query_run("r1") == []


def test_open_run_rejects_duplicates_and_bad_ids(store):
    store.open_run("r1", WORKFLOW_TEXT)
    with pytest.raises(DataError) as err:
        store.open_run("r1", WORKFLOW_TEXT)
    assert err.value.code == "DUPLICATE_KEY"
    with pytest.raises(DataError) as err:
        store.open_run("../escape", WORKFLOW_TEXT)
    assert err.value.code == "BAD_RUN_ID"


def test_records_ordered_by_start_time(store):
    store.open_run("r1", WORKFLOW_TEXT)
    store.record_execution("r1", *execution(record(seq=0, inst="b", idx=1, started=2000)))
    store.record_execution("r1", *execution(record(seq=1, inst="a", idx=1, started=1000)))
    store.record_execution("r1", *execution(record(seq=2, inst="a", idx=2, started=2000)))
    ordered = [(r.instance_id, r.execution_index) for r in store.query_run("r1")]
    assert ordered == [("a", 1), ("a", 2), ("b", 1)]
    assert [r.instance_id for r in store.query_run("r1", instance_id="a")] == ["a", "a"]


def test_duplicate_instance_index_rejected(store):
    store.open_run("r1", WORKFLOW_TEXT)
    store.record_execution("r1", *execution(record(seq=0, inst="a", idx=1)))
    with pytest.raises(DataError) as err:
        store.record_execution("r1", *execution(record(seq=1, inst="a", idx=1)))
    assert err.value.code == "DUPLICATE_KEY"


def test_duplicate_detected_across_reopen(tmp_path):
    first = RunStore(tmp_path / "store")
    first.open_run("r1", WORKFLOW_TEXT)
    first.record_execution("r1", *execution(record(seq=0, inst="a", idx=1)))
    # a fresh handle over the same directory still sees the key
    second = RunStore(tmp_path / "store")
    with pytest.raises(DataError):
        second.record_execution("r1", *execution(record(seq=1, inst="a", idx=1)))
    assert len(second.query_run("r1")) == 1


def test_records_may_only_reference_stored_blobs(store):
    store.open_run("r1", WORKFLOW_TEXT)
    rec = record(outputs={"f": Datum.file("9" * 64, "x.bin").to_json()})
    with pytest.raises(DataError) as err:
        store.record_execution("r1", *execution(rec))
    assert err.value.code == "DANGLING_REF"

    digest = store.blobs.put(b"real")
    ok = record(outputs={"f": Datum.file(digest, "x.bin").to_json()})
    store.record_execution("r1", *execution(ok))
    assert store.referenced_blobs("r1") == {digest}
    assert store.blobs.has(digest)


def test_events_interleave_with_records(store):
    store.open_run("r1", WORKFLOW_TEXT)
    store.append_event("r1", 10, "run-started")
    store.record_execution("r1", *execution(record()))
    store.append_event("r1", 20, "run-finished", state="COMPLETED")
    events = store.events("r1")
    assert [e["event"] for e in events] == ["run-started", "run-finished"]
    assert events[1]["state"] == "COMPLETED"
    assert len(store.query_run("r1")) == 1


def test_close_run_transitions(store):
    store.open_run("r1", WORKFLOW_TEXT)
    with pytest.raises(DataError) as err:
        store.close_run("r1", "DONE")
    assert err.value.code == "BAD_STATE"
    store.close_run("r1", "COMPLETED", closed_at=99)
    assert store.run_state("r1") == "COMPLETED"
    assert store.run_meta("r1")["closed_at"] == 99
    with pytest.raises(DataError) as err:
        store.close_run("r1", "FAILED")
    assert err.value.code == "RUN_CLOSED"
    # a closed run accepts no more records or events
    with pytest.raises(DataError):
        store.record_execution("r1", *execution(record(seq=9, inst="z", idx=1)))
    with pytest.raises(DataError):
        store.append_event("r1", 30, "late")


def test_closing_a_run_frees_its_key_set(tmp_path, monkeypatch):
    store = RunStore(tmp_path)
    store.open_run("r1", WORKFLOW_TEXT)
    store.record_execution("r1", *execution(record(seq=0)))
    store.close_run("r1", "COMPLETED")
    assert "r1" not in store._seen_keys

    def rescan(*args, **kwargs):
        raise AssertionError("a closed run's keys were rebuilt")

    monkeypatch.setattr(store, "query_run", rescan)
    with pytest.raises(DataError) as err:
        store.record_execution("r1", *execution(record(seq=1, inst="late")))
    assert err.value.code == "RUN_CLOSED"
    assert "r1" not in store._seen_keys


def test_list_runs(store):
    assert store.list_runs() == []
    store.open_run("r1", WORKFLOW_TEXT, created_at=1)
    store.open_run("r2", WORKFLOW_TEXT, created_at=2)
    store.close_run("r2", "FAILED")
    listed = {entry["run_id"]: entry["state"] for entry in store.list_runs()}
    assert listed == {"r1": "RUNNING", "r2": "FAILED"}


def test_unknown_run_errors(store):
    for call in (lambda: store.run_state("ghost"),
                 lambda: store.query_run("ghost"),
                 lambda: store.workflow_text("ghost")):
        with pytest.raises(DataError) as err:
            call()
        assert err.value.code == "NOT_FOUND"


def test_export_requires_terminal_state(store, tmp_path):
    store.open_run("r1", WORKFLOW_TEXT)
    with pytest.raises(DataError) as err:
        store.export_run("r1", tmp_path / "out")
    assert err.value.code == "RUN_NOT_TERMINAL"


def test_export_copies_everything(store, tmp_path):
    store.open_run("r1", WORKFLOW_TEXT)
    digest = store.blobs.put(b"artifact bytes")
    store.record_execution("r1", *execution(record(
        outputs={"f": Datum.file(digest, "a.bin").to_json()})))
    store.close_run("r1", "COMPLETED")

    dest = tmp_path / "export"
    manifest = store.export_run("r1", dest)
    assert manifest["run_id"] == "r1"
    assert manifest["state"] == "COMPLETED"
    paths = [f["path"] for f in manifest["files"]]
    assert paths == sorted(paths)
    assert f"blobs/{digest[:2]}/{digest}" in paths
    assert {"records.log", "run.json", "workflow.json"} <= set(paths)
    assert (dest / "blobs" / digest[:2] / digest).read_bytes() == b"artifact bytes"
    for entry in manifest["files"]:
        assert sha256_hex((dest / entry["path"]).read_bytes()) == entry["sha256"]
    on_disk = json.loads((dest / "manifest.json").read_text())
    assert on_disk == manifest

    # exporting again elsewhere yields byte-identical content
    second = store.export_run("r1", tmp_path / "export2")
    assert second == manifest
    assert ((tmp_path / "export2" / "manifest.json").read_bytes()
            == (dest / "manifest.json").read_bytes())

    with pytest.raises(DataError) as err:
        store.export_run("r1", dest)
    assert err.value.code == "DEST_NOT_EMPTY"


def test_export_reads_the_records_once(store, tmp_path, monkeypatch):
    store.open_run("r1", WORKFLOW_TEXT)
    digest = store.blobs.put(b"artifact bytes")
    store.record_execution("r1", *execution(record(
        outputs={"f": Datum.file(digest, "a.bin").to_json()})))
    store.close_run("r1", "COMPLETED")
    calls = []
    query_run = store.query_run

    def counting(*args, **kwargs):
        calls.append(args)
        return query_run(*args, **kwargs)

    monkeypatch.setattr(store, "query_run", counting)
    manifest = store.export_run("r1", tmp_path / "export")
    assert calls == [("r1",)]
    assert f"blobs/{digest[:2]}/{digest}" in [f["path"] for f in manifest["files"]]


def test_torn_last_line_is_ignored(store, tmp_path):
    # a crash during an append leaves an unterminated last line behind
    store.open_run("r1", WORKFLOW_TEXT)
    store.append_event("r1", 10, "run-started")
    store.record_execution("r1", *execution(record()))
    store.close_run("r1", "FAILED")
    log = tmp_path / "store" / "runs" / "r1" / "records.log"
    with open(log, "a") as fh:
        fh.write('{"kind": "event", "at": 30, "ev')
    torn = log.read_bytes()
    assert [e["event"] for e in store.events("r1")] == ["run-started"]
    assert len(store.query_run("r1")) == 1
    store.export_run("r1", tmp_path / "export")
    assert (tmp_path / "export" / "records.log").read_bytes() == torn


def test_undecodable_inner_line_is_corrupt(store, tmp_path):
    store.open_run("r1", WORKFLOW_TEXT)
    store.append_event("r1", 10, "run-started")
    log = tmp_path / "store" / "runs" / "r1" / "records.log"
    with open(log, "a") as fh:
        fh.write("{not json\n")
    store.append_event("r1", 20, "run-finished", state="COMPLETED")
    for call in (lambda: store.events("r1"), lambda: store.query_run("r1")):
        with pytest.raises(DataError) as err:
            call()
        assert err.value.code == "CORRUPT"
        assert "line 2" in err.value.message


@pytest.mark.parametrize("bad_line", [
    b"\xff\xfe\n",
    b'{"at": 15, "event": "caf\xe9", "kind": "event"}\n',
    b'{"component": "tool@1", "inputs": {"t": "\xc3("}}\n',
    # torn appends that a later append turned into inner lines
    b'{"at": 30, "event": "fir\n',
    b'{"component": "tool@1", "inputs": {\n',
])
def test_a_bad_inner_line_is_corrupt_to_every_reader(store, tmp_path, bad_line):
    store.open_run("r1", WORKFLOW_TEXT)
    store.append_event("r1", 10, "run-started")
    log = tmp_path / "store" / "runs" / "r1" / "records.log"
    with open(log, "ab") as fh:
        fh.write(bad_line)
    store.record_execution("r1", *execution(record()))
    store.close_run("r1", "COMPLETED")
    for call in (lambda: store.events("r1"), lambda: store.query_run("r1"),
                 lambda: store.query_run("r1", instance_id="absent"),
                 lambda: store.export_run("r1", tmp_path / "export")):
        with pytest.raises(DataError) as err:
            call()
        assert err.value.code == "CORRUPT"
        assert "line 2" in err.value.message
    assert not (tmp_path / "export").exists()


def test_export_refuses_a_dest_that_is_a_file(store, tmp_path):
    store.open_run("r1", WORKFLOW_TEXT)
    store.record_execution("r1", *execution(record()))
    store.close_run("r1", "COMPLETED")
    dest = tmp_path / "export"
    dest.write_bytes(b"keep me")
    with pytest.raises(DataError) as err:
        store.export_run("r1", dest)
    assert err.value.code == "DEST_NOT_EMPTY"
    assert dest.read_bytes() == b"keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["export", "store"]


def _firing_log(store, firings):
    """A closed run shaped like an optimizer loop: three lines per firing."""
    store.open_run("r1", WORKFLOW_TEXT)
    for idx in range(1, firings + 1):
        inst = "opt" if idx % 2 else "gate"
        store.append_event("r1", 3 * idx, "firing-started", instance=inst,
                           execution_index=idx, node="n1")
        store.record_execution("r1", *execution(record(
            seq=idx, inst=inst, idx=idx, started=3 * idx,
            inputs={"value": Datum.of_float(idx / 7).to_json()},
            outputs={"x": Datum.of_float(idx / 3).to_json()},
            upstream={"value": {"instance": "opt", "execution_index": idx,
                                "output": "x"}})))
        store.append_event("r1", 3 * idx + 2, "firing-finished", instance=inst,
                           execution_index=idx, status="ok")
    store.close_run("r1", "COMPLETED")
    return (store.root / "runs" / "r1" / "records.log").stat().st_size


def test_reading_a_run_back_holds_one_line_at_a_time(store):
    size = _firing_log(store, 1000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert store.query_run("r1", instance_id="absent") == []
        assert tracemalloc.get_traced_memory()[1] - base < 0.1 * size
        for read, lines in ((store.query_run, 1000), (store.events, 2000)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = read("r1")
            held, peak = tracemalloc.get_traced_memory()
            assert len(result) == lines
            assert peak - base <= 1.1 * (held - base)
            del result
    finally:
        tracemalloc.stop()


_text = st.text(max_size=8)
_float = st.floats() | st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf])
_scalar = st.none() | st.booleans() | st.integers() | _float | _text
_datum = st.fixed_dictionaries({"type": _text, "value": _scalar})
_records = st.builds(
    ExecutionRecord, seq=st.integers(), instance_id=_text,
    execution_index=st.integers(1), component=_text, node=_text,
    status=st.sampled_from(["ok", "failed"]), exit_status=st.none() | st.integers(),
    started_at=st.integers(), finished_at=st.integers(),
    inputs=st.dictionaries(_text, _datum), outputs=st.dictionaries(_text, _datum),
    stdout=st.none() | _text, stderr=st.none() | _text,
    error=st.none() | st.fixed_dictionaries({"code": _text, "message": _text}),
    upstream=st.dictionaries(_text, st.none() | st.fixed_dictionaries(
        {"instance": _text, "execution_index": st.integers(1), "output": _text})))
_events = st.builds(
    lambda at, event, fields: {"kind": "event", "at": at, "event": event, **fields},
    st.integers(), _text,
    st.dictionaries(_text.filter(lambda key: key != "kind"),
                     _scalar | st.dictionaries(_text, _scalar)))


@given(_records.map(ExecutionRecord.to_json) | _events)
def test_the_line_encoder_matches_json_dumps(doc):
    assert _encode_line(doc) == json.dumps(doc, sort_keys=True)


# -- lines compiled per instance ---------------------------------------------------

# text that JSON must escape, plus what a template's own syntax uses
_awkward = st.text(st.sampled_from('%{}"\\\x00\x1f\x7f\n\u00e9\u2028\U0001f600')
                   | st.characters(), max_size=8)
_datums = st.one_of(
    st.builds(Datum.of_float, st.floats()
              | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])),
    st.builds(Datum.integer, st.integers(INT64_MIN, INT64_MAX)
              | st.sampled_from([INT64_MIN, INT64_MAX])),
    st.builds(Datum.boolean, st.booleans()),
    st.builds(Datum.text, _awkward),
    st.builds(Datum.file, st.text("0123456789abcdef", min_size=64, max_size=64),
              _awkward.filter(lambda f: f and "/" not in f and f not in (".", ".."))))
_origins = st.none() | st.tuples(_awkward, st.integers(1, INT64_MAX), _awkward)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_datums)
@example(Datum.of_float(math.nan))
@example(Datum.of_float(math.inf))
@example(Datum.of_float(-math.inf))
@example(Datum.of_float(-0.0))
@example(Datum.of_float(1e300))
@example(Datum.integer(INT64_MIN))
@example(Datum.integer(INT64_MAX))
@example(Datum.text('%s{"}\\\x00\u00e9'))
def test_a_datum_is_encoded_as_the_generic_encoder_does(datum):
    assert datum_json(datum) == json.dumps(datum.to_json(), sort_keys=True)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(inst=_awkward, component=_awkward, node=_awkward,
       at=st.integers(0, 2 ** 62), index=st.integers(1, INT64_MAX), seq=st.integers(1),
       inputs=st.dictionaries(_awkward, st.tuples(_datums, _origins), max_size=3),
       outputs=st.dictionaries(_awkward, _datums, max_size=3),
       failed=st.booleans(), exit_status=st.none() | st.integers(-255, 255),
       stdout=st.none() | _awkward, stderr=st.none() | _awkward,
       error=st.fixed_dictionaries({"code": _awkward, "message": _awkward}))
def test_compiled_lines_match_the_generic_encoder(inst, component, node, at, index, seq,
                                                  inputs, outputs, failed, exit_status,
                                                  stdout, stderr, error):
    lines = compile_firing_lines(inst, component, node)
    status = "failed" if failed else "ok"
    upstream, upstream_texts = {}, {}
    for name, (_, origin) in inputs.items():
        if origin is None:
            upstream[name], upstream_texts[name] = None, "null"
        else:
            producer, produced, output = origin
            upstream[name] = {"instance": producer, "execution_index": produced,
                              "output": output}
            upstream_texts[name] = compile_firing_lines(producer, "p@1", "n").upstream(
                produced, output)
    rec = ExecutionRecord(
        seq=seq, instance_id=inst, execution_index=index, component=component,
        node=node, status=status, exit_status=exit_status, started_at=at,
        finished_at=at + 2, inputs={n: d.to_json() for n, (d, _) in inputs.items()},
        outputs={} if failed else {n: d.to_json() for n, d in outputs.items()},
        stdout=stdout, stderr=stderr, error=error if failed else None,
        upstream=upstream)
    line = lines.record(seq, index, status, exit_status, at, at + 2,
                        error if failed else None, stdout, stderr,
                        {n: datum_json(d) for n, (d, _) in inputs.items()},
                        {} if failed else {n: datum_json(d) for n, d in outputs.items()},
                        upstream_texts)
    assert line == json.dumps(rec.to_json(), sort_keys=True)
    started = {"kind": "event", "at": at, "event": "firing-started", "instance": inst,
               "execution_index": index, "node": node}
    assert lines.started(at, index) == json.dumps(started, sort_keys=True)
    finished = {"kind": "event", "at": at + 3, "event": "firing-finished",
                "instance": inst, "execution_index": index, "status": status}
    assert lines.finished(at + 3, index, status) == json.dumps(finished, sort_keys=True)


def test_a_compiled_line_passes_every_check_and_is_written_as_given(store):
    store.open_run("r1", WORKFLOW_TEXT)
    lines = compile_firing_lines("a", "tool@1", "n1")
    rec = record(seq=1)
    store.append_event("r1", 999, "firing-started", line=lines.started(999, 1),
                       instance="a", execution_index=1, node="n1")
    line = lines.record(1, 1, "ok", 0, 1000, 1005, None, None, None, {}, {}, {})
    store.record_execution("r1", ("a", 1), set(), line)
    with pytest.raises(DataError) as err:
        store.record_execution("r1", ("a", 1), set(), line)
    assert err.value.code == "DUPLICATE_KEY"
    with pytest.raises(DataError) as err:
        store.record_execution("r1", ("a", 2), {"9" * 64}, "{}")
    assert err.value.code == "DANGLING_REF"
    store.close_run("r1", "COMPLETED")
    for append in (lambda: store.append_event("r1", 1000, "late", line="{}"),
                   lambda: store.record_execution("r1", ("a", 3), set(), "{}")):
        with pytest.raises(DataError) as err:
            append()
        assert err.value.code == "RUN_CLOSED"
    log = (store.root / "runs" / "r1" / "records.log").read_text()
    assert log == (lines.started(999, 1) + "\n"
                   + json.dumps(rec.to_json(), sort_keys=True) + "\n")


# -- the held append handle ---------------------------------------------------------


def test_a_second_store_sees_each_line_as_it_is_appended(tmp_path):
    writer = RunStore(tmp_path / "store")
    reader = RunStore(tmp_path / "store")
    writer.open_run("r1", WORKFLOW_TEXT)
    writer.append_event("r1", 10, "run-started")
    assert [e["event"] for e in reader.events("r1")] == ["run-started"]
    for idx in range(1, 4):
        writer.record_execution("r1", *execution(record(seq=idx, idx=idx)))
        assert len(reader.query_run("r1")) == idx
        writer.append_event("r1", 10 + idx, f"tick-{idx}")
        assert len(reader.events("r1")) == idx + 1
    writer.close_run("r1", "COMPLETED")
    assert reader.run_state("r1") == "COMPLETED"


def test_appends_to_an_open_run_read_no_run_json(store, monkeypatch):
    store.open_run("r1", WORKFLOW_TEXT)

    def unread(*args, **kwargs):
        raise AssertionError("an append re-read run.json")

    monkeypatch.setattr(store, "_read_meta", unread)
    store.append_event("r1", 10, "run-started")
    store.record_execution("r1", *execution(record()))
    store.append_event("r1", 20, "run-finished", state="COMPLETED")
    monkeypatch.undo()
    assert [e["event"] for e in store.events("r1")] == ["run-started", "run-finished"]
    assert len(store.query_run("r1")) == 1


def test_close_run_closes_and_drops_the_handle(store):
    store.open_run("r1", WORKFLOW_TEXT)
    store.append_event("r1", 10, "run-started")
    log = store._logs["r1"]
    store.close_run("r1", "COMPLETED")
    assert log.closed
    assert "r1" not in store._logs
    with pytest.raises(DataError) as err:
        store.append_event("r1", 30, "late")
    assert err.value.code == "RUN_CLOSED"
    with pytest.raises(DataError) as err:
        store.record_execution("r1", *execution(record(seq=1, inst="late")))
    assert err.value.code == "RUN_CLOSED"
    assert [e["event"] for e in store.events("r1")] == ["run-started"]


def test_closing_the_store_keeps_open_runs_readable(store):
    store.open_run("r1", WORKFLOW_TEXT)
    store.append_event("r1", 10, "run-started")
    log = store._logs["r1"]
    store.close()
    assert log.closed and store._logs == {}
    assert store.run_state("r1") == "RUNNING"
    assert [e["event"] for e in store.events("r1")] == ["run-started"]
    # appends still work, reopening the file each time
    store.record_execution("r1", *execution(record()))
    store.close_run("r1", "COMPLETED")
    assert len(store.query_run("r1")) == 1


def test_node_stop_closes_the_handles_of_open_runs(make_node):
    node = make_node("holder")
    node.store.open_run("r1", WORKFLOW_TEXT)
    node.store.append_event("r1", 10, "run-started")
    log = node.store._logs["r1"]
    node.stop()
    assert log.closed
    reader = RunStore(node.config.store_dir)
    assert reader.run_state("r1") == "RUNNING"
    assert [e["event"] for e in reader.events("r1")] == ["run-started"]


def test_the_readme_lists_the_execution_record_keys_in_field_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    item = re.search(r"the execution record: `\{(.*?)\}`", readme, re.S)[1]
    keys = [part.split(":")[0].strip().strip('"') for part in item.split(",")]
    assert keys == ["kind", *ExecutionRecord._fields]
