import hashlib
import json

import pytest

from toolgrid.errors import DataError
from toolgrid.store import BlobStore, ExecutionRecord, RunStore, sha256_hex
from toolgrid.values import Datum

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
    assert back.input_data()["x"] == Datum.of_float(1.5)
    assert back.output_data()["y"].value.filename == "out.dat"


def test_failed_record_roundtrip():
    rec = record(status="failed",
                 error={"code": "TOOL_FAILED", "message": "exit 9", "stage": "main"})
    back = ExecutionRecord.from_json(rec.to_json())
    assert back.error == {"code": "TOOL_FAILED", "message": "exit 9", "stage": "main"}


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store")


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
    store.record_execution("r1", record(seq=0, inst="b", idx=1, started=2000))
    store.record_execution("r1", record(seq=1, inst="a", idx=1, started=1000))
    store.record_execution("r1", record(seq=2, inst="a", idx=2, started=2000))
    ordered = [(r.instance_id, r.execution_index) for r in store.query_run("r1")]
    assert ordered == [("a", 1), ("a", 2), ("b", 1)]
    assert [r.instance_id for r in store.query_run("r1", instance_id="a")] == ["a", "a"]


def test_duplicate_instance_index_rejected(store):
    store.open_run("r1", WORKFLOW_TEXT)
    store.record_execution("r1", record(seq=0, inst="a", idx=1))
    with pytest.raises(DataError) as err:
        store.record_execution("r1", record(seq=1, inst="a", idx=1))
    assert err.value.code == "DUPLICATE_KEY"


def test_duplicate_detected_across_reopen(tmp_path):
    first = RunStore(tmp_path / "store")
    first.open_run("r1", WORKFLOW_TEXT)
    first.record_execution("r1", record(seq=0, inst="a", idx=1))
    # a fresh handle over the same directory still sees the key
    second = RunStore(tmp_path / "store")
    with pytest.raises(DataError):
        second.record_execution("r1", record(seq=1, inst="a", idx=1))
    assert len(second.query_run("r1")) == 1


def test_records_may_only_reference_stored_blobs(store):
    store.open_run("r1", WORKFLOW_TEXT)
    rec = record(outputs={"f": Datum.file("9" * 64, "x.bin").to_json()})
    with pytest.raises(DataError) as err:
        store.record_execution("r1", rec)
    assert err.value.code == "DANGLING_REF"

    digest = store.blobs.put(b"real")
    ok = record(outputs={"f": Datum.file(digest, "x.bin").to_json()})
    store.record_execution("r1", ok)
    assert store.referenced_blobs("r1") == {digest}
    assert store.missing_blobs("r1") == []


def test_events_interleave_with_records(store):
    store.open_run("r1", WORKFLOW_TEXT)
    store.append_event("r1", 10, "run-started")
    store.record_execution("r1", record())
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
        store.record_execution("r1", record(seq=9, inst="z", idx=1))
    with pytest.raises(DataError):
        store.append_event("r1", 30, "late")


def test_closing_a_run_frees_its_key_set(tmp_path, monkeypatch):
    store = RunStore(tmp_path)
    store.open_run("r1", WORKFLOW_TEXT)
    store.record_execution("r1", record(seq=0))
    store.close_run("r1", "COMPLETED")
    assert "r1" not in store._seen_keys

    def rescan(*args, **kwargs):
        raise AssertionError("a closed run's keys were rebuilt")

    monkeypatch.setattr(store, "query_run", rescan)
    with pytest.raises(DataError) as err:
        store.record_execution("r1", record(seq=1, inst="late"))
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
    store.record_execution("r1", record(
        outputs={"f": Datum.file(digest, "a.bin").to_json()}))
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
    store.record_execution("r1", record(
        outputs={"f": Datum.file(digest, "a.bin").to_json()}))
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
    store.record_execution("r1", record())
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
