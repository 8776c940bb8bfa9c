"""Content-addressed blob storage and append-only run recording.

Layout under a store root:

    blobs/<first two hex>/<sha256 digest>   blob payloads, write-once
    runs/<run_id>/run.json                  run metadata and final state
    runs/<run_id>/records.log               JSON lines, append-only
    tmp/                                    staging for atomic writes

Every file ever produced by a tool execution lands in the blob store keyed by
its SHA-256 digest, so identical payloads are stored once. Run records
reference blobs by digest only; exports resolve and bundle them.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import uuid
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Callable, Collection, Iterator, Mapping, NamedTuple, Optional, TextIO

from .errors import DataError
from .values import Datum, DatumType

DIGEST_RE = re.compile(r"^[0-9a-f]{64}\Z")

# json.dumps(doc, sort_keys=True) without building a new encoder per call.
_encode_line = json.JSONEncoder(sort_keys=True).encode

TERMINAL_STATES = ("COMPLETED", "STALLED", "FAILED", "CANCELLED")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class BlobStore:
    """Write-once, content-addressed byte storage."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def _path(self, digest: str) -> Path:
        return self.root / "blobs" / digest[:2] / digest

    def put(self, data: bytes) -> str:
        """Store bytes, returning their digest. Re-putting is a no-op."""
        digest = sha256_hex(data)
        final = self._path(digest)
        if final.exists():
            return digest
        final.parent.mkdir(parents=True, exist_ok=True)
        staged = self.root / "tmp" / uuid.uuid4().hex
        staged.parent.mkdir(exist_ok=True)
        staged.write_bytes(data)
        os.replace(staged, final)  # atomic; concurrent writers converge
        return digest

    def has(self, digest: str) -> bool:
        return DIGEST_RE.match(digest) is not None and self._path(digest).exists()

    def get(self, digest: str) -> bytes:
        if not DIGEST_RE.match(digest or ""):
            raise DataError("BAD_DIGEST", f"not a sha256 digest: {digest!r}")
        path = self._path(digest)
        if not path.exists():
            raise DataError("NOT_FOUND", f"no blob {digest}")
        data = path.read_bytes()
        if sha256_hex(data) != digest:
            raise DataError("CORRUPT", f"blob {digest} fails digest check")
        return data

    def digests(self) -> Iterator[str]:
        blobs = self.root / "blobs"
        for shard in sorted(blobs.iterdir()) if blobs.exists() else []:
            if shard.is_dir():
                for entry in sorted(shard.iterdir()):
                    yield entry.name


class ExecutionRecord(NamedTuple):
    """One component firing: what went in, what came out, and from where.

    ``upstream`` maps each input endpoint to the producing record
    (instance_id, execution_index, output name), or null for values seeded
    by instance config. Its JSON keys are ``kind``, then these fields.
    """

    seq: int
    instance_id: str
    execution_index: int  # 1-based per instance
    component: str
    node: str
    status: str  # "ok" | "failed"
    exit_status: Optional[int]
    started_at: int
    finished_at: int
    inputs: Mapping[str, object]
    outputs: Mapping[str, object]
    stdout: Optional[str] = None
    stderr: Optional[str] = None
    error: Optional[Mapping[str, str]] = None
    upstream: Mapping[str, object] | None = None

    def to_json(self) -> dict:
        return {"kind": "execution", **self._asdict(),
                "inputs": dict(self.inputs), "outputs": dict(self.outputs),
                "error": dict(self.error) if self.error else None,
                "upstream": dict(self.upstream) if self.upstream else {}}

    @classmethod
    def from_json(cls, doc: Mapping) -> "ExecutionRecord":
        record = cls._make(map(doc.get, cls._fields))
        return record if record.upstream else record._replace(upstream={})


def _blob_refs(record: ExecutionRecord) -> set[str]:
    refs: set[str] = set()
    for bucket in (record.inputs, record.outputs):
        for value in bucket.values():
            if isinstance(value, dict) and value.get("type") == "file":
                refs.add(value["digest"])
    for stream in (record.stdout, record.stderr):
        if stream:
            refs.add(stream)
    return refs


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SCALARS = {type(None): lambda _: "null", bool: lambda v: "true" if v else "false",
            int: int.__repr__, float: float.__repr__, str: _encode_str}


def _scalar(value) -> str:
    """``_encode_line(value)``, without the encoder for scalars of an exact type."""
    text = _SCALARS.get(type(value), _encode_line)(value)
    return _FLOAT_WORDS.get(text, text)


def datum_json(datum: Datum) -> str:
    """``_encode_line(datum.to_json())``, built from the datum's type."""
    value = datum.value
    if datum.type is DatumType.FILE:
        return (f'{{"digest": {_scalar(value.digest)}, '
                f'"filename": {_scalar(value.filename)}, "type": "file"}}')
    return f'{{"type": "{datum.type.value}", "value": {_scalar(value)}}}'


class FiringLines(NamedTuple):
    """One instance's per-firing records.log lines: what varies -> JSON text."""

    started: Callable[[int, int], str]  # (at, execution_index)
    # (seq, execution_index, status, exit_status, started_at, finished_at,
    #  error, stdout, stderr, inputs, outputs, upstream)
    record: Callable[..., str]
    finished: Callable[[int, int, str], str]  # (at, execution_index, status)
    upstream: Callable[[int, str], str]  # (execution_index, output)


def compile_firing_lines(instance_id: str, component: str, node: str) -> FiringLines:
    """Encode an instance's constants once; each firing fills in the rest.

    Each function returns what ``_encode_line`` writes for the same doc, so
    ``record`` returns the line of the ExecutionRecord with these fields; no
    record is built. It takes inputs, outputs and upstream as endpoint name
    -> JSON text, and ``error`` as a {code, message} mapping or None. ``at``,
    ``execution_index``, ``seq`` and the timestamps are the engine's ints.
    """
    inst, comp, where = _encode_str(instance_id), _encode_str(component), _encode_str(node)

    def obj(texts: Mapping[str, str]) -> str:
        if len(texts) == 1:  # the common case, without the sort
            [(name, text)] = texts.items()
            return f"{{{_encode_str(name)}: {text}}}"
        return "{" + ", ".join([f"{_encode_str(k)}: {texts[k]}" for k in sorted(texts)]) + "}"

    def started(at: int, index: int) -> str:
        return (f'{{"at": {at}, "event": "firing-started", "execution_index": {index}, '
                f'"instance": {inst}, "kind": "event", "node": {where}}}')

    def record(seq: int, index: int, status: str, exit_status: Optional[int],
               started_at: int, finished_at: int, error: Optional[Mapping[str, str]],
               stdout: Optional[str], stderr: Optional[str], inputs: Mapping[str, str],
               outputs: Mapping[str, str], upstream: Mapping[str, str]) -> str:
        error = _encode_line(dict(error)) if error else "null"
        return (f'{{"component": {comp}, "error": {error}, '
                f'"execution_index": {index}, "exit_status": {_scalar(exit_status)}, '
                f'"finished_at": {finished_at}, "inputs": {obj(inputs)}, '
                f'"instance_id": {inst}, "kind": "execution", "node": {where}, '
                f'"outputs": {obj(outputs)}, "seq": {seq}, '
                f'"started_at": {started_at}, "status": {_scalar(status)}, '
                f'"stderr": {_scalar(stderr)}, "stdout": {_scalar(stdout)}, '
                f'"upstream": {obj(upstream)}}}')

    def finished(at: int, index: int, status: str) -> str:
        return (f'{{"at": {at}, "event": "firing-finished", "execution_index": {index}, '
                f'"instance": {inst}, "kind": "event", "status": {_scalar(status)}}}')

    def upstream(index: int, output: str) -> str:
        return (f'{{"execution_index": {index}, "instance": {inst}, '
                f'"output": {_encode_str(output)}}}')

    return FiringLines(started, record, finished, upstream)


class RunStore:
    """Durable per-run execution history next to the blob store."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.blobs = BlobStore(root)
        self._seen_keys: dict[str, set[tuple[str, int]]] = {}
        # records.log handles of the runs this store opened and has not closed
        self._logs: dict[str, TextIO] = {}
        self._lock = threading.Lock()

    def _run_dir(self, run_id: str) -> Path:
        if not re.match(r"^[A-Za-z0-9_-]+\Z", run_id or ""):
            raise DataError("BAD_RUN_ID", f"bad run id {run_id!r}")
        return self.root / "runs" / run_id

    def _meta_path(self, run_id: str) -> Path:
        return self._run_dir(run_id) / "run.json"

    def _read_meta(self, run_id: str) -> dict:
        path = self._meta_path(run_id)
        if not path.exists():
            raise DataError("NOT_FOUND", f"no run {run_id!r}")
        return json.loads(path.read_text())

    def _write_meta(self, run_id: str, meta: dict) -> None:
        staged = self.root / "tmp" / uuid.uuid4().hex
        staged.parent.mkdir(parents=True, exist_ok=True)
        staged.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        os.replace(staged, self._meta_path(run_id))

    def open_run(self, run_id: str, workflow_text: str, *,
                 workflow_name: str = "", controller_node: str = "",
                 placement: Mapping[str, str] | None = None,
                 created_at: int = 0) -> None:
        run_dir = self._run_dir(run_id)
        if run_dir.exists():
            raise DataError("DUPLICATE_KEY", f"run {run_id!r} already exists")
        run_dir.mkdir(parents=True)
        (run_dir / "workflow.json").write_text(workflow_text)
        # line-buffered, so other readers see each line once it is written
        log = open(run_dir / "records.log", "a", buffering=1)
        self._write_meta(run_id, {
            "run_id": run_id,
            "workflow_name": workflow_name,
            "controller_node": controller_node,
            "state": "RUNNING",
            "created_at": created_at,
            "closed_at": None,
            "placement": dict(placement or {}),
        })
        with self._lock:
            self._seen_keys[run_id] = set()
            self._logs[run_id] = log

    def run_state(self, run_id: str) -> str:
        return self._read_meta(run_id)["state"]

    def run_meta(self, run_id: str) -> dict:
        return self._read_meta(run_id)

    def workflow_text(self, run_id: str) -> str:
        path = self._run_dir(run_id) / "workflow.json"
        if not path.exists():
            raise DataError("NOT_FOUND", f"no run {run_id!r}")
        return path.read_text()

    def _check_open(self, run_id: str) -> None:
        if run_id not in self._logs and self.run_state(run_id) in TERMINAL_STATES:
            raise DataError("RUN_CLOSED", f"run {run_id!r} is closed")

    def _append_line(self, run_id: str, line: str) -> None:
        line += "\n"
        if run_id in self._logs:
            self._logs[run_id].write(line)
            return
        with open(self._run_dir(run_id) / "records.log", "a") as fh:
            fh.write(line)

    def _keys(self, run_id: str) -> set[tuple[str, int]]:
        if run_id not in self._seen_keys:
            self._seen_keys[run_id] = {
                (doc["instance_id"], doc["execution_index"])
                for doc in self._docs(run_id, "execution")}
        return self._seen_keys[run_id]

    def record_execution(self, run_id: str, key: tuple[str, int],
                         refs: Collection[str], line: str) -> None:
        """Append one execution record as its JSON text ``line``.

        ``key`` is the record's (instance_id, execution_index) and ``refs``
        the blob digests it names; the store checks both, not the line.
        """
        with self._lock:
            self._check_open(run_id)
            keys = self._keys(run_id)
            if key in keys:
                raise DataError("DUPLICATE_KEY",
                                f"record for {key} already exists in run {run_id!r}")
            dangling = refs and sorted(d for d in refs if not self.blobs.has(d))
            if dangling:
                raise DataError("DANGLING_REF",
                                f"record references unstored blobs: {', '.join(dangling)}")
            self._append_line(run_id, line)
            keys.add(key)

    def append_event(self, run_id: str, at: int, event: str, *,
                     line: str | None = None, **fields) -> None:
        """Append an event; ``line``, when given, is its JSON text, pre-encoded."""
        if line is None:
            line = _encode_line({"kind": "event", "at": at, "event": event, **fields})
        with self._lock:
            self._check_open(run_id)
            self._append_line(run_id, line)

    def _docs(self, run_id: str, kind: str) -> Iterator[dict]:
        """Parse each line of a run's records.log in turn; yield the ``kind`` ones."""
        try:
            log = open(self._run_dir(run_id) / "records.log", "rb")
        except FileNotFoundError:
            raise DataError("NOT_FOUND", f"no run {run_id!r}") from None
        with log:
            for number, line in enumerate(log, start=1):
                # Every append ends in a newline, so a last line without one
                # is a torn append from a crash and never committed.
                if not line.endswith(b"\n"):
                    return
                if line.isspace():
                    continue
                try:
                    doc = json.loads(line)
                except ValueError as exc:  # undecodable bytes or malformed JSON
                    raise DataError("CORRUPT", f"records.log of run {run_id!r}, "
                                               f"line {number}: {exc}") from exc
                if doc.get("kind") == kind:
                    yield doc

    def query_run(self, run_id: str, *,
                  instance_id: str | None = None) -> list[ExecutionRecord]:
        """Execution records ordered by (started_at, instance_id, seq)."""
        records = [ExecutionRecord.from_json(doc)
                   for doc in self._docs(run_id, "execution")
                   if instance_id is None or doc["instance_id"] == instance_id]
        records.sort(key=lambda r: (r.started_at, r.instance_id, r.seq))
        return records

    def events(self, run_id: str) -> list[dict]:
        return list(self._docs(run_id, "event"))

    def close_run(self, run_id: str, state: str, *, closed_at: int = 0) -> None:
        if state not in TERMINAL_STATES:
            raise DataError("BAD_STATE", f"{state!r} is not a terminal state")
        with self._lock:
            meta = self._read_meta(run_id)
            if meta["state"] in TERMINAL_STATES:
                raise DataError("RUN_CLOSED", f"run {run_id!r} is closed")
            meta["state"] = state
            meta["closed_at"] = closed_at
            self._write_meta(run_id, meta)
            # nothing more is appended, so duplicate checks are over
            self._seen_keys.pop(run_id, None)
            if run_id in self._logs:
                self._logs.pop(run_id).close()

    def close(self) -> None:
        """Close every held records.log; open runs stay readable and appendable."""
        with self._lock:
            while self._logs:
                self._logs.popitem()[1].close()

    def list_runs(self) -> list[dict]:
        runs_dir = self.root / "runs"
        out = []
        for entry in sorted(runs_dir.iterdir()) if runs_dir.exists() else []:
            if (entry / "run.json").exists():
                meta = json.loads((entry / "run.json").read_text())
                out.append({"run_id": meta["run_id"], "state": meta["state"],
                            "created_at": meta.get("created_at")})
        return out

    def referenced_blobs(self, run_id: str) -> set[str]:
        refs: set[str] = set()
        for record in self.query_run(run_id):
            refs |= _blob_refs(record)
        return refs

    def export_run(self, run_id: str, dest: Path) -> dict:
        """Copy a finished run plus every referenced blob into ``dest``.

        The manifest lists files sorted by path so two exports of the same
        run are byte-identical.
        """
        meta = self._read_meta(run_id)
        if meta["state"] not in TERMINAL_STATES:
            raise DataError("RUN_NOT_TERMINAL",
                            f"run {run_id!r} is still {meta['state']}")
        referenced = self.referenced_blobs(run_id)
        missing = sorted(d for d in referenced if not self.blobs.has(d))
        if missing:
            raise DataError("DANGLING_REF",
                            f"run {run_id!r} references missing blobs: {', '.join(missing)}")
        dest = Path(dest)
        if dest.exists() and (not dest.is_dir() or any(dest.iterdir())):
            raise DataError("DEST_NOT_EMPTY", f"{dest} is not an empty directory")
        (dest / "blobs").mkdir(parents=True, exist_ok=True)
        run_dir = self._run_dir(run_id)
        files: list[dict] = []
        for name in ("run.json", "workflow.json", "records.log"):
            data = (run_dir / name).read_bytes()
            (dest / name).write_bytes(data)
            files.append({"path": name, "sha256": sha256_hex(data)})
        for digest in sorted(referenced):
            data = self.blobs.get(digest)
            shard = dest / "blobs" / digest[:2]
            shard.mkdir(parents=True, exist_ok=True)
            (shard / digest).write_bytes(data)
            files.append({"path": f"blobs/{digest[:2]}/{digest}", "sha256": digest})
        files.sort(key=lambda f: f["path"])
        manifest = {"run_id": run_id, "state": meta["state"], "files": files}
        (dest / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return manifest
