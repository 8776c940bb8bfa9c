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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Optional

from .errors import DataError
from .values import Datum, DatumType, datum_from_json

DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")

TERMINAL_STATES = ("COMPLETED", "STALLED", "FAILED", "CANCELLED")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class BlobStore:
    """Write-once, content-addressed byte storage."""

    def __init__(self, root: Path):
        self.root = Path(root)
        (self.root / "blobs").mkdir(parents=True, exist_ok=True)
        (self.root / "tmp").mkdir(parents=True, exist_ok=True)

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


@dataclass(frozen=True)
class ExecutionRecord:
    """One component firing: what went in, what came out, and from where.

    ``upstream`` maps each input endpoint to the producing record
    (instance_id, execution_index, output name), or null for values seeded
    by instance config.
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
        return {
            "kind": "execution",
            "seq": self.seq,
            "instance_id": self.instance_id,
            "execution_index": self.execution_index,
            "component": self.component,
            "node": self.node,
            "status": self.status,
            "exit_status": self.exit_status,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "inputs": dict(self.inputs),
            "outputs": dict(self.outputs),
            "stdout": self.stdout,
            "stderr": self.stderr,
            "error": dict(self.error) if self.error else None,
            "upstream": dict(self.upstream) if self.upstream else {},
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "ExecutionRecord":
        return cls(
            seq=doc["seq"], instance_id=doc["instance_id"],
            execution_index=doc["execution_index"], component=doc["component"],
            node=doc["node"], status=doc["status"], exit_status=doc.get("exit_status"),
            started_at=doc["started_at"], finished_at=doc["finished_at"],
            inputs=doc["inputs"], outputs=doc["outputs"],
            stdout=doc.get("stdout"), stderr=doc.get("stderr"), error=doc.get("error"),
            upstream=doc.get("upstream") or {})

    def input_data(self) -> dict[str, Datum]:
        return {k: datum_from_json(v) for k, v in self.inputs.items()}

    def output_data(self) -> dict[str, Datum]:
        return {k: datum_from_json(v) for k, v in self.outputs.items()}


def _blob_refs(record: ExecutionRecord) -> set[str]:
    refs: set[str] = set()
    for bucket in (record.inputs, record.outputs):
        for value in bucket.values():
            if isinstance(value, dict) and value.get("type") == DatumType.FILE.value:
                refs.add(value["digest"])
    for stream in (record.stdout, record.stderr):
        if stream:
            refs.add(stream)
    return refs


class RunStore:
    """Durable per-run execution history next to the blob store."""

    def __init__(self, root: Path):
        self.root = Path(root)
        (self.root / "runs").mkdir(parents=True, exist_ok=True)
        self.blobs = BlobStore(root)
        self._seen_keys: dict[str, set[tuple[str, int]]] = {}
        self._lock = threading.Lock()

    def _run_dir(self, run_id: str) -> Path:
        if not re.match(r"^[A-Za-z0-9_-]+$", run_id or ""):
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
        (run_dir / "records.log").touch()
        self._write_meta(run_id, {
            "run_id": run_id,
            "workflow_name": workflow_name,
            "controller_node": controller_node,
            "state": "RUNNING",
            "created_at": created_at,
            "closed_at": None,
            "placement": dict(placement or {}),
        })
        self._seen_keys[run_id] = set()

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
        if self.run_state(run_id) in TERMINAL_STATES:
            raise DataError("RUN_CLOSED", f"run {run_id!r} is closed")

    def _append_line(self, run_id: str, doc: dict) -> None:
        line = json.dumps(doc, sort_keys=True)
        with open(self._run_dir(run_id) / "records.log", "a") as fh:
            fh.write(line + "\n")

    def _keys(self, run_id: str) -> set[tuple[str, int]]:
        if run_id not in self._seen_keys:
            self._seen_keys[run_id] = {
                (r.instance_id, r.execution_index) for r in self.query_run(run_id)}
        return self._seen_keys[run_id]

    def record_execution(self, run_id: str, record: ExecutionRecord) -> None:
        with self._lock:
            self._check_open(run_id)
            key = (record.instance_id, record.execution_index)
            if key in self._keys(run_id):
                raise DataError("DUPLICATE_KEY",
                                f"record for {key} already exists in run {run_id!r}")
            dangling = sorted(d for d in _blob_refs(record) if not self.blobs.has(d))
            if dangling:
                raise DataError("DANGLING_REF",
                                f"record references unstored blobs: {', '.join(dangling)}")
            self._append_line(run_id, record.to_json())
            self._keys(run_id).add(key)

    def append_event(self, run_id: str, at: int, event: str, **fields) -> None:
        doc = {"kind": "event", "at": at, "event": event}
        doc.update(fields)
        with self._lock:
            self._check_open(run_id)
            self._append_line(run_id, doc)

    def _read_lines(self, run_id: str) -> list[dict]:
        path = self._run_dir(run_id) / "records.log"
        if not path.exists():
            raise DataError("NOT_FOUND", f"no run {run_id!r}")
        # Every append ends in a newline, so text after the last one is a torn
        # append from a crash and never committed.
        lines = path.read_text().split("\n")[:-1]
        out = []
        for number, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise DataError("CORRUPT", f"records.log of run {run_id!r}, "
                                               f"line {number}: {exc}") from exc
        return out

    def query_run(self, run_id: str, *,
                  instance_id: str | None = None) -> list[ExecutionRecord]:
        """Execution records ordered by (started_at, instance_id, seq)."""
        records = [ExecutionRecord.from_json(doc) for doc in self._read_lines(run_id)
                   if doc.get("kind") == "execution"]
        if instance_id is not None:
            records = [r for r in records if r.instance_id == instance_id]
        records.sort(key=lambda r: (r.started_at, r.instance_id, r.seq))
        return records

    def events(self, run_id: str) -> list[dict]:
        return [doc for doc in self._read_lines(run_id) if doc.get("kind") == "event"]

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

    def missing_blobs(self, run_id: str) -> list[str]:
        return sorted(d for d in self.referenced_blobs(run_id) if not self.blobs.has(d))

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
        if dest.exists() and any(dest.iterdir()):
            raise DataError("DEST_NOT_EMPTY", f"{dest} is not empty")
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
