"""Out-of-program tracing: spans around the public calls of each toolgrid layer.

The program carries no tracing of its own. ``Tracer.enable`` replaces the
layer functions listed in ``_targets`` with timing wrappers and
``Tracer.disable`` puts the originals back, so untraced runs execute the
unmodified code. Functions are wrapped where the calling module binds them
(``toolgrid.node.execute_tool``, not ``toolgrid.tools.execute_tool``),
because that is the name the program looks up at call time.

A span is (id, name, start, end, parent, run, attrs). All spans of one
workflow run share the run number the benchmark loop sets in ``Tracer.run``.
The parent is the enclosing span on the same thread, or the run's root span
for work that starts on another thread (pool workers, socket readers, the
relay). Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

from toolgrid import components, node, store, uplink, wire

ROOT = "engine.run"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.run: int | None = None  # run number that new spans belong to
        self.roots: dict[int, tuple[float, float]] = {}  # run -> (start, end)
        self._root_id: int | None = None  # root span of the current run
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- run bracketing -----------------------------------------------------------

    def begin_run(self, run: int) -> float:
        self.run = run
        self._root_id = next(self._ids)
        return time.perf_counter()

    def end_run(self, run: int, t0: float, t1: float) -> None:
        self.roots[run] = (t0, t1)
        self.spans.append((self._root_id, ROOT, t0, t1, None, run, None))

    # -- wrapping -----------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, note=None):
        """Time ``fn`` as span ``name``; ``note(args, kwargs, result)`` adds
        attrs."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            run = tracer.run
            if run is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else tracer._root_id
            stack.append(span_id)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                attrs = note(args, kwargs, result) if note is not None else None
                tracer.spans.append((span_id, name, t0, t1, parent, run, attrs))

        return wrapper

    def _targets(self):
        """(owner, attribute, span name, note) for every traced call."""

        def route(args, _kwargs, _result):
            # Node.execute(self, node_id, ...) / remote_execute(self, publisher, ...)
            self_node, target, component = args[0], args[1], args[2]
            if target == self_node.node_id:
                route = "local"
            elif self_node.session_for(target) is not None:
                route = "lan"
            else:
                route = "relay"
            return {"route": route, "target": target, "component": component}

        def encoded(_args, _kwargs, result):
            return {"bytes": len(result)} if result is not None else None

        def executed(args, _kwargs, result):
            # execute_tool(descriptor, inputs, workdir_root, blobs)
            return {"work_root": str(args[2]), "descriptor": args[0],
                    "inputs": args[1],
                    "workdir": result.workdir if result is not None else None}

        def event(args, kwargs, _result):
            # append_event(self, run_id, at, event, **fields)
            if args[3] == "firing-started":
                return {"instance": kwargs.get("instance")}
            return None

        return [
            (node, "parse_workflow", "workflow.parse", None),
            (node, "validate_graph", "workflow.validate", None),
            (node, "plan_placement", "workflow.place", None),
            (node.Engine, "start", "engine.start", None),
            (components.Optimizer, "fire", "components.fire", None),
            (components.Switch, "fire", "components.fire", None),
            (store.RunStore, "append_event", "store.append", event),
            (store.RunStore, "record_execution", "store.append", None),
            (store.RunStore, "query_run", "store.query", None),
            (store.RunStore, "export_run", "store.export", None),
            (store.BlobStore, "get", "store.blob_get", None),
            (node, "execute_tool", "tools.execute", executed),
            (node.Node, "execute", "node.execute", route),
            (node.Node, "remote_execute", "node.remote_execute", route),
            (node.Node, "remote_components", "node.registry_listing", None),
            (node, "encode_frame", "wire.encode", encoded),
            (uplink, "encode_frame", "wire.encode", encoded),
            (wire, "_parse_payload", "wire.decode", None),
            (node, "decrypt_payload_json", "groups.decrypt", None),
            (node, "membership_proof", "groups.proof", None),
            (node, "verify_proof", "groups.verify", None),
            (uplink._RelaySession, "send", "uplink.relay_send", None),
        ]

    def _blob_put(self, fn):
        """BlobStore.put, noting whether the digest was already stored.

        The digest is computed before the span starts, so the check adds to
        tracing overhead but not to the span.
        """
        timed = self._wrap("store.blob_put", fn, lambda args, _kw, _r: {
            "bytes": len(args[1]),
            "dedup": getattr(self._local, "dedup", False)})

        @functools.wraps(fn)
        def wrapper(blobs, data):
            if self.run is not None:
                digest = hashlib.sha256(data).hexdigest()
                self._local.dedup = blobs._path(digest).exists()
            return timed(blobs, data)

        return wrapper

    def enable(self) -> None:
        if self._saved:
            return
        for owner, attr, name, note in self._targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, note))
        original = store.BlobStore.put
        self._saved.append((store.BlobStore, "put", original))
        store.BlobStore.put = self._blob_put(original)

    def disable(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output -------------------------------------------------------------------

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, run, _attrs in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "run": run},
                                    separators=(",", ":")) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, firings: dict[int, int],
                  work_roots: dict[str, str], components_of: dict[str, str],
                  spawn_floor_s: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer figures over the traced runs, as {name: (value, unit)}.

    ``firings`` maps each traced run to its completed firings,
    ``work_roots`` maps a node's tool working root to its node id, and
    ``components_of`` maps instance ids to component names.
    """
    runs = sorted(firings)
    n_runs = max(1, len(runs))
    n_firings = max(1, sum(firings[r] for r in runs))
    by_name: dict[str, list[tuple]] = defaultdict(list)
    by_run: dict[int, list[tuple]] = defaultdict(list)
    for span in tracer.spans:
        if span[5] in firings and span[1] != ROOT:
            by_name[span[1]].append(span)
            by_run[span[5]].append(span)

    def durations(*names):
        return [s[3] - s[2] for name in names for s in by_name[name]]

    def per_run(count):
        return count / n_runs

    # engine self time and uncovered share, from each run's root span
    engine_self = 0.0
    uncovered = []
    for run in runs:
        t0, t1 = tracer.roots[run]
        spans = by_run[run]
        others = [(s[2], s[3]) for s in spans if s[1] != "engine.start"]
        every = [(s[2], s[3]) for s in spans]
        engine_self += (t1 - t0) - _covered(others, t0, t1)
        uncovered.append(1.0 - _covered(every, t0, t1) / (t1 - t0))

    # queue wait: the engine recording a firing-started event -> that
    # firing entering Node.execute, matched per run and component (each
    # component fires once per run in the workloads that dispatch tools)
    started = {}
    for s in by_name["store.append"]:
        if s[6] is not None:
            started.setdefault((s[5], components_of.get(s[6]["instance"])), s[3])
    waits = [s[2] - started[(s[5], s[6]["component"])]
             for s in by_name["node.execute"] if (s[5], s[6]["component"]) in started]

    def remote_overhead(route):
        values = []
        for s in by_name["node.remote_execute"]:
            if s[6]["route"] != route:
                continue
            host = s[6]["target"]
            hosted = sum(t[3] - t[2] for t in by_name["tools.execute"]
                         if work_roots.get(t[6]["work_root"]) == host
                         and s[2] <= t[2] and t[3] <= s[3])
            values.append((s[3] - s[2]) - hosted)
        return values

    puts = by_name["store.blob_put"]
    new_puts = [s for s in puts if not s[6]["dedup"]]
    relay_ids = {s[0] for s in by_name["uplink.relay_send"]}
    relay_encodes = [s for s in by_name["wire.encode"] if s[4] in relay_ids]
    execute_ms = _mean(durations("tools.execute")) * 1e3
    floor_ms = _mean(spawn_floor_s) * 1e3
    lan = _mean(remote_overhead("lan")) * 1e3
    relay = _mean(remote_overhead("relay")) * 1e3

    def routed(route):
        return _mean(s[3] - s[2] for s in by_name["node.execute"]
                     if s[6]["route"] == route) * 1e3

    crypto = durations("groups.decrypt", "groups.proof", "groups.verify")
    return {
        "workflow.prepare_us": (
            per_run(sum(durations("workflow.parse", "workflow.validate",
                                  "workflow.place"))) * 1e6, "us/run"),
        "engine.self_us_per_firing": (engine_self / n_firings * 1e6, "us"),
        "engine.queue_wait_ms": (_mean(waits) * 1e3, "ms"),
        "components.fire_us": (_mean(durations("components.fire")) * 1e6, "us"),
        "store.append_us": (_mean(durations("store.append")) * 1e6, "us"),
        "store.appends_per_firing": (len(by_name["store.append"]) / n_firings,
                                     "1/firing"),
        "store.query_ms": (_mean(durations("store.query")) * 1e3, "ms"),
        "store.export_ms": (_mean(durations("store.export")) * 1e3, "ms"),
        "store.blob_put_us": (_mean(durations("store.blob_put")) * 1e6, "us"),
        "store.blob_get_us": (_mean(durations("store.blob_get")) * 1e6, "us"),
        "store.blob_bytes_written": (
            per_run(sum(s[6]["bytes"] for s in new_puts)), "B/run"),
        "store.blob_put_dedup_ratio": (
            (len(puts) - len(new_puts)) / len(puts) if puts else 0.0, "ratio"),
        "tools.execute_ms": (execute_ms, "ms"),
        "tools.spawn_floor_ms": (floor_ms, "ms"),
        "tools.overhead_ms": (execute_ms - floor_ms if spawn_floor_s else 0.0,
                              "ms"),
        "node.execute_ms.local": (routed("local"), "ms"),
        "node.execute_ms.lan": (routed("lan"), "ms"),
        "node.execute_ms.relay": (routed("relay"), "ms"),
        "node.remote_overhead_ms.lan": (lan, "ms"),
        "node.remote_overhead_ms.relay": (relay, "ms"),
        "node.registry_listing_us": (
            _mean(durations("node.registry_listing")) * 1e6, "us"),
        "node.registry_listings_per_run": (
            per_run(len(by_name["node.registry_listing"])), "1/run"),
        "wire.frames_sent": (per_run(len(by_name["wire.encode"])), "1/run"),
        "wire.bytes_sent": (
            per_run(sum(s[6]["bytes"] for s in by_name["wire.encode"]
                        if s[6])), "B/run"),
        "wire.encode_us": (_mean(durations("wire.encode")) * 1e6, "us"),
        "wire.decode_us": (_mean(durations("wire.decode")) * 1e6, "us"),
        "groups.decrypts_per_run": (per_run(len(by_name["groups.decrypt"])),
                                    "1/run"),
        "groups.crypto_us": (_mean(crypto) * 1e6, "us"),
        "uplink.relay_frames": (per_run(len(relay_encodes)), "1/run"),
        "uplink.relay_bytes": (
            per_run(sum(s[6]["bytes"] for s in relay_encodes if s[6])), "B/run"),
        "uplink.hop_ms": (relay - lan if by_name["node.remote_execute"] else 0.0,
                          "ms"),
        "trace.uncovered_share": (_mean(uncovered), "ratio"),
    }
