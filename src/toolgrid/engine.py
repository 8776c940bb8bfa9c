"""The workflow controller: readiness-driven scheduling over input queues.

One engine instance owns one run. Its thread, ``run-<id>``, alone changes the
run's queues, state and records; pool workers (the firings of tools and of
``script@1``) and ``cancel`` only post messages to its inbox, so scheduling
takes no lock and never blocks on a child process. Every instance fires
through its behavior; cheap built-ins fire inline.

Firing semantics: a component is fireable when every queued input holds at
least one datum, every constant input has received a value, and no firing of
it is already in flight. Firing consumes exactly one datum per queued input;
constants are retained. Components with no queued inputs fire exactly once,
at start; loop drivers that must emit before any data exists get one
input-less bootstrap firing the same way.

A run ends COMPLETED when nothing is in flight, nothing is fireable, and all
queues are empty; leftover queued data with no possible progress is STALLED,
with diagnostics naming each starved endpoint. The first failed firing turns
the run FAILED and stops new dispatch while in-flight work drains. Any other
error on the run thread, a store failure included, ends it FAILED at once.
"""

from __future__ import annotations

import logging
import threading
import time
import uuid
from collections import deque
from concurrent.futures import Executor
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from queue import Empty, SimpleQueue
from typing import Callable, NamedTuple, Optional

from .components import Behavior, FiringContext, FiringResult
from .errors import EngineError, ToolExecutionError, ToolgridError
from .store import FiringLines, RunStore, compile_firing_lines, datum_json
from .values import Datum, FileRef, convert, scalar_datum
from .workflow import (ComponentInstance, Diagnostic, Endpoint, WorkflowGraph,
                       serialize_workflow)

RUNNING = "RUNNING"
COMPLETED = "COMPLETED"
STALLED = "STALLED"
FAILED = "FAILED"
CANCELLED = "CANCELLED"


class MsClock:
    """A run's clock: UTC milliseconds, strictly increasing per call.

    Strict monotonicity makes (started_at, instance_id) a total order over
    records that reproduces dispatch order exactly. Only one thread reads it
    at a time: ``start``, then the run thread.
    """

    def __init__(self):
        self._last = 0

    def now(self) -> int:
        t = int(time.time() * 1000)
        if t <= self._last:
            t = self._last + 1
        self._last = t
        return t


@dataclass(frozen=True)
class InstancePlan:
    """One instance, resolved: its executing node and this run's own behavior,
    a built-in or a placed tool, whose ``interface`` the engine schedules by."""

    instance: ComponentInstance
    node: str
    behavior: Behavior


class _Parcel(NamedTuple):
    """A datum in a queue, with its records.log JSON encoded once: ``text`` is
    the datum, ``upstream`` the {instance, execution_index, output} that
    produced it, or ``null`` when config-seeded."""

    datum: Datum
    text: str
    upstream: str


@dataclass
class _Slot:
    """Everything the scheduler tracks for one instance during a run."""

    plan: InstancePlan
    queues: dict[str, deque[_Parcel]]
    constants: dict[str, Optional[_Parcel]]
    lines: FiringLines
    fired: int = 0
    busy: bool = False

    @property
    def bootstrap(self) -> bool:
        """Whether the next firing is the single one that needs no queued data."""
        return self.fired == 0 and (
            not self.queues or self.plan.behavior.starts_without_input)

    def ready(self) -> bool:
        if self.busy or any(p is None for p in self.constants.values()):
            return False
        if self.bootstrap:
            return True
        # an instance without queued inputs is spent after its one firing
        return bool(self.queues) and all(self.queues.values())

    def put(self, name: str, parcel: _Parcel) -> None:
        if name in self.queues:
            self.queues[name].append(parcel)
        else:
            self.constants[name] = parcel


# a firing in flight: (slot, execution_index, consumed parcels, started_at)
_Ticket = tuple[_Slot, int, dict[str, _Parcel], int]


def new_run_id() -> str:
    return uuid.uuid4().hex[:16]


class Engine:
    def __init__(self, run_id: str, graph: WorkflowGraph, plans: list[InstancePlan],
                 store: RunStore, executor: Executor,
                 controller_node: str, work_root: Path,
                 on_event: Callable[[dict], None] | None = None):
        self.run_id = run_id
        self.graph = graph
        self.store = store
        self._executor = executor
        self._controller = controller_node
        self._work_root = Path(work_root)
        self._clock = MsClock()
        self._on_event = on_event

        self._state = RUNNING
        self._seq = 0
        self._done = threading.Event()
        # callables the run thread runs in order; only it changes the run
        self._inbox: SimpleQueue[Callable[[], None]] = SimpleQueue()
        self._deadline: Optional[float] = None  # monotonic end of a cancel's grace
        self.stall_diagnostics: list[Diagnostic] = []
        self.failure: Optional[dict] = None

        self._slots: dict[str, _Slot] = {}
        for plan in plans:
            inputs = plan.behavior.interface.inputs
            self._slots[plan.instance.instance_id] = _Slot(
                plan,
                {ep.name: deque() for ep in inputs if ep.handling == "queued"},
                {ep.name: None for ep in inputs if ep.handling == "constant"},
                compile_firing_lines(plan.instance.instance_id,
                                     str(plan.instance.component), plan.node))
        # (producer, output) -> [(consumer, input)], in connection order
        self._routes: dict[tuple[str, str], list[tuple[_Slot, Endpoint]]] = {}
        for conn in graph.connections:
            target = self._slots.get(conn.to_instance)
            if target is not None:
                self._routes.setdefault((conn.from_instance, conn.output), []).append(
                    (target, target.plan.behavior.interface.input(conn.input)))

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Open the records here, then start the run thread."""
        placement = {inst: slot.plan.node for inst, slot in self._slots.items()}
        self.store.open_run(self.run_id, serialize_workflow(self.graph),
                            workflow_name=self.graph.name,
                            controller_node=self._controller,
                            placement=placement, created_at=self._clock.now())
        threading.Thread(target=self._main, name=f"run-{self.run_id}").start()

    def _main(self) -> None:
        """The run thread: set up, seed, fire and handle messages, then close.

        An error ends the run FAILED, and is logged unless a ToolgridError.
        Errors in recording that end are dropped (a full disk fails every
        append), so run.json is still closed and nothing escapes the thread.
        """
        at = None
        try:
            self._emit("run-started", workflow=self.graph.name)
            self._seed()
            self._pump()
            while not self._over():
                # readers see the run's lines whenever this thread waits
                self.store.flush(self.run_id)
                try:
                    handle = self._inbox.get(timeout=None if self._deadline is None
                                             else max(self._deadline - time.monotonic(), 0))
                except Empty:
                    break  # the grace is over: abandon in-flight firings
                handle()
                self._pump()
            at = self._record_end()
            self.store.close_run(self.run_id, self._state, closed_at=self._clock.now())
        except Exception as exc:
            if not isinstance(exc, ToolgridError):
                logging.getLogger(__name__).exception("run %s failed", self.run_id)
                exc = ToolgridError("INTERNAL", repr(exc))
            self.failure = {"code": exc.code, "message": exc.message}
            self._state = FAILED
            with suppress(Exception):
                self._emit("run-failed", code=exc.code, message=exc.message)
                at = self._record_end()
            with suppress(Exception):
                self.store.close_run(self.run_id, FAILED, closed_at=self._clock.now())
        # watchers hear of the end once run.json says so
        self._notify(at or self._clock.now(), "run-finished", state=self._state)
        self._done.set()

    def _seed(self) -> None:
        for slot in self._slots.values():
            slot.plan.behavior.setup()
            config = slot.plan.instance.config
            for ep in slot.plan.behavior.interface.inputs:
                if ep.name in config:
                    datum = scalar_datum(config[ep.name], ep.datum_type)
                    slot.put(ep.name, _Parcel(datum, datum_json(datum), "null"))

    # -- readiness and dispatch -------------------------------------------------

    def _pump(self) -> None:
        # Iterative so long inline loops (convergers, optimizers) cannot
        # recurse; a round ends early when a completion or cancel waits.
        while self._state == RUNNING:
            progressed = False
            for slot in self._slots.values():
                if slot.ready():
                    self._begin_firing(slot)
                    progressed = True
                    if self._state != RUNNING:
                        break
            if not progressed or not self._inbox.empty():
                break

    def _begin_firing(self, slot: _Slot) -> None:
        plan = slot.plan
        inst = plan.instance.instance_id
        consumed = {} if slot.bootstrap else {
            name: queue.popleft() for name, queue in slot.queues.items()}
        consumed.update(slot.constants)
        slot.fired += 1
        slot.busy = True
        index = slot.fired
        ticket = (slot, index, consumed, self._clock.now())
        at = self._clock.now()
        # instance= is not written (the line is); it names the firing to tracers
        self.store.append_event(self.run_id, at, "firing-started",
                                line=slot.lines.started(at, index), instance=inst)
        if self._on_event is not None:
            self._notify(at, "firing-started", instance=inst, execution_index=index,
                         node=plan.node)
        inputs = {name: parcel.datum for name, parcel in consumed.items()}

        try:
            result = plan.behavior.fire(
                FiringContext(inst, index, self.store.blobs, self._work_root), inputs)
        except ToolgridError as exc:
            self._finish(ticket, error=exc)
            return
        # a thunk leaves the run thread here, the one place a firing does
        if callable(result):
            self._executor.submit(self._run_async, ticket, result)
        else:
            self._finish(ticket, result=result)

    def _run_async(self, ticket: _Ticket, call: Callable[[], FiringResult]) -> None:
        try:
            result = call()
            error = None
        except ToolgridError as exc:
            result, error = None, exc
        except Exception as exc:  # defensive: never lose a completion
            result, error = None, ToolgridError("INTERNAL", repr(exc))
        self._inbox.put(partial(self._finish, ticket, result, error))

    # -- completion, routing, termination ---------------------------------------

    def _finish(self, ticket: _Ticket, result: FiringResult | None = None,
                error: ToolgridError | None = None) -> None:
        slot, index, consumed, started_at = ticket
        inst = slot.plan.instance.instance_id
        slot.busy = False
        self._seq += 1

        # a failed tool firing's report travels on its error, without emissions
        report = result or (error.report if isinstance(error, ToolExecutionError)
                            else None) or FiringResult(exit_status=None)
        emissions = report.emissions
        emitted = [(name, datum_json(datum)) for name, datum in emissions]
        # the blobs the line names: stdout, stderr, file inputs and outputs
        refs = {ref for ref in (report.stdout_ref, report.stderr_ref) if ref}
        for datum in [p.datum for p in consumed.values()] + [d for _, d in emissions]:
            if isinstance(datum.value, FileRef):
                refs.add(datum.value.digest)
        status = "ok" if error is None else "failed"
        line = slot.lines.record(
            self._seq, index, status, report.exit_status,
            started_at, self._clock.now(),
            None if error is None else {"code": error.code, "message": error.message},
            report.stdout_ref, report.stderr_ref,
            {name: parcel.text for name, parcel in consumed.items()},
            dict(emitted), {name: parcel.upstream for name, parcel in consumed.items()})
        self.store.record_execution(self.run_id, (inst, index), refs, line)
        at = self._clock.now()
        self.store.append_event(self.run_id, at, "firing-finished",
                                line=slot.lines.finished(at, index, status))
        if self._on_event is not None:
            self._notify(at, "firing-finished", instance=inst, execution_index=index,
                         status=status)

        if error is not None:
            if self._state == RUNNING:
                self.failure = {"code": error.code, "message": error.message,
                                "instance": inst}
                self._emit("run-failed", instance=inst, code=error.code,
                           message=error.message)
                self._state = FAILED
            return
        for (output, datum), (_, text) in zip(emissions, emitted):
            source = slot.lines.upstream(index, output)
            for target, ep in self._routes.get((inst, output), ()):
                moved = convert(datum, ep.datum_type)
                target.put(ep.name, _Parcel(
                    moved, text if moved is datum else datum_json(moved), source))

    def _check_stall(self) -> str:
        """COMPLETED, or STALLED with a diagnostic per starved endpoint: an idle,
        unready instance that holds data has an empty queue or a missing constant."""
        stuck = sorted(inst for inst, slot in self._slots.items()
                       if any(slot.queues.values()))
        if not stuck:
            return COMPLETED
        for inst in stuck:
            slot = self._slots[inst]
            for ep in slot.plan.behavior.interface.inputs:
                if ep.name in slot.queues and not slot.queues[ep.name]:
                    message = (f"input {ep.name!r} of {inst!r} never received data "
                               f"while other inputs did")
                elif ep.name in slot.constants and slot.constants[ep.name] is None:
                    message = (f"constant input {ep.name!r} of {inst!r} never "
                               f"received a value")
                else:
                    continue
                self.stall_diagnostics.append(Diagnostic(
                    "error", "STARVED_INPUT", f"components.{inst}.{ep.name}", message))
                self._emit("stall", instance=inst, endpoint=ep.name)
        return STALLED

    def _over(self) -> bool:
        """Whether nothing is in flight and nothing can fire; settles the end state."""
        if any(slot.busy for slot in self._slots.values()):
            return False
        if self._state == RUNNING:
            if any(slot.ready() for slot in self._slots.values()):
                return False
            self._state = self._check_stall()
        return True

    def _record_end(self) -> int:
        """Append ``run-finished``, write the run's lines out; returns its stamp."""
        at = self._clock.now()
        self.store.append_event(self.run_id, at, "run-finished", state=self._state)
        self.store.flush(self.run_id)
        return at

    # -- public surface ----------------------------------------------------------

    def run_state(self) -> str:
        return self._state

    def wait(self, timeout: float | None = None) -> str:
        self._done.wait(timeout)
        return self._state

    def cancel(self, grace: float = 5.0) -> None:
        """Ask the run to end CANCELLED; firings in flight get ``grace`` seconds."""
        if self._done.is_set():
            raise EngineError("ALREADY_TERMINAL", f"run is already {self._state}")
        self._inbox.put(partial(self._cancel, time.monotonic() + grace))

    def _cancel(self, deadline: float) -> None:
        self._deadline = min(deadline, self._deadline or deadline)
        if self._state == RUNNING:
            self._state = CANCELLED
            self._emit("run-cancelled")

    # -- events -------------------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        """Record a run-level event and tell the watcher."""
        at = self._clock.now()
        self.store.append_event(self.run_id, at, event, **fields)
        self._notify(at, event, **fields)

    def _notify(self, at: int, event: str, **fields) -> None:
        if self._on_event is not None:
            try:
                self._on_event({"run_id": self.run_id, "at": at, "event": event, **fields})
            except Exception:
                pass  # a dead watcher must not hurt the run
