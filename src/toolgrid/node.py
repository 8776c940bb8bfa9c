"""A running instance: peer sessions, announcements, and remote execution.

One Node owns the local stores, the installed tool descriptors, the group
keys, and every open connection. It acts as all three protocol roles at
once: publisher (announces tools, serves EXEC_REQUEST), consumer (lists
remote components, calls remote_execute), and workflow controller (accepts
RUN_SUBMIT, drives the engine, answers DATA_QUERY). The controller-only
message types never cross a relay; see uplink.py for that restriction.

Announcement registry entries are keyed (publisher, group, slot). For PUBLIC
publications the slot is the component name; for group publications it is an
HMAC of the name under the group's mac key, so non-members can store and
supersede entries without learning what is being offered.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import logging
import socket
import threading
import time
import uuid
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from queue import Empty, SimpleQueue
from typing import Callable, Mapping, Optional, Sequence

from . import wire
from .components import (Behavior, BuiltinCatalog, FireReturn, FiringContext,
                         FiringResult)
from .config import (NodeConfig, PROTOCOL_VERSION, Publication, node_identity,
                     parse_address)
from .engine import Engine, InstancePlan, new_run_id
from .errors import (ConfigError, CryptoError, DescriptorError, NetworkError,
                     EngineError, ToolExecutionError, ToolgridError)
from .groups import (PUBLIC, GroupKey, announcement_slot, decrypt_announcement,
                     decrypt_payload_json, encrypt_announcement,
                     encrypt_payload_json, load_group_keys, membership_proof,
                     new_challenge, save_group_key, verify_proof)
from .store import RunStore
from .tools import (ToolDescriptor, descriptor_to_json, execute_tool,
                    parse_descriptor)
from .values import Datum, DatumType, datum_from_json, misfit
from .wire import Frame, FrameReader, chunk_frames, encode_frame
from .workflow import (IDENT_RE, VERSION_RE, ComponentInstance,
                       ComponentInterface, ComponentRef, Diagnostic,
                       WorkflowGraph, interface_from_json, interface_to_json,
                       parse_workflow, plan_placement, validate_graph)

log = logging.getLogger("toolgrid.node")

HANDSHAKE_TIMEOUT = 10.0
# caps how long a peer can hold a hosting worker before its tool starts
REQUEST_TIMEOUT = 60.0
PING_TIMEOUT = 5.0
ZERO_MAC_KEY = b"\x00" * 32  # lets non-members answer a challenge, unprovably

# TCP keepalive: probe after this much silence, then every interval, and reset
# the connection after this many unanswered probes (about 30 s in all)
KEEPALIVE_IDLE = 15
KEEPALIVE_INTERVAL = 5
KEEPALIVE_COUNT = 3
# unacknowledged data gets as long as keepalive takes to give up
USER_TIMEOUT_MS = (KEEPALIVE_IDLE + KEEPALIVE_INTERVAL * KEEPALIVE_COUNT) * 1000


def keepalive(sock: socket.socket) -> socket.socket:
    """Let the kernel notice a peer that vanished without closing, also with
    bytes in flight (TCP_USER_TIMEOUT), and send each frame without waiting
    for the peer's delayed ACK (TCP_NODELAY).

    A request has no deadline of its own, so a dead host must end the
    connection; the reader then closes the channel and wakes its waiters.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for option, value in (("TCP_KEEPIDLE", KEEPALIVE_IDLE),
                          ("TCP_KEEPINTVL", KEEPALIVE_INTERVAL),
                          ("TCP_KEEPCNT", KEEPALIVE_COUNT),
                          ("TCP_USER_TIMEOUT", USER_TIMEOUT_MS)):
        if hasattr(socket, option):
            sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, option), value)
    return sock


def dial(address: tuple[str, int]) -> socket.socket:
    """Connect within HANDSHAKE_TIMEOUT; the caller clears the timeout."""
    try:
        sock = socket.create_connection(address, timeout=HANDSHAKE_TIMEOUT)
    except OSError as exc:
        raise NetworkError("CONNECT_FAILED",
                           f"cannot reach {address[0]}:{address[1]}: {exc}") from exc
    return keepalive(sock)


def serve_tcp(host: str, port: int, on_accept: Callable[[socket.socket], None],
              name: str) -> socket.socket:
    """Listen on (host, port); run ``on_accept`` on its own thread per connection.

    Returns the listener; ``close_listener`` ends the accept thread.
    """
    try:
        listener = socket.create_server((host, port))
    except OSError as exc:
        raise NetworkError("BIND_FAILED",
                           f"cannot listen on {host}:{port}: {exc}") from exc

    def accept_loop() -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                return
            threading.Thread(target=on_accept, args=(keepalive(sock),),
                             daemon=True, name=f"{name}-conn").start()

    threading.Thread(target=accept_loop, daemon=True, name=name).start()
    return listener


def close_listener(listener: socket.socket) -> None:
    """Stop listening at once: shutdown wakes accept(), close alone does not."""
    try:
        listener.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    listener.close()


class FramedSocket:
    """One framed connection: a locked send path, one reader loop, one close."""

    def __init__(self, sock: Optional[socket.socket] = None):
        self._sock = sock
        self._wlock = threading.Lock()

    def send(self, frame: Frame) -> bool:
        """Write one frame; a failed send closes the connection."""
        sock = self._sock
        if sock is None:
            return False
        try:
            data = encode_frame(frame)
            with self._wlock:
                sock.sendall(data)
            return True
        except (OSError, ToolgridError):
            self.close()
            return False

    def send_chunks(self, frame_type: int, header: dict, data: bytes) -> None:
        """Send ``data`` as ``frame_type`` chunks (see wire.chunk_frames)."""
        for frame in chunk_frames(frame_type, header, data):
            if not self.send(frame):
                return

    def refuse(self, code: str, message: str) -> NetworkError:
        """Answer with ERROR ``code`` and close; returns the error to raise."""
        self.send(Frame(wire.ERROR, {"code": code, "message": message}))
        self.close()
        return NetworkError(code, message)

    def hello(self, greeting: Optional[dict] = None) -> tuple[dict, FrameReader]:
        """Send ``greeting`` as HELLO, if given, then read the peer's HELLO.

        Both happen within HANDSHAKE_TIMEOUT. Returns the peer's HELLO body
        and the reader for the frames after it. An ERROR reply raises its
        code. A missing or malformed HELLO is BAD_HANDSHAKE and another
        protocol version VERSION_MISMATCH; both are answered with an ERROR of
        that code. A stream that cannot be read is closed without an answer.
        """
        sock = self._sock
        sock.settimeout(HANDSHAKE_TIMEOUT)
        if greeting is not None:
            self.send(Frame(wire.HELLO,
                            dict(greeting, protocol_version=PROTOCOL_VERSION)))
        reader = FrameReader(sock.recv)
        try:
            frame = reader.next_frame()
        except (ToolgridError, OSError) as exc:
            self.close()
            raise NetworkError("BAD_HANDSHAKE", f"handshake failed: {exc}") from exc
        body = frame.body if frame is not None and frame.body else {}
        if frame is not None and frame.type == wire.ERROR:
            self.close()
            code = str(body.get("code", "BAD_HANDSHAKE"))
            raise NetworkError(code, f"peer refused the session: {code}")
        if frame is None or frame.type != wire.HELLO or not body:
            raise self.refuse("BAD_HANDSHAKE", "expected HELLO first")
        if body.get("protocol_version") != PROTOCOL_VERSION:
            raise self.refuse("VERSION_MISMATCH",
                              f"speaking protocol {PROTOCOL_VERSION}")
        sock.settimeout(None)
        return body, reader

    def pump(self, reader: FrameReader, on_frame: Callable[[Frame], None]) -> None:
        """Hand every frame to ``on_frame`` until the connection ends, then close."""
        try:
            while (frame := reader.next_frame()) is not None:
                on_frame(frame)
        except (ToolgridError, OSError):
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Shut the socket down and close it; closing twice is harmless."""
        sock, self._sock = self._sock, None
        if sock is None:
            return
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()


def canonical_digest(body: Mapping) -> bytes:
    """SHA-256 over the canonical JSON encoding of a frame body.

    encode_frame uses the same sorted compact encoding, so any hop that
    decodes and re-encodes a body leaves this digest unchanged.
    """
    data = json.dumps(body, separators=(",", ":"), sort_keys=True).encode()
    return hashlib.sha256(data).digest()


# -- announcement registry ---------------------------------------------------------


@dataclass(frozen=True)
class RemoteComponent:
    """One remotely published component this node can see and call."""

    ref: ComponentRef  # name carries an "<origin>::" prefix for relay tools
    publisher: str  # NodeId of the hosting instance
    group: str  # key_id, or PUBLIC
    interface: ComponentInterface
    doc_digest: str
    origin: Optional[str] = None  # relay client_id, None for LAN peers


@dataclass
class _RegistryEntry:
    sequence: int
    payload: Optional[dict]  # None is a retraction tombstone
    origin: Optional[str]
    channel: Optional["Channel"]  # the connection it arrived on


class Registry:
    """Everything peers have announced, newest sequence wins per key.

    The decoded listing is kept until an entry changes or the caller's set of
    key ids does (a key id is a hash of its secret, so the ids name the keys).
    """

    def __init__(self):
        self._entries: dict[tuple[str, str, str], _RegistryEntry] = {}
        self._listed: Optional[tuple[frozenset, list[RemoteComponent]]] = None
        self._lock = threading.Lock()

    def apply(self, body: Mapping, *, tombstone: bool,
              origin: Optional[str] = None,
              channel: Optional["Channel"] = None) -> bool:
        """Keep a shaped ANNOUNCE, or a RETRACT as a tombstone, if it is newer."""
        key = (body["publisher"], body["group"], body["slot"])
        sequence = body["sequence"]
        payload = None if tombstone else body["payload"]
        with self._lock:
            current = self._entries.get(key)
            if current is not None and current.sequence >= sequence:
                return False
            self._entries[key] = _RegistryEntry(sequence, payload, origin, channel)
            self._listed = None
            return True

    def forget(self, channel: "Channel") -> None:
        """Drop every entry that arrived on ``channel``."""
        with self._lock:
            self._entries = {k: e for k, e in self._entries.items()
                             if e.channel is not channel}
            self._listed = None

    def listing(self, keys: Mapping[str, GroupKey]) -> list[RemoteComponent]:
        """Decode every entry a holder of ``keys`` is allowed to read."""
        keys = dict(keys)
        held = frozenset(keys)
        # decoding under the lock keeps a concurrent apply from being cached over
        with self._lock:
            if self._listed is None or self._listed[0] != held:
                self._listed = (held, self._decode(keys))
            return list(self._listed[1])

    def _decode(self, keys: Mapping[str, GroupKey]) -> list[RemoteComponent]:
        out: list[RemoteComponent] = []
        for (publisher, group, slot), entry in self._entries.items():
            plain = entry.payload
            if plain is None:
                continue
            if group != PUBLIC:
                try:
                    key = keys[group]
                    raw = base64.b64decode(plain.get("ciphertext", ""))
                    plain = decrypt_payload_json(raw, key.material.enc_key)
                except (KeyError, CryptoError, TypeError, ValueError):
                    continue
            # only the relay's stamp may put "::" in a ref: _route follows it
            if misfit(wire.OFFER, plain) or not IDENT_RE.match(plain["name"]) \
                    or not VERSION_RE.match(plain["version"]):
                continue
            name, version = plain["name"], plain["version"]
            # the slot must match the name or the entry was transplanted
            if group != PUBLIC and announcement_slot(key.material.mac_key, name) != slot:
                continue
            try:
                interface = interface_from_json(plain)
            except DescriptorError:
                continue
            if entry.origin:
                name = f"{entry.origin}::{name}"
            out.append(RemoteComponent(ComponentRef(name, version), publisher,
                                       group, interface,
                                       plain.get("doc_digest") or "", entry.origin))
        out.sort(key=lambda rc: (str(rc.ref), rc.publisher, rc.group))
        return out


# -- channels -----------------------------------------------------------------------


class Channel(FramedSocket):
    """Request plumbing shared by LAN sessions and the relay uplink.

    Request-scoped frames (anything carrying a request_id) get routed to a
    queue owned by whichever side is waiting on that request. Closing the
    channel puts None into every pending queue, so no waiter outlives the
    connection, and nothing else ends a request. Subclasses say which
    requests they serve and whose announcements they admit; Node._on_frame
    does the rest.
    """

    SERVES: frozenset = frozenset()  # inbound request types handed to workers

    def __init__(self, node: "Node", sock: Optional[socket.socket] = None):
        super().__init__(sock)
        self._node = node
        self._plock = threading.Lock()
        self._pending: dict[str, SimpleQueue] = {}

    def on_frame(self, frame: Frame) -> None:
        self._node._on_frame(self, frame)

    def request_queue(self, request_id: str) -> SimpleQueue:
        with self._plock:
            queue = self._pending.get(request_id)
            if queue is None:
                queue = self._pending[request_id] = SimpleQueue()
                if self._sock is None:
                    queue.put(None)  # already closed: nothing will arrive
            return queue

    def push(self, request_id: str, frame: Frame) -> bool:
        with self._plock:
            queue = self._pending.get(request_id)
        if queue is None:
            return False
        queue.put(frame)
        return True

    def drop_queue(self, request_id: str) -> None:
        with self._plock:
            self._pending.pop(request_id, None)

    def request(self, frame_type: int, body: Mapping,
                deadline: Optional[float] = None) -> Frame:
        """Send a request that has one reply and wait for it (see _reply); a
        reply of another type than _REPLIES names (PONG for PING) is TRANSPORT."""
        request_id = uuid.uuid4().hex
        queue = self.request_queue(request_id)
        try:
            # a failed send closes the channel, which wakes the queue
            self.send(Frame(frame_type, dict(body, request_id=request_id)))
            frame = _reply(queue, deadline)
        finally:
            self.drop_queue(request_id)
        expected = _REPLIES.get(frame_type, wire.PONG)
        if frame.type != expected:
            raise NetworkError("TRANSPORT", f"no {wire.type_name(expected)} reply")
        return frame

    def admit(self, body: Mapping, *, tombstone: bool) -> None:
        """Apply an ANNOUNCE or RETRACT if this channel may carry it."""
        raise NotImplementedError

    def close(self) -> None:
        """Shut the socket and wake every pending request with None."""
        with self._plock:
            super().close()
            queues = list(self._pending.values())
        for queue in queues:
            queue.put(None)


class PeerSession(Channel):
    """One framed LAN connection; symmetric after the HELLO exchange."""

    SERVES = frozenset({wire.EXEC_REQUEST, wire.DOC_REQUEST,
                        wire.RUN_SUBMIT, wire.DATA_QUERY})

    def __init__(self, node: "Node", sock: socket.socket):
        super().__init__(node, sock)
        self._reader: Optional[FrameReader] = None
        self.peer_node_id = ""
        self.peer_display_name = ""

    def handshake(self) -> None:
        """Both ends send HELLO first, then read the other's."""
        body, self._reader = self.hello({"node_id": self._node.node_id,
                                         "display_name": self._node.display_name})
        node_id = body.get("node_id")
        if not isinstance(node_id, str) or not node_id:
            raise self.refuse("BAD_HANDSHAKE", "hello carries no node_id")
        self.peer_node_id = node_id
        self.peer_display_name = str(body.get("display_name", ""))

    def start_reader(self) -> None:
        threading.Thread(target=self.pump, args=(self._reader, self.on_frame),
                         daemon=True, name=f"peer-{self.peer_node_id[:8]}").start()

    def admit(self, body: Mapping, *, tombstone: bool) -> None:
        # a LAN peer speaks only for itself
        if body.get("publisher") != self.peer_node_id:
            log.warning("peer %s announced under a foreign id, dropping",
                        self.peer_node_id[:8])
            return
        self._node.registry.apply(body, tombstone=tombstone, channel=self)

    def close(self) -> None:
        super().close()
        self._node._session_closed(self)


def _reply(queue: SimpleQueue, deadline: Optional[float] = None) -> Frame:
    """The next frame of a request, waiting as long as the channel is open.

    Raises NetworkError(TRANSPORT) once the channel closes or the optional
    monotonic ``deadline`` passes, and the frame's own code for an ERROR
    (such as the relay's ROUTE_UNAVAILABLE).
    """
    try:
        frame = queue.get(timeout=None if deadline is None
                          else max(deadline - time.monotonic(), 0))
    except Empty:
        raise NetworkError("TRANSPORT", "timed out waiting for the peer") from None
    if frame is None:
        raise NetworkError("TRANSPORT", "connection closed mid-request")
    if frame.type == wire.ERROR:
        raise _peer_error(frame.body, "routing failed")
    return frame


def _peer_error(error: Optional[Mapping], fallback: str) -> NetworkError:
    """The error that a peer's ``error`` document names, or TRANSPORT for a
    reply that names none."""
    if not error:
        return NetworkError("TRANSPORT", fallback)
    return NetworkError(error["code"], error["message"])


class _Reassembler:
    """Joins chunk frames: BLOB_CHUNK by digest, LOG_CHUNK by stream.

    Only digests in ``want`` are buffered, or any digest when ``want`` is
    None. Each blob is checked against its digest when its last chunk
    arrives; the chunks of a finished blob are released.
    """

    def __init__(self, want: Optional[set[str]] = None):
        self.want = want
        self.blobs: dict[str, bytes] = {}
        self.logs = {"stdout": bytearray(), "stderr": bytearray()}
        self._partial: dict[str, bytearray] = {}

    def feed(self, frame: Frame) -> None:
        body = frame.body
        if frame.type == wire.LOG_CHUNK:
            stream = self.logs.get(body["stream"])
            if stream is not None:
                stream.extend(frame.binary)
            return
        digest = body["digest"]
        if digest in self.blobs or (self.want is not None and digest not in self.want):
            return
        partial = self._partial.setdefault(digest, bytearray())
        partial.extend(frame.binary)
        if body["last"]:
            data = bytes(self._partial.pop(digest))
            if hashlib.sha256(data).hexdigest() != digest:
                raise NetworkError("TRANSPORT",
                                   f"blob {digest[:12]} corrupted in transit")
            self.blobs[digest] = data

    @property
    def complete(self) -> bool:
        """Every wanted blob has arrived (for a declared ``want`` only)."""
        return self.want <= self.blobs.keys()


# the reply that ends each served request, failed or not
_REPLIES = {wire.EXEC_REQUEST: wire.EXEC_RESULT, wire.DOC_REQUEST: wire.DOC_RESPONSE,
            wire.RUN_SUBMIT: wire.RUN_EVENT, wire.DATA_QUERY: wire.DATA_RESULT}


def _failure(reply_type: int, exc: ToolgridError) -> dict:
    """The body of a ``reply_type`` frame that reports ``exc`` to the caller."""
    error = {"code": exc.code, "message": exc.message}
    if reply_type == wire.RUN_EVENT:
        return dict(error, kind="rejected", diagnostics=[
            asdict(d) for d in getattr(exc, "diagnostics", [])])
    if isinstance(exc, ToolExecutionError):
        report = exc.report or FiringResult(exit_status=None)
        extra = {"stage": exc.stage, "exit_status": report.exit_status,
                 "stdout": report.stdout_ref, "stderr": report.stderr_ref}
        error.update((key, value) for key, value in extra.items() if value is not None)
    if reply_type == wire.EXEC_RESULT:
        return {"status": "failed", "error": error}
    if reply_type == wire.DOC_RESPONSE:
        return {"ok": False, "error": error}
    return {"error": error}


# -- publications -------------------------------------------------------------------


@dataclass(frozen=True)
class _Publication:
    """A published tool and the ANNOUNCE body that every offer of it resends."""

    descriptor: ToolDescriptor
    group_key: Optional[GroupKey]  # None means PUBLIC
    body: dict  # publisher, sequence, group, slot, payload


class Node:
    """See the module docstring; everything here is thread-safe."""

    def __init__(self, config: NodeConfig):
        self.config = config
        self.node_id = node_identity(config.config_dir)
        self.display_name = config.display_name
        # the store, tools/ and groups/ appear on their first write
        config.work_dir.mkdir(parents=True, exist_ok=True)
        self.store = RunStore(config.store_dir)
        self.blobs = self.store.blobs
        self.work_dir = config.work_dir
        self.builtins = BuiltinCatalog()
        self.registry = Registry()
        self.group_keys: dict[str, GroupKey] = load_group_keys(config.groups_dir)

        self._lock = threading.Lock()
        self._descriptors: dict[str, ToolDescriptor] = {}
        self._published: dict[str, _Publication] = {}
        self._sessions: list[PeerSession] = []
        self._by_peer: dict[str, PeerSession] = {}
        self._announce_seq = 0
        self._runs: weakref.WeakSet[Engine] = weakref.WeakSet()  # held by their threads
        self._pool = ThreadPoolExecutor(max_workers=16,
                                        thread_name_prefix=f"node-{self.node_id[:6]}")
        self._listener: Optional[socket.socket] = None
        self.listen_port: Optional[int] = None
        self.uplink = None  # set by start() or by the test harness

        self.reload_tools()
        self.apply_publications(config.published)

    # -- local descriptors ---------------------------------------------------------

    def reload_tools(self) -> None:
        descriptors: dict[str, ToolDescriptor] = {}
        for path in sorted(self.config.tools_dir.glob("*.json")):
            try:
                descriptor = parse_descriptor(path.read_text())
            except ToolgridError as exc:
                log.warning("skipping descriptor %s: %s", path.name, exc)
                continue
            descriptors[f"{descriptor.name}@{descriptor.version}"] = descriptor
        with self._lock:
            self._descriptors = descriptors

    def descriptor(self, component: str) -> Optional[ToolDescriptor]:
        with self._lock:
            return self._descriptors.get(component)

    def install_descriptor(self, descriptor: ToolDescriptor) -> Path:
        """Write ``tools/<name>-<version>.json`` and add the tool.

        Raises DescriptorError(NAME_CLASH) for a built-in's name, which
        could never run, and when that file holds another component:
        ``a-b@1`` and ``a@b-1`` would share one file.
        """
        if descriptor.name in self.builtins.names():
            raise DescriptorError("NAME_CLASH", f"{descriptor.name} is a built-in")
        path = self.config.tools_dir / f"{descriptor.name}-{descriptor.version}.json"
        if path.exists():
            try:
                held = parse_descriptor(path.read_text())
            except ToolgridError:
                held = None  # not a component; the node skipped it too
            if held is not None and (held.name, held.version) != (
                    descriptor.name, descriptor.version):
                raise DescriptorError(
                    "NAME_CLASH", f"{path.name} already holds "
                    f"{held.name}@{held.version}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(descriptor_to_json(descriptor))
        with self._lock:
            self._descriptors[f"{descriptor.name}@{descriptor.version}"] = descriptor
        return path

    # -- group keys ------------------------------------------------------------------

    def add_group_key(self, key: GroupKey) -> None:
        save_group_key(key, self.config.groups_dir)
        self.group_keys[key.key_id] = key

    def group_by_name(self, name: str) -> Optional[GroupKey]:
        for key in self.group_keys.values():
            if key.name == name:
                return key
        return None

    # -- publication and announcements ----------------------------------------------

    def publish(self, component: str, group: str = PUBLIC) -> None:
        """Offer an installed tool to a group (or everyone, for PUBLIC)."""
        descriptor = self.descriptor(component)
        if descriptor is None:
            raise ConfigError("UNKNOWN_TOOL",
                              f"no installed tool {component!r}", key="published")
        if group.upper() == PUBLIC:
            key = None
        else:
            key = self.group_by_name(group) or self.group_keys.get(group)
            if key is None:
                raise ConfigError("UNKNOWN_GROUP",
                                  f"no key for group {group!r}", key="published")
        doc = descriptor.documentation or ""
        payload = {"name": descriptor.name, "version": descriptor.version,
                   "doc_digest": hashlib.sha256(doc.encode()).hexdigest(),
                   **interface_to_json(descriptor.interface)}
        body = {"publisher": self.node_id, "group": PUBLIC,
                "slot": descriptor.name, "payload": payload}
        if key is not None:
            body.update(group=key.key_id,
                        slot=announcement_slot(key.material.mac_key, descriptor.name),
                        payload={"ciphertext": base64.b64encode(encrypt_payload_json(
                            payload, key.material.enc_key)).decode()})
        with self._lock:
            body["sequence"] = self._next_sequence()
            self._published[component] = _Publication(descriptor, key, body)
        self._broadcast(Frame(wire.ANNOUNCE, body))

    def unpublish(self, component: str) -> None:
        with self._lock:
            publication = self._published.pop(component, None)
            if publication is None:
                raise ConfigError("UNKNOWN_TOOL",
                                  f"{component!r} is not published", key="published")
            body = dict(publication.body, sequence=self._next_sequence())
        del body["payload"]
        self._broadcast(Frame(wire.RETRACT, body))

    def apply_publications(self, published: Sequence[Publication]) -> None:
        """Publish each configured entry that is not yet published as
        configured, and retract what the list no longer names.

        An entry whose tool or group key is missing is logged and skipped:
        it must not hold back the others, nor block its own repair.
        """
        wanted = {p.component: p.group for p in published}
        current = dict(self.published_components())
        for component in current.keys() - wanted.keys():
            self.unpublish(component)
        for component, group in wanted.items():
            if current.get(component) == group:
                continue
            try:
                self.publish(component, group)
            except ConfigError as exc:
                log.warning("skipping publication of %s: %s", component, exc)

    def published_components(self) -> list[tuple[str, str]]:
        with self._lock:
            return sorted((component, publication.group_key.name
                           if publication.group_key else PUBLIC)
                          for component, publication in self._published.items())

    def _next_sequence(self) -> int:
        """A sequence above every earlier one; the caller holds ``_lock``."""
        self._announce_seq = max(int(time.time() * 1000), self._announce_seq + 1)
        return self._announce_seq

    def announcement_frames(self) -> list[Frame]:
        with self._lock:
            return [Frame(wire.ANNOUNCE, publication.body)
                    for publication in self._published.values()]

    def _broadcast(self, frame: Frame) -> None:
        with self._lock:
            sessions = list(self._sessions)
        for session in sessions:
            session.send(frame)
        uplink = self.uplink
        if uplink is not None:
            uplink.send(frame)

    def remote_components(self) -> list[RemoteComponent]:
        return self.registry.listing(self.group_keys)

    # -- connection management ---------------------------------------------------

    def start(self) -> None:
        """Bind, dial peers, and bring up the uplink, as configured."""
        if self.config.listen:
            host, port = parse_address(self.config.listen, "listen")
            self.listen(host, port)
        for address in self.config.peers:
            host, port = parse_address(address, "peers")
            try:
                session = self.connect((host, port))
                # the peer answers LIST and PING in order on its reader, so
                # its offers are in the registry once the PONG arrives
                session.send(Frame(wire.LIST, None))
                session.request(wire.PING, {}, time.monotonic() + PING_TIMEOUT)
            except (NetworkError, OSError) as exc:
                log.warning("peer %s unreachable: %s", address, exc)
        if self.config.uplink:
            # uplink.py imports this module, so the import waits until here
            from .uplink import UplinkLink  # noqa: PLC0415
            self.uplink = UplinkLink(self, self.config.uplink)
            self.uplink.start()

    def listen(self, host: str, port: int) -> int:
        self._listener = serve_tcp(host, port, self._adopt,
                                   f"accept-{self.node_id[:6]}")
        self.listen_port = self._listener.getsockname()[1]
        return self.listen_port

    def _adopt(self, sock: socket.socket) -> None:
        try:
            self.attach(sock)
        except ToolgridError as exc:
            log.warning("inbound connection rejected: %s", exc)

    def connect(self, address: tuple[str, int]) -> PeerSession:
        return self.attach(dial(address))

    def attach(self, sock: socket.socket) -> PeerSession:
        """Adopt a connected socket: handshake, register, exchange listings."""
        session = PeerSession(self, sock)
        session.handshake()
        with self._lock:
            self._sessions.append(session)
            self._by_peer[session.peer_node_id] = session
        session.start_reader()
        for frame in self.announcement_frames():
            session.send(frame)
        return session

    def session_for(self, node_id: str) -> Optional[PeerSession]:
        with self._lock:
            return self._by_peer.get(node_id)

    def _session_closed(self, session: PeerSession) -> None:
        with self._lock:
            if session in self._sessions:
                self._sessions.remove(session)
            if self._by_peer.get(session.peer_node_id) is session:
                del self._by_peer[session.peer_node_id]
        # a departed peer can no longer serve what it offered
        self.registry.forget(session)

    def ping(self, node_id: str) -> bool:
        session = self.session_for(node_id)
        if session is None:
            return False
        try:
            session.request(wire.PING, {}, time.monotonic() + PING_TIMEOUT)
        except NetworkError:
            return False
        return True

    def stop(self) -> None:
        with self._lock:
            runs = list(self._runs)
        for engine in runs:  # before any session or worker goes away
            try:
                engine.cancel()
            except EngineError:
                pass  # it has ended meanwhile
        if self._listener is not None:
            close_listener(self._listener)
        if self.uplink is not None:
            self.uplink.stop()
        with self._lock:
            sessions = list(self._sessions)
        for session in sessions:
            session.close()
        self._pool.shutdown(wait=False, cancel_futures=True)

    # -- inbound frames ------------------------------------------------------------

    def _on_frame(self, channel: Channel, frame: Frame) -> None:
        body = frame.body or {}
        if frame.type == wire.PING:
            channel.send(Frame(wire.PONG, body or None))
            return
        request_id = body.get("request_id")
        # a request this channel serves is checked by _serve_request
        fault = None if frame.type in channel.SERVES else wire.body_misfit(frame)
        if fault is not None:
            message = f"malformed {wire.type_name(frame.type)}: {fault[0]}: {fault[1]}"
            log.warning("%s from %s", message, type(channel).__name__)
            frame = Frame(wire.ERROR, {"code": "TRANSPORT", "message": message})
        if isinstance(request_id, str) and channel.push(request_id, frame) or fault:
            return
        if frame.type in (wire.ANNOUNCE, wire.RETRACT):
            channel.admit(body, tombstone=frame.type == wire.RETRACT)
        elif frame.type == wire.LIST:
            for announcement in self.announcement_frames():
                channel.send(announcement)
        elif frame.type in channel.SERVES:
            if not isinstance(request_id, str) or not request_id:
                log.warning("%s without request_id, dropping",
                            wire.type_name(frame.type))
                return
            # Open the routing queue before the worker starts so chunks that
            # follow immediately are buffered, never raced.
            queue = channel.request_queue(request_id)
            self._pool.submit(self._serve_request, channel, frame, queue)
        elif frame.type == wire.ERROR:
            log.warning("error from %s: %s", type(channel).__name__, body)
        # stray response frames for finished requests fall through silently

    def _serve_request(self, channel: Channel, frame: Frame,
                       queue: SimpleQueue) -> None:
        """Serve one request and answer it with its reply, also on failure."""
        body = frame.body
        request_id = body["request_id"]
        reply_type = _REPLIES[frame.type]
        try:
            if fault := wire.body_misfit(frame):
                raise NetworkError("BAD_REQUEST", "{}: {}".format(*fault))
            if frame.type == wire.EXEC_REQUEST:
                reply = self._serve_exec(channel, body, queue)
            elif frame.type == wire.DOC_REQUEST:
                reply = self._serve_doc(body)
            elif frame.type == wire.RUN_SUBMIT:
                reply = self._serve_run_submit(channel, body)
            else:
                reply = self._serve_data_query(body)
        except ToolgridError as exc:
            reply = _failure(reply_type, exc)
        except Exception as exc:
            log.exception("request %s failed", request_id)
            reply = _failure(reply_type, ToolgridError(
                "INTERNAL", f"the host failed ({type(exc).__name__})"))
        finally:
            channel.drop_queue(request_id)
        channel.send(Frame(reply_type, dict(reply, request_id=request_id)))

    def _offered(self, body: Mapping) -> _Publication:
        """The publication a request names, or UNKNOWN_COMPONENT."""
        component = body["component"]
        with self._lock:
            publication = self._published.get(component)
        if publication is None or publication.body["group"] != body["group"]:
            raise NetworkError("UNKNOWN_COMPONENT",
                               f"{component!r} is not offered here")
        return publication

    # -- remote execution: hosting side ----------------------------------------------

    def _serve_exec(self, channel: Channel, body: dict,
                    queue: SimpleQueue) -> dict:
        request_id = body["request_id"]
        publication = self._offered(body)

        # the proof and the input blobs must arrive in time; the tool's own
        # run has no deadline
        deadline = time.monotonic() + REQUEST_TIMEOUT
        chunks = _Reassembler(set(body["blobs"]))
        proven = publication.group_key is None
        if not proven:
            nonce = new_challenge()
            channel.send(Frame(wire.CHALLENGE, {
                "request_id": request_id, "nonce": nonce.hex()}))
        while not (proven and chunks.complete):
            incoming = _reply(queue, deadline)
            if incoming.type == wire.BLOB_CHUNK:
                chunks.feed(incoming)  # buffered, stored only once proven
            elif incoming.type == wire.PROOF and not proven:
                try:
                    tag = bytes.fromhex(incoming.body["tag"])
                except ValueError:
                    tag = b""
                if len(tag) != 32 or not verify_proof(
                        publication.group_key.material.mac_key, nonce,
                        canonical_digest(body), tag):
                    raise NetworkError("AUTH_FAILED", "membership proof rejected")
                proven = True
        for data in chunks.blobs.values():
            self.blobs.put(data)

        try:
            inputs = {name: datum_from_json(doc)
                      for name, doc in body["inputs"].items()}
        except (ValueError, TypeError, KeyError) as exc:
            raise NetworkError("BAD_REQUEST", f"undecodable inputs: {exc}") from exc

        def send_logs(report: FiringResult) -> None:
            for stream, ref in (("stdout", report.stdout_ref),
                                ("stderr", report.stderr_ref)):
                if ref:
                    channel.send_chunks(wire.LOG_CHUNK, {
                        "request_id": request_id, "stream": stream},
                        self.blobs.get(ref))

        try:
            report = execute_tool(publication.descriptor, inputs,
                                  self.work_dir, self.blobs)
        except ToolExecutionError as exc:
            if exc.report is not None:
                send_logs(exc.report)
            raise
        send_logs(report)
        for _, datum in report.emissions:
            if datum.type is DatumType.FILE:
                digest = datum.value.digest
                channel.send_chunks(wire.BLOB_CHUNK, {
                    "request_id": request_id, "digest": digest,
                    "role": "output"}, self.blobs.get(digest))
        return {
            "status": "ok",
            "exit_status": report.exit_status,
            "outputs": {name: datum.to_json() for name, datum in report.emissions},
            "stdout": report.stdout_ref,
            "stderr": report.stderr_ref,
            "started_at": report.started_at,
            "finished_at": report.finished_at,
        }

    def _serve_doc(self, body: dict) -> dict:
        publication = self._offered(body)
        doc = publication.descriptor.documentation or ""
        if publication.group_key is None:
            return {"ok": True, "encrypted": False, "doc": doc}
        ciphertext = encrypt_announcement(
            doc.encode(), publication.group_key.material.enc_key)
        return {"ok": True, "encrypted": True,
                "doc": base64.b64encode(ciphertext).decode()}

    # -- remote execution: calling side ------------------------------------------------

    def _route(self, publisher: str,
               component: str) -> tuple[Channel, str, Optional[str]]:
        """(channel, wire component name, relay target) for ``component`` on
        ``publisher``: the LAN session to it, or else the uplink to the relay
        client that the ref's ``<origin>::`` prefix names."""
        origin, sep, name = component.rpartition("::")
        session = self.session_for(publisher)
        if session is not None:
            return session, name, None
        uplink = self.uplink
        if sep and uplink is not None and uplink.connected():
            return uplink, name, origin
        raise NetworkError("UNREACHABLE", f"no route to node {publisher[:12]}")

    def remote_execute(self, publisher: str, component: str, group: str,
                       inputs: Mapping[str, Datum]) -> FiringResult:
        """Run a peer's published tool; blobs and logs travel chunked.

        Waits as long as the tool runs; only the result or the end of the
        connection (or the relay's route) ends the wait.
        """
        channel, wire_name, target = self._route(publisher, component)
        request_id = uuid.uuid4().hex
        body: dict = {
            "request_id": request_id,
            "component": wire_name,
            "group": group,
            "inputs": {name: datum.to_json() for name, datum in inputs.items()},
            "blobs": sorted({datum.value.digest for datum in inputs.values()
                             if datum.type is DatumType.FILE}),
        }
        if target is not None:
            body["target"] = target
        request_digest = canonical_digest(body)

        queue = channel.request_queue(request_id)
        chunks = _Reassembler()
        try:
            channel.send(Frame(wire.EXEC_REQUEST, body))
            for digest in body["blobs"]:
                channel.send_chunks(wire.BLOB_CHUNK, {
                    "request_id": request_id, "digest": digest,
                    "role": "input"}, self.blobs.get(digest))
            while (frame := _reply(queue)).type != wire.EXEC_RESULT:
                if frame.type == wire.CHALLENGE:
                    key = self.group_keys.get(group)
                    mac_key = key.material.mac_key if key is not None else ZERO_MAC_KEY
                    try:
                        nonce = bytes.fromhex(frame.body["nonce"])
                        tag = membership_proof(mac_key, nonce, request_digest)
                    except (ValueError, CryptoError) as exc:
                        raise NetworkError("TRANSPORT",
                                           f"undecodable challenge: {exc}") from exc
                    reply: dict = {"request_id": request_id, "tag": tag.hex()}
                    if target is not None:
                        reply["target"] = target
                    channel.send(Frame(wire.PROOF, reply))
                elif frame.type in wire.BINARY_TYPES:
                    chunks.feed(frame)
            result = frame.body
        finally:
            channel.drop_queue(request_id)

        # the host's log digests must name the logs it streamed
        logs = (self.blobs.put(bytes(chunks.logs["stdout"])),
                self.blobs.put(bytes(chunks.logs["stderr"])))

        if result["status"] != "ok":
            error = result.get("error")
            failure = _peer_error(error, "remote execution failed")
            if failure.code in ("AUTH_FAILED", "UNKNOWN_COMPONENT", "TRANSPORT",
                                "BAD_REQUEST"):
                raise failure
            # a failure before the tool ran names no logs
            named = (error.get("stdout"), error.get("stderr"))
            if any(ref not in (None, stored) for ref, stored in zip(named, logs)):
                raise NetworkError("TRANSPORT", "log digests do not match the error")
            if error.get("stage") not in (None, "pre", "main", "post"):
                raise NetworkError("TRANSPORT", f"unknown stage {error['stage']!r}")
            raise ToolExecutionError(failure.code, failure.message, error.get("stage"),
                                     FiringResult([], error.get("exit_status"), *named))

        if result.get("exit_status") not in (None, 0):
            raise NetworkError("TRANSPORT", f"a result of status ok exited "
                               f"{result['exit_status']}")
        try:
            emissions = [(name, datum_from_json(doc))
                         for name, doc in (result.get("outputs") or {}).items()]
        except (ValueError, TypeError, KeyError) as exc:
            raise NetworkError("TRANSPORT", f"undecodable result: {exc}") from exc
        if (result.get("stdout"), result.get("stderr")) != logs:
            raise NetworkError("TRANSPORT", "log digests do not match the result")
        for _, datum in emissions:  # only the blobs the result names are kept
            digest = datum.value.digest if datum.type is DatumType.FILE else None
            if digest in chunks.blobs:
                self.blobs.put(chunks.blobs[digest])
            elif digest and not self.blobs.has(digest):
                raise NetworkError("TRANSPORT", f"output blob {digest[:12]} never arrived")
        return FiringResult(emissions, 0, *logs, result.get("started_at"),
                            result.get("finished_at"))

    def request_documentation(self, publisher: str, component: str,
                              group: str) -> str:
        channel, wire_name, target = self._route(publisher, component)
        body = {"component": wire_name, "group": group}
        if target is not None:
            body["target"] = target
        reply = channel.request(wire.DOC_REQUEST, body).body
        if not reply["ok"]:
            raise _peer_error(reply.get("error"), "documentation refused")
        doc = reply.get("doc") or ""
        if not reply.get("encrypted"):
            return doc
        key = self.group_keys.get(group)
        if key is None:
            raise CryptoError("DECRYPT_FAILED", f"no key held for group {group}")
        try:
            return decrypt_announcement(base64.b64decode(doc),
                                        key.material.enc_key).decode()
        except ValueError as exc:  # not base64, or not UTF-8 once decrypted
            raise NetworkError("TRANSPORT", f"undecodable documentation: {exc}") from exc

    # -- controller duties ---------------------------------------------------------

    def offers(self) -> dict[ComponentRef, dict[str, Optional[RemoteComponent]]]:
        """Who offers what: component -> node id -> that peer's offer, or None
        for this node's own built-ins and tools. Only this node offers a
        built-in's ref, and a peer's PUBLIC offer outranks its group offers,
        which would cost a challenge round-trip."""
        out: dict[ComponentRef, dict[str, Optional[RemoteComponent]]] = {
            ref: {self.node_id: None} for ref in self.builtins.refs()}
        with self._lock:
            local = list(self._descriptors)
        for component in local:
            out.setdefault(ComponentRef.parse(component), {})[self.node_id] = None
        for remote in self.remote_components():
            if self.builtins.is_builtin(remote.ref):
                continue
            nodes = out.setdefault(remote.ref, {})
            if remote.publisher not in nodes or remote.group == PUBLIC:
                nodes[remote.publisher] = remote
        return out

    def plan(self, graph: WorkflowGraph, overrides: Mapping[str, str] | None = None
             ) -> tuple[list[InstancePlan], list[Diagnostic]]:
        """Place every instance, build its behavior once, and validate the graph
        against those behaviors' interfaces, all from one snapshot of offers.

        A placed tool takes the interface and group of the offer on its node.
        The plans cover every instance when no diagnostic is an error. Raises
        PlacementError(OVERRIDE_INVALID) for a pin to a node without the offer.
        """
        offers = self.offers()
        placed = plan_placement(graph, offers, overrides)
        plans: list[InstancePlan] = []

        def build(instance: ComponentInstance) -> Optional[ComponentInterface]:
            ref, target = instance.component, placed.get(instance.instance_id)
            if target is None:
                return None
            offer = offers[ref][target]
            if self.builtins.is_builtin(ref):
                behavior: Behavior = self.builtins.create(ref, instance.config)
            elif offer is not None:
                behavior = _PlacedTool(self, target, str(ref), offer.group,
                                       offer.interface)
            elif (descriptor := self.descriptor(str(ref))) is not None:
                behavior = _PlacedTool(self, target, str(ref), PUBLIC,
                                       descriptor.interface)
            else:
                return None
            plans.append(InstancePlan(instance, target, behavior))
            return behavior.interface

        return plans, validate_graph(graph, build)

    def start_run(self, workflow_text: str, *,
                  overrides: Mapping[str, str] | None = None,
                  run_id: str | None = None,
                  on_event: Callable[[dict], None] | None = None) -> Engine:
        """Parse, place, validate, and open the records; the run goes on in its thread."""
        graph = parse_workflow(workflow_text)
        plans, diagnostics = self.plan(graph, overrides)
        errors = [d for d in diagnostics if d.severity == "error"]
        if errors:
            failure = EngineError(
                "VALIDATION_FAILED",
                "; ".join(f"{d.code} at {d.location}" for d in errors))
            failure.diagnostics = diagnostics
            raise failure
        for plan in plans:
            try:
                if plan.node != self.node_id:
                    self._route(plan.node, str(plan.instance.component))
            except NetworkError as exc:
                raise EngineError(
                    "PLACEMENT_UNREACHABLE",
                    f"instance {plan.instance.instance_id!r} is placed on "
                    f"unreachable node {plan.node!r}") from exc
        run_id = run_id or new_run_id()
        engine = Engine(run_id, graph, plans, self.store, self._pool,
                        controller_node=self.node_id, work_root=self.work_dir,
                        on_event=on_event)
        engine.start()
        with self._lock:
            self._runs.add(engine)
        return engine

    # -- placed tools ------------------------------------------------------------------

    def execute(self, node_id: str, component: str, group: str,
                inputs: Mapping[str, Datum]) -> FiringResult:
        """Run ``component`` on ``node_id``: this node's own tool, or a peer's
        offer to ``group``."""
        if node_id == self.node_id:
            descriptor = self.descriptor(component)
            if descriptor is None:
                raise ToolExecutionError("UNKNOWN_COMPONENT",
                                         f"no installed tool {component!r}")
            return execute_tool(descriptor, inputs, self.work_dir, self.blobs)
        return self.remote_execute(node_id, component, group, inputs)

    # -- run submission and data queries over the LAN ------------------------------------

    def _serve_run_submit(self, session: PeerSession, body: dict) -> dict:
        request_id = body["request_id"]

        def forward(run_event: dict) -> None:
            # the run's thread calls this; once the submitting client
            # disconnects the sends fail and the run carries on regardless
            session.send(Frame(wire.RUN_EVENT, {
                "request_id": request_id, "kind": "event", "event_doc": run_event}))
            if run_event.get("event") == "run-finished":
                session.send(Frame(wire.RUN_EVENT, {
                    "request_id": request_id, "kind": "done",
                    "state": run_event.get("state")}))

        engine = self.start_run(body["workflow"], overrides=body.get("overrides"),
                                on_event=forward if body.get("watch") else None)
        return {"kind": "accepted", "run_id": engine.run_id}

    def _serve_data_query(self, body: dict) -> dict:
        query = body["query"]
        if query == "runs":
            return {"runs": self.store.list_runs()}
        if query != "run":
            raise NetworkError("BAD_REQUEST", f"unknown query {query!r}")
        run_id = body.get("run_id") or ""
        return {"meta": self.store.run_meta(run_id),
                "records": [record.to_json()
                            for record in self.store.query_run(run_id)],
                "events": self.store.events(run_id)}

    # -- client-side run submission ------------------------------------------------------

    def submit_run(self, controller: str, workflow_text: str, *,
                   overrides: Mapping[str, str] | None = None,
                   watch: Callable[[dict], None] | None = None) -> str:
        """Hand a workflow to a remote controller; returns its run_id.

        With ``watch`` set, blocks streaming events into the callback until
        the run finishes. Without it, returns as soon as the submission is
        accepted; the run keeps going if this node vanishes afterwards.
        """
        session = self.session_for(controller)
        if session is None:
            raise NetworkError("UNREACHABLE", f"no session to {controller[:12]}")
        request_id = uuid.uuid4().hex
        queue = session.request_queue(request_id)
        try:
            session.send(Frame(wire.RUN_SUBMIT, {
                "request_id": request_id,
                "workflow": workflow_text,
                "overrides": dict(overrides or {}),
                "watch": watch is not None,
            }))
            run_id = None
            done = False
            while True:
                frame = _reply(queue)
                if frame.type != wire.RUN_EVENT:
                    continue
                body = frame.body
                kind = body["kind"]
                if kind == "rejected":
                    failure = EngineError(body.get("code") or "REJECTED",
                                          body.get("message") or "run rejected")
                    failure.diagnostics = body.get("diagnostics") or []
                    raise failure
                if kind == "accepted":
                    run_id = body.get("run_id")
                    if run_id is None:
                        raise NetworkError("TRANSPORT", "acceptance names no run")
                    if watch is None or done:
                        return run_id
                elif kind == "event":
                    if watch is not None:
                        watch(body.get("event_doc") or {})
                elif kind == "done":
                    # a short run can finish before the acceptance frame is
                    # written; keep reading until the run_id shows up
                    if run_id is not None:
                        return run_id
                    done = True
                else:
                    raise NetworkError("TRANSPORT", f"unknown run event kind {kind!r}")
        finally:
            session.drop_queue(request_id)

    def query_runs(self, controller: str) -> list[dict]:
        return self._data_query(controller, {"query": "runs"}, "runs")["runs"]

    def query_run_records(self, controller: str, run_id: str) -> dict:
        return self._data_query(controller, {"query": "run", "run_id": run_id},
                                "meta", "records", "events")

    def _data_query(self, controller: str, query: dict, *keys: str) -> dict:
        """The DATA_RESULT for ``query``, which must hold every one of ``keys``."""
        session = self.session_for(controller)
        if session is None:
            raise NetworkError("UNREACHABLE", f"no session to {controller[:12]}")
        reply = session.request(wire.DATA_QUERY, query).body
        missing = [key for key in keys if reply.get(key) is None]
        if reply.get("error") or missing:
            raise _peer_error(reply.get("error"), f"data result misses {missing}")
        return reply


class _PlacedTool(Behavior):
    """A tool instance placed on ``target``, this node or a peer, with the
    interface and group of the offer it was placed by. Each firing runs on a
    worker through ``Node.execute``, looked up on the node at call time; a
    result whose outputs are not exactly the declared ones, each of its
    declared type, is TRANSPORT."""

    def __init__(self, node: Node, target: str, component: str, group: str,
                 interface: ComponentInterface):
        self._node, self._target = node, target
        self._component, self._group = component, group
        self.interface = interface
        self._outputs = {e.name: e.datum_type for e in interface.outputs}

    def fire(self, ctx: FiringContext, inputs: Mapping[str, Datum]) -> FireReturn:
        return functools.partial(self._execute, inputs)

    def _execute(self, inputs: Mapping[str, Datum]) -> FiringResult:
        report = self._node.execute(self._target, self._component, self._group,
                                    inputs)
        if {name: datum.type for name, datum in report.emissions} != self._outputs:
            raise NetworkError("TRANSPORT", f"the outputs of {self._component} "
                               "do not match its interface")
        return report

