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
import hashlib
import json
import logging
import socket
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from queue import Empty, SimpleQueue
from typing import Callable, Mapping, Optional

from . import wire
from .components import BuiltinCatalog
from .config import NodeConfig, PROTOCOL_VERSION, node_identity, parse_address
from .engine import Engine, InstancePlan, MsClock, new_run_id
from .errors import (ConfigError, CryptoError, EngineError, NetworkError,
                     PlacementError, ToolExecutionError, ToolgridError,
                     WorkflowParseError)
from .groups import (PUBLIC, GroupKey, announcement_slot, decrypt_announcement,
                     decrypt_payload_json, encrypt_announcement,
                     encrypt_payload_json, load_group_keys, membership_proof,
                     new_challenge, save_group_key, verify_proof)
from .store import RunStore
from .tools import ExecutionOutcome, ToolDescriptor, execute_tool, parse_descriptor
from .values import Datum, DatumType, datum_from_json
from .wire import Frame, FrameReader, chunk_frames, encode_frame
from .workflow import (ComponentInstance, ComponentInterface, ComponentRef,
                       Diagnostic, Endpoint, WorkflowGraph, parse_workflow,
                       plan_placement, serialize_workflow, validate_graph)

log = logging.getLogger("toolgrid.node")

HANDSHAKE_TIMEOUT = 10.0
# caps how long a peer can hold a hosting worker before its tool starts
REQUEST_TIMEOUT = 60.0
ZERO_MAC_KEY = b"\x00" * 32  # lets non-members answer a challenge, unprovably

# TCP keepalive: probe after this much silence, then every interval, and reset
# the connection after this many unanswered probes (about 30 s in all)
KEEPALIVE_IDLE = 15
KEEPALIVE_INTERVAL = 5
KEEPALIVE_COUNT = 3


def keepalive(sock: socket.socket) -> socket.socket:
    """Let the kernel notice a peer that vanished without closing.

    A request has no deadline of its own, so a dead host must end the
    connection; the reader then closes the channel and wakes its waiters.
    """
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for option, value in (("TCP_KEEPIDLE", KEEPALIVE_IDLE),
                          ("TCP_KEEPINTVL", KEEPALIVE_INTERVAL),
                          ("TCP_KEEPCNT", KEEPALIVE_COUNT)):
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


def interface_to_json(interface: ComponentInterface) -> dict:
    return {
        "inputs": [{"name": e.name, "type": e.datum_type.value,
                    "handling": e.handling} for e in interface.inputs],
        "outputs": [{"name": e.name, "type": e.datum_type.value}
                    for e in interface.outputs],
    }


def interface_from_json(doc: Mapping) -> ComponentInterface:
    inputs = tuple(Endpoint(e["name"], "input", DatumType(e["type"]),
                            e.get("handling", "queued"))
                   for e in doc.get("inputs", []))
    outputs = tuple(Endpoint(e["name"], "output", DatumType(e["type"]))
                    for e in doc.get("outputs", []))
    return ComponentInterface(inputs, outputs)


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
    """Everything peers have announced, newest sequence wins per key."""

    def __init__(self):
        self._entries: dict[tuple[str, str, str], _RegistryEntry] = {}
        self._lock = threading.Lock()

    def apply(self, body: Mapping, *, tombstone: bool,
              origin: Optional[str] = None,
              channel: Optional["Channel"] = None) -> bool:
        try:
            key = (str(body["publisher"]), str(body["group"]), str(body["slot"]))
            sequence = int(body["sequence"])
        except (KeyError, TypeError, ValueError):
            return False
        payload = None if tombstone else body.get("payload")
        if not tombstone and not isinstance(payload, dict):
            return False
        with self._lock:
            current = self._entries.get(key)
            if current is not None and current.sequence >= sequence:
                return False
            self._entries[key] = _RegistryEntry(sequence, payload, origin, channel)
            return True

    def forget(self, channel: "Channel") -> None:
        """Drop every entry that arrived on ``channel``."""
        with self._lock:
            self._entries = {k: e for k, e in self._entries.items()
                             if e.channel is not channel}

    def listing(self, keys: Mapping[str, GroupKey]) -> list[RemoteComponent]:
        """Decode every entry a holder of ``keys`` is allowed to read."""
        with self._lock:
            snapshot = dict(self._entries)
        out: list[RemoteComponent] = []
        for (publisher, group, slot), entry in snapshot.items():
            if entry.payload is None:
                continue
            if group == PUBLIC:
                plain = entry.payload
            else:
                key = keys.get(group)
                if key is None:
                    continue
                material = key.material
                try:
                    raw = base64.b64decode(entry.payload.get("ciphertext", ""))
                    plain = decrypt_payload_json(raw, material.enc_key)
                except (CryptoError, ValueError):
                    continue
                # the slot must match the name or the entry was transplanted
                if announcement_slot(material.mac_key, str(plain.get("name"))) != slot:
                    continue
            try:
                name = str(plain["name"])
                if entry.origin:
                    name = f"{entry.origin}::{name}"
                ref = ComponentRef(name, str(plain["version"]))
                interface = interface_from_json(plain)
            except (KeyError, ValueError, TypeError):
                continue
            out.append(RemoteComponent(ref, publisher, group, interface,
                                       str(plain.get("doc_digest", "")),
                                       entry.origin))
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
        """Send a request that has one reply and wait for it (see _reply)."""
        request_id = uuid.uuid4().hex
        queue = self.request_queue(request_id)
        try:
            # a failed send closes the channel, which wakes the queue
            self.send(Frame(frame_type, dict(body, request_id=request_id)))
            return _reply(queue, deadline)
        finally:
            self.drop_queue(request_id)

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
        sock = self._sock
        sock.settimeout(HANDSHAKE_TIMEOUT)
        self.send(Frame(wire.HELLO, {
            "protocol_version": PROTOCOL_VERSION,
            "node_id": self._node.node_id,
            "display_name": self._node.display_name,
        }))
        self._reader = FrameReader(sock.recv)
        try:
            frame = self._reader.next_frame()
        except (ToolgridError, OSError) as exc:
            self.close()
            raise NetworkError("BAD_HANDSHAKE", f"handshake failed: {exc}") from exc
        if frame is None or frame.type != wire.HELLO or not frame.body:
            self.close()
            raise NetworkError("BAD_HANDSHAKE", "peer did not say hello")
        body = frame.body
        if body.get("protocol_version") != PROTOCOL_VERSION:
            self.send(Frame(wire.ERROR, {
                "code": "VERSION_MISMATCH",
                "message": f"speaking protocol {PROTOCOL_VERSION}",
            }))
            self.close()
            raise NetworkError(
                "VERSION_MISMATCH",
                f"peer speaks protocol {body.get('protocol_version')!r}")
        node_id = body.get("node_id")
        if not isinstance(node_id, str) or not node_id:
            self.close()
            raise NetworkError("BAD_HANDSHAKE", "hello carries no node_id")
        self.peer_node_id = node_id
        self.peer_display_name = str(body.get("display_name", ""))
        sock.settimeout(None)

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
        error = frame.body or {}
        raise NetworkError(str(error.get("code", "TRANSPORT")),
                           str(error.get("message", "routing failed")))
    return frame


class _BlobCollector:
    """Reassembles chunked blobs and verifies their digests."""

    def __init__(self, want: set[str]):
        self.want = set(want)
        self._buffers: dict[str, bytearray] = {}
        self.done: dict[str, bytes] = {}

    def feed(self, frame: Frame) -> None:
        body = frame.body or {}
        digest = str(body.get("digest", ""))
        if digest not in self.want or digest in self.done:
            return
        buffer = self._buffers.setdefault(digest, bytearray())
        buffer.extend(frame.binary)
        if body.get("last"):
            data = bytes(buffer)
            if hashlib.sha256(data).hexdigest() != digest:
                raise NetworkError("TRANSPORT",
                                   f"blob {digest[:12]} corrupted in transit")
            self.done[digest] = data

    @property
    def complete(self) -> bool:
        return set(self.done) == self.want


# -- publications -------------------------------------------------------------------


@dataclass(frozen=True)
class _Publication:
    descriptor: ToolDescriptor
    group_key: Optional[GroupKey]  # None means PUBLIC

    @property
    def wire_group(self) -> str:
        return PUBLIC if self.group_key is None else self.group_key.key_id


class Node:
    """See the module docstring; everything here is thread-safe."""

    def __init__(self, config: NodeConfig):
        self.config = config
        self.node_id = node_identity(config.config_dir)
        self.display_name = config.display_name
        for directory in (config.tools_dir, config.groups_dir,
                          config.store_dir, config.work_dir):
            directory.mkdir(parents=True, exist_ok=True)
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
        self._clock = MsClock()
        self._pool = ThreadPoolExecutor(max_workers=16,
                                        thread_name_prefix=f"node-{self.node_id[:6]}")
        self._listener: Optional[socket.socket] = None
        self.listen_port: Optional[int] = None
        self.uplink = None  # set by start() or by the test harness

        self.reload_tools()
        for publication in config.published:
            self.publish(publication.component, publication.group,
                         announce=False)

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
        from .tools import descriptor_to_json
        path = self.config.tools_dir / f"{descriptor.name}-{descriptor.version}.json"
        path.write_text(descriptor_to_json(descriptor))
        self.reload_tools()
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

    def publish(self, component: str, group: str = PUBLIC, *,
                announce: bool = True) -> None:
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
        with self._lock:
            self._published[component] = _Publication(descriptor, key)
        if announce:
            self._broadcast(Frame(wire.ANNOUNCE,
                                  self._announcement_body(component)))

    def unpublish(self, component: str) -> None:
        with self._lock:
            publication = self._published.pop(component, None)
        if publication is None:
            raise ConfigError("UNKNOWN_TOOL",
                              f"{component!r} is not published", key="published")
        body = self._tombstone_body(publication)
        self._broadcast(Frame(wire.RETRACT, body))

    def published_components(self) -> list[tuple[str, str]]:
        with self._lock:
            return sorted((component, publication.group_key.name
                           if publication.group_key else PUBLIC)
                          for component, publication in self._published.items())

    def _next_sequence(self) -> int:
        with self._lock:
            self._announce_seq = max(int(time.time() * 1000),
                                     self._announce_seq + 1)
            return self._announce_seq

    def _payload_for(self, publication: _Publication) -> tuple[str, dict]:
        descriptor = publication.descriptor
        doc = descriptor.documentation or ""
        plain = {
            "name": descriptor.name,
            "version": descriptor.version,
            "doc_digest": hashlib.sha256(doc.encode()).hexdigest(),
        }
        plain.update(interface_to_json(descriptor.interface()))
        if publication.group_key is None:
            return descriptor.name, plain
        material = publication.group_key.material
        slot = announcement_slot(material.mac_key, descriptor.name)
        ciphertext = encrypt_payload_json(plain, material.enc_key)
        return slot, {"ciphertext": base64.b64encode(ciphertext).decode()}

    def _announcement_body(self, component: str) -> dict:
        with self._lock:
            publication = self._published[component]
        slot, payload = self._payload_for(publication)
        return {
            "publisher": self.node_id,
            "sequence": self._next_sequence(),
            "group": publication.wire_group,
            "slot": slot,
            "payload": payload,
        }

    def _tombstone_body(self, publication: _Publication) -> dict:
        slot, _ = self._payload_for(publication)
        return {
            "publisher": self.node_id,
            "sequence": self._next_sequence(),
            "group": publication.wire_group,
            "slot": slot,
        }

    def announcement_frames(self) -> list[Frame]:
        with self._lock:
            components = list(self._published)
        return [Frame(wire.ANNOUNCE, self._announcement_body(c))
                for c in components]

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
                self.connect((host, port))
            except (NetworkError, OSError) as exc:
                log.warning("peer %s unreachable: %s", address, exc)
        if self.config.uplink:
            from .uplink import UplinkLink
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

    def ping(self, node_id: str, timeout: float = 5.0) -> bool:
        session = self.session_for(node_id)
        if session is None:
            return False
        try:
            frame = session.request(wire.PING, {}, time.monotonic() + timeout)
        except NetworkError:
            return False
        return frame.type == wire.PONG

    def stop(self) -> None:
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
        if isinstance(request_id, str) and channel.push(request_id, frame):
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
        request_id = frame.body["request_id"]
        try:
            if frame.type == wire.EXEC_REQUEST:
                self._serve_exec(channel, frame, queue)
            elif frame.type == wire.DOC_REQUEST:
                self._serve_doc(channel, frame)
            elif frame.type == wire.RUN_SUBMIT:
                self._serve_run_submit(channel, frame)
            elif frame.type == wire.DATA_QUERY:
                self._serve_data_query(channel, frame)
        except Exception:
            log.exception("request %s failed", request_id)
        finally:
            channel.drop_queue(request_id)

    # -- remote execution: hosting side ----------------------------------------------

    def _serve_exec(self, channel: Channel, frame: Frame,
                    queue: SimpleQueue) -> None:
        body = frame.body
        request_id = body["request_id"]

        def refuse(code: str, message: str, **extra) -> None:
            error = {"code": code, "message": message}
            error.update({k: v for k, v in extra.items() if v is not None})
            channel.send(Frame(wire.EXEC_RESULT, {
                "request_id": request_id, "status": "failed", "error": error}))

        component = str(body.get("component", ""))
        with self._lock:
            publication = self._published.get(component)
        if publication is None or publication.wire_group != body.get("group"):
            refuse("UNKNOWN_COMPONENT", f"{component!r} is not offered here")
            return

        # the proof and the input blobs must arrive in time; the tool's own
        # run has no deadline
        deadline = time.monotonic() + REQUEST_TIMEOUT
        collector = _BlobCollector(set(body.get("blobs", [])))
        try:
            if publication.group_key is not None:
                nonce = new_challenge()
                channel.send(Frame(wire.CHALLENGE, {
                    "request_id": request_id, "nonce": nonce.hex()}))
                tag = None
                while tag is None:
                    incoming = _reply(queue, deadline)
                    if incoming.type == wire.PROOF:
                        tag = str((incoming.body or {}).get("tag", ""))
                    elif incoming.type == wire.BLOB_CHUNK:
                        collector.feed(incoming)  # buffered, stored only once proven
                try:
                    tag_bytes = bytes.fromhex(tag)
                except ValueError:
                    tag_bytes = b""
                if len(tag_bytes) != 32 or not verify_proof(
                        publication.group_key.material.mac_key, nonce,
                        canonical_digest(body), tag_bytes):
                    refuse("AUTH_FAILED", "membership proof rejected")
                    return
            while not collector.complete:
                incoming = _reply(queue, deadline)
                if incoming.type == wire.BLOB_CHUNK:
                    collector.feed(incoming)
        except NetworkError as exc:
            refuse(exc.code, exc.message)
            return
        for data in collector.done.values():
            self.blobs.put(data)

        try:
            inputs = {name: datum_from_json(doc)
                      for name, doc in dict(body.get("inputs", {})).items()}
        except (ValueError, TypeError, KeyError) as exc:
            refuse("BAD_REQUEST", f"undecodable inputs: {exc}")
            return

        def send_stream(stream: str, data: bytes) -> None:
            for chunk in chunk_frames(wire.LOG_CHUNK, {
                    "request_id": request_id, "stream": stream}, data):
                channel.send(chunk)

        try:
            outcome = execute_tool(publication.descriptor, inputs,
                                   self.work_dir, self.blobs)
        except ToolExecutionError as exc:
            for stream, ref in (("stdout", exc.stdout_ref), ("stderr", exc.stderr_ref)):
                if ref:
                    send_stream(stream, self.blobs.get(ref))
            refuse(exc.code, exc.message, stage=exc.stage,
                   exit_status=exc.exit_status, stdout=exc.stdout_ref,
                   stderr=exc.stderr_ref)
            return
        except ToolgridError as exc:
            refuse(exc.code, exc.message)
            return

        send_stream("stdout", self.blobs.get(outcome.stdout_ref))
        send_stream("stderr", self.blobs.get(outcome.stderr_ref))
        for datum in outcome.outputs.values():
            if datum.type is DatumType.FILE:
                digest = datum.value.digest
                for chunk in chunk_frames(wire.BLOB_CHUNK, {
                        "request_id": request_id, "digest": digest,
                        "role": "output"}, self.blobs.get(digest)):
                    channel.send(chunk)
        channel.send(Frame(wire.EXEC_RESULT, {
            "request_id": request_id,
            "status": "ok",
            "exit_status": outcome.exit_status,
            "outputs": {name: datum.to_json()
                        for name, datum in outcome.outputs.items()},
            "stdout": outcome.stdout_ref,
            "stderr": outcome.stderr_ref,
            "started_at": outcome.started_at,
            "finished_at": outcome.finished_at,
        }))

    def _serve_doc(self, channel: Channel, frame: Frame) -> None:
        body = frame.body
        request_id = body["request_id"]
        component = str(body.get("component", ""))
        with self._lock:
            publication = self._published.get(component)
        if publication is None or publication.wire_group != body.get("group"):
            channel.send(Frame(wire.DOC_RESPONSE, {
                "request_id": request_id, "ok": False,
                "error": {"code": "UNKNOWN_COMPONENT",
                          "message": f"{component!r} is not offered here"}}))
            return
        doc = publication.descriptor.documentation or ""
        if publication.group_key is None:
            payload = {"encrypted": False, "doc": doc}
        else:
            ciphertext = encrypt_announcement(
                doc.encode(), publication.group_key.material.enc_key)
            payload = {"encrypted": True,
                       "doc": base64.b64encode(ciphertext).decode()}
        payload.update({"request_id": request_id, "ok": True})
        channel.send(Frame(wire.DOC_RESPONSE, payload))

    # -- remote execution: calling side ------------------------------------------------

    def _route(self, publisher: str,
               component: str) -> tuple[Channel, str, Optional[str]]:
        """Find (channel, wire component name, relay target) for a publisher."""
        session = self.session_for(publisher)
        if session is not None:
            name = component.split("::", 1)[1] if "::" in component else component
            return session, name, None
        uplink = self.uplink
        if uplink is not None and uplink.connected():
            for remote in self.remote_components():
                if remote.publisher == publisher and remote.origin:
                    prefix = remote.origin + "::"
                    name = component[len(prefix):] if component.startswith(prefix) \
                        else component
                    return uplink, name, remote.origin
        raise NetworkError("UNREACHABLE", f"no route to node {publisher[:12]}")

    def remote_execute(self, publisher: str, component: str, group: str,
                       inputs: Mapping[str, Datum]) -> ExecutionOutcome:
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
        try:
            channel.send(Frame(wire.EXEC_REQUEST, body))
            for digest in body["blobs"]:
                for chunk in chunk_frames(wire.BLOB_CHUNK, {
                        "request_id": request_id, "digest": digest,
                        "role": "input"}, self.blobs.get(digest)):
                    channel.send(chunk)
            collector = _BlobCollector(set())
            logs = {"stdout": bytearray(), "stderr": bytearray()}
            result: Optional[dict] = None
            while result is None:
                frame = _reply(queue)
                if frame.type == wire.CHALLENGE:
                    nonce = bytes.fromhex(str((frame.body or {}).get("nonce", "")))
                    key = self.group_keys.get(group)
                    mac_key = key.material.mac_key if key is not None else ZERO_MAC_KEY
                    tag = membership_proof(mac_key, nonce, request_digest)
                    reply: dict = {"request_id": request_id, "tag": tag.hex()}
                    if target is not None:
                        reply["target"] = target
                    channel.send(Frame(wire.PROOF, reply))
                elif frame.type == wire.LOG_CHUNK:
                    stream = str((frame.body or {}).get("stream", ""))
                    if stream in logs:
                        logs[stream].extend(frame.binary)
                elif frame.type == wire.BLOB_CHUNK:
                    collector.want.add(str((frame.body or {}).get("digest", "")))
                    collector.feed(frame)
                elif frame.type == wire.EXEC_RESULT:
                    result = frame.body or {}
        finally:
            channel.drop_queue(request_id)

        for data in collector.done.values():
            self.blobs.put(data)
        stdout_ref = self.blobs.put(bytes(logs["stdout"]))
        stderr_ref = self.blobs.put(bytes(logs["stderr"]))

        if result.get("status") != "ok":
            error = result.get("error") or {}
            code = str(error.get("code", "TRANSPORT"))
            message = str(error.get("message", "remote execution failed"))
            if code in ("AUTH_FAILED", "UNKNOWN_COMPONENT", "TRANSPORT",
                        "BAD_REQUEST"):
                raise NetworkError(code, message)
            raise ToolExecutionError(
                code, message, stage=error.get("stage"),
                exit_status=error.get("exit_status"),
                stdout_ref=error.get("stdout"), stderr_ref=error.get("stderr"))

        outputs: dict[str, Datum] = {}
        for name, doc in dict(result.get("outputs", {})).items():
            datum = datum_from_json(doc)
            if datum.type is DatumType.FILE and not self.blobs.has(datum.value.digest):
                raise NetworkError(
                    "TRANSPORT",
                    f"output blob {datum.value.digest[:12]} never arrived")
            outputs[name] = datum
        if result.get("stdout") != stdout_ref or result.get("stderr") != stderr_ref:
            raise NetworkError("TRANSPORT", "log digests do not match the result")
        return ExecutionOutcome(
            exit_status=int(result.get("exit_status", 0)),
            outputs=outputs,
            stdout_ref=stdout_ref,
            stderr_ref=stderr_ref,
            started_at=int(result.get("started_at", 0)),
            finished_at=int(result.get("finished_at", 0)),
            workdir="")

    def request_documentation(self, publisher: str, component: str,
                              group: str) -> str:
        channel, wire_name, target = self._route(publisher, component)
        body = {"component": wire_name, "group": group}
        if target is not None:
            body["target"] = target
        frame = channel.request(wire.DOC_REQUEST, body)
        if frame.type != wire.DOC_RESPONSE:
            raise NetworkError("TRANSPORT", "no documentation response")
        reply = frame.body or {}
        if not reply.get("ok"):
            error = reply.get("error") or {}
            raise NetworkError(str(error.get("code", "TRANSPORT")),
                               str(error.get("message", "documentation refused")))
        doc = str(reply.get("doc", ""))
        if not reply.get("encrypted"):
            return doc
        key = self.group_keys.get(group)
        if key is None:
            raise CryptoError("DECRYPT_FAILED", f"no key held for group {group}")
        return decrypt_announcement(base64.b64decode(doc),
                                    key.material.enc_key).decode()

    # -- controller duties ---------------------------------------------------------

    def resolve(self, ref: ComponentRef, config: Mapping) -> Optional[ComponentInterface]:
        """Resolves builtins, installed descriptors, then remote announcements."""
        if self.builtins.is_builtin(ref):
            return self.builtins.resolve(ref, config)
        descriptor = self.descriptor(str(ref))
        if descriptor is not None:
            return descriptor.interface()
        for remote in self.remote_components():
            if remote.ref == ref:
                return remote.interface
        return None

    def providers(self) -> dict[ComponentRef, set[str]]:
        out: dict[ComponentRef, set[str]] = {}
        for ref in self.builtins.refs():
            out.setdefault(ref, set()).add(self.node_id)
        with self._lock:
            local = list(self._descriptors)
        for component in local:
            out.setdefault(ComponentRef.parse(component), set()).add(self.node_id)
        for remote in self.remote_components():
            out.setdefault(remote.ref, set()).add(remote.publisher)
        return out

    def validate(self, graph: WorkflowGraph) -> list[Diagnostic]:
        return validate_graph(graph, self)

    def start_run(self, workflow_text: str, *,
                  overrides: Mapping[str, str] | None = None,
                  run_id: str | None = None,
                  on_event: Callable[[dict], None] | None = None) -> Engine:
        """Parse, validate, place, and launch; raises before any record exists."""
        graph = parse_workflow(workflow_text)
        diagnostics = self.validate(graph)
        errors = [d for d in diagnostics if d.severity == "error"]
        if errors:
            failure = EngineError(
                "VALIDATION_FAILED",
                "; ".join(f"{d.code} at {d.location}" for d in errors))
            failure.diagnostics = diagnostics
            raise failure
        plan = plan_placement(graph, self.providers(), overrides)
        plans = []
        for instance in graph.components:
            ref = instance.component
            if self.builtins.is_builtin(ref):
                behavior = self.builtins.create(ref, instance.config)
                interface = behavior.interface
            else:
                behavior, interface = None, self.resolve(ref, instance.config)
            plans.append(InstancePlan(instance, interface,
                                      plan.assignments[instance.instance_id],
                                      behavior))
        run_id = run_id or new_run_id()
        engine = Engine(run_id, graph, plans, self.store, self, self._pool,
                        controller_node=self.node_id, work_root=self.work_dir,
                        clock=self._clock, on_event=on_event)
        engine.start()
        return engine

    # -- engine dispatch (ToolDispatch protocol) ---------------------------------------

    def reachable(self, node_id: str) -> bool:
        if node_id == self.node_id or self.session_for(node_id) is not None:
            return True
        uplink = self.uplink
        if uplink is not None and uplink.connected():
            return any(remote.publisher == node_id and remote.origin
                       for remote in self.remote_components())
        return False

    def execute(self, node_id: str, component: str,
                inputs: Mapping[str, Datum]) -> ExecutionOutcome:
        if node_id == self.node_id:
            descriptor = self.descriptor(component)
            if descriptor is None:
                raise ToolExecutionError("UNKNOWN_COMPONENT",
                                         f"no installed tool {component!r}")
            return execute_tool(descriptor, inputs, self.work_dir, self.blobs)
        offers = [remote for remote in self.remote_components()
                  if str(remote.ref) == component and remote.publisher == node_id]
        if not offers:
            raise NetworkError("UNKNOWN_COMPONENT",
                               f"{component!r} is not announced by {node_id[:12]}")
        # a PUBLIC offer skips the challenge round-trip
        offers.sort(key=lambda remote: remote.group != PUBLIC)
        return self.remote_execute(node_id, component, offers[0].group, inputs)

    # -- run submission and data queries over the LAN ------------------------------------

    def _serve_run_submit(self, session: PeerSession, frame: Frame) -> None:
        body = frame.body
        request_id = body["request_id"]

        def event(kind: str, **fields) -> dict:
            doc = {"request_id": request_id, "kind": kind}
            doc.update(fields)
            return doc

        def forward(run_event: dict) -> None:
            # the engine's threads call this; once the submitting client
            # disconnects the sends fail and the run carries on regardless
            session.send(Frame(wire.RUN_EVENT, event("event", event_doc=run_event)))
            if run_event.get("event") == "run-finished":
                session.send(Frame(wire.RUN_EVENT,
                                   event("done", state=run_event.get("state"))))

        try:
            engine = self.start_run(
                str(body.get("workflow", "")),
                overrides=body.get("overrides") or None,
                on_event=forward if body.get("watch") else None)
        except (WorkflowParseError, EngineError, PlacementError) as exc:
            diagnostics = [
                {"severity": d.severity, "code": d.code,
                 "location": d.location, "message": d.message}
                for d in getattr(exc, "diagnostics", [])]
            session.send(Frame(wire.RUN_EVENT, event(
                "rejected", code=exc.code, message=exc.message,
                diagnostics=diagnostics)))
            return
        session.send(Frame(wire.RUN_EVENT, event("accepted", run_id=engine.run_id)))

    def _serve_data_query(self, session: PeerSession, frame: Frame) -> None:
        body = frame.body
        request_id = body["request_id"]
        query = body.get("query")
        reply: dict = {"request_id": request_id}
        try:
            if query == "runs":
                reply["runs"] = self.store.list_runs()
            elif query == "run":
                run_id = str(body.get("run_id", ""))
                reply["meta"] = self.store.run_meta(run_id)
                reply["records"] = [record.to_json()
                                    for record in self.store.query_run(run_id)]
                reply["events"] = self.store.events(run_id)
            else:
                reply["error"] = {"code": "BAD_REQUEST",
                                  "message": f"unknown query {query!r}"}
        except ToolgridError as exc:
            reply["error"] = {"code": exc.code, "message": exc.message}
        session.send(Frame(wire.DATA_RESULT, reply))

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
                body = frame.body or {}
                kind = body.get("kind")
                if kind == "rejected":
                    failure = EngineError(str(body.get("code", "REJECTED")),
                                          str(body.get("message", "run rejected")))
                    failure.diagnostics = body.get("diagnostics", [])
                    raise failure
                if kind == "accepted":
                    run_id = str(body.get("run_id"))
                    if watch is None or done:
                        return run_id
                elif kind == "event" and watch is not None:
                    watch(body.get("event_doc", {}))
                elif kind == "done":
                    # a short run can finish before the acceptance frame is
                    # written; keep reading until the run_id shows up
                    if run_id is not None:
                        return run_id
                    done = True
        finally:
            session.drop_queue(request_id)

    def query_runs(self, controller: str) -> list[dict]:
        return self._data_query(controller, {"query": "runs"}).get("runs", [])

    def query_run_records(self, controller: str, run_id: str) -> dict:
        return self._data_query(controller, {"query": "run", "run_id": run_id})

    def _data_query(self, controller: str, query: dict) -> dict:
        session = self.session_for(controller)
        if session is None:
            raise NetworkError("UNREACHABLE", f"no session to {controller[:12]}")
        frame = session.request(wire.DATA_QUERY, query)
        if frame.type != wire.DATA_RESULT:
            raise NetworkError("TRANSPORT", "no data result")
        reply = frame.body or {}
        error = reply.get("error")
        if error:
            raise NetworkError(str(error.get("code", "TRANSPORT")),
                               str(error.get("message", "query failed")))
        return reply


def link_nodes(a: Node, b: Node) -> tuple[PeerSession, PeerSession]:
    """Join two in-process nodes over a socketpair (test harness plumbing)."""
    sock_a, sock_b = socket.socketpair()
    result: dict = {}

    def adopt_b():
        result["b"] = b.attach(sock_b)

    thread = threading.Thread(target=adopt_b, daemon=True)
    thread.start()
    session_a = a.attach(sock_a)
    thread.join(HANDSHAKE_TIMEOUT)
    if "b" not in result:
        raise NetworkError("BAD_HANDSHAKE", "socketpair handshake did not finish")
    return session_a, result["b"]
