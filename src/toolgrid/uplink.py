"""Cross-organization relay: outbound-only clients, allowlisted forwarding.

The relay never interprets announcement payloads or execution bodies; it
checks the message type against a fixed allowlist, stamps announcements with
the sending client's id (the namespace), and routes request traffic between
the two endpoints of a request_id. Everything else - group decryption,
membership proofs, blob digests - happens end-to-end between the clients, so
the relay holds no key material and its log carries only types, ids, and
sizes.

Any frame type outside the allowlist closes the session with
ERROR{PROTOCOL_VIOLATION} before it can have any effect; the controller-only
operations (run submission, data queries) are therefore unreachable across
organization boundaries by construction.
"""

from __future__ import annotations

import logging
import socket
import threading
from collections import deque
from pathlib import Path
from typing import Mapping, Optional

from . import wire
from .config import PROTOCOL_VERSION, UplinkSettings, parse_address
from .errors import ConfigError, NetworkError, ToolgridError
from .node import HANDSHAKE_TIMEOUT, Channel, keepalive
from .wire import Frame, FrameReader, encode_frame, type_name

log = logging.getLogger("toolgrid.uplink")

ALLOWLIST = frozenset({
    wire.ANNOUNCE, wire.RETRACT, wire.LIST,
    wire.DOC_REQUEST, wire.DOC_RESPONSE,
    wire.EXEC_REQUEST, wire.CHALLENGE, wire.PROOF,
    wire.BLOB_CHUNK, wire.LOG_CHUNK, wire.EXEC_RESULT,
    wire.PING, wire.PONG,
})

HANDSHAKE = "HANDSHAKE"
ACTIVE = "ACTIVE"
CLOSED = "CLOSED"

BACKOFF_START = 0.1
BACKOFF_CAP = 2.0

# the in-memory relay transcript keeps this many newest lines; every line
# also goes to the logger
LOG_LINES_KEPT = 10_000


def load_token_table(path: Path) -> dict[str, str]:
    """Token file: one ``client_id:token`` per line, # comments allowed."""
    table: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        client_id, sep, token = line.partition(":")
        if not sep or not client_id.strip() or not token.strip():
            raise ConfigError("MALFORMED",
                              f"{path}:{lineno}: expected client_id:token",
                              key="tokens")
        table[client_id.strip()] = token.strip()
    return table


class _RelaySession:
    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.client_id = ""
        self.state = HANDSHAKE
        self._wlock = threading.Lock()

    def send(self, frame: Frame) -> bool:
        try:
            data = encode_frame(frame)
            with self._wlock:
                self.sock.sendall(data)
            return True
        except (OSError, ToolgridError):
            return False

    def close(self) -> None:
        self.state = CLOSED
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class RelayServer:
    """Stateless except for the token table and live routing maps."""

    def __init__(self, tokens: Mapping[str, str]):
        self.tokens = dict(tokens)
        self._lock = threading.Lock()
        self._sessions: dict[str, _RelaySession] = {}
        # request_id -> (requesting session, serving session)
        self._routes: dict[str, tuple[_RelaySession, _RelaySession]] = {}
        self._listener: Optional[socket.socket] = None
        self._stopping = False
        self.listen_port: Optional[int] = None
        self.log_lines: deque[str] = deque(maxlen=LOG_LINES_KEPT)

    def _log(self, line: str) -> None:
        with self._lock:
            self.log_lines.append(line)
        log.info("%s", line)

    # -- lifecycle ---------------------------------------------------------------

    def start(self, host: str, port: int) -> int:
        try:
            self._listener = socket.create_server((host, port))
        except OSError as exc:
            raise NetworkError("BIND_FAILED",
                               f"cannot listen on {host}:{port}: {exc}") from exc
        self.listen_port = self._listener.getsockname()[1]
        threading.Thread(target=self._accept_loop, daemon=True,
                         name="relay-accept").start()
        self._log(f"relay listening on {host}:{self.listen_port}")
        return self.listen_port

    def stop(self) -> None:
        self._stopping = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._session_loop, args=(keepalive(sock),),
                             daemon=True, name="relay-session").start()

    # -- per-session handling ----------------------------------------------------

    def _session_loop(self, sock: socket.socket) -> None:
        if self._stopping:
            # accepted out of the backlog while shutting down
            try:
                sock.close()
            except OSError:
                pass
            return
        session = _RelaySession(sock)
        try:
            sock.settimeout(HANDSHAKE_TIMEOUT)
            reader = FrameReader(sock.recv)
            if not self._handshake(session, reader):
                return
            sock.settimeout(None)
            while session.state == ACTIVE:
                frame = reader.next_frame()
                if frame is None:
                    break
                self._forward(session, frame)
        except (ToolgridError, OSError):
            pass
        finally:
            self._detach(session)

    def _handshake(self, session: _RelaySession, reader: FrameReader) -> bool:
        frame = reader.next_frame()
        if frame is None or frame.type != wire.HELLO or not frame.body:
            session.send(Frame(wire.ERROR, {
                "code": "BAD_HANDSHAKE", "message": "expected HELLO first"}))
            session.close()
            return False
        body = frame.body
        if body.get("protocol_version") != PROTOCOL_VERSION:
            session.send(Frame(wire.ERROR, {
                "code": "VERSION_MISMATCH",
                "message": f"relay speaks protocol {PROTOCOL_VERSION}"}))
            session.close()
            return False
        client_id = body.get("client_id")
        token = body.get("auth_token")
        if (not isinstance(client_id, str) or not client_id
                or self.tokens.get(client_id) != token):
            session.send(Frame(wire.ERROR, {
                "code": "AUTH_FAILED", "message": "unknown client or bad token"}))
            session.close()
            self._log(f"handshake refused for {client_id!r}: AUTH_FAILED")
            return False
        with self._lock:
            if client_id in self._sessions or self._stopping:
                duplicate = True
            else:
                duplicate = False
                session.client_id = client_id
                session.state = ACTIVE
                self._sessions[client_id] = session
        if duplicate:
            session.send(Frame(wire.ERROR, {
                "code": "DUPLICATE_CLIENT",
                "message": f"{client_id} is already connected"}))
            session.close()
            self._log(f"handshake refused for {client_id}: DUPLICATE_CLIENT")
            return False
        session.send(Frame(wire.HELLO, {
            "protocol_version": PROTOCOL_VERSION, "relay": True}))
        self._log(f"session {client_id} ACTIVE")
        return True

    def _detach(self, session: _RelaySession) -> None:
        """Forget a closed session and tell the other end of each of its routes."""
        session.close()
        if not session.client_id:
            return
        with self._lock:
            if self._sessions.get(session.client_id) is session:
                del self._sessions[session.client_id]
            broken = {rid: pair for rid, pair in self._routes.items()
                      if session in pair}
            for request_id in broken:
                del self._routes[request_id]
        self._log(f"session {session.client_id} closed")
        for request_id, (caller, target) in broken.items():
            survivor = target if session is caller else caller
            self._log(f"ERROR req={request_id[:8]} -> {survivor.client_id}: "
                      "ROUTE_UNAVAILABLE")
            survivor.send(Frame(wire.ERROR, {
                "code": "ROUTE_UNAVAILABLE", "request_id": request_id,
                "message": f"{session.client_id} disconnected"}))

    # -- forwarding --------------------------------------------------------------

    def _forward(self, session: _RelaySession, frame: Frame) -> None:
        if frame.type not in ALLOWLIST:
            session.send(Frame(wire.ERROR, {
                "code": "PROTOCOL_VIOLATION",
                "message": f"{type_name(frame.type)} is not permitted here",
                "type": frame.type}))
            self._log(f"{session.client_id} sent {type_name(frame.type)}: "
                      "PROTOCOL_VIOLATION, session closed")
            session.close()
            return
        body = frame.body or {}
        size = len(frame.binary)
        if frame.type == wire.PING:
            session.send(Frame(wire.PONG, frame.body))
            return
        if frame.type == wire.PONG:
            return
        if frame.type in (wire.ANNOUNCE, wire.RETRACT):
            origin = body.get("origin")
            if origin is not None and origin != session.client_id:
                session.send(Frame(wire.ERROR, {
                    "code": "PROTOCOL_VIOLATION",
                    "message": "announcement under a foreign namespace"}))
                self._log(f"{session.client_id} spoofed origin {origin!r}: "
                          "PROTOCOL_VIOLATION, session closed")
                session.close()
                return
            stamped = dict(body)
            stamped["origin"] = session.client_id
            outbound = Frame(frame.type, stamped)
            for other in self._others(session):
                other.send(outbound)
            self._log(f"{session.client_id} {type_name(frame.type)} "
                      f"slot={stamped.get('slot', '?')} fanned out")
            return
        if frame.type == wire.LIST:
            for other in self._others(session):
                other.send(frame)
            self._log(f"{session.client_id} LIST fanned out")
            return
        # request traffic: opener names a target, the rest follows the route
        request_id = body.get("request_id")
        if not isinstance(request_id, str) or not request_id:
            return
        if frame.type in (wire.EXEC_REQUEST, wire.DOC_REQUEST):
            target_id = body.get("target")
            with self._lock:
                target = self._sessions.get(target_id) \
                    if isinstance(target_id, str) else None
                if target is not None and target is not session:
                    self._routes[request_id] = (session, target)
            if target is None or target is session:
                session.send(Frame(wire.ERROR, {
                    "code": "ROUTE_UNAVAILABLE", "request_id": request_id,
                    "message": f"no active client {target_id!r}"}))
                self._log(f"{session.client_id} {type_name(frame.type)} "
                          f"req={request_id[:8]}: ROUTE_UNAVAILABLE")
                return
            target.send(frame)
            self._log(f"{session.client_id} {type_name(frame.type)} "
                      f"req={request_id[:8]} -> {target.client_id}")
            return
        with self._lock:
            pair = self._routes.get(request_id)
            if frame.type in (wire.EXEC_RESULT, wire.DOC_RESPONSE):
                self._routes.pop(request_id, None)
        if pair is None:
            return
        caller, target = pair
        destination = target if session is caller else caller
        destination.send(frame)
        self._log(f"{session.client_id} {type_name(frame.type)} "
                  f"req={request_id[:8]} {size}B -> {destination.client_id}")

    def _others(self, session: _RelaySession) -> list[_RelaySession]:
        with self._lock:
            return [s for s in self._sessions.values() if s is not session]


class UplinkLink(Channel):
    """A node's outbound relay connection; reconnects with bounded backoff.

    Request flows run over it exactly as over a LAN PeerSession. Only tool
    execution and documentation are served from the relay side, and
    announcements count only under the origin the relay stamped.
    """

    SERVES = frozenset({wire.EXEC_REQUEST, wire.DOC_REQUEST})

    def __init__(self, node, settings: UplinkSettings):
        super().__init__(node)
        self.settings = settings
        self._address = parse_address(settings.relay, "uplink.relay")
        self._connected = threading.Event()
        self._stopping = threading.Event()
        self.client_id = settings.client_id
        self.last_error: Optional[str] = None

    def connected(self) -> bool:
        return self._connected.is_set()

    def start(self, wait: float = 5.0) -> None:
        """Bring the link up; raises on authentication failure."""
        try:
            self._connect_once()
        except NetworkError as exc:
            if exc.code in ("AUTH_FAILED", "DUPLICATE_CLIENT", "VERSION_MISMATCH"):
                raise
            self.last_error = str(exc)
        threading.Thread(target=self._run, daemon=True,
                         name=f"uplink-{self.client_id}").start()
        if not self._connected.is_set():
            self._connected.wait(wait)

    def stop(self) -> None:
        self._stopping.set()
        self.close()

    def wait_connected(self, timeout: float = 5.0) -> bool:
        return self._connected.wait(timeout)

    # -- connection management ------------------------------------------------------

    def _connect_once(self) -> None:
        try:
            sock = keepalive(socket.create_connection(self._address,
                                                      timeout=HANDSHAKE_TIMEOUT))
        except OSError as exc:
            raise NetworkError("CONNECT_FAILED", f"relay unreachable: {exc}") from exc
        reader = FrameReader(sock.recv)
        hello = Frame(wire.HELLO, {
            "protocol_version": PROTOCOL_VERSION,
            "client_id": self.settings.client_id,
            "auth_token": self.settings.token,
            "node_id": self._node.node_id,
            "display_name": self._node.display_name,
        })
        try:
            sock.sendall(encode_frame(hello))
            reply = reader.next_frame()
        except (OSError, ToolgridError) as exc:
            sock.close()
            raise NetworkError("CONNECT_FAILED", f"handshake failed: {exc}") from exc
        if reply is not None and reply.type == wire.ERROR:
            code = str((reply.body or {}).get("code", "AUTH_FAILED"))
            sock.close()
            raise NetworkError(code, f"relay refused the session: {code}")
        if reply is None or reply.type != wire.HELLO:
            sock.close()
            raise NetworkError("CONNECT_FAILED", "relay did not complete handshake")
        sock.settimeout(None)
        self._sock = sock
        self._reader = reader
        self._connected.set()
        self.last_error = None
        log.info("uplink %s connected to %s:%s", self.client_id, *self._address)
        # fresh relay state: re-offer everything, then ask others to do the same
        for frame in self._node.announcement_frames():
            self.send(frame)
        self.send(Frame(wire.LIST, None))

    def close(self) -> None:
        """Drop the relay connection; ``_run`` dials again unless stopping."""
        self._connected.clear()
        super().close()

    def _run(self) -> None:
        backoff = BACKOFF_START
        while not self._stopping.is_set():
            if not self._connected.is_set():
                try:
                    self._connect_once()
                    backoff = BACKOFF_START
                except NetworkError as exc:
                    self.last_error = str(exc)
                    # a stale DUPLICATE_CLIENT clears once the relay notices
                    # the dead socket, so only credential errors are fatal
                    if exc.code in ("AUTH_FAILED", "VERSION_MISMATCH"):
                        log.error("uplink %s: %s, giving up", self.client_id, exc)
                        return
                    self._stopping.wait(backoff)
                    backoff = min(backoff * 2, BACKOFF_CAP)
                    continue
            try:
                while not self._stopping.is_set():
                    frame = self._reader.next_frame()
                    if frame is None:
                        break
                    self._node._on_frame(self, frame)
            except (ToolgridError, OSError):
                pass
            self.close()

    def admit(self, body: Mapping, *, tombstone: bool) -> None:
        # the relay stamps the sender's client id; our own echo is ignored
        origin = body.get("origin")
        if isinstance(origin, str) and origin and origin != self.client_id:
            self._node.registry.apply(body, tombstone=tombstone, origin=origin)
