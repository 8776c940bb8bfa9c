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

import functools
import logging
import socket
import threading
from collections import deque
from pathlib import Path
from typing import Mapping, Optional

from . import wire
from .config import PROTOCOL_VERSION, UplinkSettings, parse_address
from .errors import ConfigError, NetworkError
from .node import Channel, FramedSocket, close_listener, dial, serve_tcp
from .wire import Frame, encode_frame, type_name  # noqa: F401 (traced by name)

log = logging.getLogger("toolgrid.uplink")

ALLOWLIST = frozenset({
    wire.ANNOUNCE, wire.RETRACT, wire.LIST,
    wire.DOC_REQUEST, wire.DOC_RESPONSE,
    wire.EXEC_REQUEST, wire.CHALLENGE, wire.PROOF,
    wire.BLOB_CHUNK, wire.LOG_CHUNK, wire.EXEC_RESULT,
    wire.PING, wire.PONG,
})

BACKOFF_START = 0.1
BACKOFF_CAP = 2.0
# how long start() waits for a link its first attempt did not bring up
CONNECT_WAIT = 5.0

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


class _RelaySession(FramedSocket):
    client_id = ""  # set once the handshake succeeds


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
        self._listener = serve_tcp(host, port, self._session_loop, "relay-accept")
        self.listen_port = self._listener.getsockname()[1]
        self._log(f"relay listening on {host}:{self.listen_port}")
        return self.listen_port

    def stop(self) -> None:
        self._stopping = True
        if self._listener is not None:
            close_listener(self._listener)
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()

    # -- per-session handling ----------------------------------------------------

    def _session_loop(self, sock: socket.socket) -> None:
        session = _RelaySession(sock)
        try:
            body, reader = session.hello()
            self._admit(session, body)
            session.pump(reader, functools.partial(self._forward, session))
        except NetworkError:
            pass  # refused: the session is closed already
        finally:
            self._detach(session)

    def _admit(self, session: _RelaySession, body: Mapping) -> None:
        """Register an authenticated client and greet it, or refuse it."""
        client_id = body.get("client_id")
        if (not isinstance(client_id, str) or client_id not in self.tokens
                or self.tokens[client_id] != body.get("auth_token")):
            self._log(f"handshake refused for {client_id!r}: AUTH_FAILED")
            raise session.refuse("AUTH_FAILED", "unknown client or bad token")
        with self._lock:
            duplicate = client_id in self._sessions or self._stopping
            if not duplicate:
                session.client_id = client_id
                self._sessions[client_id] = session
        if duplicate:
            self._log(f"handshake refused for {client_id}: DUPLICATE_CLIENT")
            raise session.refuse("DUPLICATE_CLIENT",
                                 f"{client_id} is already connected")
        session.send(Frame(wire.HELLO, {
            "protocol_version": PROTOCOL_VERSION, "relay": True}))
        self._log(f"session {client_id} ACTIVE")

    def _detach(self, session: _RelaySession) -> None:
        """Forget a session, then close it and tell the other end of each of
        its routes. The client id is free again before the client can read
        EOF; a session already detached is only closed."""
        with self._lock:
            attached = self._sessions.get(session.client_id) is session
            if attached:
                del self._sessions[session.client_id]
                broken = {rid: pair for rid, pair in self._routes.items()
                          if session in pair}
                for request_id in broken:
                    del self._routes[request_id]
        session.close()
        if not attached:
            return
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
            self._detach(session)
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
                self._detach(session)
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

    def start(self) -> None:
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
            self._connected.wait(CONNECT_WAIT)

    def stop(self) -> None:
        self._stopping.set()
        self.close()

    # -- connection management ------------------------------------------------------

    def _connect_once(self) -> None:
        sock = dial(self._address)
        try:
            _, reader = FramedSocket(sock).hello({
                "client_id": self.settings.client_id,
                "auth_token": self.settings.token,
                "node_id": self._node.node_id,
                "display_name": self._node.display_name,
            })
        except NetworkError as exc:
            if exc.code != "BAD_HANDSHAKE":
                raise
            raise NetworkError("CONNECT_FAILED",
                               f"relay did not complete handshake: {exc.message}") from exc
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
            if self._connected.is_set():
                self.pump(self._reader, self.on_frame)
                continue
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
        # a dial that raced stop() may have connected after stop() closed
        self.close()

    def admit(self, body: Mapping, *, tombstone: bool) -> None:
        # the relay stamps the sender's client id; our own echo is ignored
        origin = body.get("origin")
        if origin and origin != self.client_id:
            self._node.registry.apply(body, tombstone=tombstone, origin=origin,
                                      channel=self)
