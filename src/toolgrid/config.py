"""Node configuration: one JSON file plus well-known subdirectories.

Layout under a config directory (override with TOOLGRID_CONFIG_DIR):

    config.json     display name, listen address, peers, uplink, publications
    node_id         stable 32-hex instance identity, created on first use
    tools/          installed tool descriptors (*.json)
    groups/         group secrets (<name>.key, hex)
    store/          blob store and run records
    work/           tool working directories
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .values import TEXT, misfit

ENV_CONFIG_DIR = "TOOLGRID_CONFIG_DIR"
DEFAULT_CONFIG_DIR = "~/.toolgrid"
PROTOCOL_VERSION = 1


def parse_address(text: str, key: str) -> tuple[str, int]:
    host, sep, port = str(text).rpartition(":")
    if not sep or not host:
        raise ConfigError("BAD_ADDRESS", f"{key}: expected host:port, got {text!r}",
                          key=key)
    try:
        port_num = int(port)
    except ValueError:
        raise ConfigError("BAD_ADDRESS", f"{key}: bad port {port!r}", key=key) from None
    if not 0 <= port_num <= 65535:
        raise ConfigError("BAD_ADDRESS", f"{key}: port {port_num} out of range", key=key)
    return host, port_num


@dataclass(frozen=True)
class UplinkSettings:
    relay: str
    client_id: str
    token: str


@dataclass(frozen=True)
class Publication:
    component: str  # "name@version"
    group: str  # "PUBLIC" or a group name (resolved to a key at runtime)


@dataclass
class NodeConfig:
    config_dir: Path
    display_name: str = "toolgrid-node"
    listen: Optional[str] = None
    peers: list[str] = field(default_factory=list)
    uplink: Optional[UplinkSettings] = None
    published: list[Publication] = field(default_factory=list)

    @property
    def tools_dir(self) -> Path:
        return self.config_dir / "tools"

    @property
    def groups_dir(self) -> Path:
        return self.config_dir / "groups"

    @property
    def store_dir(self) -> Path:
        return self.config_dir / "store"

    @property
    def work_dir(self) -> Path:
        return self.config_dir / "work"


def resolve_config_dir(explicit: str | None = None) -> Path:
    if explicit:
        return Path(explicit).expanduser()
    return Path(os.environ.get(ENV_CONFIG_DIR, DEFAULT_CONFIG_DIR)).expanduser()


def node_identity(config_dir: Path) -> str:
    """The node's stable id, minted from 16 random bytes on first use."""
    config_dir = Path(config_dir)
    config_dir.mkdir(parents=True, exist_ok=True)
    id_path = config_dir / "node_id"
    if id_path.exists():
        node_id = id_path.read_text().strip()
        if len(node_id) != 32 or any(c not in "0123456789abcdef" for c in node_id):
            raise ConfigError("BAD_NODE_ID", f"{id_path} is corrupt", key="node_id")
        return node_id
    node_id = secrets.token_bytes(16).hex()
    id_path.write_text(node_id + "\n")
    return node_id


_CONFIG = {"display_name?": TEXT, "listen?": str, "peers?": [str],
           "uplink?": {"relay": TEXT, "client_id": TEXT, "token": TEXT},
           "published?": [{"component": str, "group?": TEXT}]}


def load_config(config_dir: Path) -> NodeConfig:
    """Read config.json; a missing file yields an all-defaults client config.
    Raises ConfigError UNKNOWN_KEY, MALFORMED or BAD_ADDRESS; ``key`` names
    the entry."""
    config_dir = Path(config_dir)
    path = config_dir / "config.json"
    if not path.exists():
        return NodeConfig(config_dir)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("MALFORMED", f"{path}: {exc.msg} at line {exc.lineno}") from exc
    if found := misfit(_CONFIG, doc, closed=True):
        key, reason = found
        raise ConfigError("UNKNOWN_KEY" if reason == "unknown field" else "MALFORMED",
                          f"{path}: {key or 'config'}: {reason}", key=key or None)

    listen, peers = doc.get("listen"), doc.get("peers") or []
    if listen is not None:
        parse_address(listen, "listen")
    for i, peer in enumerate(peers):
        parse_address(peer, f"peers[{i}]")
    uplink = doc.get("uplink")
    if uplink is not None:
        parse_address(uplink["relay"], "uplink.relay")
        uplink = UplinkSettings(**uplink)
    published = [Publication(entry["component"], entry.get("group") or "PUBLIC")
                 for entry in doc.get("published") or []]
    return NodeConfig(config_dir, doc.get("display_name") or "toolgrid-node",
                      listen, peers, uplink, published)


def save_config(config: NodeConfig) -> None:
    config.config_dir.mkdir(parents=True, exist_ok=True)
    doc: dict = {
        "display_name": config.display_name,
        "listen": config.listen,
        "peers": list(config.peers),
        "uplink": None,
        "published": [{"component": p.component, "group": p.group}
                      for p in config.published],
    }
    if config.uplink:
        doc["uplink"] = {"relay": config.uplink.relay,
                         "client_id": config.uplink.client_id,
                         "token": config.uplink.token}
    path = config.config_dir / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
