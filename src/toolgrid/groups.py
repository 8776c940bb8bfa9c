"""Shared-secret authorization groups.

A group is nothing but knowledge of a 32-byte secret; there is no central
authority. From the secret, three things derive deterministically:

    key_id  = first 16 hex chars of SHA-256(secret)        public group label
    enc_key = SHA-256(secret || "announce-enc")            AEAD key
    mac_key = SHA-256(secret || "exec-mac")                proof/slot HMAC key

Announcements for a group are AES-256-GCM encrypted under enc_key with the
random 12-byte nonce prepended to the ciphertext. Membership is proven with a
challenge-response: tag = HMAC-SHA-256(mac_key, nonce || request_digest),
binding the proof to one server nonce and one exact request body.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import re
import secrets
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import CryptoError

SECRET_LEN = 32
NONCE_LEN = 12  # AEAD nonce, prepended to ciphertext
CHALLENGE_LEN = 16  # server-chosen challenge nonce
PUBLIC = "PUBLIC"

GROUP_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*\Z")


@dataclass(frozen=True)
class KeyMaterial:
    key_id: str
    enc_key: bytes
    mac_key: bytes


@dataclass(frozen=True)
class GroupKey:
    name: str
    secret: bytes

    def __post_init__(self):
        if not GROUP_NAME_RE.match(self.name):
            raise CryptoError("BAD_GROUP_NAME", f"bad group name {self.name!r}")
        if len(self.secret) != SECRET_LEN:
            raise CryptoError("BAD_SECRET_LENGTH",
                              f"secret must be {SECRET_LEN} bytes, got {len(self.secret)}")

    @cached_property
    def material(self) -> KeyMaterial:
        return derive_group_key_material(self.secret)

    @property
    def key_id(self) -> str:
        return self.material.key_id

    def display(self) -> str:
        return f"{self.name}/{self.key_id}"


def derive_group_key_material(secret: bytes) -> KeyMaterial:
    if not isinstance(secret, (bytes, bytearray)) or len(secret) != SECRET_LEN:
        raise CryptoError("BAD_SECRET_LENGTH",
                          f"secret must be {SECRET_LEN} bytes")
    secret = bytes(secret)
    key_id = hashlib.sha256(secret).hexdigest()[:16]
    enc_key = hashlib.sha256(secret + b"announce-enc").digest()
    mac_key = hashlib.sha256(secret + b"exec-mac").digest()
    return KeyMaterial(key_id, enc_key, mac_key)


def new_group_key(name: str) -> GroupKey:
    return GroupKey(name, secrets.token_bytes(SECRET_LEN))


def encrypt_announcement(payload: bytes, enc_key: bytes) -> bytes:
    nonce = secrets.token_bytes(NONCE_LEN)
    return nonce + AESGCM(enc_key).encrypt(nonce, payload, None)


def decrypt_announcement(ciphertext: bytes, enc_key: bytes) -> bytes:
    if len(ciphertext) < NONCE_LEN + 16:  # nonce plus the GCM tag
        raise CryptoError("DECRYPT_FAILED", "ciphertext shorter than nonce and tag")
    try:
        return AESGCM(enc_key).decrypt(ciphertext[:NONCE_LEN],
                                       ciphertext[NONCE_LEN:], None)
    except InvalidTag:
        raise CryptoError("DECRYPT_FAILED",
                          "wrong key or tampered ciphertext") from None


def encrypt_payload_json(doc: dict, enc_key: bytes) -> bytes:
    return encrypt_announcement(
        json.dumps(doc, separators=(",", ":"), sort_keys=True).encode(), enc_key)


def decrypt_payload_json(ciphertext: bytes, enc_key: bytes) -> dict:
    plaintext = decrypt_announcement(ciphertext, enc_key)
    try:
        doc = json.loads(plaintext)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CryptoError("DECRYPT_FAILED", "decrypted payload is not JSON") from exc
    if not isinstance(doc, dict):
        raise CryptoError("DECRYPT_FAILED", "decrypted payload is not an object")
    return doc


def new_challenge() -> bytes:
    return secrets.token_bytes(CHALLENGE_LEN)


def membership_proof(mac_key: bytes, nonce: bytes, request_digest: bytes) -> bytes:
    if len(nonce) != CHALLENGE_LEN:
        raise CryptoError("BAD_NONCE", f"challenge nonce must be {CHALLENGE_LEN} bytes")
    if len(request_digest) != 32:
        raise CryptoError("BAD_DIGEST", "request digest must be 32 bytes")
    return hmac.new(mac_key, nonce + request_digest, hashlib.sha256).digest()


def verify_proof(mac_key: bytes, nonce: bytes, request_digest: bytes,
                 tag: bytes) -> bool:
    try:
        expected = membership_proof(mac_key, nonce, request_digest)
    except CryptoError:
        return False
    return hmac.compare_digest(expected, tag)


def announcement_slot(mac_key: bytes, component_name: str) -> str:
    """Stable per-group registry slot for a component name.

    Group slots are HMAC-derived so non-members cannot tell which two
    announcements concern the same tool; PUBLIC announcements use the name
    itself as the slot.
    """
    return hmac.new(mac_key, b"slot:" + component_name.encode(),
                    hashlib.sha256).hexdigest()[:16]


# --- key files -----------------------------------------------------------------

def save_group_key(key: GroupKey, groups_dir: Path) -> Path:
    groups_dir = Path(groups_dir)
    groups_dir.mkdir(parents=True, exist_ok=True)
    path = groups_dir / f"{key.name}.key"
    path.write_text(key.secret.hex() + "\n")
    return path


def load_group_key(path: Path) -> GroupKey:
    path = Path(path)
    name = path.stem
    text = path.read_text().strip()
    try:
        secret = bytes.fromhex(text)
    except ValueError:
        raise CryptoError("BAD_KEY_FILE", f"{path} does not contain hex") from None
    return GroupKey(name, secret)


def load_group_keys(groups_dir: Path) -> dict[str, GroupKey]:
    """All keys under a directory, by key_id."""
    groups_dir = Path(groups_dir)
    keys: dict[str, GroupKey] = {}
    if groups_dir.is_dir():
        for path in sorted(groups_dir.glob("*.key")):
            key = load_group_key(path)
            keys[key.key_id] = key
    return keys
