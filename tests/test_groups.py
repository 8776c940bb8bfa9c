import hashlib
import hmac as hmac_mod
import json

import pytest
from hypothesis import given, strategies as st

from toolgrid.errors import CryptoError
from toolgrid.groups import (
    CHALLENGE_LEN,
    GroupKey,
    announcement_slot,
    decrypt_announcement,
    decrypt_payload_json,
    derive_group_key_material,
    encrypt_announcement,
    encrypt_payload_json,
    load_group_key,
    load_group_keys,
    membership_proof,
    new_challenge,
    new_group_key,
    save_group_key,
    verify_proof,
)

ZERO_SECRET = b"\x00" * 32


def test_derivation_vectors_for_zero_secret():
    # frozen against the published derivation: sha256(secret)[:16] names the
    # key, domain-separated sha256 digests split encryption from authentication
    km = derive_group_key_material(ZERO_SECRET)
    assert km.key_id == "66687aadf862bd77"
    assert km.enc_key.hex() == (
        "6112c93e342bee03388e10e5251029968451dfa52ed927077e23b8d38bb85a97")
    assert km.mac_key.hex() == (
        "f6df15b72b5ef867909aa4c4efaea553dfff56efd21dae468656e180dbb4cfd8")


def test_derivation_matches_reference_recipe():
    secret = bytes(range(32))
    km = derive_group_key_material(secret)
    assert km.key_id == hashlib.sha256(secret).hexdigest()[:16]
    assert km.enc_key == hashlib.sha256(secret + b"announce-enc").digest()
    assert km.mac_key == hashlib.sha256(secret + b"exec-mac").digest()
    assert km.enc_key != km.mac_key


def test_key_material_is_derived_once_per_key():
    key = GroupKey("team", bytes(range(32)))
    assert key.material == derive_group_key_material(key.secret)
    assert key.material is key.material
    assert key.key_id == key.material.key_id


def test_secret_length_enforced():
    for bad in (b"", b"short", b"\x00" * 31, b"\x00" * 33):
        with pytest.raises(CryptoError) as err:
            derive_group_key_material(bad)
        assert err.value.code == "BAD_SECRET_LENGTH"


def test_new_group_keys_are_distinct():
    a, b = new_group_key("team"), new_group_key("team")
    assert a.secret != b.secret
    assert a.key_id != b.key_id


def test_group_name_rules():
    with pytest.raises(CryptoError):
        GroupKey("-leading-dash", ZERO_SECRET)
    with pytest.raises(CryptoError):
        GroupKey("has space", ZERO_SECRET)
    with pytest.raises(CryptoError):
        GroupKey("org/slash", ZERO_SECRET)
    key = GroupKey("acme_R-D", ZERO_SECRET)
    assert key.display() == "acme_R-D/66687aadf862bd77"


def test_announcement_encryption_roundtrip_and_tamper():
    km = derive_group_key_material(ZERO_SECRET)
    payload = b'{"component":"solver@2"}'
    box = encrypt_announcement(payload, km.enc_key)
    assert box != payload
    assert decrypt_announcement(box, km.enc_key) == payload

    # nonce is fresh per encryption, ciphertexts differ
    assert encrypt_announcement(payload, km.enc_key) != box

    flipped = bytes([box[0] ^ 1]) + box[1:]
    with pytest.raises(CryptoError):
        decrypt_announcement(flipped, km.enc_key)

    other = derive_group_key_material(b"\x01" * 32)
    with pytest.raises(CryptoError):
        decrypt_announcement(box, other.enc_key)


def test_payload_json_helpers():
    km = derive_group_key_material(ZERO_SECRET)
    doc = {"name": "solver", "inputs": {"x": "float"}}
    box = encrypt_payload_json(doc, km.enc_key)
    assert decrypt_payload_json(box, km.enc_key) == doc
    with pytest.raises(CryptoError):
        decrypt_payload_json(box[:-1], km.enc_key)


def test_membership_proof_vectors_and_verification():
    km = derive_group_key_material(ZERO_SECRET)
    nonce, digest = b"\x01" * 16, b"\x02" * 32
    tag = membership_proof(km.mac_key, nonce, digest)
    assert tag.hex() == (
        "c7b780778ec1d037e25120aa91b8d24cf0bb0abf0a2d4b0cdb228d6669bece3e")
    assert tag == hmac_mod.new(km.mac_key, nonce + digest, hashlib.sha256).digest()
    assert verify_proof(km.mac_key, nonce, digest, tag)
    assert not verify_proof(km.mac_key, nonce, digest, tag[:-1] + b"\x00")
    assert not verify_proof(b"\x09" * 32, nonce, digest, tag)
    assert not verify_proof(km.mac_key, b"\x03" * 16, digest, tag)
    assert not verify_proof(km.mac_key, nonce, b"\x04" * 32, tag)


def test_proof_input_lengths_enforced():
    km = derive_group_key_material(ZERO_SECRET)
    with pytest.raises(CryptoError):
        membership_proof(km.mac_key, b"\x01" * 8, b"\x02" * 32)
    with pytest.raises(CryptoError):
        membership_proof(km.mac_key, b"\x01" * 16, b"\x02" * 16)
    # verification never throws on malformed inputs, it just fails
    assert not verify_proof(km.mac_key, b"", b"", b"")


def test_challenge_nonces():
    seen = {new_challenge() for _ in range(64)}
    assert len(seen) == 64
    assert all(len(n) == CHALLENGE_LEN for n in seen)


def test_announcement_slot_is_keyed_and_stable():
    km = derive_group_key_material(ZERO_SECRET)
    slot = announcement_slot(km.mac_key, "demo")
    assert slot == hmac_mod.new(km.mac_key, b"slot:demo",
                                hashlib.sha256).hexdigest()[:16]
    assert announcement_slot(km.mac_key, "demo") == slot
    assert announcement_slot(km.mac_key, "demo2") != slot
    other = derive_group_key_material(b"\x01" * 32)
    assert announcement_slot(other.mac_key, "demo") != slot


def test_key_file_roundtrip(tmp_path):
    key = GroupKey("acme", ZERO_SECRET)
    path = save_group_key(key, tmp_path)
    assert path == tmp_path / "acme.key"
    loaded = load_group_key(path)
    assert loaded.name == "acme"
    assert loaded.secret == ZERO_SECRET
    assert loaded.key_id == "66687aadf862bd77"


def test_load_group_keys_indexes_by_key_id(tmp_path):
    a = new_group_key("one")
    b = new_group_key("two")
    save_group_key(a, tmp_path)
    save_group_key(b, tmp_path)
    (tmp_path / "notes.txt").write_text("not a key file")
    keys = load_group_keys(tmp_path)
    assert set(keys) == {a.key_id, b.key_id}
    assert keys[a.key_id].name == "one"


def test_load_group_key_rejects_corrupt_files(tmp_path):
    bad = tmp_path / "broken.key"
    bad.write_text(json.dumps({"secret": "zz"}))
    with pytest.raises(CryptoError):
        load_group_key(bad)
    bad.write_text("abcd")  # hex, but not 32 bytes of it
    with pytest.raises(CryptoError):
        load_group_key(bad)


@given(st.binary(min_size=0, max_size=4096), st.binary(min_size=32, max_size=32))
def test_encrypt_decrypt_roundtrip_any_payload(payload, secret):
    km = derive_group_key_material(secret)
    assert decrypt_announcement(encrypt_announcement(payload, km.enc_key),
                                km.enc_key) == payload
