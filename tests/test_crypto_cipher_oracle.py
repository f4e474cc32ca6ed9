"""``AuthenticatedCipher`` against the construction it was first built as.

The cipher keeps per-key hash state and builds its pad from counter-mode
blocks directly.  :class:`OracleCipher` below is the original composition,
kept verbatim: a full :func:`~repro.crypto.hashes.derive_key` and a
:class:`~repro.crypto.prg.Prg` per message, and a fresh :func:`hmac.new`
per tag.  The properties pin byte equality in both directions, over key
lengths, multi-block pads, ``bytearray`` inputs and arbitrary associated
data; the rejection tests pin that every tampered part still fails.
"""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashes import canonical_encode, derive_key
from repro.crypto.prg import Prg
from repro.crypto.stream import AuthenticatedCipher, Ciphertext
from repro.errors import CryptoError


class OracleCipher:
    """The encrypt-then-MAC composition the cipher must reproduce."""

    def __init__(self, key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)) or len(key) < 16:
            raise CryptoError("key must be at least 16 bytes")
        self._enc_key = derive_key(bytes(key), "enc")
        self._mac_key = derive_key(bytes(key), "mac")

    def _tag(self, nonce: bytes, body: bytes, associated: bytes) -> bytes:
        material = (
            canonical_encode(nonce)
            + canonical_encode(body)
            + canonical_encode(associated)
        )
        return hmac.new(self._mac_key, material, hashlib.sha256).digest()

    def encrypt(
        self, plaintext: bytes, nonce: bytes, associated: bytes = b""
    ) -> Ciphertext:
        if not isinstance(plaintext, (bytes, bytearray)):
            raise CryptoError("plaintext must be bytes")
        if not isinstance(nonce, (bytes, bytearray)) or not nonce:
            raise CryptoError("nonce must be non-empty bytes")
        pad = Prg(
            derive_key(self._enc_key, "nonce", bytes(nonce)), "xor"
        ).read(len(plaintext))
        body = bytes(a ^ b for a, b in zip(bytes(plaintext), pad))
        return Ciphertext(
            nonce=bytes(nonce),
            body=body,
            tag=self._tag(bytes(nonce), body, bytes(associated)),
        )

    def decrypt(self, sealed: Ciphertext, associated: bytes = b"") -> bytes:
        expected = self._tag(sealed.nonce, sealed.body, bytes(associated))
        if not hmac.compare_digest(expected, sealed.tag):
            raise CryptoError("authentication failed: bad tag")
        pad = Prg(
            derive_key(self._enc_key, "nonce", sealed.nonce), "xor"
        ).read(len(sealed.body))
        return bytes(a ^ b for a, b in zip(sealed.body, pad))


def _bytes_like(min_size: int, max_size: int):
    """``bytes`` or a ``bytearray`` of the same content."""
    return st.binary(min_size=min_size, max_size=max_size).flatmap(
        lambda b: st.sampled_from([b, bytearray(b)])
    )


KEYS = _bytes_like(16, 64)
PLAINTEXTS = _bytes_like(0, 100)  # 0-4 pad blocks
NONCES = _bytes_like(1, 24)
ASSOCIATED = _bytes_like(0, 40)


@settings(max_examples=200, deadline=None)
@given(key=KEYS, plaintext=PLAINTEXTS, nonce=NONCES, associated=ASSOCIATED)
def test_encrypt_matches_oracle(key, plaintext, nonce, associated):
    sealed = AuthenticatedCipher(key).encrypt(plaintext, nonce, associated)
    assert sealed == OracleCipher(key).encrypt(plaintext, nonce, associated)
    assert type(sealed.body) is bytes and type(sealed.nonce) is bytes


@settings(max_examples=200, deadline=None)
@given(key=KEYS, plaintext=PLAINTEXTS, nonce=NONCES, associated=ASSOCIATED)
def test_decrypt_matches_oracle(key, plaintext, nonce, associated):
    cipher, oracle = AuthenticatedCipher(key), OracleCipher(key)
    sealed = oracle.encrypt(plaintext, nonce, associated)
    opened = cipher.decrypt(sealed, associated)
    assert opened == oracle.decrypt(sealed, associated) == bytes(plaintext)
    assert type(opened) is bytes


@settings(max_examples=50, deadline=None)
@given(key=KEYS, plaintexts=st.lists(PLAINTEXTS, min_size=2, max_size=5))
def test_one_cipher_many_messages_matches_oracle(key, plaintexts):
    # The per-key state is copied, never advanced: message i must not
    # depend on the messages sealed before it.
    cipher, oracle = AuthenticatedCipher(key), OracleCipher(key)
    for i, plaintext in enumerate(plaintexts):
        nonce = i.to_bytes(8, "big")
        assert cipher.encrypt(plaintext, nonce) == oracle.encrypt(plaintext, nonce)


def _flip(data: bytes, index: int) -> bytes:
    out = bytearray(data)
    out[index % len(out)] ^= 0x01
    return bytes(out)


KEY = bytes(range(32))
SEALED = AuthenticatedCipher(KEY).encrypt(b"attack at dawn" * 3, b"n-7", b"ad")


@pytest.mark.parametrize("part", ["tag", "body", "nonce"])
@pytest.mark.parametrize("index", [0, 17, -1])
def test_flipped_part_rejected(part, index):
    fields = {"nonce": SEALED.nonce, "body": SEALED.body, "tag": SEALED.tag}
    fields[part] = _flip(fields[part], index)
    with pytest.raises(CryptoError):
        AuthenticatedCipher(KEY).decrypt(Ciphertext(**fields), b"ad")


@pytest.mark.parametrize("associated", [b"", b"aD", b"ad\x00", bytearray(b"ae")])
def test_other_associated_data_rejected(associated):
    with pytest.raises(CryptoError):
        AuthenticatedCipher(KEY).decrypt(SEALED, associated)


def test_untampered_bytearray_associated_data_accepted():
    assert (
        AuthenticatedCipher(KEY).decrypt(SEALED, bytearray(b"ad"))
        == b"attack at dawn" * 3
    )


@settings(max_examples=100, deadline=None)
@given(
    key=KEYS,
    plaintext=st.binary(min_size=1, max_size=100),
    part=st.sampled_from(["tag", "body", "nonce"]),
    index=st.integers(min_value=0, max_value=99),
)
def test_any_flipped_bit_rejected(key, plaintext, part, index):
    cipher = AuthenticatedCipher(key)
    sealed = cipher.encrypt(plaintext, b"nonce", b"ad")
    fields = {"nonce": sealed.nonce, "body": sealed.body, "tag": sealed.tag}
    fields[part] = _flip(fields[part], index)
    with pytest.raises(CryptoError):
        cipher.decrypt(Ciphertext(**fields), b"ad")


@pytest.mark.parametrize(
    "key, plaintext, nonce",
    [
        (bytes(15), b"x", b"n"),  # key too short
        ("k" * 32, b"x", b"n"),  # key not bytes
        (bytes(16), "x", b"n"),  # plaintext not bytes
        (bytes(16), b"x", b""),  # empty nonce
        (bytes(16), b"x", "n"),  # nonce not bytes
    ],
)
def test_input_checks_match_oracle(key, plaintext, nonce):
    for cls in (AuthenticatedCipher, OracleCipher):
        with pytest.raises(CryptoError):
            cls(key).encrypt(plaintext, nonce)
