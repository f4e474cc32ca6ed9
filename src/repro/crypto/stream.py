"""Authenticated symmetric encryption from the PRG (Sections 6-7).

The long-lived service needs, against an adversary *without* the key:

* **secrecy** — ciphertexts reveal nothing about plaintexts; and
* **authentication** — forged or tampered ciphertexts are rejected.

We build the standard encrypt-then-MAC construction: a PRG keystream XOR
for confidentiality and an HMAC-SHA256 tag over ``nonce || ciphertext ||
associated data`` for integrity.  Nonces are caller-supplied (protocols use
round/epoch counters) and must never repeat under one key — the classic
stream-cipher contract, stated loudly in :meth:`AuthenticatedCipher.encrypt`.

**Per-key state.**  The keystream for a nonce is ``Prg(derive_key(enc_key,
"nonce", nonce), "xor")`` and the tag is ``HMAC-SHA256(mac_key, ·)``.  Both
start with key-only input, so a cipher hashes that part once, in its
constructor: it keeps the SHA-256 state of ``derive_key(enc_key, "nonce",
·)`` fed up to the nonce, and the HMAC state keyed with ``mac_key``.  Each
message then copies those two states instead of re-deriving them, and
builds its pad from the PRG's counter-mode blocks directly.  The bytes are
exactly those of the :func:`~repro.crypto.hashes.derive_key` +
:class:`~repro.crypto.prg.Prg` + :func:`hmac.new` composition.
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass

from ..errors import CryptoError
from .hashes import canonical_encode, derive_key

TAG_SIZE = 32

# The key-independent parts of a per-nonce PRG's block input:
# ``b"repro/prg\0" + canonical_encode(seed) + canonical_encode("xor")``
# around the 32-byte seed, then an 8-byte block counter (see Prg.block).
_PAD_HEAD = b"repro/prg\x00" + canonical_encode(bytes(32))[:5]
_PAD_LABEL = canonical_encode("xor")


def _encode(value: bytes) -> bytes:
    """:func:`canonical_encode`, inlined for the ``bytes`` it sees here."""
    if type(value) is bytes:
        return b"b" + len(value).to_bytes(4, "big") + value
    return canonical_encode(value)


@dataclass(frozen=True)
class Ciphertext:
    """A sealed message: nonce (public), body, and authentication tag."""

    nonce: bytes
    body: bytes
    tag: bytes

    def as_tuple(self) -> tuple[bytes, bytes, bytes]:
        """Radio-friendly representation (tuple payloads hash canonically)."""
        return (self.nonce, self.body, self.tag)

    @classmethod
    def from_tuple(cls, value: tuple[bytes, bytes, bytes]) -> "Ciphertext":
        """Rebuild from :meth:`as_tuple` output; validates shape."""
        if (
            not isinstance(value, tuple)
            or len(value) != 3
            or not all(isinstance(part, (bytes, bytearray)) for part in value)
        ):
            raise CryptoError("malformed ciphertext tuple")
        nonce, body, tag = value
        return cls(nonce=bytes(nonce), body=bytes(body), tag=bytes(tag))


class AuthenticatedCipher:
    """Encrypt-then-MAC over a shared symmetric key.

    Parameters
    ----------
    key:
        Master key material; independent encryption and MAC keys are derived
        from it, so using the same master key elsewhere (e.g. for channel
        hopping) is safe.
    """

    def __init__(self, key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)) or len(key) < 16:
            raise CryptoError("key must be at least 16 bytes")
        enc_key = derive_key(bytes(key), "enc")
        # derive_key(enc_key, "nonce", nonce) hashes these bytes, then the
        # nonce's encoding.
        self._nonce_kdf = hashlib.sha256(
            b"repro/kdf\x00" + _encode(enc_key) + canonical_encode("nonce")
        )
        self._mac = hmac.new(derive_key(bytes(key), "mac"), digestmod=hashlib.sha256)

    def _tag(self, nonce: bytes, body: bytes, associated: bytes) -> bytes:
        mac = self._mac.copy()
        mac.update(_encode(nonce) + _encode(body) + _encode(associated))
        return mac.digest()

    def _xor_pad(self, nonce: bytes, data: bytes) -> bytes:
        """``data`` XOR the first ``len(data)`` keystream bytes for ``nonce``."""
        size = len(data)
        if not size:
            return b""
        kdf = self._nonce_kdf.copy()
        kdf.update(_encode(nonce))
        prefix = _PAD_HEAD + kdf.digest() + _PAD_LABEL
        sha256 = hashlib.sha256
        pad = b"".join(
            [
                sha256(prefix + i.to_bytes(8, "big")).digest()
                for i in range((size + 31) // 32)
            ]
        )
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(pad[:size], "big")
        ).to_bytes(size, "big")

    def encrypt(
        self, plaintext: bytes, nonce: bytes, associated: bytes = b""
    ) -> Ciphertext:
        """Seal ``plaintext``.

        ``nonce`` MUST be unique per message under this key (protocols use
        monotone counters); reuse leaks the XOR of the two plaintexts.
        ``associated`` is authenticated but not encrypted (e.g. sender id).
        """
        if not isinstance(plaintext, (bytes, bytearray)):
            raise CryptoError("plaintext must be bytes")
        if not isinstance(nonce, (bytes, bytearray)) or not nonce:
            raise CryptoError("nonce must be non-empty bytes")
        # Bind the keystream to the nonce by deriving a per-nonce stream.
        nonce = bytes(nonce)
        body = self._xor_pad(nonce, bytes(plaintext))
        return Ciphertext(
            nonce=nonce,
            body=body,
            tag=self._tag(nonce, body, bytes(associated)),
        )

    def decrypt(self, sealed: Ciphertext, associated: bytes = b"") -> bytes:
        """Open a ciphertext; raises :class:`CryptoError` on any tampering."""
        expected = self._tag(sealed.nonce, sealed.body, bytes(associated))
        if not hmac.compare_digest(expected, sealed.tag):
            raise CryptoError("authentication failed: bad tag")
        return self._xor_pad(sealed.nonce, sealed.body)


def nonce_from_counter(*parts: int) -> bytes:
    """Build a nonce from integer counters (round number, sender id, ...)."""
    return b"".join(p.to_bytes(8, "big", signed=True) for p in parts)
