"""Emulating a secure broadcast channel from a group key (Section 7).

One *emulated round* costs ``Θ(t log n)`` real rounds: the group derives the
round's channel-hopping pattern from the shared key, the (single) broadcaster
repeats its encrypted message on the pattern, and everyone else listens on
the pattern.  The adversary, keyless, sees each hop as uniform — jamming
``t`` of ``C`` channels blind fails with probability ``(C - t)/C`` per real
round, so the message lands with high probability.  Ciphertexts are
authenticated (encrypt-then-MAC) with the emulated round number and sender
id as associated data, which kills spoofing *and* replay across rounds.

Guarantees (with high probability, matching Section 7):

* **t-Reliability** — every key holder receives a sole broadcaster's
  message; at most the ``t`` nodes without the key are excluded;
* **Secrecy** — transmitted frames are ciphertexts under the group key;
* **Authentication** — a receiver accepts ``m`` from ``v`` only if ``v``
  sealed ``m`` for this emulated round.

Like a real broadcast channel, two concurrent broadcasters collide and
nobody delivers — scheduling is the application's job (see
:class:`repro.service.session.SecureSession`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..crypto.hashes import canonical_encode
from ..crypto.hopping import ChannelHopper
from ..crypto.stream import AuthenticatedCipher, Ciphertext, nonce_from_counter
from ..errors import ConfigurationError, CryptoError
from ..radio.messages import Message
from ..radio.network import (
    HopBlock,
    RadioNetwork,
    RoundMeta,
    RoundSchedule,
    hop_row,
)
from ..rng import RngRegistry

SERVICE_KIND = "service-frame"


@dataclass(frozen=True)
class Delivery:
    """One authenticated reception on the emulated channel."""

    emulated_round: int
    sender: int
    payload: bytes


class LongLivedChannel:
    """The emulated secure channel bound to one group key.

    Parameters
    ----------
    network:
        The radio network to emulate over.
    group_key:
        The shared secret from :mod:`repro.groupkey` (>= 16 bytes).
    members:
        Nodes holding the key; only they can send or receive.  Non-members
        sleep through service rounds (they are the at-most-``t`` nodes the
        reliability guarantee concedes).
    rng:
        Unused for hopping (the pattern is key-derived) but reserved for
        future randomized scheduling; kept for interface symmetry.
    """

    def __init__(
        self,
        network: RadioNetwork,
        group_key: bytes,
        members: Sequence[int],
        rng: RngRegistry | None = None,
        *,
        channel_aware_epochs: bool = False,
    ) -> None:
        if not isinstance(group_key, (bytes, bytearray)) or len(group_key) < 16:
            raise ConfigurationError("group key must be at least 16 bytes")
        self.network = network
        self.members = sorted(set(int(m) for m in members))
        if not all(0 <= m < network.n for m in self.members):
            raise ConfigurationError("member id out of range")
        if len(self.members) < 2:
            raise ConfigurationError("need at least two members")
        self._hopper = ChannelHopper(
            bytes(group_key), network.channels, label="service"
        )
        self._cipher = AuthenticatedCipher(bytes(group_key))
        self._channel_aware = channel_aware_epochs
        self._emulated_round = 0
        self._real_round_cursor = 0

    # ------------------------------------------------------------------

    @property
    def emulated_round(self) -> int:
        """Index of the next emulated round."""
        return self._emulated_round

    def epoch_length(self) -> int:
        """Real rounds per emulated round.

        The paper's base analysis charges ``Θ(t log n)`` (the default).
        With ``channel_aware_epochs=True`` the Section 7 parenthetical
        kicks in: at ``C >= 2t`` the keyless adversary hits the hop with
        probability at most 1/2 per round, so ``Θ(log n)`` suffices.
        """
        if self._channel_aware:
            return self.network.params.hopping_epoch_rounds(
                self.network.n, self.network.channels, self.network.t
            )
        return self.network.params.dissemination_epoch_rounds(
            self.network.n, self.network.t
        )

    def _associated(self, sender: int, emulated_round: int) -> bytes:
        return canonical_encode(("service", sender, emulated_round))

    def seal(self, sender: int, payload: bytes, emulated_round: int) -> Ciphertext:
        """Encrypt-and-authenticate ``payload`` for one emulated round."""
        return self._cipher.encrypt(
            payload,
            nonce=nonce_from_counter(emulated_round, sender),
            associated=self._associated(sender, emulated_round),
        )

    def run_round(
        self, broadcasts: Mapping[int, bytes]
    ) -> dict[int, Delivery | None]:
        """Execute one emulated round.

        Parameters
        ----------
        broadcasts:
            Map of sender member -> payload bytes.  An empty map emulates a
            silent round; two or more senders collide (like a real channel)
            and nobody delivers.

        Returns
        -------
        Per listening member, the authenticated :class:`Delivery` (or
        ``None`` for silence/disruption/forgery).
        """
        for sender in broadcasts:
            if sender not in self.members:
                raise ConfigurationError(
                    f"node {sender} is not a channel member"
                )
        er = self._emulated_round
        sealed = {
            sender: Message(
                kind=SERVICE_KIND,
                sender=sender,
                payload=(sender, er, self.seal(sender, payload, er).as_tuple()),
            )
            for sender, payload in broadcasts.items()
        }
        listeners = [m for m in self.members if m not in broadcasts]
        deliveries: dict[int, Delivery | None] = {m: None for m in listeners}

        # The epoch's hop pattern is key-derived and the frames are fixed:
        # one block in which the senders hop with every listener.
        meta = RoundMeta(phase="service", extra={"emulated_round": er})
        rounds = self.epoch_length()
        channels = self.network.channels
        cursor = self._real_round_cursor
        hops = hop_row(
            map(self._hopper.channel, range(cursor, cursor + rounds)), channels
        )
        self._real_round_cursor += rounds
        frames = {sender: (frame,) * rounds for sender, frame in sealed.items()}
        epoch = HopBlock.hopping_epoch(hops, channels, frames, listeners, meta)
        heard = self.network.execute_schedule(RoundSchedule([epoch]))

        for channel, per_round in zip(hops, heard):
            frame = per_round.get(channel)
            if frame is None or frame.kind != SERVICE_KIND:
                continue
            for member in listeners:
                if deliveries[member] is not None:
                    continue
                try:
                    claimed_sender, claimed_round, sealed_tuple = frame.payload
                    if claimed_round != er:
                        continue  # replay from another emulated round
                    ciphertext = Ciphertext.from_tuple(sealed_tuple)
                    payload = self._cipher.decrypt(
                        ciphertext,
                        associated=self._associated(claimed_sender, er),
                    )
                except (CryptoError, TypeError, ValueError):
                    continue  # forged or malformed — rejected
                deliveries[member] = Delivery(
                    emulated_round=er,
                    sender=claimed_sender,
                    payload=payload,
                )
        self._emulated_round += 1
        return deliveries
