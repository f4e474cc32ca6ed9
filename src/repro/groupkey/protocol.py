"""Establishing a shared group key (Section 6).

Three parts, all running on the same radio network:

* **Part 1 — pairwise keys** (``O(n t^3 log n)`` rounds): f-AME over the
  ``(t+1)``-leader spanner carries each node's Diffie-Hellman public value;
  every pair whose two ordered exchanges both succeeded derives a shared
  pairwise key the adversary cannot compute.

* **Part 2 — leader-key dissemination** (``Θ(n t^2 log n)`` rounds): every
  *complete* leader (one that exchanged keys with at least ``n - 1 - t``
  partners) picks a leader key and sends it to each partner during that
  pair's epoch, encrypted under the pairwise key, on a channel-hopping
  pattern derived from the same key.  The adversary neither predicts the
  channel (so jamming succeeds with probability at most ``t/C`` per round)
  nor forges ciphertexts (authenticated encryption).

* **Part 3 — key agreement** (``Θ(t^3 log n)`` rounds): ``2t + 1``
  non-leader reporters each broadcast, over a randomized epoch, the
  smallest leader they received a key from plus that key's hash.  A node
  adopts the smallest leader key it can verify that gathered reports from
  ``t + 1`` distinct reporters.

Reproduction note: Part 3 reports are unauthenticated,
so a spoofing adversary can replay a *later* complete leader's report under
fabricated reporter ids.  Nodes that know the smallest completed leader's
key are unaffected (the smallest-verified rule adopts it regardless); only
nodes already cut off from that leader — at most ``t``, by Part 1's
``t``-disruptability — can be steered to a different (still honest-leader)
key.  This matches the paper's guarantee that all but ``t`` nodes adopt the
group key.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping, Sequence

from ..crypto.dh import DEFAULT_GROUP, DhGroup, pairwise_context
from ..crypto.hashes import h2
from ..crypto.hopping import ChannelHopper
from ..crypto.stream import AuthenticatedCipher, Ciphertext, nonce_from_counter
from ..errors import ConfigurationError, CryptoError
from ..fame.config import FameConfig, make_config
from ..fame.protocol import FameProtocol
from ..radio.messages import Message
from ..radio.network import (
    HopBlock,
    RadioNetwork,
    RoundMeta,
    RoundSchedule,
    TransmitColumn,
    hop_hits,
    hop_row,
)
from ..rng import BlockDrawer, RngRegistry
from .result import GroupKeyResult
from .spanner import choose_leaders, leader_spanner

LEADER_KEY_KIND = "gk-leaderkey"
REPORT_KIND = "gk-report"


class GroupKeyProtocol:
    """One group-key establishment run.

    Parameters
    ----------
    network:
        The radio network (must satisfy the f-AME population bound).
    rng:
        Honest randomness registry (DH exponents, hop listening, reporters).
    group:
        The Diffie-Hellman group; defaults to a fast simulation group that
        is structurally identical to the production RFC 3526 group.
    leaders:
        Leader ids; defaults to the ``t + 1`` lowest.
    config:
        f-AME channel-regime configuration for Part 1.
    """

    def __init__(
        self,
        network: RadioNetwork,
        rng: RngRegistry | None = None,
        *,
        group: DhGroup = DEFAULT_GROUP,
        leaders: Sequence[int] | None = None,
        config: FameConfig | None = None,
        channel_aware: bool = False,
    ) -> None:
        self.network = network
        self.rng = rng or RngRegistry(seed=0)
        self.group = group
        self.t = network.t
        self.n = network.n
        self.leaders = (
            tuple(sorted(leaders))
            if leaders is not None
            else choose_leaders(self.n, self.t)
        )
        if len(self.leaders) != self.t + 1:
            raise ConfigurationError(
                f"need exactly t+1={self.t + 1} leaders"
            )
        self.config = config or make_config(
            self.n, network.channels, self.t, params=network.params
        )
        # "With more channels, the cost can be reduced accordingly"
        # (Section 6): channel-aware Part 2 epochs shrink to Θ(log n)
        # once C >= 2t, mirroring the Section 7 parenthetical.
        self.channel_aware = channel_aware

    # ------------------------------------------------------------------
    # Part 1: pairwise keys via f-AME + DH.
    # ------------------------------------------------------------------

    def _part1_pairwise_keys(
        self, result: GroupKeyResult
    ) -> dict[frozenset[int], bytes]:
        start = self.network.metrics.rounds
        payload_start = self.network.metrics.payload_units
        keypairs = {
            v: self.group.keypair(self.rng.stream("dh", v))
            for v in range(self.n)
        }
        spanner = leader_spanner(self.n, self.t, self.leaders)
        messages = {(v, w): keypairs[v].public for (v, w) in spanner}
        fame = FameProtocol(
            self.network,
            spanner,
            messages=messages,
            rng=self.rng,
            config=self.config,
        ).run()
        result.fame_summary = fame.summary()

        pair_keys: dict[frozenset[int], bytes] = {}
        for v, w in spanner:
            if v > w:
                continue  # handle each unordered pair once
            forward = fame.outcomes.get((v, w))
            backward = fame.outcomes.get((w, v))
            if not (forward and backward and forward.success and backward.success):
                continue
            # w received v's public on (v, w); v received w's on (w, v).
            public_v_at_w = forward.message
            public_w_at_v = backward.message
            key_at_v = keypairs[v].shared_key(
                public_w_at_v, *pairwise_context(v, w)
            )
            key_at_w = keypairs[w].shared_key(
                public_v_at_w, *pairwise_context(v, w)
            )
            if key_at_v != key_at_w:  # pragma: no cover - f-AME authenticity
                raise CryptoError(
                    f"pair ({v}, {w}) derived mismatched keys despite "
                    "authenticated exchange"
                )
            pair_keys[frozenset((v, w))] = key_at_v
        result.pairwise_established = set(pair_keys)
        result.pairwise_keys = dict(pair_keys)
        result.part1_rounds = self.network.metrics.rounds - start
        result.part1_payload_units = (
            self.network.metrics.payload_units - payload_start
        )
        return pair_keys

    # ------------------------------------------------------------------
    # Part 2: leader-key dissemination over key-derived hop patterns.
    # ------------------------------------------------------------------

    def _part2_disseminate(
        self,
        pair_keys: Mapping[frozenset[int], bytes],
        result: GroupKeyResult,
    ) -> dict[int, dict[int, bytes]]:
        start = self.network.metrics.rounds
        payload_start = self.network.metrics.payload_units
        completed = []
        for v in self.leaders:
            partners = sum(
                1 for w in range(self.n)
                if w != v and frozenset((v, w)) in pair_keys
            )
            if partners >= self.n - 1 - self.t:
                completed.append(v)
        result.completed_leaders = tuple(completed)
        leader_keys = {
            v: bytes(self.rng.stream("leader-key", v).randbytes(32))
            for v in completed
        }
        result.leader_keys = dict(leader_keys)

        received: dict[int, dict[int, bytes]] = defaultdict(dict)
        for v in completed:
            received[v][v] = leader_keys[v]

        if self.channel_aware:
            epoch_rounds = self.network.params.hopping_epoch_rounds(
                self.n, self.network.channels, self.t
            )
        else:
            epoch_rounds = self.network.params.dissemination_epoch_rounds(
                self.n, self.t
            )
        channels = self.network.channels
        epoch_index = 0
        for v in self.leaders:
            for w in range(self.n):
                if w == v:
                    continue
                pair_key = pair_keys.get(frozenset((v, w)))
                meta = RoundMeta(
                    phase="groupkey-part2",
                    extra={"leader": v, "partner": w},
                )
                if pair_key is None:
                    # The epoch still burns its rounds in lockstep (the
                    # adversary acts; nothing is sent on this pair's behalf).
                    idle = HopBlock(epoch_rounds, {}, (), (), (), meta)
                    self.network.execute_schedule(RoundSchedule([idle]))
                    epoch_index += 1
                    continue
                hopper = ChannelHopper(
                    pair_key, channels, label=("part2", v, w)
                )
                cipher = AuthenticatedCipher(pair_key)
                # The whole epoch is deterministic given the pair key: one
                # block in which v hops with w and seals a fresh ciphertext
                # each round.
                if v in leader_keys:
                    plaintext, associated, tag = (
                        leader_keys[v], b"leader-key", "key"
                    )
                else:
                    plaintext, associated, tag = b"", b"incomplete", "incomplete"
                frames = tuple(
                    Message(
                        kind=LEADER_KEY_KIND,
                        sender=v,
                        payload=(
                            tag,
                            cipher.encrypt(
                                plaintext,
                                nonce=nonce_from_counter(epoch_index, r),
                                associated=associated,
                            ).as_tuple(),
                        ),
                    )
                    for r in range(epoch_rounds)
                )
                hops = hop_row(map(hopper.channel, range(epoch_rounds)), channels)
                epoch = HopBlock.hopping_epoch(hops, channels, {v: frames}, (w,), meta)
                heard = self.network.execute_schedule(RoundSchedule([epoch]))
                for channel, per_round in zip(hops, heard):
                    frame = per_round.get(channel)
                    if frame is None or frame.kind != LEADER_KEY_KIND:
                        continue
                    try:
                        tag, sealed_tuple = frame.payload
                        if tag != "key":
                            continue  # an incomplete leader sends no key
                        plaintext = cipher.decrypt(
                            Ciphertext.from_tuple(sealed_tuple),
                            associated=b"leader-key",
                        )
                    except (CryptoError, TypeError, ValueError):
                        continue  # forged or malformed — rejected
                    # Accepted: the epoch's later frames carry the same key.
                    received[w][v] = plaintext
                    break
                epoch_index += 1
        result.received_leader_keys = {
            node: dict(keys) for node, keys in received.items()
        }
        result.part2_rounds = self.network.metrics.rounds - start
        result.part2_payload_units = (
            self.network.metrics.payload_units - payload_start
        )
        return received

    # ------------------------------------------------------------------
    # Part 3: agreement on one leader key.
    # ------------------------------------------------------------------

    def _part3_agree(
        self,
        received: Mapping[int, Mapping[int, bytes]],
        result: GroupKeyResult,
    ) -> None:
        start = self.network.metrics.rounds
        payload_start = self.network.metrics.payload_units
        non_leaders = [v for v in range(self.n) if v not in self.leaders]
        reporters = non_leaders[: 2 * self.t + 1]
        if len(reporters) < 2 * self.t + 1:
            raise ConfigurationError(
                f"need {2 * self.t + 1} non-leader reporters, "
                f"have {len(reporters)}"
            )
        epoch_rounds = self.network.params.gossip_epoch_rounds(self.n, self.t)
        channels = self.network.channels
        all_channels = tuple(range(channels))

        def classify(got: Message) -> tuple[int, int, bytes] | None:
            """A decoded report as ``(claimed reporter, leader, key hash)``,
            or ``None`` when it is malformed or names no reporter."""
            if got.kind != REPORT_KIND:
                return None
            try:
                claimed_reporter, leader, key_hash = got.payload
            except (TypeError, ValueError):
                return None
            if claimed_reporter in reporters and isinstance(key_hash, bytes):
                return claimed_reporter, leader, key_hash
            return None

        # reports[node][(leader, key_hash)] = set of claimed reporter ids.
        reports: dict[int, dict[tuple[int, bytes], set[int]]] = {
            v: defaultdict(set) for v in range(self.n)
        }
        streams = [self.rng.stream("part3", node) for node in range(self.n)]
        for reporter in reporters:
            known = received.get(reporter, {})
            report_payload = None
            if known:
                smallest = min(known)
                report_payload = (
                    reporter,
                    smallest,
                    h2("leader-key", known[smallest]),
                )
            frame = (
                Message(
                    kind=REPORT_KIND, sender=reporter, payload=report_payload
                )
                if report_payload is not None
                else None
            )
            # The epoch's transmit/listen pattern is pure private coin
            # flips: materialize every node's hop sequence up front with
            # the batched BlockDrawer (``randrange(channels)`` bottoms out
            # in the same getrandbits rejection chain — see the invariant
            # in repro.rng — so per-stream consumption is byte-identical
            # to the historical per-round ``randrange`` loop) and submit
            # the whole epoch as one block: the listeners keep their
            # private hop rows and the reporter is the transmit column.
            # A silent reporter (no frame) draws nothing and sleeps.
            meta = RoundMeta(
                phase="groupkey-part3", extra={"reporter": reporter}
            )
            drawer = BlockDrawer(channels)
            rows = {
                node: hop_row(
                    drawer.draw(streams[node], epoch_rounds), channels
                )
                for node in range(self.n)
                if node != reporter or frame is not None
            }
            column = None
            if frame is not None:
                column = TransmitColumn(
                    (reporter,), rows.pop(reporter), ((frame,) * epoch_rounds,)
                )
            block = HopBlock(
                epoch_rounds, {}, all_channels, tuple(rows),
                tuple(rows.values()), meta, column,
            )
            heard = self.network.execute_schedule(RoundSchedule([block]))
            for position, report, mask in block.decoded_masks(heard, classify):
                for node, row in rows.items():
                    if hop_hits(row, position, mask):
                        reports[node][report[1:]].add(report[0])

        # The agreement rule: adopt the smallest leader whose key the node
        # can verify and that gathered t+1 distinct (claimed) reporters.
        adopted: dict[int, bytes | None] = {}
        for node in range(self.n):
            known = received.get(node, {})
            candidates = []
            for (leader, key_hash), who in reports[node].items():
                if len(who) < self.t + 1:
                    continue
                key = known.get(leader)
                if key is not None and h2("leader-key", key) == key_hash:
                    candidates.append((leader, key))
            adopted[node] = min(candidates)[1] if candidates else None
        result.adopted = adopted
        result.expected_leader = (
            min(result.completed_leaders) if result.completed_leaders else None
        )
        result.part3_rounds = self.network.metrics.rounds - start
        result.part3_payload_units = (
            self.network.metrics.payload_units - payload_start
        )

    # ------------------------------------------------------------------

    def run(self) -> GroupKeyResult:
        """Execute Parts 1-3; returns the full result object."""
        result = GroupKeyResult(n=self.n, t=self.t, leaders=self.leaders)
        pair_keys = self._part1_pairwise_keys(result)
        received = self._part2_disseminate(pair_keys, result)
        self._part3_agree(received, result)
        return result


def establish_group_key(
    network: RadioNetwork,
    rng: RngRegistry | None = None,
    *,
    group: DhGroup = DEFAULT_GROUP,
    leaders: Sequence[int] | None = None,
    config: FameConfig | None = None,
) -> GroupKeyResult:
    """Convenience wrapper: run :class:`GroupKeyProtocol` once."""
    return GroupKeyProtocol(
        network, rng, group=group, leaders=leaders, config=config
    ).run()
