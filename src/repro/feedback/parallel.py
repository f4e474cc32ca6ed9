"""Parallel-prefix feedback merging for the ``C >= 2t^2`` regime (Section 5.5).

The serial routine of Figure 1 handles one slot at a time; with many channels
the paper instead merges feedback *in parallel*: witness groups pair up, each
pair gets a dedicated channel block, the two groups exchange their knowledge
with a short randomized hop phase — all pairs simultaneously, since the
blocks are channel-disjoint — and the merged groups recurse.  The tree has
depth ``O(log C')`` and each level costs ``O(log n)`` rounds, for
``O(log^2 n)`` total.  A final dissemination stage broadcasts the fully
merged flag set to every participant.

Reconstruction note: the paper assigns each pair
"a unique set of t channels", but a ``t``-channel block can be fully jammed
by the budget-``t`` adversary, deterministically stalling that pair.  We
assign ``2t``-channel blocks instead — the capacity ``C >= 2t^2`` admits
``C'/2 = C/(2t) >= t`` simultaneous pairs needing ``C/(2t) * 2t = C``
channels, which exactly fits — so every listener retains success probability
``>= 1/2`` per round no matter how the adversary concentrates its budget,
and the ``O(log^2 n)`` bound survives.  Each witness group must therefore
hold at least ``2t`` members (one honest broadcaster per block channel,
which is what keeps spoofing impossible).

Wire format
-----------
Knowledge frames are digest/delta frames
(:class:`~repro.radio.messages.DeltaFrame`, kind
:data:`~repro.radio.messages.DELTA_KIND`, mirroring the Section 5.6 digest
pipeline): a digest of the frame's slot coverage plus only the true-flag
slots — the only entries that can ever enter an output set ``D``.
Receivers keep per-listener applied-digest state (:class:`DeltaApplyState`):
a frame whose digest was already applied is skipped in O(1), a fresh frame
is verified against its digest and its delta applied in place, and a digest
mismatch falls back to the frame's embedded full-frame items (the resync
escape hatch) or drops the frame.

The historical full-frame encoding (the whole ``slot -> flag`` map in every
frame) and the one-``execute_round``-per-repetition transfer loop live on
as equivalence oracles in ``tests/oracles/feedback.py``.  Seeded runs of
the two encodings produce identical ``D`` maps, radio metrics (bar the
payload-size counter the delta shrinks), and semantically identical traces
under every adversary — ``tests/test_feedback_delta.py`` is the
differential gauntlet enforcing that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..errors import ConfigurationError
from ..radio.actions import Transmit
from ..radio.messages import DELTA_KIND, DeltaFrame, Message
from ..radio.network import (
    HopBlock,
    RadioNetwork,
    RoundSchedule,
    hop_hits,
    hop_row,
)
from ..radio.shapes import ScheduleShapeCache
from ..rng import BlockDrawer, RngRegistry


@dataclass
class _Group:
    """A witness group in the merge tree with its accumulated knowledge.

    ``true_slots`` and ``digest`` are the delta-encoding view of
    ``knowledge``: the true-flag slots in ascending order (the merge tree
    pairs adjacent groups, so concatenation preserves order) and the
    incremental slot-set digest over them.  Both are maintained in O(1)
    per merge via :func:`~repro.fame.digests.combine_digests`.
    """

    members: tuple[int, ...]
    knowledge: dict[int, bool]  # slot -> flag
    true_slots: tuple[int, ...]
    digest: bytes


class DeltaApplyState:
    """Receiver-side bookkeeping for digest/delta knowledge frames.

    One instance lives for one :func:`run_parallel_feedback` invocation and
    tracks, per listener, which frame digests have already been applied —
    the *applied-epoch* set that turns the O(frame) per-decode
    ``dict.update`` of a full-frame encoding into an O(1) skip after the
    first application.  Frame verification (hashing the delta and checking
    it against the frame's digest) is cached per frame value, so it happens
    once per transfer, not once per listener or per repetition.

    Counters (all per-invocation):

    ``applications``
        First-time applications of a frame to a listener's knowledge.
    ``skips``
        O(1) already-applied short-circuits.
    ``digest_mismatches``
        Distinct frames whose delta failed digest verification.
    ``resyncs``
        Mismatched frames recovered through their embedded full-frame
        payload (the escape hatch); a mismatch without a resync payload
        drops the frame.
    """

    def __init__(self, hash1: Callable[..., bytes] | None = None) -> None:
        from ..fame.digests import slot_set_digest

        self._digest = lambda slots: slot_set_digest(slots, hash1=hash1)
        # One state serves one invocation: leaf/merge digests are
        # deterministic functions of the slot layout, so a reused state
        # would silently skip a second run's frames as already applied.
        # run_parallel_feedback claims the state via _claim().
        self._claimed = False
        self.applied: dict[int, set] = {}
        # Verification cache keyed by frame identity: frames are shared
        # objects (one per transfer, referenced by the live schedule), so
        # the id lookup avoids rehashing the frame's slot tuple on every
        # decode; the frame itself is kept in the value to pin the id.
        self._verified: dict[int, tuple[DeltaFrame, tuple | None]] = {}
        self.applications = 0
        self.skips = 0
        self.digest_mismatches = 0
        self.resyncs = 0

    def _claim(self) -> None:
        """Bind this state to one invocation (reuse is a caller bug)."""
        if self._claimed:
            raise ConfigurationError(
                "DeltaApplyState is single-use: a second invocation would "
                "skip frames whose digests the first already applied; "
                "pass a fresh state per run_parallel_feedback call"
            )
        self._claimed = True

    def resolve(self, frame: DeltaFrame) -> tuple | None:
        """Classify a frame once: ``(applied_key, items)`` or ``None``.

        A *verified* delta's applied key is its digest (which verification
        just proved identifies the content) and its items are the cached
        ``{slot: True}`` map; a digest-mismatch frame with a resync payload
        is keyed by the whole frame value — its digest is exactly what
        failed, so two corrupted frames sharing a bogus digest must not
        skip each other — with the embedded full items; an unverifiable
        frame (mismatch, no resync items) classifies as ``None`` and is
        dropped without marking anything applied, so a later well-formed
        frame with the same digest still lands.
        """
        try:
            return self._verified[id(frame)][1]
        except KeyError:
            pass
        if self._digest(frame.true_slots) == frame.digest:
            verdict: tuple | None = (
                frame.digest,
                {slot: True for slot in frame.true_slots},
            )
        else:
            self.digest_mismatches += 1
            if frame.full is not None:
                self.resyncs += 1
                verdict = (frame, dict(frame.full))
            else:
                verdict = None
        self._verified[id(frame)] = (frame, verdict)
        return verdict


def _delta_payload(group: _Group, tag: object) -> DeltaFrame:
    """The digest/delta encoding of ``group``'s knowledge for one transfer.

    Built once per transfer and shared by every broadcaster of the block
    across every repetition.
    """
    return DeltaFrame(tag=tag, digest=group.digest, true_slots=group.true_slots)


def _run_transfer_rounds(
    network: RadioNetwork,
    transfers: Sequence[
        tuple[
            Sequence[int],
            Sequence[int],
            Sequence[int],
            Mapping[int, bool],
            DeltaFrame,
        ]
    ],
    per_node_knowledge: dict[int, dict[int, bool]],
    tag: object,
    repetitions: int,
    rng: RngRegistry,
    phase: str,
    rng_namespace: object,
    delta_state: DeltaApplyState,
    shapes: ScheduleShapeCache,
) -> None:
    """Run ``repetitions`` rounds of simultaneous directed transfers.

    Each transfer is ``(broadcasters, listeners, block_channels, knowledge,
    delta_payload)``; blocks must be channel-disjoint (validated).  Every
    block channel is occupied by an honest broadcaster each round, so
    adversarial frames can only collide, never be decoded.  Listeners hop
    uniformly within their block and merge any knowledge frame with a
    matching tag.  ``delta_payload`` is the transfer's prebuilt
    :class:`~repro.radio.messages.DeltaFrame`; ``knowledge`` is the source
    group's whole ``slot -> flag`` map, which this path does not put on
    the air (the full-frame oracle in ``tests/oracles/feedback.py`` does).

    The repetition loop is oblivious, so it is submitted as one
    :class:`~repro.radio.network.HopBlock`: the broadcaster assignment is
    its static template (each knowledge frame built once, not once per
    repetition — the frames of one transfer are identical across rounds),
    its channel tuple is the transfer blocks laid end to end, and each
    listener's hop row is its whole block-hop sequence, drawn in one
    :class:`~repro.rng.BlockDrawer` call and shifted to its transfer's
    positions.  The fold intersects each channel's mask of rounds that
    decoded a matching frame with each listener's hop row.  A listener
    applies a frame once, at the first round it heard it, and every later
    hearing counts as a skip, so the per-node application order and the
    :class:`DeltaApplyState` counters are exactly those of a per-round
    fold.  Round metadata and stream tables come from ``shapes``.
    """
    used_channels: set[int] = set()
    for broadcasters, _, block, _, _ in transfers:
        overlap = used_channels & set(block)
        if overlap:
            raise ConfigurationError(
                f"transfer blocks overlap on channels {sorted(overlap)}"
            )
        used_channels.update(block)
        if len(broadcasters) < len(block):
            raise ConfigurationError(
                f"group of {len(broadcasters)} cannot occupy a "
                f"{len(block)}-channel block"
            )

    channels = tuple(c for _, _, block, _, _ in transfers for c in block)
    width = len(channels)
    template: dict[int, Transmit] = {}
    listeners: list[int] = []
    rows: list = []
    # Per transfer: its channel positions and its listeners' index range.
    spans: list[tuple[int, int, int, int]] = []
    offset = 0
    for broadcasters, transfer_listeners, block, _, delta in transfers:
        for idx, channel in enumerate(block):
            sender = broadcasters[idx]
            template[sender] = Transmit(
                channel, Message(kind=DELTA_KIND, sender=sender, payload=delta)
            )
        # Each listener's whole hop sequence in one draw (choice-stream
        # compatible; see the invariant in repro.rng), drawn as indices
        # within the transfer's block and shifted to its positions.
        nblock = len(block)
        draw = BlockDrawer(nblock).draw
        streams = shapes.streams(
            rng, rng_namespace, "merge-listen", transfer_listeners
        )
        first = len(listeners)
        for node, stream in zip(transfer_listeners, streams):
            listeners.append(node)
            rows.append(hop_row(draw(stream, repetitions), width, offset))
        spans.append((offset, offset + nblock, first, len(listeners)))
        offset += nblock
    block = HopBlock(
        repetitions,
        template,
        channels,
        tuple(listeners),
        tuple(rows),
        shapes.meta(phase, tag=tag),
    )

    heard = network.execute_schedule(RoundSchedule([block]))

    def classify(received: Message) -> tuple | None:
        frame = received.payload
        if (
            received.kind != DELTA_KIND
            or not isinstance(frame, DeltaFrame)
            or frame.tag != tag
        ):
            return None
        return delta_state.resolve(frame)

    masks = block.decoded_masks(heard, classify)
    if not masks:
        return
    applied = delta_state.applied
    applications = skips = 0
    for lo, hi, first, last in spans:
        transfer_masks = [entry for entry in masks if lo <= entry[0] < hi]
        if not transfer_masks:
            continue
        for node, row in zip(listeners[first:last], rows[first:last]):
            # What this listener heard, per frame key: the first round it
            # heard it in and how many rounds it did.
            heard_keys: dict[object, list] = {}
            for pos, (key, items), mask in transfer_masks:
                hits = hop_hits(row, pos, mask)
                if hits:
                    first_round = (hits & -hits).bit_length()
                    got = heard_keys.get(key)
                    if got is None:
                        heard_keys[key] = [first_round, hits.bit_count(), items]
                    else:
                        got[0] = min(got[0], first_round)
                        got[1] += hits.bit_count()
            if not heard_keys:
                continue
            ordered = heard_keys.items()
            if len(heard_keys) > 1:
                ordered = sorted(ordered, key=lambda kv: kv[1][0])
            knowledge = per_node_knowledge[node]
            # The first hearing of a key the node has not applied applies
            # it, every other hearing is a skip.
            seen = applied.get(node)
            if seen is None:
                seen = applied[node] = set()
            for key, (_, count, items) in ordered:
                if key in seen:
                    skips += count
                    continue
                knowledge.update(items)
                seen.add(key)
                applications += 1
                skips += count - 1
    delta_state.applications += applications
    delta_state.skips += skips


def run_parallel_feedback(
    network: RadioNetwork,
    witness_sets: Sequence[Sequence[int]],
    flags: Mapping[int, bool],
    participants: Sequence[int],
    rng: RngRegistry,
    *,
    repetitions: int | None = None,
    phase: str = "feedback-parallel",
    rng_namespace: object = "feedback-parallel",
    delta_state: DeltaApplyState | None = None,
    shape_cache: ScheduleShapeCache | None = None,
) -> dict[int, set[int]]:
    """Merge per-slot flags through a parallel-prefix tree; return each
    participant's ``D`` (slot indices whose flag is true).

    Parameters mirror :func:`repro.feedback.protocol.run_feedback`; here
    ``witness_sets[r]`` must contain at least ``2t`` members, and the
    network must offer enough channels for the first level's simultaneous
    blocks (guaranteed by ``C >= 2t^2`` when ``len(witness_sets) <= C/t``).

    Knowledge travels in digest/delta frames (see the module docstring).
    A caller may pass its own (fresh) :class:`DeltaApplyState` to inspect
    the apply/skip/resync counters afterwards; states are single-use —
    reuse across invocations raises, because repeated digests would be
    skipped as already applied — and by default one is created per
    invocation.

    ``shape_cache`` mirrors :func:`run_feedback`: an optional
    cross-invocation shape cache.  Within one invocation the merge tree
    always shares one cache, so the per-level transfer rounds reuse
    metadata and stream tables even when the caller passes none.
    """
    t = network.t
    block_size = max(1, 2 * t)
    slots = len(witness_sets)
    if slots == 0:
        return {node: set() for node in participants}
    shapes = shape_cache if shape_cache is not None else ScheduleShapeCache()

    from ..fame.digests import combine_digests, slot_set_digest

    if delta_state is None:
        delta_state = DeltaApplyState()
    delta_state._claim()

    groups: list[_Group] = []
    per_node_knowledge: dict[int, dict[int, bool]] = {}
    for r, witness_set in enumerate(witness_sets):
        members = tuple(witness_set)
        if len(members) < block_size:
            raise ConfigurationError(
                f"witness set {r} has {len(members)} members; the parallel "
                f"merge needs at least 2t = {block_size}"
            )
        flag_values = {flags[w] for w in members if w in flags}
        if len(flag_values) != 1:
            raise ConfigurationError(
                f"witness set {r} missing or inconsistent flags"
            )
        flag = next(iter(flag_values))
        true_slots = (r,) if flag else ()
        groups.append(
            _Group(
                members=members,
                knowledge={r: flag},
                true_slots=true_slots,
                digest=slot_set_digest(true_slots),
            )
        )
        for w in members:
            per_node_knowledge[w] = {r: flag}
    for node in participants:
        per_node_knowledge.setdefault(node, {})

    if repetitions is None:
        # Block of 2t channels with at most t jammed: success probability
        # >= 1/2 per round, matching the C = 2t feedback formula.
        repetitions = network.params.feedback_repetitions(
            network.n, max(2, block_size), min(t, max(2, block_size) - 1)
        )

    level = 0
    while len(groups) > 1:
        pairs = [
            (groups[i], groups[i + 1]) for i in range(0, len(groups) - 1, 2)
        ]
        carry = [groups[-1]] if len(groups) % 2 == 1 else []
        needed = len(pairs) * block_size
        if needed > network.channels:
            raise ConfigurationError(
                f"parallel merge level {level} needs {needed} channels; "
                f"only {network.channels} available (C >= 2t^2 required)"
            )
        # Two directed sub-phases; within each, all pairs run simultaneously
        # on disjoint channel blocks.
        for direction in (0, 1):
            tag = (level, direction)
            transfers = []
            for pair_idx, (left, right) in enumerate(pairs):
                src, dst = (left, right) if direction == 0 else (right, left)
                block = tuple(
                    range(pair_idx * block_size, (pair_idx + 1) * block_size)
                )
                transfers.append(
                    (
                        src.members,
                        dst.members,
                        block,
                        src.knowledge,
                        _delta_payload(src, tag),
                    )
                )
            _run_transfer_rounds(
                network,
                transfers,
                per_node_knowledge,
                tag=tag,
                repetitions=repetitions,
                rng=rng,
                phase=phase,
                rng_namespace=(rng_namespace, level, direction),
                delta_state=delta_state,
                shapes=shapes,
            )
        next_groups: list[_Group] = []
        for left, right in pairs:
            merged_knowledge = dict(left.knowledge)
            merged_knowledge.update(right.knowledge)
            # Adjacent pairs cover adjacent slot ranges, so the
            # concatenation stays sorted and the disjoint-union digest
            # combines in O(1).
            next_groups.append(
                _Group(
                    members=left.members + right.members,
                    knowledge=merged_knowledge,
                    true_slots=left.true_slots + right.true_slots,
                    digest=combine_digests(left.digest, right.digest),
                )
            )
        groups = next_groups + carry
        level += 1

    # Final dissemination: the root group broadcasts to everyone else.
    root = groups[0]
    block = tuple(range(block_size))
    outsiders = [p for p in participants if p not in set(root.members)]
    if outsiders:
        tag = ("final", level)
        _run_transfer_rounds(
            network,
            [
                (
                    root.members,
                    outsiders,
                    block,
                    root.knowledge,
                    _delta_payload(root, tag),
                )
            ],
            per_node_knowledge,
            tag=tag,
            repetitions=repetitions,
            rng=rng,
            phase=phase,
            rng_namespace=(rng_namespace, "final"),
            delta_state=delta_state,
            shapes=shapes,
        )

    return {
        node: {slot for slot, flag in per_node_knowledge[node].items() if flag}
        for node in participants
    }
