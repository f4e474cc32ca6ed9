"""The synchronous radio network simulator.

:class:`RadioNetwork` resolves one round at a time.  The contract follows
Section 3 of the paper exactly:

* every honest node submits one :class:`~repro.radio.actions.Action`;
* the adversary — asked *after* the honest actions are fixed but shown only
  past history plus deterministic public metadata — submits up to ``t``
  transmissions on distinct channels;
* per channel: exactly one transmission ⇒ listeners decode it (if it is a
  message rather than noise); zero or several ⇒ listeners hear nothing.
  Listeners cannot distinguish silence, collision, and pure noise.

The adversary's one-round observation delay is enforced structurally: the
view object handed to the adversary contains the trace of *completed* rounds
only, alongside the current round's public ``meta`` (which the adversary
could derive itself, since protocols are known and their deterministic
schedule depends only on public history).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)

from ..errors import ConfigurationError, ProtocolViolation
from ..params import ProtocolParameters, DEFAULT_PARAMETERS, validate_model
from .actions import Action, Listen, Sleep, Transmit
from .messages import Jam, Message, Transmission
from .metrics import NetworkMetrics, frame_size, payload_size
from .trace import ExecutionTrace, RoundRecord, SparseDelivered

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..adversary.base import Adversary


@dataclass(frozen=True)
class RoundMeta:
    """Public, deterministic annotations attached to a round.

    ``phase`` labels the protocol phase (for metrics and adversaries);
    ``schedule`` optionally exposes the deterministic broadcast schedule of
    the round.  Exposing the schedule is not a leak: the paper's adversary
    knows the protocol and all past randomness, so anything deterministic
    given public history is already in its knowledge.
    """

    phase: str = ""
    schedule: Mapping[str, Any] | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Flatten into the dict stored on the round record."""
        out: dict[str, Any] = {"phase": self.phase}
        if self.schedule is not None:
            out["schedule"] = self.schedule
        out.update(self.extra)
        return out


@dataclass(frozen=True)
class AdversaryView:
    """Everything the adversary may legitimately observe before acting.

    Attributes
    ----------
    n, channels, t:
        The public model parameters.
    round_index:
        Index of the round about to be resolved.
    history:
        The full trace of completed rounds — including every honest node's
        past actions and random choices, per the paper's assumption that
        "at the end of each round, the adversary learns all random choices
        made in all completed rounds".
    meta:
        The current round's public metadata (phase, deterministic schedule).
    block_round, block_rounds:
        The round's index inside the hop block being resolved, and that
        block's length after the round cap.  Only an adversary whose class
        declares :attr:`~repro.adversary.base.Adversary.plans_blocks` sees
        a block longer than one round; every other view (and every round
        of :meth:`RadioNetwork.execute_round`) reads ``0`` and ``1``.
    """

    n: int
    channels: int
    t: int
    round_index: int
    history: ExecutionTrace
    meta: RoundMeta
    block_round: int = 0
    block_rounds: int = 1


def hop_row(
    positions: Iterable[int], width: int, offset: int = 0
) -> Sequence[int]:
    """One listener's hop row over a ``width``-channel block.

    ``positions`` are shifted by ``offset`` (a listener that hops within
    a sub-range of the block's channels draws indices into that range).
    The row is ``bytes`` whenever the positions fit in a byte (every
    radio channel count in practice): compact, and :func:`hop_hits` can
    then test it against a round mask at C speed.  Wider blocks get a
    tuple.
    """
    if width > 256:
        return tuple(p + offset for p in positions)
    row = bytes(positions)
    if offset:
        table = _SHIFT_TABLES.get(offset)
        if table is None:
            table = _SHIFT_TABLES[offset] = bytes(
                (b + offset) & 0xFF for b in range(256)
            )
        row = row.translate(table)
    return row


# Translate tables built on first use: per offset, the one adding it to a
# byte; per channel position, the one mapping it to 1 and all else to 0.
_SHIFT_TABLES: dict[int, bytes] = {}
_HIT_TABLES: dict[int, bytes] = {}


def hop_hits(row: Sequence[int], position: int, mask: int) -> int:
    """The rounds on which ``row`` sat on ``position`` *and* ``mask`` is set.

    Round masks use one byte per round (byte ``r`` is ``1`` when round
    ``r`` counts), little-endian, so the result's ``bit_count()`` is the
    number of such rounds and its lowest set bit names the first one.
    """
    if type(row) is bytes:
        table = _HIT_TABLES.get(position)
        if table is None:
            table = _HIT_TABLES[position] = bytes(
                1 if b == position else 0 for b in range(256)
            )
        hits = row.translate(table)
    else:
        hits = bytes(1 if hop == position else 0 for hop in row)
    return int.from_bytes(hits, "little") & mask


@dataclass(frozen=True, slots=True)
class TransmitColumn:
    """The transmitters of a :class:`HopBlock` that hop together.

    In round ``r`` every sender transmits on position ``hops[r]`` of the
    block's ``channels`` (a :func:`hop_row`), ``senders[i]`` sending
    ``frames[i][r]``: one sender is a point-to-point epoch, several
    collide.  A fixed frame repeats as one object (``(frame,) * rounds``),
    which the engine sizes once.
    """

    senders: tuple[int, ...]
    hops: Sequence[int]
    frames: tuple[Sequence[Message], ...]


@dataclass(slots=True)
class HopBlock:
    """``rounds`` consecutive rounds of one oblivious repetition loop.

    The unit :meth:`RadioNetwork.execute_schedule` resolves.  Every node's
    role is fixed for the whole block, and every hop is drawn before the
    block starts, so the block is a static transmitter template, an
    optional hopping transmit column and a hop matrix:

    Attributes
    ----------
    rounds:
        Number of rounds the block covers.
    transmits:
        ``node -> Transmit``, identical in every round of the block.
        Blocks may share one template mapping; the engine validates and
        sizes each distinct mapping once per :meth:`~RadioNetwork.
        execute_schedule` call.
    channels:
        The block's channel tuple.  Hop rows index into it, and a round's
        result holds the decoded messages of exactly these channels.
    listeners:
        The listening nodes, in order.
    hops:
        One hop row per listener (see :func:`hop_row`): ``hops[i][r]`` is
        the *position* in ``channels`` that ``listeners[i]`` listens on
        in round ``r``.
    meta:
        Metadata of every round in the block.
    column:
        Transmitters whose channel or frame changes per round (see
        :meth:`hopping_epoch`), or ``None``.

    A block is a value: build a new one rather than mutating one that a
    schedule holds.  (It is not frozen only because frozen construction
    costs several times more, and one-round protocols build a block per
    round; see :meth:`single_round`.)
    """

    rounds: int
    transmits: Mapping[int, Transmit]
    channels: tuple[int, ...]
    listeners: tuple[int, ...]
    hops: tuple[Sequence[int], ...]
    meta: RoundMeta
    column: TransmitColumn | None = None

    @classmethod
    def single_round(
        cls,
        transmits: Mapping[int, Transmit],
        listening: Mapping[int, int],
        channels: int,
        meta: RoundMeta,
    ) -> "HopBlock":
        """One round of ``transmits`` with each ``listener -> channel`` of
        ``listening``, over channels ``0 .. channels-1``."""
        rows = _ONE_ROUND_ROWS if channels <= 256 else [(c,) for c in range(channels)]
        return cls(
            1,
            transmits,
            tuple(range(channels)),
            tuple(listening),
            tuple(map(rows.__getitem__, listening.values())),
            meta,
        )

    @classmethod
    def hopping_epoch(
        cls,
        hops: Sequence[int],
        channels: int,
        senders: Mapping[int, Sequence[Message]],
        listeners: Sequence[int],
        meta: RoundMeta,
    ) -> "HopBlock":
        """A key-derived epoch: ``senders`` (``node -> its frame in each
        round``) and every listener hop together on ``hops``, a hop row
        over channels ``0 .. channels-1``."""
        column = None
        if senders:
            column = TransmitColumn(tuple(senders), hops, tuple(senders.values()))
        return cls(
            len(hops),
            {},
            tuple(range(channels)),
            tuple(listeners),
            (hops,) * len(listeners),
            meta,
            column,
        )

    def round_actions(self, r: int) -> dict[int, Action]:
        """Round ``r``'s per-node action map: the template's transmitters
        first, then the column's senders, then the listeners in order."""
        actions: dict[int, Action] = dict(self.transmits)
        column = self.column
        if column is not None:
            channel = self.channels[column.hops[r]]
            for sender, frames in zip(column.senders, column.frames):
                actions[sender] = Transmit(channel, frames[r])
        listens = [Listen(channel) for channel in self.channels]
        for node, row in zip(self.listeners, self.hops):
            actions[node] = listens[row[r]]
        return actions

    def as_action_batches(self) -> list[tuple[dict[int, Action], RoundMeta]]:
        """The classic ``(actions, meta)`` expansion of every round."""
        return [(self.round_actions(r), self.meta) for r in range(self.rounds)]

    def decoded_masks(
        self,
        heard: Sequence[Mapping[int, Message]],
        classify: Callable[[Message], object],
    ) -> list[tuple[int, object, int]]:
        """Per channel position, the rounds that decoded an accepted frame.

        ``heard`` is this block's slice of :meth:`RadioNetwork.
        execute_schedule`'s result.  ``classify`` maps a decoded message
        to a verdict (``None`` ignores it) and runs once per distinct
        message object.  Returns ``(position, verdict, mask)`` for every
        position and verdict seen, ``mask`` in the one-byte-per-round form
        of :func:`hop_hits` — so whether a listener heard the frame is
        ``hop_hits(row, position, mask)``, with no per-round listener walk.
        """
        position = {channel: p for p, channel in enumerate(self.channels)}
        verdicts: dict[int, object] = {}
        masks: dict[tuple[int, int], tuple[int, object, bytearray]] = {}
        for r, decoded in enumerate(heard):
            for channel, msg in decoded.items():
                try:
                    verdict = verdicts[id(msg)]
                except KeyError:
                    verdict = verdicts[id(msg)] = classify(msg)
                if verdict is None:
                    continue
                key = (position[channel], id(verdict))
                entry = masks.get(key)
                if entry is None:
                    entry = masks[key] = (key[0], verdict, bytearray(self.rounds))
                entry[2][r] = 1
        return [
            (pos, verdict, int.from_bytes(bits, "little"))
            for pos, verdict, bits in masks.values()
        ]


# Hop rows of one-round blocks: row ``p`` sits on position ``p``.
_ONE_ROUND_ROWS = tuple(bytes((p,)) for p in range(256))


class RoundSchedule:
    """A precompiled, data-independent batch of rounds.

    Protocols whose round structure is *oblivious* — fixed repetition
    loops, deterministic sweeps, precomputed random hop sequences, key-
    derived hopping epochs — compile the whole loop once and submit it
    through :meth:`RadioNetwork.execute_schedule` as a sequence of
    :class:`HopBlock` entries, which is what the engine resolves.
    ``len()`` counts simulated rounds.

    A schedule is a plain value (picklable when its messages are), which is
    what makes it a unit of work that can later be fanned out to worker
    processes.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[HopBlock]) -> None:
        self.blocks = tuple(blocks)

    def __len__(self) -> int:
        return sum(block.rounds for block in self.blocks)

    def __iter__(self) -> Iterator[HopBlock]:
        return iter(self.blocks)

    def as_action_batches(
        self,
    ) -> list[tuple[dict[int, Action], RoundMeta]]:
        """The classic ``(actions, meta)`` expansion of every round.

        Used by the compatibility fallback for :class:`RadioNetwork`
        subclasses that customise :meth:`RadioNetwork.execute_round`, and
        by equivalence tests.
        """
        return [
            batch for block in self.blocks for batch in block.as_action_batches()
        ]


class RadioNetwork:
    """Round-based simulator for the multi-channel radio model.

    Parameters
    ----------
    n:
        Number of honest nodes, with ids ``0 .. n-1``.
    channels:
        Number of channels ``C``; channels are ids ``0 .. C-1``.
    t:
        Adversary budget: distinct channels it may transmit on per round.
    adversary:
        Strategy object implementing
        :class:`repro.adversary.base.Adversary`; ``None`` means no adversary.
    params:
        Protocol constants (used here only for the round cap).
    keep_trace:
        When ``False``, round records are not retained (metrics still are);
        long benchmark runs use this to bound memory.  Note that adversaries
        needing history force ``keep_trace=True``.
    """

    def __init__(
        self,
        n: int,
        channels: int,
        t: int,
        adversary: "Adversary | None" = None,
        *,
        params: ProtocolParameters = DEFAULT_PARAMETERS,
        keep_trace: bool = True,
    ) -> None:
        validate_model(n, channels, t)
        self.n = n
        self.channels = channels
        self.t = t
        self.params = params
        self.adversary = adversary
        self._keep_trace = keep_trace
        if adversary is not None and adversary.needs_history and not keep_trace:
            raise ConfigurationError(
                "adversary requires history but keep_trace=False"
            )
        self.trace = ExecutionTrace()
        self.metrics = NetworkMetrics()
        self._round_index = 0
        # One shared view instance, reused across rounds for adversaries
        # that declare ``reusable_view`` (see Adversary.reusable_view).
        self._shared_view: AdversaryView | None = None

    @property
    def round_index(self) -> int:
        """Index of the next round to execute."""
        return self._round_index

    # ------------------------------------------------------------------

    def _validate_actions(self, actions: Mapping[int, Action]) -> None:
        for node, action in actions.items():
            if not 0 <= node < self.n:
                raise ProtocolViolation(f"unknown node id {node}")
            if isinstance(action, (Transmit, Listen)):
                if not 0 <= action.channel < self.channels:
                    raise ProtocolViolation(
                        f"node {node} used invalid channel {action.channel} "
                        f"(C={self.channels})"
                    )
            elif not isinstance(action, Sleep):
                raise ProtocolViolation(
                    f"node {node} submitted unknown action {action!r}"
                )

    def _validate_adversary(self, txs: Sequence[Transmission]) -> None:
        seen: set[int] = set()
        for tx in txs:
            if not 0 <= tx.channel < self.channels:
                raise ProtocolViolation(
                    f"adversary used invalid channel {tx.channel}"
                )
            if tx.channel in seen:
                raise ProtocolViolation(
                    f"adversary transmitted twice on channel {tx.channel}"
                )
            seen.add(tx.channel)
        if len(seen) > self.t:
            raise ProtocolViolation(
                f"adversary transmitted on {len(seen)} channels; budget t={self.t}"
            )

    # ------------------------------------------------------------------

    def _adversary_view(
        self, meta: RoundMeta, block_round: int = 0, block_rounds: int = 1
    ) -> AdversaryView:
        """The view handed to the adversary for the round about to resolve.

        Adversaries that declare :attr:`~repro.adversary.base.Adversary.
        reusable_view` get **one** view object whose ``round_index``,
        ``meta`` and block position are advanced in place each round (the
        population fields are constant and ``history`` is the live trace,
        which mutates as rounds complete) — removing the last per-round
        allocation on adversarial hot paths.  Every field that varies is
        set on every call, so a view last used inside a long block never
        carries its ``block_round`` into a later round.  Everyone else gets
        a fresh frozen view.
        """
        if getattr(self.adversary, "reusable_view", False):
            view = self._shared_view
            if view is None:
                view = self._shared_view = AdversaryView(
                    n=self.n,
                    channels=self.channels,
                    t=self.t,
                    round_index=self._round_index,
                    history=self.trace,
                    meta=meta,
                    block_round=block_round,
                    block_rounds=block_rounds,
                )
            else:
                set_field = object.__setattr__
                set_field(view, "round_index", self._round_index)
                set_field(view, "meta", meta)
                set_field(view, "block_round", block_round)
                set_field(view, "block_rounds", block_rounds)
            return view
        return AdversaryView(
            n=self.n,
            channels=self.channels,
            t=self.t,
            round_index=self._round_index,
            history=self.trace,
            meta=meta,
            block_round=block_round,
            block_rounds=block_rounds,
        )

    @staticmethod
    def _decode_channels(
        transmitters: Mapping[int, list],
        adversary_channels: "Collection[int]",
    ) -> tuple[dict[int, Message | None], int, int, int]:
        """Resolve every touched channel by the single-transmitter rule.

        The one decode step shared by :meth:`execute_round` and
        :meth:`execute_schedule` — exactly one decodable transmission on a
        channel delivers it (counting a spoof when that transmission was
        the adversary's), anything else is silence or a collision.
        Returns ``(delivered, deliveries, spoofs, collisions)``.
        """
        delivered: dict[int, Message | None] = {}
        deliveries = 0
        spoofs = 0
        collisions = 0
        for channel, payloads in transmitters.items():
            if len(payloads) == 1 and isinstance(payloads[0], Message):
                delivered[channel] = payloads[0]
                deliveries += 1
                if channel in adversary_channels:
                    # The sole (decoded) transmission came from the
                    # adversary: a successful spoof at the radio level.
                    spoofs += 1
            else:
                delivered[channel] = None
                if len(payloads) >= 2:
                    collisions += 1
        return delivered, deliveries, spoofs, collisions

    def execute_round(
        self,
        actions: Mapping[int, Action],
        meta: RoundMeta | None = None,
    ) -> dict[int, Message | None]:
        """Resolve one synchronous round.

        ``actions`` may be *sparse*: nodes absent from the mapping sleep.
        Submitting only the non-sleeping nodes is the fast path — resolution
        cost is proportional to the number of active nodes and touched
        channels, not to ``n`` or ``C``.  Explicit :class:`Sleep` entries
        remain accepted (and are recorded verbatim when tracing), so dense
        legacy callers resolve identically.

        Returns a dict mapping every *listening* node to what it received
        (``None`` for silence/collision/noise).  Nodes that transmitted or
        slept are absent from the result.
        """
        if (
            self.params.max_rounds is not None
            and self._round_index >= self.params.max_rounds
        ):
            raise ProtocolViolation(
                f"round cap exceeded ({self.params.max_rounds} rounds); "
                "likely a non-terminating configuration"
            )
        meta = meta or RoundMeta()
        if self.params.validate_actions:
            self._validate_actions(actions)

        adversary_txs: list[Transmission] = []
        if self.adversary is not None:
            adversary_txs = list(self.adversary.act(self._adversary_view(meta)))
            self._validate_adversary(adversary_txs)

        # Per-channel resolution over *touched* channels only.  Untouched
        # channels carry silence, which listeners observe as ``None``.
        transmitters: dict[int, list[Message | Jam]] = {}
        honest_tx = 0
        listens = 0
        payload_units = 0
        meter = self.params.meter_payloads
        for action in actions.values():
            if isinstance(action, Transmit):
                honest_tx += 1
                if meter:
                    # frame_size, inlined: one unit of kind + the payload.
                    payload_units += 1 + payload_size(action.message.payload)
                transmitters.setdefault(action.channel, []).append(
                    action.message
                )
            elif isinstance(action, Listen):
                listens += 1
        adversary_channels: set[int] = set()
        for tx in adversary_txs:
            adversary_channels.add(tx.channel)
            transmitters.setdefault(tx.channel, []).append(tx.payload)

        delivered, deliveries, spoofs, collisions = self._decode_channels(
            transmitters, adversary_channels
        )

        # Bookkeeping.
        self.metrics.collisions += collisions
        self.metrics.rounds += 1
        self.metrics.honest_transmissions += honest_tx
        self.metrics.listens += listens
        self.metrics.payload_units += payload_units
        self.metrics.adversary_transmissions += len(adversary_txs)
        self.metrics.deliveries += deliveries
        self.metrics.spoofs_delivered += spoofs
        if meta.phase:
            self.metrics.note_phase(meta.phase)

        # The round record (and its dense per-channel delivery map) is built
        # only when something will actually retain it; pure benchmark runs
        # with keep_trace=False skip the construction entirely.
        if self._keep_trace or (
            self.adversary is not None and self.adversary.needs_history
        ):
            self.trace.append(
                RoundRecord(
                    index=self._round_index,
                    actions=dict(actions),
                    adversary_transmissions=tuple(adversary_txs),
                    delivered=SparseDelivered(delivered, self.channels),
                    meta=meta.as_dict(),
                )
            )
        self._round_index += 1

        # Per-listener results.
        results: dict[int, Message | None] = {}
        for node, action in actions.items():
            if isinstance(action, Listen):
                results[node] = delivered.get(action.channel)
        return results

    def execute_rounds(
        self,
        batch: "RoundSchedule | Iterable[tuple[Mapping[int, Action], RoundMeta | None]]",
    ) -> list[dict[int, Message | None]]:
        """Resolve a precomputed sequence of rounds back-to-back.

        Protocols that derive a whole schedule up front (fixed epochs,
        deterministic sweeps) can submit it in one call instead of paying
        the per-round dispatch in their own loop.  Each entry is an
        ``(actions, meta)`` pair resolved exactly as by
        :meth:`execute_round` — including adversary interaction per round —
        and the per-listener result dicts are returned in order.

        A prebuilt :class:`RoundSchedule` is also accepted: it runs
        through the :meth:`execute_schedule` fast path and the per-channel
        results are expanded back into the same per-listener dicts this
        method always returns (one per simulated round, every listener of
        the round's block included), so the result contract is
        shape-stable regardless of the submission style.  Callers wanting
        the raw channel-level results (no per-listener fan-out cost) use
        :meth:`execute_schedule` directly.
        """
        if isinstance(batch, RoundSchedule):
            heard_per_round = iter(self.execute_schedule(batch))
            out: list[dict[int, Message | None]] = []
            for block in batch.blocks:
                channels = block.channels
                for r in range(block.rounds):
                    heard = next(heard_per_round)
                    out.append(
                        {
                            node: heard.get(channels[row[r]])
                            for node, row in zip(block.listeners, block.hops)
                        }
                    )
            return out
        execute = self.execute_round
        return [execute(actions, meta) for actions, meta in batch]

    # ------------------------------------------------------------------
    # The compiled-schedule fast path.
    # ------------------------------------------------------------------

    def _validate_block(self, block: HopBlock, checked: set[int]) -> None:
        """Check one hop block against the model, once for all its rounds.

        Transmitter templates shared across blocks are checked once per
        :meth:`execute_schedule` call, keyed by object identity (the
        schedule keeps them alive, so ids are stable for the call).  The
        rest holds for every round of the block at once: valid, distinct
        channels; known listeners, each listed once and none of them
        transmitting (the states the per-node action API cannot even
        represent stay unrepresentable here); one in-range hop per
        listener per round; and a column of known, distinct senders that
        neither listen nor sit in the template, with one in-range hop per
        round and one :class:`Message` per sender per round.
        """
        template = block.transmits
        if id(template) not in checked:
            checked.add(id(template))
            for node, action in template.items():
                if not 0 <= node < self.n:
                    raise ProtocolViolation(f"unknown node id {node}")
                if not isinstance(action, Transmit):
                    raise ProtocolViolation(
                        f"compiled transmit map holds {action!r} for node "
                        f"{node}; only Transmit actions belong there"
                    )
                if not 0 <= action.channel < self.channels:
                    raise ProtocolViolation(
                        f"node {node} used invalid channel {action.channel} "
                        f"(C={self.channels})"
                    )
        channels = block.channels
        width = len(channels)
        if width and not (0 <= min(channels) and max(channels) < self.channels):
            bad = next(c for c in channels if not 0 <= c < self.channels)
            raise ProtocolViolation(
                f"listeners grouped on invalid channel {bad} "
                f"(C={self.channels})"
            )
        if width > 1 and len(set(channels)) != width:
            raise ProtocolViolation(
                f"hop block lists a channel twice: {channels}"
            )
        listeners = block.listeners
        hops = block.hops
        if len(hops) != len(listeners):
            raise ProtocolViolation(
                f"hop block has {len(hops)} hop rows for "
                f"{len(listeners)} listeners"
            )
        # min/max and the set ops run at C speed; only dig for the
        # per-node culprit on failure.
        if listeners and not (0 <= min(listeners) and max(listeners) < self.n):
            bad = next(v for v in listeners if not 0 <= v < self.n)
            raise ProtocolViolation(f"unknown node id {bad}")
        listening = set(listeners)
        if len(listening) != len(listeners):
            raise ProtocolViolation(
                "compiled round schedules a node in two listener groups"
            )
        if template and not listening.isdisjoint(template):
            bad = sorted(listening & set(template))[0]
            raise ProtocolViolation(
                f"node {bad} is scheduled to both transmit and listen"
            )
        rows = list(hops)
        column = block.column
        if column is not None:
            senders = column.senders
            if not senders:
                raise ProtocolViolation("transmit column has no sender")
            if not (0 <= min(senders) and max(senders) < self.n):
                bad = next(v for v in senders if not 0 <= v < self.n)
                raise ProtocolViolation(f"unknown node id {bad}")
            if len(set(senders)) != len(senders):
                raise ProtocolViolation("transmit column lists a sender twice")
            busy = listening.union(template).intersection(senders)
            if busy:
                raise ProtocolViolation(
                    f"column sender {min(busy)} also listens or sits in the "
                    "transmit template"
                )
            frames = column.frames
            if len(frames) != len(senders) or set(map(len, frames)) - {block.rounds}:
                raise ProtocolViolation(
                    f"transmit column of a {block.rounds}-round block needs "
                    "one frame per sender per round"
                )
            if not all(isinstance(f, Message) for seq in frames for f in seq):
                raise ProtocolViolation("transmit column holds a non-Message frame")
            rows.append(column.hops)
        rounds = block.rounds
        if set(map(len, rows)) - {rounds}:
            raise ProtocolViolation(
                f"hop block of {rounds} rounds holds a hop row of another "
                "length"
            )
        if not rounds or not rows:
            return
        try:
            # Byte rows (the norm) hold no negative positions.
            low, high = 0, max(b"".join(rows))
        except TypeError:  # tuple rows of a wide block
            low, high = min(map(min, rows)), max(map(max, rows))
        if not 0 <= low <= high < width:
            raise ProtocolViolation(
                f"hop row names a channel position outside the block's "
                f"{width} channels"
            )

    def _execute_schedule_per_round(
        self, schedule: "RoundSchedule"
    ) -> list[dict[int, Message]]:
        """Resolve a schedule through an overridden :meth:`execute_round`.

        Contract: like the base model, an override must resolve all
        listeners on one channel identically (the radio medium has no
        per-listener state); a channel's result is read from its first
        listener, in channel-tuple order.  An override with per-listener
        semantics must override :meth:`execute_schedule` too.
        """
        out: list[dict[int, Message]] = []
        for block in schedule.blocks:
            channels = block.channels
            for r, (actions, meta) in enumerate(block.as_action_batches()):
                results = self.execute_round(actions, meta)
                first: dict[int, int] = {}
                for node, row in zip(block.listeners, block.hops):
                    first.setdefault(row[r], node)
                heard: dict[int, Message] = {}
                for pos in sorted(first):
                    msg = results.get(first[pos])
                    if msg is not None:
                        heard[channels[pos]] = msg
                out.append(heard)
        return out

    def execute_schedule(
        self, schedule: "RoundSchedule"
    ) -> list[dict[int, Message]]:
        """Resolve a prebuilt :class:`RoundSchedule`, block by block.

        Returns one dict per simulated round mapping **channel** to the
        message decoded on it, with entries only for channels of the
        round's block that delivered a message.  Callers fan results out
        to their listeners themselves (they built the hop matrix, so they
        know it) — this is what lets a round with ``n`` listeners resolve
        without any per-listener work.

        Each block is validated once (:meth:`_validate_block`), its
        transmitter template is grouped by channel, sized and resolved
        once, and each round only patches that resolution on the channel
        its transmit column hops to (a lone sender needs no resolution) and
        on the channels the adversary touched.  Adversary interaction,
        metrics, the round cap, and trace retention behave exactly as in
        :meth:`execute_round`: per-round records (with full per-node
        action maps) are built whenever the trace is retained, so traced
        executions are indistinguishable from the per-round path.
        """
        if type(self).execute_round is not RadioNetwork.execute_round:
            # A subclass customises round resolution (e.g. the
            # restricted-listening model): preserve its semantics by
            # expanding every round through the classic interface.
            return self._execute_schedule_per_round(schedule)

        validate = self.params.validate_actions
        meter_payloads = self.params.meter_payloads
        checked: set[int] = set()
        # Wire size per distinct frame object, keyed by identity like the
        # template check (frames are immutable and the schedule keeps them
        # alive): a frame repeated across rounds and blocks — a feedback
        # template, an emulated-channel epoch — is sized once per call.
        frame_sizes: dict[int, int] = {}

        def size_of(message: Message) -> int:
            size = frame_sizes.get(id(message))
            if size is None:
                size = frame_sizes[id(message)] = frame_size(message)
            return size

        keep_records = self._keep_trace or (
            self.adversary is not None and self.adversary.needs_history
        )
        max_rounds = self.params.max_rounds
        metrics = self.metrics
        adversary = self.adversary
        reusable_view = getattr(adversary, "reusable_view", False)
        # Only a top-level adversary whose class plans blocks sees the
        # block's length; a wrapper (and whatever it wraps) sees one-round
        # blocks, because it may stop calling its inner strategy mid-block.
        plans_blocks = getattr(type(adversary), "plans_blocks", False)
        decode = self._decode_channels
        outputs: list[dict[int, Message]] = []

        for block in schedule.blocks:
            if validate:
                self._validate_block(block, checked)
            template = block.transmits
            template_tx: dict[int, list[Message | Jam]] = {}
            payload_units = 0
            for action in template.values():
                message = action.message
                template_tx.setdefault(action.channel, []).append(message)
                if meter_payloads:
                    payload_units += size_of(message)
            listened = block.channels
            meta = block.meta
            # The template-only resolution, computed once per block.  A
            # round the adversary leaves silent reuses it as is; a round it
            # touches patches it channel by channel with the same
            # single-transmitter rule: joining an honest transmitter makes
            # a collision, a lone adversarial message is a spoof.
            quiet, quiet_deliveries, _, quiet_collisions = decode(
                template_tx, ()
            )
            quiet_heard: dict[int, Message] = {}
            for channel, msg in quiet.items():
                if msg is not None and channel in listened:
                    quiet_heard[channel] = msg
            column = block.column
            column_channel = -1  # this round's; -1 when there is no column
            column_width = 0
            if column is not None:
                column_hops = column.hops
                column_frames = column.frames
                column_width = len(column.senders)
                solo = column_width == 1 and not template_tx
                if solo:
                    (solo_frames,) = column_frames
                    quiet_deliveries, quiet_collisions = 1, 0
            rounds = block.rounds
            if max_rounds is not None and self._round_index + rounds > max_rounds:
                rounds = max(0, max_rounds - self._round_index)
            horizon = rounds if plans_blocks else 1
            done = deliveries = spoofs = collisions = adversary_tx = 0
            try:
                for r in range(rounds):
                    if column is not None:
                        column_channel = listened[column_hops[r]]
                        if solo:
                            frame = solo_frames[r]
                            quiet = {column_channel: frame}
                            quiet_heard = quiet
                        else:
                            round_tx = dict(template_tx)
                            round_tx[column_channel] = round_tx.get(
                                column_channel, []
                            ) + [frames[r] for frames in column_frames]
                            quiet, quiet_deliveries, _, quiet_collisions = (
                                decode(round_tx, ())
                            )
                            quiet_heard = {
                                channel: msg
                                for channel, msg in quiet.items()
                                if msg is not None and channel in listened
                            }
                    adversary_txs: tuple[Transmission, ...] = ()
                    if adversary is not None:
                        if r and reusable_view:
                            # Same block, same meta: only the indices move.
                            object.__setattr__(
                                view, "round_index", self._round_index
                            )
                            if plans_blocks:
                                object.__setattr__(view, "block_round", r)
                        else:
                            view = self._adversary_view(
                                meta, r if plans_blocks else 0, horizon
                            )
                        # A tuple passes through tuple() uncopied.
                        adversary_txs = tuple(adversary.act(view))
                        self._validate_adversary(adversary_txs)
                    delivered = quiet  # records copy it
                    heard = dict(quiet_heard)
                    deliveries += quiet_deliveries
                    collisions += quiet_collisions
                    if adversary_txs:
                        delivered = dict(quiet)
                        for tx in adversary_txs:
                            channel = tx.channel
                            honest = template_tx.get(channel)
                            busy = 0 if honest is None else len(honest)
                            if channel == column_channel:
                                busy += column_width
                            if busy:
                                if busy == 1:
                                    collisions += 1
                                    if delivered[channel] is not None:
                                        deliveries -= 1
                                        delivered[channel] = None
                                        heard.pop(channel, None)
                            elif isinstance(tx.payload, Message):
                                delivered[channel] = tx.payload
                                deliveries += 1
                                spoofs += 1
                                if channel in listened:
                                    heard[channel] = tx.payload
                            else:
                                delivered[channel] = None
                        adversary_tx += len(adversary_txs)
                    done += 1
                    if keep_records:
                        self.trace.append(
                            RoundRecord(
                                index=self._round_index,
                                actions=block.round_actions(r),
                                adversary_transmissions=adversary_txs,
                                delivered=SparseDelivered(
                                    delivered, self.channels
                                ),
                                meta=meta.as_dict(),
                            )
                        )
                    self._round_index += 1
                    outputs.append(heard)
                if rounds < block.rounds:
                    raise ProtocolViolation(
                        f"round cap exceeded ({max_rounds} rounds); "
                        "likely a non-terminating configuration"
                    )
            finally:
                # Settle the block's counters for the rounds that ran —
                # also when the round cap or an adversary cut it short.
                if done:
                    metrics.rounds += done
                    metrics.honest_transmissions += done * (
                        len(template) + column_width
                    )
                    metrics.listens += done * len(block.listeners)
                    metrics.payload_units += done * payload_units
                    if column is not None and meter_payloads:
                        for frames in column_frames:
                            metrics.payload_units += sum(
                                map(size_of, frames[:done])
                            )
                    metrics.adversary_transmissions += adversary_tx
                    metrics.deliveries += deliveries
                    metrics.spoofs_delivered += spoofs
                    metrics.collisions += collisions
                    if meta.phase:
                        metrics.note_phase(meta.phase, done)
        return outputs
