"""Figure 1: the communication-feedback routine, executed on the radio net.

For each feedback slot ``r`` (reporting on one transmission-round channel),
the routine runs ``Θ(C/(C-t) · log n)`` repetitions.  In each repetition:

* every witness of slot ``r`` transmits on the feedback channel given by its
  rank — ``<false>`` when its flag is false, ``<true, r>`` when true.  All
  feedback channels are therefore occupied by honest broadcasters every
  repetition, which is what makes spoofed ``<true, r>`` frames impossible
  (they can only collide — the parenthetical in Lemma 5's proof);
* every other participant listens on a uniformly random feedback channel and
  records any ``<true, r>`` report it hears.

A node adds ``r`` to its output set ``D`` iff it is a witness with a true
flag, or it heard ``<true, r>``.  Lemma 5: with high probability all
participants return identical ``D`` equal to the true flag set.

Execution strategy
------------------
The repetition loop is *oblivious*: who transmits where is fixed by the
witness ranks, and each listener's hop sequence is private randomness that
depends on nothing observed during the phase, so a slot's whole loop is a
static transmitter template plus a hop matrix.  The default path submits
each slot as one :class:`~repro.radio.network.HopBlock` — the slot's
template, the feedback channels, its listeners and one hop row per
listener — in a single :class:`~repro.radio.network.RoundSchedule`, which
:meth:`~repro.radio.network.RadioNetwork.execute_schedule` validates and
resolves block by block.  Each listener draws its hops for every slot of
the invocation in one :class:`~repro.rng.BlockDrawer` call (its stream is
private, so the draws are the ones a one-``choice``-per-repetition loop
makes — byte-identical by the invariant in ``repro.rng``).  The result
fold intersects each channel's mask of rounds that decoded ``<true, r>``
with each listener's hop row, so no per-round listener list is ever
built.  Round metadata, transmitter templates and listener stream tables
come from a :class:`~repro.radio.ScheduleShapeCache`, so long-lived
callers reuse schedule *shape* across invocations.

The historical one-``execute_round``-per-repetition loop and the per-draw
sampler live on as equivalence oracles in ``tests/oracles/feedback.py``;
seeded runs of the oracles and of this path are byte-identical (same RNG
stream consumption, same metrics, same traces), which
``tests/test_feedback_pipeline.py`` and the golden fingerprints of
``tests/test_golden_grid.py`` enforce.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..errors import ConfigurationError
from ..radio.actions import Transmit
from ..radio.messages import Message
from ..radio.network import (
    HopBlock,
    RadioNetwork,
    RoundSchedule,
    hop_hits,
    hop_row,
)
from ..radio.shapes import ScheduleShapeCache
from ..rng import BlockDrawer, RngRegistry
from .witness import WitnessAssignment

FEEDBACK_KIND = "feedback"
"""Frame kind used by feedback broadcasts."""


def feedback_true(sender: int, slot: int) -> Message:
    """The ``<true, r>`` frame of Figure 1 line 16."""
    return Message(kind=FEEDBACK_KIND, sender=sender, payload=("true", slot))


def feedback_false(sender: int, slot: int) -> Message:
    """The ``<false>`` frame of Figure 1 line 11 (slot kept for tracing)."""
    return Message(kind=FEEDBACK_KIND, sender=sender, payload=("false", slot))


def run_feedback(
    network: RadioNetwork,
    assignment: WitnessAssignment,
    flags: Mapping[int, bool],
    participants: Sequence[int],
    rng: RngRegistry,
    *,
    repetitions: int | None = None,
    phase: str = "feedback",
    rng_namespace: object = "feedback",
    shape_cache: ScheduleShapeCache | None = None,
) -> dict[int, set[int]]:
    """Execute one communication-feedback invocation.

    Parameters
    ----------
    network:
        The radio network to run on.
    assignment:
        Witness sets per slot and the feedback channel list.
    flags:
        Flag value per witness node.  Figure 1 assumes all witnesses of a
        slot hold the same flag; we validate that, since a mismatch means
        the caller's transmission round already violated the model.
    participants:
        Every node taking part (witnesses and listeners alike).  Witnesses
        of slots other than the active one listen like everyone else.
    rng:
        Registry supplying each listener's private channel-hopping stream.
    repetitions:
        Inner-loop count; defaults to the
        :meth:`~repro.params.ProtocolParameters.feedback_repetitions` of the
        network's parameters.
    phase:
        Phase label stamped on round metadata (adversaries can see it).
    rng_namespace:
        Disambiguates listener streams across multiple invocations.
    shape_cache:
        Optional :class:`~repro.radio.shapes.ScheduleShapeCache` shared
        across invocations with the same geometry (templates, round
        metadata and stream tables are then reused instead of rebuilt).
        Defaults to a fresh per-invocation cache; observable behaviour is
        identical either way.

    Returns
    -------
    dict mapping every participant to its output set ``D`` (slot indices).
    """
    channels = assignment.channels
    participant_set = set(participants)
    for witness_set in assignment.sets:
        flag_values = {flags[w] for w in witness_set if w in flags}
        if len(flag_values) > 1:
            raise ConfigurationError(
                "witnesses of one slot disagree on their flag; the "
                "transmission round upstream was inconsistent"
            )
        missing = [w for w in witness_set if w not in flags]
        if missing:
            raise ConfigurationError(f"witnesses {missing} have no flag")
        if not set(witness_set) <= participant_set:
            raise ConfigurationError("witness outside participant set")

    if repetitions is None:
        repetitions = network.params.feedback_repetitions(
            network.n, len(channels), network.t
        )

    outputs: dict[int, set[int]] = {node: set() for node in participants}
    _run_feedback_compiled(
        network,
        assignment,
        flags,
        participants,
        rng,
        repetitions,
        phase,
        rng_namespace,
        outputs,
        shape_cache if shape_cache is not None else ScheduleShapeCache(),
    )
    return outputs


def _run_feedback_compiled(
    network: RadioNetwork,
    assignment: WitnessAssignment,
    flags: Mapping[int, bool],
    participants: Sequence[int],
    rng: RngRegistry,
    repetitions: int,
    phase: str,
    rng_namespace: object,
    outputs: dict[int, set[int]],
    shapes: ScheduleShapeCache,
) -> None:
    """Run ``slots × repetitions`` as one hop block per slot, in bulk.

    Per slot the witness broadcasts form a *static transmitter template*
    (rank map precomputed once — no ``witnesses.index`` in any inner loop)
    and the other participants listen.  Each listener draws its hops for
    every slot it listens in with **one** draw off its private stream;
    slot-major order is exactly the order a per-round loop consumes
    that stream in, so seeded executions coincide bit for bit.  Its row
    for a slot is the matching slice.  The fold then asks each listener's
    row whether it sat on a channel in a round that decoded ``<true, r>``
    (:meth:`~repro.radio.network.HopBlock.decoded_masks`), instead of
    walking per-round listener lists.  Templates, metadata and the stream
    table come from ``shapes``.
    """
    channels = assignment.channels
    nchan = len(channels)
    slots = assignment.slots
    streams = shapes.streams(rng, rng_namespace, "listen", participants)
    draw = BlockDrawer(nchan).draw

    # The slots each witness transmits in; everyone listens in the rest.
    busy: dict[int, set[int]] = {}
    for slot in range(slots):
        for w in assignment.witnesses_of(slot):
            busy.setdefault(w, set()).add(slot)
    every_slot = range(slots)
    listeners: list[list[int]] = [[] for _ in every_slot]
    rows: list[list] = [[] for _ in every_slot]
    for node, stream in zip(participants, streams):
        taken = busy.get(node)
        listening = (
            every_slot
            if taken is None
            else [slot for slot in every_slot if slot not in taken]
        )
        if not listening:
            continue
        hops = hop_row(draw(stream, len(listening) * repetitions), nchan)
        start = 0
        for slot in listening:
            listeners[slot].append(node)
            rows[slot].append(hops[start : start + repetitions])
            start += repetitions

    blocks: list[HopBlock] = []
    for slot in range(slots):
        witnesses = assignment.witnesses_of(slot)
        slot_flag = flags[witnesses[0]]
        if slot_flag:
            for w in witnesses:
                outputs[w].add(slot)  # Figure 1 line 14
        frame_of = feedback_true if slot_flag else feedback_false
        template = shapes.memo(
            ("feedback-template", channels, slot, witnesses, slot_flag),
            lambda: {
                w: Transmit(channels[rank], frame_of(w, slot))
                for rank, w in enumerate(witnesses)
            },
        )
        blocks.append(
            HopBlock(
                repetitions,
                template,
                channels,
                tuple(listeners[slot]),
                tuple(rows[slot]),
                shapes.meta(phase, slot=slot),
            )
        )

    heard = network.execute_schedule(RoundSchedule(blocks))

    for slot, block in enumerate(blocks):
        true_frame = ("true", slot)
        masks = block.decoded_masks(
            heard[slot * repetitions : (slot + 1) * repetitions],
            lambda msg: (
                True
                if msg.kind == FEEDBACK_KIND and msg.payload == true_frame
                else None
            ),
        )
        if not masks:
            continue
        for node, row in zip(block.listeners, block.hops):
            for pos, _, mask in masks:
                if hop_hits(row, pos, mask):
                    outputs[node].add(slot)
                    break
