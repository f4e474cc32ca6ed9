"""Reference paths of the feedback routines, kept as equivalence oracles.

The library runs Figure 1's repetition loop and the Section 5.5 merge
transfers as hop blocks (:class:`~repro.radio.network.HopBlock`) whose hop
rows come from :class:`~repro.rng.BlockDrawer`, and the merge ships
digest/delta knowledge frames.  This module keeps the implementations those
paths replaced, so the tests can hold the library to them:

* :func:`run_feedback_per_round` — Figure 1 with one ``execute_round`` per
  repetition; call it in place of
  :func:`repro.feedback.protocol.run_feedback`.
* :func:`transfer_rounds_per_round` — the merge's transfer rounds with one
  ``execute_round`` per repetition, carrying delta frames or the historical
  full ``slot -> flag`` frames (:data:`MERGE_KIND`).
  :func:`per_round_transfers` installs it over
  ``repro.feedback.parallel._run_transfer_rounds``.
* :func:`loop_draws` — replaces :meth:`repro.rng.BlockDrawer.draw` with the
  per-draw :func:`repro.rng.draw_uniform_indices` chain.
* :func:`fold` / :func:`apply` — the per-decode receive path of a
  :class:`~repro.feedback.parallel.DeltaApplyState`, which the hop-block
  fold replaced by one pass over each listener's hop row.
* :func:`semantic_trace` / :func:`metrics_except_payload` — compare a
  full-frame run with a delta run: traces projected onto the knowledge
  each frame carries, metrics without the payload counter.

Seeded runs through the per-round and loop-draw oracles are byte-identical
to the library (D maps, metrics, traces, stream states, delta counters).
Full frames carry the same knowledge as delta frames; only the
``payload_units`` counter and the frames' encoding in the trace differ.
"""

from __future__ import annotations

import functools
from dataclasses import fields
from typing import Mapping, Sequence
from unittest import mock

import repro.feedback.parallel as parallel_module
from repro.feedback.parallel import DeltaApplyState
from repro.feedback.protocol import FEEDBACK_KIND, feedback_false, feedback_true
from repro.feedback.witness import WitnessAssignment, rank
from repro.radio.actions import Action, Listen, Transmit
from repro.radio.messages import DELTA_KIND, DeltaFrame, Message
from repro.radio.network import RadioNetwork, RoundMeta
from repro.rng import BlockDrawer, RngRegistry, draw_uniform_indices

MERGE_KIND = "feedback-merge"
"""Frame kind of the historical full-frame knowledge broadcasts."""


def run_feedback_per_round(
    network: RadioNetwork,
    assignment: WitnessAssignment,
    flags: Mapping[int, bool],
    participants: Sequence[int],
    rng: RngRegistry,
    *,
    repetitions: int | None = None,
    phase: str = "feedback",
    rng_namespace: object = "feedback",
) -> dict[int, set[int]]:
    """Figure 1, one ``execute_round`` per repetition.

    Takes :func:`~repro.feedback.protocol.run_feedback`'s arguments (bar
    the shape cache, which has nothing to cache here) and returns the same
    ``D`` map.  Listeners draw one ``stream.choice`` per repetition.
    """
    channels = assignment.channels
    if repetitions is None:
        repetitions = network.params.feedback_repetitions(
            network.n, len(channels), network.t
        )
    outputs: dict[int, set[int]] = {node: set() for node in participants}
    for slot in range(assignment.slots):
        witnesses = assignment.witnesses_of(slot)
        witness_set = set(witnesses)
        slot_flag = flags[witnesses[0]]
        if slot_flag:
            for w in witnesses:
                outputs[w].add(slot)  # Figure 1 line 14
        for _rep in range(repetitions):
            actions: dict[int, Action] = {}
            for node in participants:
                if node in witness_set:
                    channel = channels[rank(node, witnesses)]
                    frame = (
                        feedback_true(node, slot)
                        if slot_flag
                        else feedback_false(node, slot)
                    )
                    actions[node] = Transmit(channel, frame)
                else:
                    stream = rng.stream(rng_namespace, "listen", node)
                    actions[node] = Listen(stream.choice(channels))
            results = network.execute_round(
                actions, RoundMeta(phase=phase, extra={"slot": slot})
            )
            for node, received in results.items():
                if (
                    received is not None
                    and received.kind == FEEDBACK_KIND
                    and received.payload == ("true", slot)
                ):
                    outputs[node].add(slot)
    return outputs


def merge_frame(
    sender: int, tag: object, knowledge: Mapping[int, bool]
) -> Message:
    """A full-frame knowledge broadcast: the whole (slot -> flag) map."""
    return Message(
        kind=MERGE_KIND,
        sender=sender,
        payload=(tag, tuple(sorted(knowledge.items()))),
    )


def fold(
    state: DeltaApplyState,
    nodes: Sequence[int],
    frame: DeltaFrame,
    per_node_knowledge: dict[int, dict[int, bool]],
) -> None:
    """Fold one decoded delta frame into every listener in ``nodes``.

    Verification and the applied key come from :meth:`DeltaApplyState.resolve`
    once per decode; an already-applied listener counts a skip, a
    first-time listener applies the frame's items.
    """
    verdict = state.resolve(frame)
    if verdict is None:
        return
    key, items = verdict
    applied = state.applied
    skips = 0
    applications = 0
    for node in nodes:
        seen = applied.get(node)
        if seen is None:
            seen = applied[node] = set()
        elif key in seen:
            skips += 1
            continue
        per_node_knowledge[node].update(items)
        seen.add(key)
        applications += 1
    state.skips += skips
    state.applications += applications


def apply(
    state: DeltaApplyState,
    node: int,
    frame: DeltaFrame,
    knowledge: dict[int, bool],
) -> bool:
    """Fold ``frame`` into one node's knowledge; True iff it applied."""
    before = state.applications
    fold(state, (node,), frame, {node: knowledge})
    return state.applications > before


def fold_channel(
    received: Message,
    tag: object,
    listeners: Sequence[int],
    per_node_knowledge: dict[int, dict[int, bool]],
    delta_state: DeltaApplyState | None,
) -> None:
    """Fold one decoded frame into its listeners' knowledge.

    Full frames (``delta_state`` is ``None``) ``dict.update`` every
    listener; delta frames go through :func:`fold`.
    """
    if delta_state is not None:
        if received.kind != DELTA_KIND:
            return
        frame = received.payload
        if not isinstance(frame, DeltaFrame) or frame.tag != tag:
            return
        fold(delta_state, listeners, frame, per_node_knowledge)
        return
    if received.kind != MERGE_KIND:
        return
    recv_tag, items = received.payload
    if recv_tag != tag:
        return
    merged = dict(items)
    for node in listeners:
        per_node_knowledge[node].update(merged)


def transfer_rounds_per_round(
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
    delta_state: DeltaApplyState | None = None,
    shapes: object = None,
    *,
    full_frames: bool = False,
) -> None:
    """The merge's transfer rounds, one ``execute_round`` per repetition.

    Takes ``repro.feedback.parallel._run_transfer_rounds``'s arguments.
    Each transfer is ``(broadcasters, listeners, block_channels, knowledge,
    delta_payload)``; broadcasters send the prebuilt delta frame, or with
    ``full_frames`` their group's whole ``knowledge`` map (and
    ``delta_state`` is left untouched).  Listeners draw one
    ``stream.choice`` per repetition.  Block overlap and group size are not
    checked here.
    """
    state = None if full_frames else delta_state
    for _rep in range(repetitions):
        actions: dict[int, Action] = {}
        for broadcasters, listeners, block, knowledge, delta in transfers:
            for idx, channel in enumerate(block):
                sender = broadcasters[idx]
                frame = (
                    merge_frame(sender, tag, knowledge)
                    if full_frames
                    else Message(kind=DELTA_KIND, sender=sender, payload=delta)
                )
                actions[sender] = Transmit(channel, frame)
            for node in listeners:
                stream = rng.stream(rng_namespace, "merge-listen", node)
                actions[node] = Listen(stream.choice(list(block)))
        results = network.execute_round(
            actions, RoundMeta(phase=phase, extra={"tag": tag})
        )
        for node, received in results.items():
            if received is not None:
                fold_channel(received, tag, (node,), per_node_knowledge, state)


def per_round_transfers(*, full_frames: bool = False):
    """Context manager: run the parallel merge's transfers per round.

    With ``full_frames`` the merge also ships full frames, which is the
    historical wire encoding.  Nested uses restore the outer oracle.
    """
    return mock.patch.object(
        parallel_module,
        "_run_transfer_rounds",
        functools.partial(transfer_rounds_per_round, full_frames=full_frames),
    )


def _loop_draw(drawer: BlockDrawer, stream, count: int) -> list[int]:
    return draw_uniform_indices(stream, drawer.n, count)


def loop_draws():
    """Context manager: every :class:`BlockDrawer` draws one chain per value."""
    return mock.patch.object(BlockDrawer, "draw", _loop_draw)


def knowledge_view(msg):
    """Project a knowledge frame of either encoding onto what it *means*:
    (sender claim, transfer tag, true-slot set).  Non-knowledge payloads
    pass through unchanged."""
    if not isinstance(msg, Message):
        return msg
    if msg.kind == MERGE_KIND:
        tag, items = msg.payload
        return ("knowledge", msg.sender, tag, frozenset(s for s, f in items if f))
    if msg.kind == DELTA_KIND and isinstance(msg.payload, DeltaFrame):
        frame = msg.payload
        return ("knowledge", msg.sender, frame.tag, frozenset(frame.true_slots))
    return msg


def semantic_trace(net):
    """Canonical forms with knowledge frames normalized across encodings."""
    out = []
    for form in net.trace.canonical_forms():
        actions = {}
        for node, action in form["actions"].items():
            if isinstance(action, Transmit):
                actions[node] = (
                    "tx",
                    action.channel,
                    knowledge_view(action.message),
                )
            else:
                actions[node] = action
        out.append(
            {
                **form,
                "actions": actions,
                "delivered": {
                    c: knowledge_view(m) for c, m in form["delivered"].items()
                },
                "adversary": tuple(
                    (tx.channel, knowledge_view(tx.payload))
                    for tx in form["adversary"]
                ),
            }
        )
    return out


def metrics_except_payload(metrics) -> dict:
    """Every radio metric but the payload-size counter."""
    return {
        f.name: getattr(metrics, f.name)
        for f in fields(metrics)
        if f.name != "payload_units"
    }
