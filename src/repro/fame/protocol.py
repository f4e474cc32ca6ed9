"""The f-AME protocol driver (Section 5.4, Figure 2).

The protocol is a distributed simulation of the starred-edge removal game:

1. every node applies the greedy strategy to its local game copy to obtain
   the move's proposal (identical across nodes — Invariant 1);
2. the proposal is mapped onto channels by the deterministic schedule and
   one *message-transmission* radio round is executed;
3. the *feedback phase* (Figure 1, or the parallel merge for ``C >= 2t^2``)
   lets every node agree on the set ``D`` of channels that succeeded;
4. each node simulates the referee granting exactly the items whose channel
   is in ``D``, updating its game copy: granted nodes are starred (their
   witness group becomes their surrogate set — Invariant 2), granted edges
   are removed (their message was delivered — Invariant 3).

The loop ends when the greedy strategy terminates, which certifies a vertex
cover of at most ``t`` for the remaining (failed) pairs — ``t``-disruptability.

Implementation note: all nodes deterministically compute identical proposals
and schedules from identical state, so the driver computes each proposal once
and *asserts* the per-node state agreement instead of recomputing ``n``
identical greedy runs per move; the per-node feedback outputs — the only
place where views can diverge — are tracked individually for every node.

Engine note: the driver keeps **one** canonical :class:`GameGraph` (with
incrementally-maintained greedy pools, see
:class:`~repro.game.greedy.GreedyPools`) instead of ``n`` replicated copies.
Each node's replica is represented by an O(1) *state fingerprint* advanced
with every grant it applies (post-resynchronisation); Invariant 1 is
asserted by fingerprint equality — O(n) per move — rather than by comparing
``n`` full sorted state snapshots, which dominated the per-move cost at
scale.  Radio rounds are submitted sparsely (only scheduled nodes).  The
legacy engine behaviour — every idle node padded with an explicit
``Sleep`` and the feedback routines' per-round reference loops — lives on
as the ``DenseFameProtocol`` oracle in ``tests/oracles/fame.py``, which the
engine-equivalence tests and the golden grid run against this driver.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Mapping, Sequence

from ..errors import ProtocolViolation, SimulationDiverged
from ..feedback.parallel import run_parallel_feedback
from ..feedback.protocol import run_feedback
from ..game.graph import (
    EdgeItem,
    GameGraph,
    NodeItem,
    advance_fingerprint,
    remove_edge_token,
    star_token,
)
from ..game.greedy import GreedyPools, GreedyTermination
from ..game.rules import check_proposal
from ..radio.actions import Transmit
from ..radio.messages import Message
from ..radio.network import (
    HopBlock,
    RadioNetwork,
    RoundMeta,
    RoundSchedule,
)
from ..radio.shapes import ScheduleShapeCache
from ..rng import RngRegistry
from .config import FameConfig, make_config
from .result import FameResult, PairOutcome
from .schedule import TransmissionSchedule, build_schedule

AME_DATA_KIND = "ame-data"
"""Frame kind of message-transmission broadcasts."""


def vector_frame(
    broadcaster: int, source: int, vector: Mapping[int, Any]
) -> Message:
    """The transmission-phase frame: ``source``'s full message vector.

    Section 5.4 has broadcasters send "the vector of all values m_{v,*}"
    (Section 5.6's digest pipeline shrinks this to constant size).
    """
    return Message(
        kind=AME_DATA_KIND,
        sender=broadcaster,
        payload=(source, tuple(sorted(vector.items()))),
    )


def _fold_tokens(
    fingerprint: int, tokens: Sequence[tuple[int, ...]]
) -> int:
    """Advance one replica fingerprint over an ordered grant sequence."""
    for token in tokens:
        fingerprint = advance_fingerprint(fingerprint, token)
    return fingerprint


def default_messages(
    edges: Sequence[tuple[int, int]]
) -> dict[tuple[int, int], Any]:
    """Distinct placeholder payloads for tests and examples."""
    return {(v, w): ("msg", v, w) for (v, w) in edges}


class FameProtocol:
    """One f-AME execution bound to a network and an edge set.

    Parameters
    ----------
    network:
        The radio network (its ``n``/``channels``/``t`` drive the config).
    edges:
        The AME pair set ``E`` (ordered pairs of distinct node ids).
    messages:
        Per-pair payloads ``m_vw``; defaults to distinct placeholders.
    rng:
        Registry for the honest nodes' random choices (feedback hopping).
    config:
        Channel-regime configuration; derived from the network when omitted.
    """

    def __init__(
        self,
        network: RadioNetwork,
        edges: Sequence[tuple[int, int]],
        messages: Mapping[tuple[int, int], Any] | None = None,
        rng: RngRegistry | None = None,
        config: FameConfig | None = None,
    ) -> None:
        self.network = network
        self.config = config or make_config(
            network.n, network.channels, network.t, params=network.params
        )
        self.edges = list(dict.fromkeys((int(v), int(w)) for v, w in edges))
        for v, w in self.edges:
            if not (0 <= v < network.n and 0 <= w < network.n):
                raise ProtocolViolation(f"pair ({v}, {w}) outside the network")
            if v == w:
                raise ProtocolViolation(f"pair ({v}, {w}) is a self-loop")
        self.messages = (
            dict(messages) if messages is not None else default_messages(self.edges)
        )
        missing = [p for p in self.edges if p not in self.messages]
        if missing:
            raise ProtocolViolation(f"pairs without messages: {missing[:4]}")
        self.rng = rng or RngRegistry(seed=0)
        # One schedule-shape cache for the whole run: every move's feedback
        # phase has the same (participants, channels, repetitions) geometry,
        # so templates/metadata/stream tables are built once and reused.
        self._shape_cache = ScheduleShapeCache()

        # Game state: one canonical graph with live greedy pools, plus one
        # O(1) state fingerprint per node standing in for its full replica.
        self._graph = GameGraph.from_pairs(
            self.edges, vertices=range(network.n)
        )
        self._pools = GreedyPools(self._graph)
        self._fingerprints: list[int] = [
            self._graph.fingerprint for _ in range(network.n)
        ]
        # knowledge[j][v] = j's copy of v's message vector.
        self._knowledge: list[dict[int, dict[int, Any]]] = [
            {} for _ in range(network.n)
        ]
        for v, w in self.edges:
            vector = self._knowledge[v].setdefault(v, {})
            vector[w] = self.messages[(v, w)]
        self._surrogates: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------

    def _assert_invariant1(self) -> None:
        """Invariant 1: every node's replica matches the canonical state.

        Fingerprints advance once per applied grant, so equality here
        certifies that all ``n`` replicas applied the same grant sequence —
        the property the old implementation established by hashing ``n``
        full sorted state snapshots every move.
        """
        canonical = self._graph.fingerprint
        if any(  # pragma: no cover - grants are applied uniformly
            fp != canonical for fp in self._fingerprints
        ):
            raise SimulationDiverged(
                "Invariant 1 violated: node-local game states differ"
            )

    def _transmission_round(
        self, schedule: TransmissionSchedule, move_index: int
    ) -> dict[int, Message | None]:
        """Execute the message-transmission phase of one move."""
        transmits: dict[int, Transmit] = {}
        for a in schedule.assignments:
            vector = self._knowledge[a.broadcaster].get(a.source)
            if vector is None:  # pragma: no cover - schedule picks holders
                raise SimulationDiverged(
                    f"broadcaster {a.broadcaster} lacks vector of {a.source}"
                )
            transmits[a.broadcaster] = Transmit(
                a.channel, vector_frame(a.broadcaster, a.source, vector)
            )
        listener_channels = schedule.listeners()
        meta = RoundMeta(
            phase="ame-transmission",
            schedule=schedule.meta_schedule(),
            extra={"move": move_index},
        )
        block = HopBlock.single_round(
            transmits, listener_channels, self.network.channels, meta
        )
        [heard] = self.network.execute_schedule(RoundSchedule([block]))
        results = {
            listener: heard.get(channel)
            for listener, channel in listener_channels.items()
        }
        # Every frame decoded on an in-use channel is authentic: each such
        # channel carries an honest broadcaster, so adversarial transmissions
        # can only collide (the paper's first insight).  Record the vectors.
        for node, frame in results.items():
            if frame is not None and frame.kind == AME_DATA_KIND:
                source, items = frame.payload
                self._knowledge[node][source] = dict(items)
        return results

    def _feedback_phase(
        self,
        schedule: TransmissionSchedule,
        results: Mapping[int, Message | None],
    ) -> dict[int, set[int]]:
        """Run the feedback routine; return every node's slot set ``D_j``."""
        flags: dict[int, bool] = {}
        for group in schedule.witness_groups:
            for w in group:
                frame = results.get(w)
                flags[w] = frame is not None and frame.kind == AME_DATA_KIND
        participants = list(range(self.network.n))
        if self.config.parallel_feedback:
            return run_parallel_feedback(
                self.network,
                schedule.feedback_sets,
                flags,
                participants,
                self.rng,
                phase="feedback-parallel",
                shape_cache=self._shape_cache,
            )
        return run_feedback(
            self.network,
            schedule.serial_witness_assignment(),
            {w: flags[w] for s in schedule.feedback_sets for w in s},
            participants,
            self.rng,
            phase="feedback",
            shape_cache=self._shape_cache,
        )

    def _agree_on_referee(
        self, outputs: Mapping[int, set[int]]
    ) -> tuple[frozenset[int], int]:
        """Resolve the per-node feedback outputs into one referee response.

        Returns the majority ``D`` and the number of disagreeing nodes.  In
        strict mode any disagreement raises
        :class:`~repro.errors.SimulationDiverged` — the event Lemma 5 makes
        improbable; otherwise the run records it and resynchronises, which
        is what a deployed system would log.
        """
        counts = Counter(frozenset(d) for d in outputs.values())
        majority, _ = counts.most_common(1)[0]
        disagreeing = sum(
            1 for d in outputs.values() if frozenset(d) != majority
        )
        if disagreeing and self.network.params.strict_consistency:
            raise SimulationDiverged(
                f"{disagreeing} nodes disagree on the feedback output "
                "(the low-probability event of Lemma 5)"
            )
        if not majority:
            raise SimulationDiverged(
                "empty referee response: feedback reported no surviving "
                "channel, which the adversary budget cannot cause"
            )
        return majority, disagreeing

    # ------------------------------------------------------------------

    def run(self) -> FameResult:
        """Drive the simulation to termination and return the result."""
        start_rounds = self.network.metrics.rounds
        outcomes: dict[tuple[int, int], PairOutcome] = {}
        moves = 0
        divergence_events = 0
        disagreeing_total = 0
        max_moves = 3 * len(self.edges) + self.config.t + 2

        while True:
            self._assert_invariant1()
            canonical = self._graph
            move = self._pools.proposal(
                self.config.t, max_items=self.config.proposal_size
            )
            if isinstance(move, GreedyTermination):
                claimed_cover = move.cover
                break
            check_proposal(
                canonical,
                move,
                self.config.t,
                max_items=self.config.proposal_size,
            )
            schedule = build_schedule(
                self.config, move, canonical.starred, self._surrogates
            )
            results = self._transmission_round(schedule, moves)
            outputs = self._feedback_phase(schedule, results)
            granted_slots, disagreeing = self._agree_on_referee(outputs)
            if disagreeing:
                divergence_events += 1
                disagreeing_total += disagreeing

            grant_tokens: list[tuple[int, ...]] = []
            for slot in sorted(granted_slots):
                assignment = schedule.assignment_for_slot(slot)
                item = assignment.item
                if isinstance(item, NodeItem):
                    self._pools.star(item.node)
                    grant_tokens.append(star_token(item.node))
                    self._surrogates[item.node] = schedule.witness_groups[slot]
                elif isinstance(item, EdgeItem):
                    self._pools.remove_edge(item.pair)
                    grant_tokens.append(remove_edge_token(item.pair))
                    dest_frame = results.get(item.dest)
                    if dest_frame is None:  # pragma: no cover - D is truthful
                        raise SimulationDiverged(
                            f"slot {slot} granted but destination "
                            f"{item.dest} heard nothing"
                        )
                    _source, items = dest_frame.payload
                    delivered = dict(items).get(item.dest)
                    outcomes[item.pair] = PairOutcome(
                        pair=item.pair,
                        success=True,
                        message=delivered,
                        move=moves,
                    )
            # Every node applies the agreed (post-resynchronisation) grant
            # sequence to its replica: advance each fingerprint in lockstep.
            self._fingerprints = [
                _fold_tokens(fp, grant_tokens) for fp in self._fingerprints
            ]
            moves += 1
            if moves > max_moves:
                raise ProtocolViolation(
                    f"f-AME exceeded the move cap ({max_moves}); the greedy "
                    "bound of Theorem 4 guarantees termination well before"
                )

        for pair in self.edges:
            outcomes.setdefault(
                pair, PairOutcome(pair=pair, success=False)
            )
        return FameResult(
            config=self.config,
            outcomes=outcomes,
            moves=moves,
            rounds=self.network.metrics.rounds - start_rounds,
            divergence_events=divergence_events,
            disagreeing_nodes=disagreeing_total,
            claimed_cover=claimed_cover,
            starred=frozenset(self._graph.starred),
            surrogate_holders=dict(self._surrogates),
        )


def run_fame(
    network: RadioNetwork,
    edges: Sequence[tuple[int, int]],
    messages: Mapping[tuple[int, int], Any] | None = None,
    rng: RngRegistry | None = None,
    *,
    config: FameConfig | None = None,
) -> FameResult:
    """Convenience wrapper: build a :class:`FameProtocol` and run it."""
    return FameProtocol(
        network,
        edges,
        messages=messages,
        rng=rng,
        config=config,
    ).run()
