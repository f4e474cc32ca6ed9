"""Byzantine node corruption: the Section 8 (Q1) hardened variant.

The paper's first open question asks about *corruption faults*: some
nodes — unknown to the others — run adversarial code.  It sketches a
"simple modification" achieving ``2t``-disruptability:

* **surrogates are eliminated** — every message is received directly from
  its source (a corrupt surrogate could silently garble relayed vectors);
* **redundant witnesses report on every channel** — a corrupt witness can
  lie about whether its channel was disrupted, so single-witness feedback
  is no longer trustworthy.

This module implements that sketch with the following concrete
interpretation:

* each move schedules up to ``C`` **vertex-disjoint** pending edges, each
  broadcast directly by its source;
* each in-use channel gets a witness group of ``3(t+1)`` listeners — an
  honest majority from *every* observer's perspective whenever at most
  ``t`` nodes are corrupt, including witnesses themselves, who are deaf to
  their own rotation-mates (see :func:`witness_group_size_byz`);
* feedback runs in witness *rotations*: each rotation fills every feedback
  channel with one witness per channel broadcasting a signed-by-position
  report ``(slot, flag, witness)`` (full occupancy keeps spoofing
  impossible), repeated ``Θ(t log n)`` times so every listener hears every
  witness w.h.p.;
* every node tallies, per slot, the **majority flag over distinct
  witnesses** — corrupt witnesses are outvoted;
* a pair fails if its channel was jammed, its source is corrupt (the
  destination receives a garbled payload it cannot detect), or its
  destination is corrupt.  All failures are covered by (jam victims ∪
  corrupt nodes): at most ``2t`` vertices.

Corruption is modelled by :class:`CorruptionModel`: corrupt sources garble
their payloads, corrupt witnesses invert their feedback flags.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..analysis.vertex_cover import min_vertex_cover
from ..errors import ConfigurationError, ProtocolViolation, SimulationDiverged
from ..radio.actions import Action, Listen, Transmit
from ..radio.messages import Message
from ..radio.network import RadioNetwork, RoundMeta
from ..rng import RngRegistry

BYZANTINE_DATA_KIND = "byz-data"
BYZANTINE_REPORT_KIND = "byz-report"


VOTE_POLICIES = ("invert", "random", "equivocate")
"""How a corrupt witness votes: ``invert`` flips the truth every time
(the original model), ``random`` draws a fresh coin per repetition, and
``equivocate`` alternates flags across repetitions — broadcasting *both*
answers for the same slot, the collusion signature a
:class:`~repro.scenarios.injectors.CollusionTracker` detects."""


@dataclass(frozen=True)
class CorruptionModel:
    """Which nodes are corrupt and how they misbehave.

    Attributes
    ----------
    corrupt:
        Node ids running adversarial code.  The protocol never reads this
        set (corruption is unknown to honest nodes); only the simulation
        harness uses it to drive misbehaviour and to verify the cover.
    garble_messages:
        Corrupt sources replace their payload with junk.
    lie_in_feedback:
        Corrupt witnesses misreport their feedback flag.
    vote_policy:
        *How* a lying witness misreports — one of :data:`VOTE_POLICIES`.
        Only consulted when ``lie_in_feedback`` is set; ``invert``
        reproduces the original always-lie behaviour exactly (and draws
        no randomness, so pre-existing executions stay byte-identical).
    """

    corrupt: frozenset[int] = frozenset()
    garble_messages: bool = True
    lie_in_feedback: bool = True
    vote_policy: str = "invert"

    def __post_init__(self) -> None:
        if self.vote_policy not in VOTE_POLICIES:
            raise ConfigurationError(
                f"unknown vote policy {self.vote_policy!r}; "
                f"pick from {VOTE_POLICIES}"
            )

    @classmethod
    def of(cls, *nodes: int, **kwargs) -> "CorruptionModel":
        """Convenience constructor: ``CorruptionModel.of(3, 7)``."""
        return cls(corrupt=frozenset(nodes), **kwargs)

    def is_corrupt(self, node: int) -> bool:
        """Whether ``node`` runs adversarial code."""
        return node in self.corrupt

    def dishonest_flag(self, truth: bool, *, rep: int, coin) -> bool:
        """The flag a corrupt witness reports in repetition ``rep``.

        ``coin`` is the witness's own registry stream; only the
        ``random`` policy draws from it, so the other policies perturb
        no downstream randomness.
        """
        if self.vote_policy == "random":
            return bool(coin.getrandbits(1))
        if self.vote_policy == "equivocate":
            return bool(rep % 2)
        return not truth


@dataclass
class ByzantineResult:
    """Outcome of a Byzantine-hardened exchange."""

    outcomes: dict[tuple[int, int], bool]
    delivered: dict[tuple[int, int], Any]
    garbled: list[tuple[int, int]]
    moves: int
    rounds: int
    divergence_events: int = 0

    @property
    def failed(self) -> list[tuple[int, int]]:
        """Pairs that did not receive their genuine message."""
        return [p for p, ok in self.outcomes.items() if not ok]

    def disruptability(self) -> int:
        """Minimum vertex cover of the failed pairs (bounded by 2t)."""
        return len(min_vertex_cover(self.failed))


def witness_group_size_byz(t: int) -> int:
    """Witnesses per channel: ``3(t+1)``.

    A witness transmits during its own rotation and therefore cannot hear
    its ``t`` rotation-mates: it observes only ``group - t`` votes
    (including its own first-hand flag).  For the majority to survive
    ``t`` lying corrupt witnesses even from a witness's narrowed view, the
    group needs ``group - t - t > t``, i.e. ``group > 3t`` — and the size
    must also be a whole number of ``t+1``-channel rotations.  ``3(t+1)``
    satisfies both (and pleasingly matches the paper's witness-group
    constant from Section 5.4).
    """
    return 3 * (t + 1)


def _matching(pending: Sequence[tuple[int, int]], limit: int) -> list[tuple[int, int]]:
    chosen: list[tuple[int, int]] = []
    used: set[int] = set()
    for v, w in sorted(pending):
        if v in used or w in used:
            continue
        chosen.append((v, w))
        used.update((v, w))
        if len(chosen) == limit:
            break
    return chosen


def _byzantine_feedback(
    network: RadioNetwork,
    witness_groups: Sequence[Sequence[int]],
    flags: Mapping[int, bool],
    corruption: CorruptionModel,
    rng: RngRegistry,
) -> dict[int, set[int]]:
    """Majority-vote feedback with redundant witnesses.

    Returns each node's decided slot set.  Corrupt witnesses report
    inverted flags; they are outvoted as long as at most ``t`` nodes are
    corrupt in total.
    """
    channels = min(network.channels, network.t + 1)
    reps = network.params.feedback_repetitions(network.n, channels, network.t)
    # reports[node][slot][witness] = flag heard
    reports: dict[int, dict[int, dict[int, bool]]] = defaultdict(
        lambda: defaultdict(dict)
    )
    for slot, group in enumerate(witness_groups):
        if len(group) % channels != 0:
            raise ConfigurationError(
                "witness group size must be a multiple of the feedback "
                "channel count"
            )
        rotations = [
            group[i : i + channels] for i in range(0, len(group), channels)
        ]
        for rotation in rotations:
            for rep in range(reps):
                actions: dict[int, Action] = {}
                broadcasters = set(rotation)
                for rank, witness in enumerate(rotation):
                    flag = flags[witness]
                    if corruption.lie_in_feedback and corruption.is_corrupt(
                        witness
                    ):
                        flag = corruption.dishonest_flag(
                            flag,
                            rep=rep,
                            coin=rng.stream("byz-vote", witness),
                        )
                    actions[witness] = Transmit(
                        rank,
                        Message(
                            kind=BYZANTINE_REPORT_KIND,
                            sender=witness,
                            payload=(slot, flag, witness),
                        ),
                    )
                for node in range(network.n):
                    if node not in broadcasters:
                        stream = rng.stream("byz-feedback", node)
                        actions[node] = Listen(stream.randrange(channels))
                results = network.execute_round(
                    actions,
                    RoundMeta(phase="byz-feedback", extra={"slot": slot}),
                )
                for node, frame in results.items():
                    if frame is None or frame.kind != BYZANTINE_REPORT_KIND:
                        continue
                    r_slot, r_flag, r_witness = frame.payload
                    # Full channel occupancy makes spoofing impossible, so
                    # the claimed witness id is authentic.
                    reports[node][r_slot][r_witness] = r_flag
        # Witnesses know their own channel first-hand.
        for witness in group:
            flag = flags[witness]
            reports[witness][slot][witness] = flag

    decisions: dict[int, set[int]] = {}
    for node in range(network.n):
        decided: set[int] = set()
        for slot in range(len(witness_groups)):
            votes = reports[node].get(slot, {})
            if not votes:
                continue
            tally = Counter(votes.values())
            if tally[True] > tally[False]:
                decided.add(slot)
        decisions[node] = decided
    return decisions


def run_byzantine_exchange(
    network: RadioNetwork,
    edges: Sequence[tuple[int, int]],
    messages: Mapping[tuple[int, int], Any] | None = None,
    rng: RngRegistry | None = None,
    *,
    corruption: CorruptionModel | None = None,
) -> ByzantineResult:
    """Run the hardened (surrogate-free, majority-witness) exchange.

    Guarantees ``2t``-disruptability when at most ``t`` nodes are corrupt:
    every failed pair touches a jam victim or a corrupt node.
    """
    t = network.t
    corruption = corruption or CorruptionModel()
    if len(corruption.corrupt) > t:
        raise ConfigurationError(
            f"the 2t-disruptability analysis assumes at most t={t} corrupt "
            f"nodes; got {len(corruption.corrupt)}"
        )
    edges = list(dict.fromkeys((int(v), int(w)) for v, w in edges))
    for v, w in edges:
        if v == w or not (0 <= v < network.n and 0 <= w < network.n):
            raise ProtocolViolation(f"invalid pair ({v}, {w})")
    if messages is None:
        messages = {(v, w): ("msg", v, w) for v, w in edges}
    rng = rng or RngRegistry(seed=0)

    group_size = witness_group_size_byz(t)
    start = network.metrics.rounds
    pending = list(edges)
    delivered: dict[tuple[int, int], Any] = {}
    garbled: list[tuple[int, int]] = []
    moves = 0
    divergence_events = 0
    max_moves = 3 * len(edges) + t + 2

    while True:
        batch = _matching(pending, min(network.channels, t + 1))
        if len(batch) < t + 1:
            break
        busy = {v for pair in batch for v in pair}
        free = [node for node in range(network.n) if node not in busy]
        if len(free) < group_size * len(batch):
            raise ProtocolViolation(
                "population too small for Byzantine witness groups"
            )
        witness_groups = [
            tuple(free[i * group_size : (i + 1) * group_size])
            for i in range(len(batch))
        ]

        actions: dict[int, Action] = {}
        payloads: dict[tuple[int, int], Any] = {}
        for channel, (v, w) in enumerate(batch):
            payload = messages[(v, w)]
            if corruption.garble_messages and corruption.is_corrupt(v):
                payload = ("garbled-by", v)
            payloads[(v, w)] = payload
            actions[v] = Transmit(
                channel,
                Message(
                    kind=BYZANTINE_DATA_KIND, sender=v, payload=(v, w, payload)
                ),
            )
            actions[w] = Listen(channel)
            for witness in witness_groups[channel]:
                actions[witness] = Listen(channel)
        results = network.execute_round(
            actions,
            RoundMeta(
                phase="byz-transmission",
                schedule={
                    "channels_in_use": tuple(range(len(batch))),
                    "assignments": {
                        c: {"broadcaster": v, "source": v, "listener": w}
                        for c, (v, w) in enumerate(batch)
                    },
                },
                extra={"move": moves},
            ),
        )

        flags = {
            witness: (
                results.get(witness) is not None
                and results[witness].kind == BYZANTINE_DATA_KIND
            )
            for group in witness_groups
            for witness in group
        }
        decisions = _byzantine_feedback(
            network, witness_groups, flags, corruption, rng
        )
        honest_decisions = [
            frozenset(d)
            for node, d in decisions.items()
            if not corruption.is_corrupt(node)
        ]
        tally = Counter(honest_decisions)
        majority, _count = tally.most_common(1)[0]
        disagreeing = sum(1 for d in honest_decisions if d != majority)
        if disagreeing:
            if network.params.strict_consistency:
                raise SimulationDiverged(
                    "honest nodes disagree on Byzantine feedback"
                )
            divergence_events += 1
        if not majority:
            raise SimulationDiverged("empty referee response")

        for slot in sorted(majority):
            pair = batch[slot]
            frame = results.get(pair[1])
            if frame is None:  # pragma: no cover - majority vote is truthful
                raise SimulationDiverged("granted slot without delivery")
            got = frame.payload[2]
            delivered[pair] = got
            if got != messages[pair]:
                garbled.append(pair)
            pending.remove(pair)
        moves += 1
        if moves > max_moves:
            raise ProtocolViolation("Byzantine exchange exceeded move cap")

    outcomes = {
        p: (p in delivered and p not in set(garbled)) for p in edges
    }
    return ByzantineResult(
        outcomes=outcomes,
        delivered=delivered,
        garbled=garbled,
        moves=moves,
        rounds=network.metrics.rounds - start,
        divergence_events=divergence_events,
    )
