"""The worst-case jammer against deterministic schedules.

f-AME's message-transmission rounds follow a schedule every node (and
therefore the adversary, who knows the protocol and the public history)
computes deterministically.  The strongest the model allows is to jam ``t``
of the ``t+1`` scheduled channels every such round, leaving the referee to
grant exactly one item per game move — the slowest progress the analysis of
Theorem 6 permits.

The :class:`ScheduleAwareJammer` implements that attack with pluggable victim
selection, and optionally spends its budget during feedback rounds too
(where it can only slow listeners down, never corrupt the outcome — the
witness occupancy argument of Lemma 5).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Collection, Sequence

from ..errors import ConfigurationError
from ..radio.messages import JAM, Transmission
from .base import Adversary
from .jammers import RandomJamPlanner

if TYPE_CHECKING:  # pragma: no cover
    from ..radio.network import AdversaryView

VICTIM_POLICIES = ("prefix", "suffix", "random", "victims")


class ScheduleAwareJammer(Adversary):
    """Jams ``t`` of the channels the current schedule says are in use.

    Parameters
    ----------
    rng:
        Adversary-private randomness (used by the ``random`` policy and for
        feedback-round jamming).
    policy:
        Victim selection among the scheduled channels:

        * ``"prefix"`` — jam the lowest-numbered in-use channels (leaves the
          last scheduled item to succeed each move);
        * ``"suffix"`` — jam the highest-numbered;
        * ``"random"`` — jam a random ``t``-subset of the in-use channels;
        * ``"victims"`` — jam channels whose scheduled item involves a node
          in ``victims`` first, then fill the budget by the prefix rule.
    victims:
        Node ids to persecute under the ``"victims"`` policy.
    jam_feedback:
        When ``True``, also jam ``t`` random channels during rounds whose
        phase starts with ``"feedback"``, maximising listener delay.

    Every move depends only on the round's public schedule and the
    private stream, so the jammer plans each hop block on its first round
    (see :attr:`~repro.adversary.base.Adversary.plans_blocks`): the
    deterministic policies repeat one move for the whole block, and the
    random draws are taken for every round of the block in a row.
    """

    reusable_view = True
    plans_blocks = True

    def __init__(
        self,
        rng: random.Random,
        policy: str = "prefix",
        *,
        victims: Collection[int] = (),
        jam_feedback: bool = True,
    ) -> None:
        if policy not in VICTIM_POLICIES:
            raise ConfigurationError(
                f"unknown policy {policy!r}; pick from {VICTIM_POLICIES}"
            )
        self._rng = rng
        self._policy = policy
        self._victims = frozenset(victims)
        self._jam_feedback = jam_feedback
        self._planner = RandomJamPlanner(rng)
        self._plan: Sequence[Sequence[Transmission]] = ()

    # ------------------------------------------------------------------

    def _pick_scheduled(self, view: "AdversaryView", in_use: list[int]) -> list[int]:
        budget = min(view.t, len(in_use))
        if budget == 0:
            return []
        if self._policy == "prefix":
            return sorted(in_use)[:budget]
        if self._policy == "suffix":
            return sorted(in_use)[-budget:]
        if self._policy == "random":
            return self._rng.sample(in_use, budget)
        # "victims": channels touching a victim first.
        schedule = view.meta.schedule or {}
        assignments = schedule.get("assignments", {})

        def touches_victim(channel: int) -> bool:
            info = assignments.get(channel, {})
            involved = {
                info.get("broadcaster"),
                info.get("listener"),
                info.get("source"),
            }
            return bool(involved & self._victims)

        preferred = sorted(c for c in in_use if touches_victim(c))
        rest = sorted(c for c in in_use if not touches_victim(c))
        return (preferred + rest)[:budget]

    def _plan_block(
        self, view: "AdversaryView"
    ) -> Sequence[Sequence[Transmission]]:
        rounds = view.block_rounds
        schedule = view.meta.schedule or {}
        in_use = list(schedule.get("channels_in_use", ()))
        if in_use:
            if self._policy == "random":
                return [
                    tuple(
                        Transmission(c, JAM)
                        for c in self._pick_scheduled(view, in_use)
                    )
                    for _ in range(rounds)
                ]
            targets = self._pick_scheduled(view, in_use)
            return (tuple(Transmission(c, JAM) for c in targets),) * rounds
        if self._jam_feedback and str(view.meta.phase).startswith("feedback"):
            budget = min(view.t, view.channels)
            return self._planner.plan(view.channels, budget, rounds)
        return ((),) * rounds

    def act(self, view: "AdversaryView") -> Sequence[Transmission]:
        if not view.block_round:
            self._plan = self._plan_block(view)
        return self._plan[view.block_round]

    def reset(self) -> None:
        self._plan = ()
