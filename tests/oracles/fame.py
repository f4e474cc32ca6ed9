"""f-AME on the pre-pipeline engine, kept as an equivalence oracle.

:class:`DenseFameProtocol` runs the protocol the way the radio engine was
first driven: every transmission round hands ``execute_round`` one action
per node, idle nodes padded with an explicit ``Sleep``, and the feedback
phase runs the per-round reference loops of :mod:`oracles.feedback` (the
parallel merge with full ``slot -> flag`` frames).  Seeded runs match
:func:`repro.fame.run_fame` in outcomes, metrics and traces, except that
the parallel merge's full frames raise ``payload_units`` and appear in the
trace in their full encoding.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.fame.config import FameConfig
from repro.fame.protocol import AME_DATA_KIND, FameProtocol, vector_frame
from repro.fame.result import FameResult
from repro.fame.schedule import TransmissionSchedule
from repro.feedback.parallel import run_parallel_feedback
from repro.radio.actions import SLEEP, Action, Listen, Transmit
from repro.radio.messages import Message
from repro.radio.network import RadioNetwork, RoundMeta
from repro.rng import RngRegistry

from .feedback import per_round_transfers, run_feedback_per_round


class DenseFameProtocol(FameProtocol):
    """:class:`FameProtocol` with dense rounds and per-round feedback."""

    def _transmission_round(
        self, schedule: TransmissionSchedule, move_index: int
    ) -> dict[int, Message | None]:
        actions: dict[int, Action] = {}
        for a in schedule.assignments:
            vector = self._knowledge[a.broadcaster][a.source]
            actions[a.broadcaster] = Transmit(
                a.channel, vector_frame(a.broadcaster, a.source, vector)
            )
        for listener, channel in schedule.listeners().items():
            actions[listener] = Listen(channel)
        for node in range(self.network.n):
            actions.setdefault(node, SLEEP)
        results = self.network.execute_round(
            actions,
            RoundMeta(
                phase="ame-transmission",
                schedule=schedule.meta_schedule(),
                extra={"move": move_index},
            ),
        )
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
        flags: dict[int, bool] = {}
        for group in schedule.witness_groups:
            for w in group:
                frame = results.get(w)
                flags[w] = frame is not None and frame.kind == AME_DATA_KIND
        participants = list(range(self.network.n))
        if self.config.parallel_feedback:
            with per_round_transfers(full_frames=True):
                return run_parallel_feedback(
                    self.network,
                    schedule.feedback_sets,
                    flags,
                    participants,
                    self.rng,
                    phase="feedback-parallel",
                )
        return run_feedback_per_round(
            self.network,
            schedule.serial_witness_assignment(),
            {w: flags[w] for s in schedule.feedback_sets for w in s},
            participants,
            self.rng,
            phase="feedback",
        )


def run_fame_dense(
    network: RadioNetwork,
    edges: Sequence[tuple[int, int]],
    messages: Mapping[tuple[int, int], Any] | None = None,
    rng: RngRegistry | None = None,
    *,
    config: FameConfig | None = None,
) -> FameResult:
    """:func:`repro.fame.run_fame` through :class:`DenseFameProtocol`."""
    return DenseFameProtocol(
        network, edges, messages=messages, rng=rng, config=config
    ).run()
