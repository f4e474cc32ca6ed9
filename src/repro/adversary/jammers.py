"""Generic jamming strategies.

These adversaries only inject noise (:class:`~repro.radio.messages.Jam`), so
they can disrupt but never spoof.  They exercise the protocols' resilience
claims without needing any protocol-specific knowledge.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Sequence

from ..errors import ConfigurationError
from ..radio.messages import JAM, Transmission
from ..rng import BlockDrawer
from .base import Adversary

if TYPE_CHECKING:  # pragma: no cover
    from ..radio.network import AdversaryView


class RandomJamPlanner:
    """Block plans of random jamming off one private stream.

    :meth:`plan` consumes the stream exactly as ``rng.sample(range(
    channels), count)`` once per round would.  At ``count == 1`` that is
    one uniform index per round, so a whole block is one
    :meth:`~repro.rng.BlockDrawer.draw` mapped onto interned moves (one
    drawer and one move per channel, kept per channel count, so one-round
    blocks stay cheap too).
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._single: dict[
            int, tuple[BlockDrawer, tuple[tuple[Transmission], ...]]
        ] = {}

    def plan(
        self, channels: int, count: int, rounds: int
    ) -> list[tuple[Transmission, ...]]:
        """``rounds`` rounds of jamming ``count`` random channels each."""
        if count == 1:
            single = self._single.get(channels)
            if single is None:
                single = self._single[channels] = (
                    BlockDrawer(channels),
                    tuple((Transmission(c, JAM),) for c in range(channels)),
                )
            drawer, moves = single
            return list(map(moves.__getitem__, drawer.draw(self._rng, rounds)))
        population = range(channels)
        sample = self._rng.sample
        return [
            tuple(Transmission(c, JAM) for c in sample(population, count))
            for _ in range(rounds)
        ]


class RandomJammer(Adversary):
    """Jams ``t`` uniformly random channels each round.

    Parameters
    ----------
    rng:
        Adversary-private randomness stream.
    intensity:
        Fraction of the per-round budget actually used, in ``(0, 1]``,
        rounded half up and never below one channel:
        ``intensity=0.5`` jams 2 channels per round at ``t=4``, 3 at
        ``t=5`` and 1 at ``t=1``.

    The jammer is oblivious, so it plans each hop block on its first
    round (see :attr:`~repro.adversary.base.Adversary.plans_blocks`).
    """

    reusable_view = True
    plans_blocks = True

    def __init__(self, rng: random.Random, intensity: float = 1.0) -> None:
        if not 0.0 < intensity <= 1.0:
            raise ConfigurationError("intensity must be in (0, 1]")
        self._intensity = intensity
        self._planner = RandomJamPlanner(rng)
        self._plan: Sequence[Sequence[Transmission]] = ()

    def act(self, view: "AdversaryView") -> Sequence[Transmission]:
        if not view.block_round:
            budget = min(view.t, view.channels)
            count = min(budget, max(1, math.floor(budget * self._intensity + 0.5)))
            self._plan = self._planner.plan(view.channels, count, view.block_rounds)
        return self._plan[view.block_round]

    def reset(self) -> None:
        self._plan = ()


class SweepJammer(Adversary):
    """Deterministically sweeps a jamming window across the channel space.

    Round ``r`` jams channels ``(r*stride + i) mod C`` for ``i < t``.  A
    predictable but full-budget disruptor: useful for deterministic
    regression tests of disruption handling.
    """

    reusable_view = True

    def __init__(self, stride: int = 1) -> None:
        if stride < 1:
            raise ConfigurationError("stride must be >= 1")
        self._stride = stride

    def act(self, view: "AdversaryView") -> Sequence[Transmission]:
        base = (view.round_index * self._stride) % view.channels
        budget = min(view.t, view.channels)
        channels = {(base + i) % view.channels for i in range(budget)}
        return tuple(Transmission(c, JAM) for c in sorted(channels))


class ReactiveJammer(Adversary):
    """Jams the channels that carried the most recent honest activity.

    Implements the one-round-delayed eavesdropper the model allows: it
    inspects the last ``window`` completed rounds, scores channels by how
    many honest transmissions they carried, and jams the top ``t``.  Ties
    are broken by preferring lower channel ids, then filled with random
    channels so the budget is never wasted.
    """

    needs_history = True
    reusable_view = True  # reads the (live) history inside act() only

    def __init__(self, rng: random.Random, window: int = 4) -> None:
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        self._rng = rng
        self._window = window

    def act(self, view: "AdversaryView") -> Sequence[Transmission]:
        scores = [0] * view.channels
        history = view.history
        start = max(0, len(history) - self._window)
        for idx in range(start, len(history)):
            record = history[idx]
            for channel in range(view.channels):
                scores[channel] += len(record.honest_transmitters(channel))
        ranked = sorted(range(view.channels), key=lambda c: (-scores[c], c))
        budget = min(view.t, view.channels)
        targets = ranked[:budget]
        # If there has been no activity, fall back to random jamming.
        if all(scores[c] == 0 for c in targets):
            targets = self._rng.sample(range(view.channels), budget)
        return tuple(Transmission(c, JAM) for c in targets)
