"""The restricted-listening adversary model (Section 8, Q2).

The paper's second open question: if the adversary can *listen* on only
``t`` channels per round (instead of all ``C``), can nodes establish
shared secrets that are information-theoretically secure — no
computational assumptions at all?  The paper conjectures any such
algorithm is inherently exponential.

This module supplies the model and the experiment that shows *why* the
question is hard:

* :class:`RestrictedListeningNetwork` extends the radio simulator so the
  adversary observes only the channels it chose to monitor — the trace it
  is shown is **redacted** per round (actions and deliveries on other
  channels are hidden, and it no longer learns honest random choices).
* :class:`MonitoringAdversary` is the strategy interface: pick up to
  ``t`` channels to monitor (before the round), then transmit as usual.
* :func:`run_share_spray` is the natural first attempt at IT key
  agreement: one node sprays ``k`` one-time-pad shares over random
  channels, the peer collects them, and the pad is the XOR of all
  shares.  The adversary reconstructs the pad only if it observed *every*
  share; the peer gets the pad only if it received every share.

The experiment exposes the tension the conjecture lives on: repetitions
make delivery reliable but give the eavesdropper more chances to catch
each share, while few repetitions keep the pad secret from everyone —
including the intended receiver (who cannot acknowledge, since nothing is
authenticated yet).  The bench sweeps repetitions and tabulates both
probabilities.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..errors import ConfigurationError, ProtocolViolation
from ..radio.actions import Action, Listen, Transmit
from ..radio.messages import Message, Transmission
from ..radio.network import AdversaryView, RadioNetwork, RoundMeta
from ..radio.trace import ExecutionTrace, RoundRecord
from ..rng import RngRegistry

SHARE_KIND = "it-share"


class MonitoringAdversary(abc.ABC):
    """An adversary with a per-round listening budget.

    Subclasses implement :meth:`monitor` (channels to observe this round,
    chosen before the round resolves) and :meth:`act` (transmissions, as
    in the base model).  Both see only the redacted history.
    """

    needs_history: bool = True

    @abc.abstractmethod
    def monitor(self, view: AdversaryView) -> Sequence[int]:
        """Channels to observe this round (at most the listen budget)."""

    def act(self, view: AdversaryView) -> Sequence[Transmission]:
        """Transmissions for this round (at most ``t``); default silent."""
        return ()

    def reset(self) -> None:
        """Clear per-execution state."""


class RestrictedListeningNetwork(RadioNetwork):
    """A radio network whose adversary sees only monitored channels.

    The adversary's history is rebuilt per round: a redacted
    :class:`RoundRecord` keeps only the actions, deliveries, and its own
    transmissions on the channels it monitored.  The Section 3 assumption
    that "the adversary learns all random choices of completed rounds" is
    deliberately dropped — that is the whole point of the Q2 model.

    Compiled :class:`~repro.radio.network.RoundSchedule` submissions are
    supported: because this class overrides :meth:`execute_round`, the base
    :meth:`~repro.radio.network.RadioNetwork.execute_schedule` detects the
    customisation and expands every round of each block through the
    override, so the monitor-before-act semantics and per-round redaction
    apply to schedule-driven protocols unchanged.
    """

    def __init__(
        self,
        n: int,
        channels: int,
        t: int,
        adversary: MonitoringAdversary,
        *,
        listen_budget: int | None = None,
        **kwargs,
    ) -> None:
        if not isinstance(adversary, MonitoringAdversary):
            raise ConfigurationError(
                "RestrictedListeningNetwork needs a MonitoringAdversary"
            )
        kwargs["keep_trace"] = True  # redaction reads the full last record
        super().__init__(n, channels, t, adversary=None, **kwargs)
        self._monitoring_adversary = adversary
        self.listen_budget = t if listen_budget is None else listen_budget
        if not 0 <= self.listen_budget <= channels:
            raise ConfigurationError("listen budget out of range")
        self.redacted_trace = ExecutionTrace()
        self.observed_channel_rounds = 0

    # ------------------------------------------------------------------

    def _redacted_view(self, meta: RoundMeta) -> AdversaryView:
        return AdversaryView(
            n=self.n,
            channels=self.channels,
            t=self.t,
            round_index=self.round_index,
            history=self.redacted_trace,
            meta=meta,
        )

    def execute_round(
        self,
        actions: Mapping[int, Action],
        meta: RoundMeta | None = None,
    ) -> dict[int, Message | None]:
        """Resolve one round with monitoring-before-acting semantics."""
        meta = meta or RoundMeta()
        view = self._redacted_view(meta)
        monitored = sorted(set(self._monitoring_adversary.monitor(view)))
        if len(monitored) > self.listen_budget:
            raise ProtocolViolation(
                f"adversary monitored {len(monitored)} channels; "
                f"listen budget is {self.listen_budget}"
            )
        if any(not 0 <= c < self.channels for c in monitored):
            raise ProtocolViolation("monitored channel out of range")

        transmissions = tuple(self._monitoring_adversary.act(view))
        self._validate_adversary(list(transmissions))

        class _OneShot:
            """Adapter feeding the pre-committed transmissions through the
            base class's resolution path."""

            needs_history = False

            def act(self, _view):
                return transmissions

        self.adversary = _OneShot()
        try:
            results = super().execute_round(actions, meta)
        finally:
            self.adversary = None

        # Build the redacted record the adversary will remember.
        full = self.trace[len(self.trace) - 1]
        self.observed_channel_rounds += len(monitored)
        monitored_set = set(monitored)
        redacted = RoundRecord(
            index=full.index,
            actions={
                node: action
                for node, action in full.actions.items()
                if isinstance(action, Transmit)
                and action.channel in monitored_set
            },
            adversary_transmissions=full.adversary_transmissions,
            delivered={
                channel: (msg if channel in monitored_set else None)
                for channel, msg in full.delivered.items()
            },
            meta=dict(full.meta, monitored=tuple(monitored)),
        )
        self.redacted_trace.append(redacted)
        return results


class StickyEavesdropper(MonitoringAdversary):
    """Monitors a fixed channel set every round (budget channels).

    The strongest *oblivious* listener against uniform channel spraying:
    it observes each uniformly-placed frame with probability exactly
    ``budget / C``.
    """

    def __init__(self, channels: Sequence[int]) -> None:
        self._channels = tuple(channels)

    def monitor(self, view: AdversaryView) -> Sequence[int]:
        return self._channels[: view.t]


class HoppingEavesdropper(MonitoringAdversary):
    """Monitors a fresh random channel subset every round."""

    def __init__(self, rng) -> None:
        self._rng = rng

    def monitor(self, view: AdversaryView) -> Sequence[int]:
        budget = min(view.t, view.channels)
        return self._rng.sample(range(view.channels), budget)


# ---------------------------------------------------------------------------
# The share-spray experiment.
# ---------------------------------------------------------------------------


@dataclass
class ShareSprayResult:
    """Outcome of one pad-agreement attempt.

    The pad is the XOR of all ``shares``; either party (or the adversary)
    knows it iff it holds *every* share.
    """

    shares: int
    repetitions: int
    receiver_shares: set[int] = field(default_factory=set)
    adversary_shares: set[int] = field(default_factory=set)
    rounds: int = 0

    @property
    def receiver_has_pad(self) -> bool:
        """The intended receiver collected every share."""
        return len(self.receiver_shares) == self.shares

    @property
    def adversary_has_pad(self) -> bool:
        """The eavesdropper observed every share: secrecy lost."""
        return len(self.adversary_shares) == self.shares

    @property
    def information_theoretically_secret(self) -> bool:
        """At least one share escaped the adversary."""
        return not self.adversary_has_pad


def run_share_spray(
    network: RestrictedListeningNetwork,
    sender: int,
    receiver: int,
    rng: RngRegistry,
    *,
    shares: int = 4,
    repetitions: int = 8,
) -> ShareSprayResult:
    """Spray ``shares`` pad shares over random channels.

    Each share gets ``repetitions`` rounds; per round the sender places
    the share on a fresh uniform channel and the receiver listens on a
    fresh uniform channel.  No feedback, no authentication — this is the
    *naive* protocol whose secrecy/reliability tension motivates the
    paper's conjecture (see the module docstring).
    """
    if sender == receiver:
        raise ConfigurationError("sender and receiver must differ")
    result = ShareSprayResult(shares=shares, repetitions=repetitions)
    start = network.metrics.rounds
    for share in range(shares):
        for _ in range(repetitions):
            stream_s = rng.stream("spray", sender)
            stream_r = rng.stream("spray", receiver)
            actions: dict[int, Action] = {}
            actions[sender] = Transmit(
                stream_s.randrange(network.channels),
                Message(kind=SHARE_KIND, sender=sender, payload=("share", share)),
            )
            actions[receiver] = Listen(stream_r.randrange(network.channels))
            frames = network.execute_round(
                actions, RoundMeta(phase="it-spray", extra={"share": share})
            )
            got = frames.get(receiver)
            if got is not None and got.kind == SHARE_KIND:
                result.receiver_shares.add(got.payload[1])
            # What did the adversary see?  The redacted record answers.
            last = network.redacted_trace[len(network.redacted_trace) - 1]
            for _channel, msg in last.delivered.items():
                if msg is not None and msg.kind == SHARE_KIND:
                    result.adversary_shares.add(msg.payload[1])
    result.rounds = network.metrics.rounds - start
    return result
