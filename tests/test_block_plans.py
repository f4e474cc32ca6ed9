"""Block plans of the oblivious jammers.

:class:`~repro.adversary.RandomJammer` and :class:`~repro.adversary.
ScheduleAwareJammer` declare ``plans_blocks``: on the first round of a hop
block they draw every round's moves at once.  Each test here runs a
schedule through :meth:`RadioNetwork.execute_schedule` (plans) and the same
rounds one at a time through :meth:`RadioNetwork.execute_round` (one-round
views, a draw per round), and requires the same trace, metrics and
post-run adversary stream.  The rest pins the view contract around plans:
the round cap, a view reused after a long block, wrappers, and ``reset``.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import (
    BudgetAdversary,
    RandomJammer,
    ScheduleAwareJammer,
    SweepJammer,
)
from repro.errors import ProtocolViolation
from repro.params import ProtocolParameters
from repro.radio.actions import Listen, Transmit
from repro.radio.messages import Message
from repro.radio.network import (
    AdversaryView,
    HopBlock,
    RadioNetwork,
    RoundMeta,
    RoundSchedule,
    hop_row,
)
from repro.radio.trace import ExecutionTrace

N = 16


def _scheduled_meta(channels: int) -> RoundMeta:
    """A message round whose public schedule uses every other channel."""
    in_use = tuple(range(0, channels, 2)) or (0,)
    assignments = {c: {"broadcaster": c, "listener": N - 1 - c} for c in in_use}
    return RoundMeta(
        phase="fame-move",
        schedule={"channels_in_use": in_use, "assignments": assignments},
    )


def _metas(channels: int) -> list[RoundMeta]:
    return [
        RoundMeta(phase="feedback-slot"),
        _scheduled_meta(channels),
        RoundMeta(phase="quiet"),
    ]


def _schedule(seed: int, channels: int, lengths) -> RoundSchedule:
    """One block per length, cycling through feedback, scheduled and
    unlabelled metadata; two transmitters and hopping listeners each."""
    rng = random.Random(seed)
    metas = _metas(channels)
    blocks = []
    for i, rounds in enumerate(lengths):
        nodes = rng.sample(range(N), N)
        template = {
            v: Transmit(rng.randrange(channels), Message("d", v, (i, v)))
            for v in nodes[:2]
        }
        listeners = tuple(nodes[2:9])
        hops = tuple(
            hop_row([rng.randrange(channels) for _ in range(rounds)], channels)
            for _ in listeners
        )
        blocks.append(
            HopBlock(
                rounds,
                template,
                tuple(range(channels)),
                listeners,
                hops,
                metas[i % len(metas)],
            )
        )
    return RoundSchedule(blocks)


# Every planning jammer configuration: ``name -> factory(rng)``.
JAMMERS = {
    "random-0.5": lambda rng: RandomJammer(rng, intensity=0.5),
    "random-1.0": lambda rng: RandomJammer(rng),
    **{
        f"schedule-aware-{policy}": (
            lambda rng, policy=policy: ScheduleAwareJammer(
                rng, policy, victims={N - 1}
            )
        )
        for policy in ("prefix", "suffix", "random", "victims")
    },
    "schedule-aware-no-feedback": lambda rng: ScheduleAwareJammer(
        rng, "random", jam_feedback=False
    ),
}
GEOMETRIES = [(2, 1), (3, 1), (3, 2), (5, 2), (5, 4)]
LENGTHS = [(1, 1, 1), (2, 7, 1, 33), (40, 3, 12, 5, 1, 64)]


def _pair(factory, channels, t, seed=7, params=None):
    """A planning network and a per-round reference, equally seeded."""
    kwargs = {} if params is None else {"params": params}
    nets, streams = [], []
    for _ in range(2):
        stream = random.Random(seed)
        nets.append(
            RadioNetwork(N, channels, t, adversary=factory(stream), **kwargs)
        )
        streams.append(stream)
    return nets, streams


def _per_round(net, schedule):
    for actions, meta in schedule.as_action_batches():
        net.execute_round(actions, meta)


def _assert_same_run(nets, streams):
    planned, reference = nets
    assert planned.trace.canonical_forms() == reference.trace.canonical_forms()
    assert planned.metrics == reference.metrics
    assert streams[0].getstate() == streams[1].getstate()


class RecordingJammer(RandomJammer):
    """A random jammer that logs the block position of every view."""

    def __init__(self, rng, intensity=1.0):
        super().__init__(rng, intensity)
        self.seen: list[tuple[int, int, int]] = []

    def act(self, view):
        self.seen.append((view.round_index, view.block_round, view.block_rounds))
        return super().act(view)


class TestPlansMatchPerRoundDraws:
    @pytest.mark.parametrize("lengths", LENGTHS)
    @pytest.mark.parametrize("channels, t", GEOMETRIES)
    @pytest.mark.parametrize("jammer", sorted(JAMMERS))
    def test_schedule_equals_execute_round_expansion(
        self, jammer, channels, t, lengths
    ):
        schedule = _schedule(sum(lengths) + channels, channels, lengths)
        nets, streams = _pair(JAMMERS[jammer], channels, t)
        nets[0].execute_schedule(schedule)
        _per_round(nets[1], schedule)
        _assert_same_run(nets, streams)
        assert nets[0].metrics.rounds == sum(lengths)

    def test_many_schedules_on_one_network(self):
        nets, streams = _pair(JAMMERS["random-1.0"], 3, 1)
        for seed, lengths in enumerate(LENGTHS):
            schedule = _schedule(seed, 3, lengths)
            nets[0].execute_schedule(schedule)
            _per_round(nets[1], schedule)
        _assert_same_run(nets, streams)

    def test_plan_sees_every_round_of_its_block(self):
        adversary = RecordingJammer(random.Random(1))
        net = RadioNetwork(N, 3, 1, adversary=adversary)
        net.execute_schedule(_schedule(0, 3, (4, 1, 3)))
        assert adversary.seen == [
            (0, 0, 4), (1, 1, 4), (2, 2, 4), (3, 3, 4),
            (4, 0, 1),
            (5, 0, 3), (6, 1, 3), (7, 2, 3),
        ]


class TestRoundCap:
    @pytest.mark.parametrize("jammer", ["random-1.0", "schedule-aware-random"])
    @pytest.mark.parametrize("cap", [1, 5, 9, 13])
    def test_plan_covers_only_the_rounds_that_run(self, jammer, cap):
        schedule = _schedule(3, 3, (4, 8, 2))
        params = ProtocolParameters(max_rounds=cap)
        nets, streams = _pair(JAMMERS[jammer], 3, 1, params=params)
        with pytest.raises(ProtocolViolation, match="round cap"):
            nets[0].execute_schedule(schedule)
        with pytest.raises(ProtocolViolation, match="round cap"):
            _per_round(nets[1], schedule)
        assert nets[0].metrics.rounds == cap
        _assert_same_run(nets, streams)

    def test_cut_block_reports_its_length_after_the_cap(self):
        adversary = RecordingJammer(random.Random(1))
        net = RadioNetwork(
            N, 3, 1, adversary=adversary, params=ProtocolParameters(max_rounds=6)
        )
        with pytest.raises(ProtocolViolation):
            net.execute_schedule(_schedule(0, 3, (4, 8)))
        assert [seen[1:] for seen in adversary.seen] == [
            (0, 4), (1, 4), (2, 4), (3, 4), (0, 2), (1, 2),
        ]


class TestSharedViewIsReset:
    @pytest.mark.parametrize("jammer", sorted(JAMMERS))
    def test_execute_round_between_schedules(self, jammer):
        first = _schedule(1, 3, (9, 17))
        second = _schedule(2, 3, (5, 1, 6))
        single = _schedule(3, 3, (1,)).as_action_batches()
        nets, streams = _pair(JAMMERS[jammer], 3, 1)
        nets[0].execute_schedule(first)
        for actions, meta in single:
            nets[0].execute_round(actions, meta)
        nets[0].execute_schedule(second)
        _per_round(nets[1], first)
        for actions, meta in single:
            nets[1].execute_round(actions, meta)
        _per_round(nets[1], second)
        _assert_same_run(nets, streams)

    def test_execute_round_view_is_one_round_block(self):
        adversary = RecordingJammer(random.Random(1))
        net = RadioNetwork(N, 3, 1, adversary=adversary)
        net.execute_schedule(_schedule(0, 3, (6,)))
        net.execute_round({0: Listen(1)})
        assert adversary.seen[-1] == (6, 0, 1)

    def test_non_planning_adversary_reads_one_round_blocks(self):
        seen = []

        class Recording(SweepJammer):
            def act(self, view):
                seen.append((view.block_round, view.block_rounds))
                return super().act(view)

        net = RadioNetwork(N, 3, 1, adversary=Recording())
        net.execute_schedule(_schedule(0, 3, (5, 2)))
        assert seen == [(0, 1)] * 7


class TestWrappersGetOneRoundBlocks:
    def test_budget_wrapper_hides_the_block(self):
        inner = RecordingJammer(random.Random(1))
        net = RadioNetwork(N, 3, 1, adversary=BudgetAdversary(inner, 100))
        net.execute_schedule(_schedule(0, 3, (6, 3)))
        assert [seen[1:] for seen in inner.seen] == [(0, 1)] * 9

    def test_instance_flag_does_not_opt_in(self):
        inner = RecordingJammer(random.Random(1))
        wrapper = BudgetAdversary(inner, 100)
        wrapper.plans_blocks = True  # only the class attribute counts
        net = RadioNetwork(N, 3, 1, adversary=wrapper)
        net.execute_schedule(_schedule(0, 3, (6,)))
        assert [seen[1:] for seen in inner.seen] == [(0, 1)] * 6

    @pytest.mark.parametrize("budget", [0, 3, 5, 40])
    def test_budget_running_dry_mid_block_matches_per_round(self, budget):
        schedule = _schedule(4, 3, (8, 2, 9))

        def factory(rng):
            return BudgetAdversary(RandomJammer(rng), budget)

        nets, streams = _pair(factory, 3, 1)
        nets[0].execute_schedule(schedule)
        _per_round(nets[1], schedule)
        _assert_same_run(nets, streams)
        assert nets[0].metrics.adversary_transmissions == min(budget, 19)


def _view(block_round=0, block_rounds=1, channels=3, t=1, meta=None):
    return AdversaryView(
        n=N,
        channels=channels,
        t=t,
        round_index=0,
        history=ExecutionTrace(),
        meta=meta or RoundMeta(phase="feedback-slot"),
        block_round=block_round,
        block_rounds=block_rounds,
    )


class TestReset:
    @pytest.mark.parametrize("jammer", sorted(JAMMERS))
    def test_reset_drops_the_plan(self, jammer):
        adversary = JAMMERS[jammer](random.Random(2))
        adversary.act(_view(0, 4))
        adversary.act(_view(1, 4))
        adversary.reset()
        # No stale move is served for the rest of the dropped block.
        with pytest.raises(IndexError):
            adversary.act(_view(2, 4))

    def test_reset_then_replay_draws_afresh(self):
        stream = random.Random(2)
        adversary = RandomJammer(stream)
        state = stream.getstate()
        first = [adversary.act(_view(r, 5)) for r in range(3)]
        adversary.reset()
        stream.setstate(state)
        again = [adversary.act(_view(r, 5)) for r in range(3)]
        assert first == again

    def test_one_round_plans_equal_sample_per_round(self):
        stream, reference = random.Random(9), random.Random(9)
        adversary = RandomJammer(stream)
        for _ in range(50):
            (tx,) = adversary.act(_view())
            assert [tx.channel] == reference.sample(range(3), 1)
        assert stream.getstate() == reference.getstate()
