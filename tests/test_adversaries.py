"""Tests for the adversary gallery: budgets, targeting, constructions."""

from __future__ import annotations

import random

import pytest

from repro.adversary import (
    BudgetAdversary,
    NullAdversary,
    RandomJammer,
    ReactiveJammer,
    ScheduleAwareJammer,
    SimulatingAdversary,
    SpoofingAdversary,
    SweepJammer,
    TriangleIsolationAdversary,
)
from repro.errors import ConfigurationError
from repro.radio.actions import Listen, Transmit
from repro.radio.messages import Jam, Message, Transmission
from repro.radio.network import AdversaryView, RoundMeta
from repro.radio.trace import ExecutionTrace, RoundRecord


def view(
    n=10, channels=3, t=2, round_index=0, history=None, meta=None
) -> AdversaryView:
    return AdversaryView(
        n=n,
        channels=channels,
        t=t,
        round_index=round_index,
        history=history or ExecutionTrace(),
        meta=meta or RoundMeta(),
    )


def assert_legal(txs, t, channels):
    chans = [tx.channel for tx in txs]
    assert len(chans) == len(set(chans)), "duplicate channels"
    assert len(chans) <= t
    assert all(0 <= c < channels for c in chans)


class TestNullAdversary:
    def test_never_transmits(self):
        adv = NullAdversary()
        for r in range(5):
            assert adv.act(view(round_index=r)) == ()


class TestRandomJammer:
    def test_full_budget_by_default(self):
        adv = RandomJammer(random.Random(0))
        txs = adv.act(view(t=2, channels=3))
        assert len(txs) == 2
        assert_legal(txs, 2, 3)
        assert all(isinstance(tx.payload, Jam) for tx in txs)

    def test_intensity_scales_budget(self):
        adv = RandomJammer(random.Random(0), intensity=0.5)
        txs = adv.act(view(t=4, channels=5))
        assert len(txs) == 2

    @pytest.mark.parametrize("t, expected", [(1, 1), (3, 2), (5, 3)])
    def test_half_intensity_rounds_half_up(self, t, expected):
        # Half a channel rounds up (never to even), and a positive
        # intensity never silences the jammer.
        adv = RandomJammer(random.Random(0), intensity=0.5)
        txs = adv.act(view(t=t, channels=t + 1))
        assert len(txs) == expected
        assert_legal(txs, t, t + 1)

    def test_small_intensity_still_jams_one_channel(self):
        adv = RandomJammer(random.Random(0), intensity=0.01)
        assert len(adv.act(view(t=5, channels=6))) == 1

    def test_invalid_intensity(self):
        with pytest.raises(ConfigurationError):
            RandomJammer(random.Random(0), intensity=0.0)
        with pytest.raises(ConfigurationError):
            RandomJammer(random.Random(0), intensity=1.5)


class TestSweepJammer:
    def test_deterministic_sweep(self):
        adv = SweepJammer()
        t0 = {tx.channel for tx in adv.act(view(round_index=0, t=2, channels=4))}
        t1 = {tx.channel for tx in adv.act(view(round_index=1, t=2, channels=4))}
        assert t0 == {0, 1}
        assert t1 == {1, 2}

    def test_wraps_modulo_channels(self):
        adv = SweepJammer()
        txs = adv.act(view(round_index=3, t=2, channels=4))
        assert {tx.channel for tx in txs} == {3, 0}

    def test_stride_validated(self):
        with pytest.raises(ConfigurationError):
            SweepJammer(stride=0)


class TestReactiveJammer:
    def _history_with_activity(self, channel: int) -> ExecutionTrace:
        tr = ExecutionTrace()
        tr.append(
            RoundRecord(
                index=0,
                actions={0: Transmit(channel, Message("d"))},
                adversary_transmissions=(),
                delivered={channel: Message("d")},
                meta={},
            )
        )
        return tr

    def test_targets_recently_active_channels(self):
        adv = ReactiveJammer(random.Random(0))
        txs = adv.act(view(t=1, channels=3, history=self._history_with_activity(2)))
        assert [tx.channel for tx in txs] == [2]

    def test_random_fallback_without_activity(self):
        adv = ReactiveJammer(random.Random(0))
        txs = adv.act(view(t=2, channels=3))
        assert_legal(txs, 2, 3)
        assert len(txs) == 2

    def test_needs_history_flag(self):
        assert ReactiveJammer(random.Random(0)).needs_history is True

    def test_window_validated(self):
        with pytest.raises(ConfigurationError):
            ReactiveJammer(random.Random(0), window=0)


class TestSpoofingAdversary:
    def test_spoofs_on_free_channels_first(self):
        meta = RoundMeta(
            phase="x",
            schedule={"channels_in_use": (0,), "assignments": {}},
        )
        adv = SpoofingAdversary(random.Random(0))
        txs = adv.act(view(t=1, channels=3, meta=meta))
        assert len(txs) == 1
        assert txs[0].channel != 0  # prefers a channel where decoding works
        assert isinstance(txs[0].payload, Message)

    def test_custom_forge_function(self):
        def forge(view, channel):
            return Message("custom", sender=5, payload=channel)

        adv = SpoofingAdversary(random.Random(0), forge=forge, target_scheduled=False)
        txs = adv.act(view(t=2, channels=3))
        assert all(tx.payload.kind == "custom" for tx in txs)

    def test_forge_returning_none_skips_channel(self):
        adv = SpoofingAdversary(
            random.Random(0), forge=lambda v, c: None, target_scheduled=False
        )
        assert adv.act(view(t=2, channels=3)) == ()


class TestScheduleAwareJammer:
    def _meta(self, in_use, assignments=None):
        return RoundMeta(
            phase="ame-transmission",
            schedule={
                "channels_in_use": tuple(in_use),
                "assignments": assignments or {},
            },
        )

    def test_prefix_policy_spares_last_channel(self):
        adv = ScheduleAwareJammer(random.Random(0), policy="prefix")
        txs = adv.act(view(t=2, channels=3, meta=self._meta([0, 1, 2])))
        assert {tx.channel for tx in txs} == {0, 1}

    def test_suffix_policy_spares_first_channel(self):
        adv = ScheduleAwareJammer(random.Random(0), policy="suffix")
        txs = adv.act(view(t=2, channels=3, meta=self._meta([0, 1, 2])))
        assert {tx.channel for tx in txs} == {1, 2}

    def test_victims_policy_prioritises_victim_channels(self):
        assignments = {
            0: {"broadcaster": 4, "listener": 5},
            1: {"broadcaster": 6, "listener": 7},
            2: {"broadcaster": 8, "listener": 9},
        }
        adv = ScheduleAwareJammer(
            random.Random(0), policy="victims", victims=[7]
        )
        txs = adv.act(
            view(t=1, channels=3, meta=self._meta([0, 1, 2], assignments))
        )
        assert [tx.channel for tx in txs] == [1]

    def test_feedback_jamming_toggle(self):
        meta = RoundMeta(phase="feedback")
        on = ScheduleAwareJammer(random.Random(0), jam_feedback=True)
        off = ScheduleAwareJammer(random.Random(0), jam_feedback=False)
        assert len(on.act(view(t=2, channels=3, meta=meta))) == 2
        assert off.act(view(t=2, channels=3, meta=meta)) == ()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleAwareJammer(random.Random(0), policy="nope")

    def test_budget_respected_with_wide_schedule(self):
        adv = ScheduleAwareJammer(random.Random(0))
        txs = adv.act(view(t=2, channels=6, meta=self._meta([0, 1, 2, 3, 4])))
        assert_legal(txs, 2, 6)


class TestSimulatingAdversary:
    def test_runs_simulators_and_dedupes_channels(self):
        def sim_a(view, rng):
            return Transmission(1, Message("fake", sender=0))

        def sim_b(view, rng):
            return Transmission(1, Message("fake", sender=1))

        adv = SimulatingAdversary(random.Random(0), [sim_a, sim_b])
        txs = adv.act(view(t=2, channels=3))
        assert len(txs) == 1  # same channel: collision anyway, dedup

    def test_silent_simulator_skipped(self):
        adv = SimulatingAdversary(random.Random(0), [lambda v, r: None])
        assert adv.act(view(t=1)) == ()

    def test_too_many_simulators_rejected_at_act(self):
        sims = [lambda v, r: None] * 3
        adv = SimulatingAdversary(random.Random(0), sims)
        with pytest.raises(ConfigurationError):
            adv.act(view(t=2))

    def test_empty_simulators_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulatingAdversary(random.Random(0), [])


class TestTriangleIsolationAdversary:
    def _meta(self, assignments):
        return RoundMeta(
            phase="direct-exchange",
            schedule={
                "channels_in_use": tuple(assignments),
                "assignments": assignments,
            },
        )

    def test_jams_intra_triple_edges_only(self):
        adv = TriangleIsolationAdversary([(0, 1, 2)])
        assignments = {
            0: {"broadcaster": 0, "source": 0, "listener": 1},  # inside triple
            1: {"broadcaster": 5, "source": 5, "listener": 6},  # outside
        }
        txs = adv.act(view(t=1, channels=3, meta=self._meta(assignments)))
        assert [tx.channel for tx in txs] == [0]

    def test_ignores_edges_crossing_triples(self):
        adv = TriangleIsolationAdversary([(0, 1, 2), (3, 4, 5)])
        assignments = {0: {"broadcaster": 0, "source": 0, "listener": 3}}
        assert adv.act(view(t=2, channels=3, meta=self._meta(assignments))) == ()

    def test_degenerate_triples_rejected(self):
        with pytest.raises(ConfigurationError):
            TriangleIsolationAdversary([(0, 0, 1)])
        with pytest.raises(ConfigurationError):
            TriangleIsolationAdversary([(0, 1, 2), (2, 3, 4)])
        with pytest.raises(ConfigurationError):
            TriangleIsolationAdversary([])


class TestBudgetAdversary:
    def test_budget_depletes_then_silent(self):
        inner = SweepJammer()
        adv = BudgetAdversary(inner, total_budget=3)
        first = adv.act(view(t=2, channels=4, round_index=0))
        second = adv.act(view(t=2, channels=4, round_index=1))
        third = adv.act(view(t=2, channels=4, round_index=2))
        assert len(first) == 2
        assert len(second) == 1  # truncated to the remaining budget
        assert third == ()
        assert adv.remaining == 0

    def test_reset_restores_budget(self):
        adv = BudgetAdversary(SweepJammer(), total_budget=2)
        adv.act(view(t=2, channels=4))
        adv.reset()
        assert adv.remaining == 2

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            BudgetAdversary(NullAdversary(), total_budget=-1)

    def test_propagates_needs_history(self):
        adv = BudgetAdversary(ReactiveJammer(random.Random(0)), 5)
        assert adv.needs_history is True
