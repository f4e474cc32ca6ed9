"""Tests for the long-lived communication service (Section 7)."""

from __future__ import annotations

import random

import pytest

from repro.adversary import RandomJammer, SpoofingAdversary, SweepJammer
from repro.crypto.dh import TEST_GROUP_64
from repro.errors import ConfigurationError
from repro.radio.messages import Message
from repro.rng import RngRegistry
from repro.service import LongLivedChannel, SecureSession

from conftest import make_network

KEY = b"g" * 32


def members_and_channel(net, members=None, key=KEY):
    members = members if members is not None else list(range(net.n))
    return LongLivedChannel(net, key, members)


class TestEmulatedChannel:
    def test_single_broadcaster_delivers_to_all_members(self):
        net = make_network(n=12, channels=2, t=1)
        ch = members_and_channel(net)
        out = ch.run_round({3: b"payload"})
        assert set(out) == set(range(12)) - {3}
        for delivery in out.values():
            assert delivery is not None
            assert delivery.payload == b"payload"
            assert delivery.sender == 3
            assert delivery.emulated_round == 0

    def test_delivery_under_jamming(self):
        net = make_network(
            n=12, channels=2, t=1, adversary=RandomJammer(random.Random(1))
        )
        ch = members_and_channel(net)
        out = ch.run_round({0: b"x"})
        delivered = [d for d in out.values() if d is not None]
        assert len(delivered) == 11  # whp within the Θ(t log n) epoch

    def test_concurrent_broadcasters_collide(self):
        net = make_network(n=12, channels=2, t=1)
        ch = members_and_channel(net)
        out = ch.run_round({0: b"a", 1: b"b"})
        assert all(d is None for d in out.values())

    def test_silent_round(self):
        net = make_network(n=12, channels=2, t=1)
        ch = members_and_channel(net)
        out = ch.run_round({})
        assert all(d is None for d in out.values())
        assert ch.emulated_round == 1

    def test_epoch_length_matches_formula(self):
        net = make_network(n=12, channels=2, t=1)
        ch = members_and_channel(net)
        ch.run_round({0: b"x"})
        assert net.metrics.rounds == ch.epoch_length()

    def test_non_member_cannot_send(self):
        net = make_network(n=12, channels=2, t=1)
        ch = members_and_channel(net, members=list(range(10)))
        with pytest.raises(ConfigurationError, match="not a channel member"):
            ch.run_round({11: b"x"})

    def test_non_members_excluded_from_delivery(self):
        net = make_network(n=12, channels=2, t=1)
        ch = members_and_channel(net, members=list(range(10)))
        out = ch.run_round({0: b"x"})
        assert set(out) == set(range(1, 10))


class TestServiceSecurity:
    def test_frames_are_ciphertext(self):
        net = make_network(n=12, channels=2, t=1)
        ch = members_and_channel(net)
        ch.run_round({0: b"super-secret"})
        for record in net.trace:
            for action in record.actions.values():
                from repro.radio.actions import Transmit

                if isinstance(action, Transmit):
                    _s, _r, (nonce, body, tag) = action.message.payload
                    assert b"super-secret" not in body

    def test_forged_frames_rejected(self):
        # A spoofer injecting well-formed-looking service frames without the
        # key can never get a delivery accepted.
        def forge(view, channel):
            return Message(
                kind="service-frame",
                sender=0,
                payload=(0, 0, (b"n", b"forged-body", b"t" * 32)),
            )

        net = make_network(
            n=12, channels=2, t=1,
            adversary=SpoofingAdversary(
                random.Random(2), forge=forge, target_scheduled=False
            ),
        )
        ch = members_and_channel(net)
        out = ch.run_round({})  # silent round: only forgeries in the air
        assert all(d is None for d in out.values())

    def test_replay_across_rounds_rejected(self):
        # Replay the round-0 ciphertext during round 1: the emulated-round
        # binding in the associated data must reject it.
        net = make_network(n=12, channels=2, t=1)
        ch = members_and_channel(net)
        sealed = ch.seal(0, b"old", 0).as_tuple()
        ch.run_round({0: b"old"})

        class Replayer:
            pass

        from repro.adversary.base import Adversary
        from repro.radio.messages import Transmission

        class ReplayAdversary(Adversary):
            def act(self, view):
                frame = Message(
                    kind="service-frame", sender=0, payload=(0, 0, sealed)
                )
                return (Transmission(view.round_index % view.channels, frame),)

        net.adversary = ReplayAdversary()
        out = ch.run_round({})  # silent round; only replays in the air
        assert all(d is None for d in out.values())

    def test_sender_binding(self):
        # A ciphertext sealed by/for sender 0 cannot be re-attributed to 5.
        net = make_network(n=12, channels=2, t=1)
        ch = members_and_channel(net)
        sealed = ch.seal(0, b"m", 0).as_tuple()

        from repro.adversary.base import Adversary
        from repro.radio.messages import Transmission

        class Reattribute(Adversary):
            def act(self, view):
                frame = Message(
                    kind="service-frame", sender=5, payload=(5, 0, sealed)
                )
                return (Transmission(0, frame),)

        net.adversary = Reattribute()
        out = ch.run_round({})
        assert all(d is None for d in out.values())


class TestChannelValidation:
    def test_short_key_rejected(self):
        net = make_network(n=12, channels=2, t=1)
        with pytest.raises(ConfigurationError):
            LongLivedChannel(net, b"short", list(range(12)))

    def test_out_of_range_member_rejected(self):
        net = make_network(n=12, channels=2, t=1)
        with pytest.raises(ConfigurationError):
            LongLivedChannel(net, KEY, [0, 99])

    def test_too_few_members_rejected(self):
        net = make_network(n=12, channels=2, t=1)
        with pytest.raises(ConfigurationError):
            LongLivedChannel(net, KEY, [0])


class TestSecureSession:
    @pytest.fixture(scope="class")
    def session(self):
        net = make_network(
            n=18, channels=2, t=1,
            adversary=RandomJammer(random.Random(9)),
            keep_trace=False,
        )
        return SecureSession(net, RngRegistry(seed=77), group=TEST_GROUP_64)

    def test_setup_produces_members(self, session):
        assert len(session.members) >= 17
        assert session.stats.setup_rounds > 0

    def test_send_flush_and_inbox(self, session):
        a, b = session.members[0], session.members[1]
        session.send(a, b"one")
        session.send(b, b"two")
        deliveries = session.flush()
        assert session.stats.delivered >= 2
        inbox = session.inbox(session.members[2])
        payloads = [d.payload for d in inbox]
        assert b"one" in payloads and b"two" in payloads

    def test_send_validation(self, session):
        with pytest.raises(ConfigurationError):
            session.send(session.members[0], "not-bytes")  # type: ignore[arg-type]

    def test_inbox_validation(self, session):
        non_member = next(
            v for v in range(session.network.n) if v not in session.members
        ) if len(session.members) < session.network.n else None
        if non_member is not None:
            with pytest.raises(ConfigurationError):
                session.inbox(non_member)

    def test_idle_round_advances_pattern(self, session):
        before = session.channel.emulated_round
        session.idle_round()
        assert session.channel.emulated_round == before + 1

    def test_pending_counts(self, session):
        a = session.members[0]
        session.send(a, b"queued")
        assert session.pending() == 1
        session.flush()
        assert session.pending() == 0


class TestPresharedSession:
    """``SecureSession.from_preshared``: the serve daemon's fast path."""

    def test_traffic_without_setup(self):
        net = make_network(n=6, channels=2, t=1)
        session = SecureSession.from_preshared(net, KEY, range(6))
        assert session.stats.setup_rounds == 0
        assert session.members == list(range(6))
        session.send(0, b"hello")
        deliveries = session.flush()
        assert len(deliveries) == 5
        assert all(d.payload == b"hello" for d in deliveries)

    def test_every_member_is_a_rekey_leader(self):
        net = make_network(n=6, channels=2, t=1)
        session = SecureSession.from_preshared(net, KEY, range(6))
        assert tuple(session.setup.completed_leaders) == tuple(range(6))
        report = session.rekey([0])  # even the smallest leader is excludable
        assert report.distributor == 1
        assert report.members == (1, 2, 3, 4, 5)

    def test_same_key_same_traffic(self):
        # Two preshared sessions over the same key and seeds emit
        # byte-identical frames: the basis of the serve determinism claim.
        def run():
            net = make_network(n=6, channels=2, t=1, keep_trace=True)
            session = SecureSession.from_preshared(
                net, KEY, range(6), rng=RngRegistry(seed=3)
            )
            session.send(2, b"deterministic")
            session.flush()
            return [
                (record.index, sorted(record.actions))
                for record in net.trace
            ]

        assert run() == run()


class TestSessionBugfixRegressions:
    """Pinned fixes: flush budgeting, rekey accounting, inbox semantics."""

    def _preshared(self, n=6, **kwargs):
        net = make_network(n=n, channels=2, t=1, **kwargs)
        return SecureSession.from_preshared(net, KEY, range(n)), net

    def test_budgeted_flush_is_per_call(self):
        # The budget used to be compared against the lifetime
        # stats.emulated_rounds, so any flush after the first max_rounds
        # emulated rounds silently drained nothing.
        session, _net = self._preshared()
        for i in range(4):
            session.send(0, b"m%d" % i)
        first = session.flush(max_rounds=2)
        assert len(first) == 2 * 5  # 2 messages x 5 receivers
        assert session.pending() == 2
        second = session.flush(max_rounds=2)
        assert len(second) == 2 * 5  # pre-fix: [] — budget already "spent"
        assert session.pending() == 0

    def test_budgeted_flush_after_unbudgeted_rounds(self):
        session, _net = self._preshared()
        session.send(0, b"a")
        session.send(1, b"b")
        session.flush()  # lifetime emulated_rounds is now 2
        session.send(2, b"c")
        assert len(session.flush(max_rounds=1)) == 5
        assert session.pending() == 0

    def test_rekey_reports_missing_pair_key_as_dropped(self):
        # A member whose Part 1 pair key with the distributor was never
        # established cannot receive the fresh key.  It used to vanish
        # from members without appearing anywhere in the report.
        session, _net = self._preshared()
        victim = 3
        del session.setup.pairwise_keys[frozenset((0, victim))]
        report = session.rekey([5])
        assert report.distributor == 0
        assert victim in report.dropped
        assert victim not in report.members
        assert report.excluded == (5,)
        assert not set(report.dropped) & set(report.excluded)
        # every departed node is accounted for: nobody vanishes silently
        assert set(range(6)) == (
            set(report.members) | set(report.excluded) | set(report.dropped)
        )

    def test_rekey_reports_jammed_member_as_dropped(self):
        # The adversary wins every round of one member's dissemination
        # epoch: the member survives the compromise but missed the key.
        session, net = self._preshared()
        victim = 2
        original = net.execute_schedule

        def jam_victims_epoch(schedule):
            heard = original(schedule)
            meta = schedule.blocks[0].meta
            if meta.phase == "rekey" and meta.extra.get("member") == victim:
                return [{} for _ in heard]
            return heard

        net.execute_schedule = jam_victims_epoch
        report = session.rekey([5])
        assert victim in report.dropped
        assert victim not in report.members
        assert victim not in session.members

    def test_rekey_rejects_stale_generation_frames(self):
        # Rewrite every delivered rekey frame to carry the previous
        # generation number (ciphertext untouched).  The generation check
        # must reject them even though the ciphertext itself decrypts.
        import dataclasses as _dc

        session, net = self._preshared()
        victim = 1
        original = net.execute_schedule

        def stale_gen(schedule):
            heard = original(schedule)
            meta = schedule.blocks[0].meta
            if meta.phase == "rekey" and meta.extra.get("member") == victim:
                gen = meta.extra["generation"]
                rewritten = []
                for per_round in heard:
                    rewritten.append(
                        {
                            ch: _dc.replace(
                                frame,
                                payload=(gen - 1, frame.payload[1]),
                            )
                            if frame is not None
                            and frame.kind == "rekey-frame"
                            else frame
                            for ch, frame in per_round.items()
                        }
                    )
                return rewritten
            return heard

        net.execute_schedule = stale_gen
        report = session.rekey([5])
        assert victim in report.dropped  # pre-fix: accepted, stayed member
        assert victim not in report.members

    def test_inbox_former_member_needs_explicit_flag(self):
        # A rekey-excluded member keeps its historical inbox but is no
        # longer current; reading it used to succeed silently because
        # membership was gated on the stats.inboxes keys.
        session, _net = self._preshared()
        session.send(0, b"before-rekey")
        session.flush()
        session.rekey([5])
        with pytest.raises(ConfigurationError, match="former member"):
            session.inbox(5)
        history = session.inbox(5, include_former=True)
        assert [d.payload for d in history] == [b"before-rekey"]
        # never-members still raise regardless of the flag
        with pytest.raises(ConfigurationError, match="not a member"):
            session.inbox(99)
        with pytest.raises(ConfigurationError, match="not a member"):
            session.inbox(99, include_former=True)

    def test_dropped_member_is_former_for_inbox(self):
        session, net = self._preshared()
        session.send(0, b"x")
        session.flush()
        victim = 3
        del session.setup.pairwise_keys[frozenset((0, victim))]
        session.rekey([5])
        with pytest.raises(ConfigurationError, match="former member"):
            session.inbox(victim)
        assert session.inbox(victim, include_former=True)


class TestServiceAdversaryGauntlet:
    """Service-layer attacks, each rejected by a typed mechanism.

    Seeds for the scenario-registry roadmap item: pairwise replay across
    exchange epochs, sender-spoofing with the receiver's own id, and
    re-key frame replay from an older generation.
    """

    def test_pairwise_replay_from_prior_exchange_rejected(self):
        from repro.adversary.base import Adversary
        from repro.radio.messages import Transmission
        from repro.scenarios.injectors import crashed_sender
        from repro.service import PairwiseChannel

        net = make_network(n=12, channels=2, t=1, keep_trace=True)
        ch = PairwiseChannel(net, KEY, 0, 1)
        assert ch.send(0, b"old") is not None  # exchange 0 delivers

        # Capture the exchange-0 frame exactly as it went over the air.
        captured = None
        for record in net.trace:
            for action in record.actions.values():
                from repro.radio.actions import Transmit

                if isinstance(action, Transmit):
                    captured = action.message
        assert captured is not None and captured.payload[1] == 0

        class ReplayPrior(Adversary):
            def act(self, view):
                return (
                    Transmission(view.round_index % view.channels, captured),
                )

        net.adversary = ReplayPrior()

        # Exchange 1 with a crashed sender: strip the transmits so only
        # the adversary's replayed exchange-0 frames are in the air.  The
        # receiver hears only replays; the claimed_exchange binding
        # rejects every one of them.
        with crashed_sender(net):
            assert ch.send(0, b"new") is None

    def test_spoofed_sender_equal_to_receiver_rejected(self):
        from repro.adversary.base import Adversary
        from repro.radio.messages import Transmission

        net = make_network(n=12, channels=2, t=1)
        ch = members_and_channel(net)
        # A real member's sealed frame, re-attributed to each receiver's
        # own id: the associated data binds the true sender, so the tag
        # check fails for every listener (including "itself").
        sealed = ch.seal(0, b"m", 0).as_tuple()

        class SpoofReceiver(Adversary):
            def act(self, view):
                # cycle every id except 0, the frame's true sealer (a
                # frame re-attributed to its *real* sender is just the
                # authentic frame, not a spoof)
                victim = 1 + view.round_index % 11
                frame = Message(
                    kind="service-frame",
                    sender=victim,
                    payload=(victim, 0, sealed),
                )
                return (
                    Transmission(view.round_index % view.channels, frame),
                )

        net.adversary = SpoofReceiver()
        out = ch.run_round({})  # silent round: only spoofs in the air
        assert all(d is None for d in out.values())

    def test_rekey_replay_from_older_generation_rejected(self):
        # Replay generation-1 rekey frames into the victim's generation-2
        # epoch (its real frames suppressed).  The stale-generation check
        # rejects them and the victim is reported dropped — it must not
        # come back keyed with the obsolete generation-1 key.
        net = make_network(n=6, channels=2, t=1)
        session = SecureSession.from_preshared(net, KEY, range(6))
        victim = 4
        original = net.execute_schedule
        captured = {}

        def capture(schedule):
            heard = original(schedule)
            meta = schedule.blocks[0].meta
            if meta.phase == "rekey" and meta.extra.get("member") == victim:
                captured[meta.extra["generation"]] = heard
            return heard

        net.execute_schedule = capture
        first = session.rekey([5])
        assert victim in first.members and 1 in captured

        def replay_gen1(schedule):
            meta = schedule.blocks[0].meta
            if meta.phase == "rekey" and meta.extra.get("member") == victim:
                original(schedule)  # burn the epoch's real rounds
                return captured[1]
            return original(schedule)

        net.execute_schedule = replay_gen1
        second = session.rekey([])
        assert second.generation == 2
        assert victim in second.dropped
        assert victim not in second.members
