"""The hop-block contract of :meth:`RadioNetwork.execute_schedule`.

A :class:`~repro.radio.network.HopBlock` covers ``rounds`` rounds with one
transmitter template and one hop row per listener.  The engine validates
it once for all its rounds, so each check a per-round validation used to
make has a block-level test here.  The rest pins what blocks must keep
equal to the per-round interface: traced records (action-map order
included), per-listener expansion, and the scenario injectors that wrap
``execute_schedule``.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import (
    RandomJammer,
    ReactiveJammer,
    SpoofingAdversary,
    SweepJammer,
)
from repro.errors import ProtocolViolation
from repro.radio.actions import Listen, Transmit
from repro.radio.messages import Message
from repro.radio.network import (
    CompiledRound,
    HopBlock,
    RadioNetwork,
    RoundMeta,
    RoundSchedule,
    hop_hits,
    hop_row,
)
from repro.scenarios.injectors import FrameInjector, RekeyEpochTap, crashed_sender

N, C, T = 12, 3, 1


def _template(*nodes_channels):
    return {
        node: Transmit(channel, Message(kind="d", sender=node, payload=(node,)))
        for node, channel in nodes_channels
    }


def _block(
    rounds=4,
    template=None,
    channels=(0, 1, 2),
    listeners=(3, 4, 5),
    hops=None,
    meta=None,
):
    if template is None:
        template = _template((0, 0), (1, 1))
    if hops is None:
        hops = tuple(
            bytes((i + r) % len(channels) for r in range(rounds))
            for i in range(len(listeners))
        )
    return HopBlock(
        rounds,
        template,
        tuple(channels),
        tuple(listeners),
        tuple(hops),
        meta or RoundMeta(phase="hop-test"),
    )


def _random_block(rng, n, channels):
    """A random block: some transmitters, the rest hopping listeners."""
    nodes = rng.sample(range(n), rng.randrange(2, n))
    rounds = rng.randrange(1, 7)
    transmitters = nodes[: rng.randrange(0, 3)]
    template = _template(*((v, rng.randrange(channels)) for v in transmitters))
    block_channels = tuple(rng.sample(range(channels), rng.randrange(1, channels + 1)))
    listeners = tuple(nodes[len(transmitters) :])
    hops = tuple(
        hop_row(
            [rng.randrange(len(block_channels)) for _ in range(rounds)],
            len(block_channels),
        )
        for _ in listeners
    )
    meta = RoundMeta(phase="hop-random", extra={"i": rng.randrange(100)})
    return HopBlock(rounds, template, block_channels, listeners, hops, meta)


def _run(block):
    net = RadioNetwork(N, C, T)
    return net.execute_schedule(RoundSchedule([block]))


class TestBlockValidation:
    """One ProtocolViolation per block-level check."""

    def test_well_formed_block_runs(self):
        heard = _run(_block())
        assert len(heard) == 4

    def test_listener_out_of_range(self):
        with pytest.raises(ProtocolViolation, match="unknown node id 99"):
            _run(_block(listeners=(3, 99, 5)))

    def test_listener_listed_twice(self):
        with pytest.raises(ProtocolViolation, match="two listener groups"):
            _run(_block(listeners=(3, 4, 3)))

    def test_listener_in_transmit_template(self):
        with pytest.raises(ProtocolViolation, match="both transmit and listen"):
            _run(_block(listeners=(3, 1, 5)))

    def test_invalid_block_channel(self):
        with pytest.raises(ProtocolViolation, match="invalid channel 7"):
            _run(_block(channels=(0, 7, 2)))

    def test_duplicate_block_channel(self):
        with pytest.raises(ProtocolViolation, match="lists a channel twice"):
            _run(_block(channels=(0, 1, 1)))

    def test_hop_value_beyond_channel_count(self):
        hops = (b"\x00\x01\x02\x00", b"\x00\x03\x00\x00", b"\x01\x01\x01\x01")
        with pytest.raises(ProtocolViolation, match="outside the block"):
            _run(_block(hops=hops))

    def test_hop_row_of_wrong_length(self):
        hops = (b"\x00\x01\x02\x00", b"\x00\x01\x00", b"\x01\x01\x01\x01")
        with pytest.raises(ProtocolViolation, match="another length"):
            _run(_block(hops=hops))

    def test_hop_row_count_must_match_listeners(self):
        with pytest.raises(ProtocolViolation, match="hop rows for"):
            _run(_block(hops=(b"\x00\x01\x02\x00",)))

    def test_wide_block_rows_are_range_checked_too(self):
        hops = ((0, 1, 2, 0), (0, -1, 0, 0), (1, 1, 1, 1))
        with pytest.raises(ProtocolViolation, match="outside the block"):
            _run(_block(hops=hops))

    def test_zero_round_block_is_a_no_op(self):
        for hops in ((b"", b"", b""), ((), (), ())):
            assert _run(_block(rounds=0, hops=hops)) == []

    def test_bad_template_rejected(self):
        with pytest.raises(ProtocolViolation, match="invalid channel 5"):
            _run(_block(template=_template((0, 5))))

    def test_validation_runs_before_any_round(self):
        net = RadioNetwork(N, C, T)
        good = _block()
        bad = _block(listeners=(3, 4, 3))
        with pytest.raises(ProtocolViolation):
            net.execute_schedule(RoundSchedule([good, bad]))
        # The good block resolved; the bad one never started.
        assert net.metrics.rounds == good.rounds
        assert net.round_index == good.rounds

    def test_round_cap_settles_the_rounds_that_ran(self):
        from repro.params import ProtocolParameters

        net = RadioNetwork(N, C, T, params=ProtocolParameters(max_rounds=6))
        with pytest.raises(ProtocolViolation, match="round cap"):
            net.execute_schedule(RoundSchedule([_block(rounds=4)] * 2))
        assert net.metrics.rounds == 6
        assert net.metrics.rounds_by_phase == {"hop-test": 6}
        assert net.metrics.listens == 6 * 3


ADVERSARIES = {
    "none": lambda: None,
    "random": lambda: RandomJammer(random.Random(3)),
    "sweep": SweepJammer,
    "reactive": lambda: ReactiveJammer(random.Random(4)),
    "spoof": lambda: SpoofingAdversary(random.Random(5)),
}


class TestBlocksMatchPerRoundResolution:
    """Blocks resolve exactly like their rounds through execute_round."""

    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    def test_records_metrics_and_results_match(self, adversary):
        rng = random.Random(99)
        schedule = RoundSchedule(_random_block(rng, N, C) for _ in range(12))
        fast = RadioNetwork(N, C, T, adversary=ADVERSARIES[adversary]())
        ref = RadioNetwork(N, C, T, adversary=ADVERSARIES[adversary]())
        heard = fast.execute_schedule(schedule)
        expected = []
        for block in schedule.blocks:
            for r, (actions, meta) in enumerate(block.as_action_batches()):
                results = ref.execute_round(actions, meta)
                # Every listener got its channel's message...
                for node, row in zip(block.listeners, block.hops):
                    channel = block.channels[row[r]]
                    assert results[node] == ref.trace[-1].delivered[channel]
                # ...and a round reports every block channel that decoded.
                expected.append(
                    {
                        channel: msg
                        for channel, msg in ref.trace[-1].delivered.items()
                        if msg is not None and channel in block.channels
                    }
                )
        assert heard == expected
        assert fast.metrics == ref.metrics
        assert len(fast.trace) == len(ref.trace) == len(schedule)
        for got, want in zip(fast.trace, ref.trace):
            # Action maps match item for item, order included.
            assert list(got.actions.items()) == list(want.actions.items())
            assert got.adversary_transmissions == want.adversary_transmissions
            assert list(got.delivered.items()) == list(want.delivered.items())
            assert got.meta == want.meta
            assert got.index == want.index

    def test_action_map_order_is_template_then_listeners(self):
        block = _block()
        actions = block.round_actions(1)
        assert list(actions) == [0, 1, 3, 4, 5]
        assert actions[3] == Listen(1) and actions[5] == Listen(0)

    def test_compiled_round_converts_to_an_equal_one_round_block(self):
        listens = {2: [5, 6], 0: [], 1: [7]}
        cr = CompiledRound.make(_template((0, 0)), listens, RoundMeta("x"))
        block = cr.as_block()
        assert block.rounds == 1
        assert block.channels == (2, 0, 1)
        assert block.listeners == (5, 6, 7)
        assert list(block.round_actions(0).items()) == [
            (0, cr.transmits[0]),
            (5, Listen(2)),
            (6, Listen(2)),
            (7, Listen(1)),
        ]

    def test_miscounted_compiled_round_is_rejected_on_entry(self):
        cr = CompiledRound(
            transmits={}, listens={0: [1]}, meta=RoundMeta(), listen_count=3
        )
        with pytest.raises(ProtocolViolation, match="listen_count"):
            RoundSchedule([cr])


class TestPerListenerExpansion:
    def test_as_action_batches_expands_every_round_of_every_block(self):
        block = _block(rounds=3)
        cr = CompiledRound.make(_template((2, 1)), {0: [7]}, RoundMeta("y"))
        schedule = RoundSchedule([block, cr])
        assert len(schedule) == 4
        batches = schedule.as_action_batches()
        assert len(batches) == 4
        for r in range(3):
            actions, meta = batches[r]
            assert meta is block.meta
            for node, row in zip(block.listeners, block.hops):
                assert actions[node] == Listen(block.channels[row[r]])
        assert batches[3] == ({2: cr.transmits[2], 7: Listen(0)}, cr.meta)

    @pytest.mark.parametrize("adversary", ["none", "random", "spoof"])
    def test_execute_rounds_returns_one_result_per_listener_round(
        self, adversary
    ):
        rng = random.Random(7)
        schedule = RoundSchedule(_random_block(rng, N, C) for _ in range(6))
        via_schedule = RadioNetwork(N, C, T, adversary=ADVERSARIES[adversary]())
        via_classic = RadioNetwork(N, C, T, adversary=ADVERSARIES[adversary]())
        got = via_schedule.execute_rounds(schedule)
        expected = [
            via_classic.execute_round(actions, meta)
            for actions, meta in schedule.as_action_batches()
        ]
        assert got == expected
        for block_results, block in zip(
            _split(got, schedule.blocks), schedule.blocks
        ):
            for results in block_results:
                assert sorted(results) == sorted(block.listeners)
        assert via_schedule.metrics == via_classic.metrics


def _split(per_round, blocks):
    out, i = [], 0
    for block in blocks:
        out.append(per_round[i : i + block.rounds])
        i += block.rounds
    return out


class TestHopMasks:
    def test_hop_row_encodes_shifted_positions(self):
        assert hop_row([0, 1, 1], 4) == b"\x00\x01\x01"
        assert hop_row([0, 1, 1], 4, offset=2) == b"\x02\x03\x03"
        assert hop_row([0, 1], 300, offset=257) == (257, 258)

    def test_hop_hits_marks_the_rounds_on_a_position(self):
        row = bytes([0, 1, 1, 0, 2])
        every_round = int.from_bytes(b"\x01" * 5, "little")
        hits = hop_hits(row, 1, every_round)
        assert hits.bit_count() == 2
        assert (hits & -hits).bit_length() == 9  # first hit: round 1
        assert hop_hits(row, 1, int.from_bytes(b"\x01\x00\x00\x01\x01", "little")) == 0
        assert hop_hits(tuple(row), 1, every_round) == hits

    def test_decoded_masks_classify_each_message_once(self):
        block = _block(rounds=3)
        msg_a = Message(kind="a")
        msg_b = Message(kind="b")
        heard = [{0: msg_a, 1: msg_b}, {0: msg_a}, {2: msg_b}]
        calls = []

        def classify(msg):
            calls.append(msg.kind)
            return "A" if msg.kind == "a" else None

        masks = block.decoded_masks(heard, classify)
        assert sorted(calls) == ["a", "b"]
        assert masks == [(0, "A", int.from_bytes(b"\x01\x01\x00", "little"))]


class TestInjectorsWithBlocks:
    def test_crashed_sender_strips_block_templates(self):
        net = RadioNetwork(N, C, T)
        with crashed_sender(net):
            heard = net.execute_schedule(RoundSchedule([_block()]))
        assert heard == [{}] * 4
        assert net.metrics.rounds == 4
        assert net.metrics.honest_transmissions == 0
        assert net.metrics.listens == 4 * 3
        # Outside the context the template transmits again.
        heard = net.execute_schedule(RoundSchedule([_block()]))
        assert all(heard)

    def test_crashed_sender_lets_only_adversarial_frames_through(self):
        forged = Message(kind="forged", sender=0)
        net = RadioNetwork(N, C, T, adversary=FrameInjector(lambda view: forged))
        with crashed_sender(net):
            heard = net.execute_schedule(RoundSchedule([_block()]))
        assert [list(h.values()) for h in heard] == [[forged]] * 4
        assert net.metrics.spoofs_delivered == 4

    def test_rekey_tap_captures_replays_and_suppresses_block_epochs(self):
        net = RadioNetwork(N, C, T)
        member = 3

        def epoch(generation):
            meta = RoundMeta(
                phase="rekey",
                extra={"member": member, "generation": generation},
            )
            return RoundSchedule([_block(rounds=5, meta=meta)])

        tap = RekeyEpochTap(net, member)
        first = net.execute_schedule(epoch(1))
        assert len(first) == 5 and tap.captured[1] == first
        tap.replay(1)
        assert net.execute_schedule(epoch(2)) == first
        tap.suppress()
        assert net.execute_schedule(epoch(3)) == [{}] * 5
        tap.restore()
        assert net.execute_schedule(epoch(4)) == first
        assert net.metrics.rounds == 20
