"""The hop-block contract of :meth:`RadioNetwork.execute_schedule`.

A :class:`~repro.radio.network.HopBlock` covers ``rounds`` rounds with one
transmitter template, an optional hopping transmit column and one hop row
per listener.  The engine validates it once for all its rounds, so each
check a per-round validation used to make has a block-level test here.
The rest pins what blocks must keep equal to the per-round interface:
traced records (action-map order included), per-listener expansion, and
the scenario injectors that wrap ``execute_schedule``.
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
from repro.radio import network as radio_network
from repro.radio.network import (
    HopBlock,
    RadioNetwork,
    RoundMeta,
    RoundSchedule,
    TransmitColumn,
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
    column=None,
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
        column,
    )


def _frames(sender, rounds):
    """A fresh frame per round, as a key-derived epoch seals them."""
    return tuple(
        Message(kind="c", sender=sender, payload=(sender, r)) for r in range(rounds)
    )


def _column(senders=(6,), hops=b"\x00\x01\x02\x00", frames=None):
    if frames is None:
        frames = tuple(_frames(v, len(hops)) for v in senders)
    return TransmitColumn(tuple(senders), hops, frames)


def _random_block(rng, n, channels):
    """A random block: some template transmitters, maybe a hopping column
    of one or two senders, the rest hopping listeners."""
    nodes = rng.sample(range(n), rng.randrange(3, n))
    rounds = rng.randrange(1, 7)
    transmitters = nodes[: rng.randrange(0, 3)]
    template = _template(*((v, rng.randrange(channels)) for v in transmitters))
    block_channels = tuple(rng.sample(range(channels), rng.randrange(1, channels + 1)))
    width = len(block_channels)
    column = None
    senders = nodes[len(transmitters) : len(transmitters) + rng.randrange(0, 3)]
    if senders:
        fixed = rng.random() < 0.5
        column = TransmitColumn(
            tuple(senders),
            hop_row([rng.randrange(width) for _ in range(rounds)], width),
            tuple(
                (Message(kind="f", sender=v),) * rounds if fixed else _frames(v, rounds)
                for v in senders
            ),
        )
    listeners = tuple(nodes[len(transmitters) + len(senders) :])
    hops = tuple(
        hop_row([rng.randrange(width) for _ in range(rounds)], width)
        for _ in listeners
    )
    meta = RoundMeta(phase="hop-random", extra={"i": rng.randrange(100)})
    return HopBlock(rounds, template, block_channels, listeners, hops, meta, column)


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

    def test_column_sender_out_of_range(self):
        with pytest.raises(ProtocolViolation, match="unknown node id 40"):
            _run(_block(column=_column(senders=(40,))))

    def test_column_without_sender(self):
        with pytest.raises(ProtocolViolation, match="no sender"):
            _run(_block(column=_column(senders=(), frames=())))

    def test_column_sender_listed_twice(self):
        with pytest.raises(ProtocolViolation, match="sender twice"):
            _run(_block(column=_column(senders=(6, 6))))

    def test_column_sender_also_listens(self):
        with pytest.raises(ProtocolViolation, match="sender 4 also listens"):
            _run(_block(column=_column(senders=(4,))))

    def test_column_sender_also_in_template(self):
        with pytest.raises(ProtocolViolation, match="sender 1 .* transmit template"):
            _run(_block(column=_column(senders=(1,))))

    def test_column_hop_row_of_wrong_length(self):
        column = _column(hops=b"\x00\x01\x02", frames=(_frames(6, 4),))
        with pytest.raises(ProtocolViolation, match="another length"):
            _run(_block(column=column))

    def test_column_frames_of_wrong_length(self):
        with pytest.raises(ProtocolViolation, match="one frame per sender per round"):
            _run(_block(column=_column(frames=(_frames(6, 3),))))
        with pytest.raises(ProtocolViolation, match="one frame per sender per round"):
            _run(_block(column=_column(senders=(6, 7), frames=(_frames(6, 4),))))

    def test_column_hop_beyond_channel_count(self):
        with pytest.raises(ProtocolViolation, match="outside the block"):
            _run(_block(column=_column(hops=b"\x00\x03\x00\x00")))

    def test_column_frame_must_be_a_message(self):
        frames = (_frames(6, 3) + (Transmit(0, Message(kind="c")),),)
        with pytest.raises(ProtocolViolation, match="non-Message frame"):
            _run(_block(column=_column(frames=frames)))

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

    def test_action_map_order_puts_the_column_after_the_template(self):
        block = _block(column=_column(senders=(6, 7)))
        actions = block.round_actions(2)
        assert list(actions) == [0, 1, 6, 7, 3, 4, 5]
        assert actions[6] == Transmit(2, block.column.frames[0][2])
        assert actions[7] == Transmit(2, block.column.frames[1][2])

    def test_single_round_lists_listeners_on_every_channel(self):
        template = _template((0, 2))
        block = HopBlock.single_round(template, {5: 2, 6: 2, 7: 1}, C, RoundMeta("x"))
        assert block.rounds == 1
        assert block.channels == (0, 1, 2)
        assert block.listeners == (5, 6, 7)
        assert list(block.round_actions(0).items()) == [
            (0, template[0]),
            (5, Listen(2)),
            (6, Listen(2)),
            (7, Listen(1)),
        ]


class TestColumnsMatchPerRoundResolution:
    """A hopping transmit column resolves exactly like the per-round
    submission of the same actions, on the no-template fast path and on
    the general path alike."""

    def _assert_block_matches_rounds(self, block, make_adversary):
        fast = RadioNetwork(N, C, T, adversary=make_adversary())
        ref = RadioNetwork(N, C, T, adversary=make_adversary())
        heard = fast.execute_schedule(RoundSchedule([block]))
        for r, (actions, meta) in enumerate(block.as_action_batches()):
            results = ref.execute_round(actions, meta)
            delivered = ref.trace[-1].delivered
            for node, row in zip(block.listeners, block.hops):
                assert results[node] == delivered[block.channels[row[r]]]
            assert heard[r] == {
                channel: msg
                for channel, msg in delivered.items()
                if msg is not None and channel in block.channels
            }
        assert fast.metrics == ref.metrics
        for got, want in zip(fast.trace, ref.trace):
            assert list(got.actions.items()) == list(want.actions.items())
            assert got.adversary_transmissions == want.adversary_transmissions
            assert list(got.delivered.items()) == list(want.delivered.items())
        return heard, fast

    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    def test_point_to_point_epoch(self, adversary):
        hops = bytes(r % C for r in range(9))
        block = _block(
            rounds=9,
            template={},
            listeners=(4,),
            hops=(hops,),
            column=_column(senders=(6,), hops=hops),
        )
        heard, _ = self._assert_block_matches_rounds(block, ADVERSARIES[adversary])
        if adversary == "none":
            assert [h[r % C] for r, h in enumerate(heard)] == list(
                block.column.frames[0]
            )

    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    def test_column_with_template_and_two_senders(self, adversary):
        for senders in ((6,), (6, 7)):
            block = _block(rounds=6, column=_column(senders, bytes([0, 1, 2] * 2)))
            self._assert_block_matches_rounds(block, ADVERSARIES[adversary])

    def test_spoof_on_the_senders_channel_collides(self):
        # The injector's channel is round_index % C, which is where the
        # sender hops, so every round the forgery lands on the sender.
        forged = Message(kind="forged", sender=6)
        hops = bytes(r % C for r in range(6))
        block = _block(
            rounds=6,
            template={},
            listeners=(4, 5),
            hops=(hops, bytes((r + 1) % C for r in range(6))),
            column=_column(senders=(6,), hops=hops),
        )
        heard, net = self._assert_block_matches_rounds(
            block, lambda: FrameInjector(lambda view: forged)
        )
        assert heard == [{}] * 6
        assert net.metrics.collisions == 6
        assert net.metrics.deliveries == net.metrics.spoofs_delivered == 0

    def test_sender_colliding_with_a_template_transmitter(self):
        # The template transmits on channel 0; the sender hops 0, 1, 2, ...
        block = _block(
            rounds=6,
            template=_template((0, 0)),
            column=_column(hops=bytes([0, 1, 2] * 2)),
        )
        heard, net = self._assert_block_matches_rounds(block, lambda: None)
        assert [0 in h for h in heard] == [False, True, True] * 2
        assert net.metrics.collisions == 2

    def test_random_blocks_with_columns(self):
        rng = random.Random(2024)
        for _ in range(40):
            block = _random_block(rng, N, C)
            for adversary in sorted(ADVERSARIES):
                self._assert_block_matches_rounds(block, ADVERSARIES[adversary])

    def test_each_distinct_frame_is_sized_once(self, monkeypatch):
        sized = []
        real = radio_network.frame_size

        def counting(message):
            sized.append(message)
            return real(message)

        monkeypatch.setattr(radio_network, "frame_size", counting)
        fixed = Message(kind="f", sender=6, payload=("x",))
        fresh = _frames(6, 4)
        net = RadioNetwork(N, C, T)
        net.execute_schedule(
            RoundSchedule(
                [
                    _block(template={}, column=_column(frames=((fixed,) * 4,))),
                    _block(template={}, column=_column(frames=(fresh,))),
                ]
            )
        )
        assert sized == [fixed, *fresh]
        assert net.metrics.payload_units == 4 * real(fixed) + sum(map(real, fresh))


class TestPerListenerExpansion:
    def test_as_action_batches_expands_every_round_of_every_block(self):
        block = _block(rounds=3)
        one = HopBlock.single_round(_template((2, 1)), {7: 0}, C, RoundMeta("y"))
        schedule = RoundSchedule([block, one])
        assert len(schedule) == 4
        batches = schedule.as_action_batches()
        assert len(batches) == 4
        for r in range(3):
            actions, meta = batches[r]
            assert meta is block.meta
            for node, row in zip(block.listeners, block.hops):
                assert actions[node] == Listen(block.channels[row[r]])
        assert batches[3] == ({2: one.transmits[2], 7: Listen(0)}, one.meta)

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

    def test_crashed_sender_strips_the_transmit_column(self):
        net = RadioNetwork(N, C, T)
        block = _block(template={}, column=_column())
        with crashed_sender(net):
            heard = net.execute_schedule(RoundSchedule([block]))
        assert heard == [{}] * 4
        assert net.metrics.honest_transmissions == 0
        assert net.metrics.payload_units == 0
        assert net.metrics.listens == 4 * 3
        heard = net.execute_schedule(RoundSchedule([block]))
        assert [list(h.values()) for h in heard] == [
            [frame] for frame in block.column.frames[0]
        ]

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
            hops = bytes([0, 1, 2, 1, 0])
            column = _column(hops=hops, frames=(_frames(6, 5),))
            return RoundSchedule([_block(rounds=5, meta=meta, column=column)])

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
