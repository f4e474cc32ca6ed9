"""Differential gauntlet: digest/delta knowledge frames vs full frames.

The parallel feedback merge ships digest/delta encoded knowledge frames
(:class:`~repro.radio.messages.DeltaFrame`) instead of the historical full
``slot -> flag`` maps, which survive as the full-frame oracle of
``tests/oracles/feedback.py`` (per-round transfers).  The optimisation obligation (after
Aspnes' formulation: an optimized exchange must be indistinguishable from
the naive one under every adversary) is discharged here differentially:

* seeded delta and full-frame executions produce identical ``D`` maps,
  identical radio metrics apart from the payload-size counter the delta
  encoding exists to shrink, and *semantically* identical traces (equal
  once both encodings are projected onto the knowledge they carry) — for
  the whole adversary gallery, including a protocol-aware delta-frame
  spoofer;
* the compiled-schedule path and the per-round oracle of the delta
  encoding are byte-identical;
* a digest mismatch either falls back to the frame's embedded full-frame
  resync payload or drops the frame without corrupting knowledge — both
  branches forced below, in-process and end-to-end through the radio.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest

from repro.adversary import (
    BudgetAdversary,
    NullAdversary,
    RandomJammer,
    ReactiveJammer,
    ScheduleAwareJammer,
    SpoofingAdversary,
    SweepJammer,
)
from repro.extensions.restricted_listening import (
    RestrictedListeningNetwork,
    StickyEavesdropper,
)
from repro.feedback.parallel import DeltaApplyState, run_parallel_feedback
from repro.radio.messages import DELTA_KIND, DeltaFrame, Message
from repro.radio.network import RadioNetwork
from repro.rng import RngRegistry

from oracles.feedback import (
    apply,
    metrics_except_payload,
    per_round_transfers,
    semantic_trace,
)


def _forge_delta(view, channel):
    """A protocol-aware forgery: a delta frame with a bogus digest aimed at
    the active transfer.  Every block channel carries an honest broadcaster,
    so this can only collide — the gauntlet proves both encodings shrug it
    off identically."""
    tag = view.meta.extra.get("tag") if view.meta.extra else None
    return Message(
        kind=DELTA_KIND,
        sender=3,
        payload=DeltaFrame(tag=tag, digest=b"\xee" * 32, true_slots=(0, 1)),
    )


ADVERSARIES = {
    "none": lambda: None,
    "null": NullAdversary,
    "sweep": SweepJammer,
    "random": lambda: RandomJammer(random.Random(0xA1)),
    "reactive": lambda: ReactiveJammer(random.Random(0xB7)),
    "schedule-aware": lambda: ScheduleAwareJammer(random.Random(0xC5)),
    "spoof": lambda: SpoofingAdversary(random.Random(0xB2)),
    "spoof-delta": lambda: SpoofingAdversary(
        random.Random(0xD4), forge=_forge_delta
    ),
    "budget": lambda: BudgetAdversary(
        RandomJammer(random.Random(0xE6)), total_budget=40
    ),
}


def _transfers(*, delta, compiled):
    """The library's hop blocks for delta frames when ``compiled``; the
    per-round oracle otherwise, which is the only full-frame path."""
    if delta and compiled:
        return nullcontext()
    return per_round_transfers(full_frames=not delta)


def _run(adversary_factory, *, delta, compiled=True, seed=9, state=None):
    n, channels, t = 60, 8, 2
    net = RadioNetwork(n, channels, t, adversary=adversary_factory())
    witness_sets = [tuple(range(s * 4, s * 4 + 4)) for s in range(4)]
    flags = {w: (s != 1) for s, ws in enumerate(witness_sets) for w in ws}
    if state is None:
        state = DeltaApplyState()
    with _transfers(delta=delta, compiled=compiled):
        out = run_parallel_feedback(
            net,
            witness_sets,
            flags,
            list(range(n)),
            RngRegistry(seed=seed),
            delta_state=state,
        )
    return out, net, state


class TestDeltaVersusFullFrame:
    """Seeded delta == full-frame across the adversary gallery."""

    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    def test_d_maps_metrics_and_semantic_traces_match(self, adversary):
        factory = ADVERSARIES[adversary]
        full_out, full_net, _ = _run(factory, delta=False)
        delta_out, delta_net, state = _run(factory, delta=True)
        assert delta_out == full_out
        assert metrics_except_payload(
            delta_net.metrics
        ) == metrics_except_payload(full_net.metrics)
        # The counter the encoding exists to shrink, and nothing else.
        assert (
            delta_net.metrics.payload_units < full_net.metrics.payload_units
        )
        assert semantic_trace(delta_net) == semantic_trace(full_net)
        # Honest frames always verify: the escape hatch stays cold.
        assert state.digest_mismatches == 0
        assert state.resyncs == 0

    @pytest.mark.parametrize(
        "adversary", ["none", "random", "schedule-aware", "spoof-delta"]
    )
    def test_compiled_and_per_round_delta_byte_identical(self, adversary):
        factory = ADVERSARIES[adversary]
        fast_out, fast_net, _ = _run(factory, delta=True, compiled=True)
        ref_out, ref_net, _ = _run(factory, delta=True, compiled=False)
        assert fast_out == ref_out
        assert fast_net.metrics == ref_net.metrics
        assert (
            fast_net.trace.canonical_forms()
            == ref_net.trace.canonical_forms()
        )

    def test_outputs_correct_under_jamming(self):
        out, _net, _state = _run(ADVERSARIES["random"], delta=True)
        expected = {0, 2, 3}
        assert all(d == expected for d in out.values())

    def test_applied_digest_tracking_short_circuits_repeats(self):
        _out, _net, state = _run(ADVERSARIES["none"], delta=True)
        assert state.applications > 0
        # Every decode after a listener's first is an O(1) skip — with no
        # jamming, listeners decode in (almost) every repetition, so skips
        # dwarf applications.
        assert state.skips > state.applications


class TestDigestMismatchResync:
    """The correctness escape hatch, both branches."""

    def _frames(self):
        from repro.fame.digests import slot_set_digest

        good = DeltaFrame(
            tag="t", digest=slot_set_digest((2, 5)), true_slots=(2, 5)
        )
        bad = DeltaFrame(tag="t", digest=b"\xff" * 32, true_slots=(2, 5))
        resync = DeltaFrame(
            tag="t",
            digest=b"\xff" * 32,
            true_slots=(2, 5),
            full=((2, True), (4, False), (5, True)),
        )
        return good, bad, resync

    def test_good_frame_applies_once_then_skips(self):
        good, _bad, _resync = self._frames()
        state = DeltaApplyState()
        knowledge: dict[int, bool] = {}
        assert apply(state, 7, good, knowledge)
        assert knowledge == {2: True, 5: True}
        assert not apply(state, 7, good, knowledge)
        assert state.applications == 1 and state.skips == 1

    def test_mismatch_without_resync_payload_drops_the_frame(self):
        good, bad, _resync = self._frames()
        state = DeltaApplyState()
        knowledge: dict[int, bool] = {9: True}
        assert not apply(state, 7, bad, knowledge)
        assert knowledge == {9: True}  # untouched — no partial application
        assert state.digest_mismatches == 1 and state.resyncs == 0
        # The bad digest was not marked applied: a later well-formed frame
        # under the same digest key still lands (here: the good frame,
        # whose digest differs — and applying it works).
        assert apply(state, 7, good, knowledge)
        assert knowledge == {9: True, 2: True, 5: True}

    def test_mismatch_with_resync_payload_applies_full_items(self):
        _good, _bad, resync = self._frames()
        state = DeltaApplyState()
        knowledge: dict[int, bool] = {}
        assert apply(state, 7, resync, knowledge)
        assert knowledge == {2: True, 4: False, 5: True}
        assert state.digest_mismatches == 1 and state.resyncs == 1
        # The resync frame (keyed by value, not by its untrustworthy
        # digest) is now applied for this node.
        assert not apply(state, 7, resync, knowledge)
        assert state.skips == 1

    def test_verification_is_cached_per_frame_not_per_listener(self):
        _good, bad, _resync = self._frames()
        state = DeltaApplyState()
        for node in range(10):
            apply(state, node, bad, {})
        assert state.digest_mismatches == 1

    def test_apply_state_is_single_use(self):
        """Reusing a state across invocations would silently skip the
        second run's frames (same slot layout => same digests), so the
        entry point refuses it outright."""
        from repro.errors import ConfigurationError

        state = DeltaApplyState()
        _out, _net, _ = _run(
            ADVERSARIES["none"], delta=True, state=state
        )
        with pytest.raises(ConfigurationError):
            _run(ADVERSARIES["none"], delta=True, state=state)

    def test_forced_mismatch_resyncs_end_to_end(self, monkeypatch):
        """Corrupt every sender digest in flight; the embedded full-frame
        payload must carry the whole invocation to the reference outcome."""
        import repro.feedback.parallel as parallel_module

        reference_out, _net, _ = _run(ADVERSARIES["random"], delta=False)

        real = parallel_module._delta_payload

        def corrupted(group, tag):
            frame = real(group, tag)
            return DeltaFrame(
                tag=frame.tag,
                digest=b"\xff" * 32,
                true_slots=frame.true_slots,
                full=tuple(sorted(group.knowledge.items())),
            )

        monkeypatch.setattr(parallel_module, "_delta_payload", corrupted)
        out, _net, state = _run(ADVERSARIES["random"], delta=True)
        assert out == reference_out
        assert state.digest_mismatches > 0
        assert state.resyncs == state.digest_mismatches

    def test_forced_mismatch_without_resync_drops_frames_end_to_end(
        self, monkeypatch
    ):
        """Without the escape hatch, corrupted frames are dropped whole:
        nobody learns anything beyond their own witness flag — and nobody's
        knowledge is corrupted into a wrong positive."""
        import repro.feedback.parallel as parallel_module

        real = parallel_module._delta_payload

        def corrupted(group, tag):
            frame = real(group, tag)
            return DeltaFrame(
                tag=frame.tag, digest=b"\xff" * 32, true_slots=frame.true_slots
            )

        monkeypatch.setattr(parallel_module, "_delta_payload", corrupted)
        out, _net, state = _run(ADVERSARIES["none"], delta=True)
        assert state.digest_mismatches > 0 and state.resyncs == 0
        witness_slot = {w: s for s in range(4) for w in range(s * 4, s * 4 + 4)}
        for node, d in out.items():
            slot = witness_slot.get(node)
            expected = {slot} if slot is not None and slot != 1 else set()
            assert d == expected


class TestRestrictedListeningDelta:
    """Compiled schedules carrying delta frames ride the execute_round
    fallback of RestrictedListeningNetwork unchanged (the fallback was
    previously only exercised with plain full-frame rounds)."""

    def _run(self, *, delta, compiled):
        n, channels, t = 24, 8, 2
        net = RestrictedListeningNetwork(
            n, channels, t, StickyEavesdropper([1, 3])
        )
        witness_sets = [tuple(range(s * 4, s * 4 + 4)) for s in range(4)]
        flags = {w: (s != 2) for s, ws in enumerate(witness_sets) for w in ws}
        with _transfers(delta=delta, compiled=compiled):
            out = run_parallel_feedback(
                net, witness_sets, flags, list(range(n)), RngRegistry(seed=13)
            )
        return out, net

    def test_compiled_delta_matches_per_round_delta(self):
        fast_out, fast_net = self._run(delta=True, compiled=True)
        ref_out, ref_net = self._run(delta=True, compiled=False)
        assert fast_out == ref_out
        assert fast_net.metrics == ref_net.metrics
        assert (
            fast_net.trace.canonical_forms()
            == ref_net.trace.canonical_forms()
        )
        assert (
            fast_net.redacted_trace.canonical_forms()
            == ref_net.redacted_trace.canonical_forms()
        )
        assert (
            fast_net.observed_channel_rounds
            == ref_net.observed_channel_rounds
        )

    def test_delta_matches_full_frame_outputs(self):
        delta_out, delta_net = self._run(delta=True, compiled=True)
        full_out, full_net = self._run(delta=False, compiled=False)
        assert delta_out == full_out
        assert all(d == {0, 1, 3} for d in delta_out.values())
        assert (
            delta_net.metrics.payload_units < full_net.metrics.payload_units
        )
