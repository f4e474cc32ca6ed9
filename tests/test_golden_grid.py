"""Golden fingerprints of whole seeded runs, replayed against the engine.

Each case runs one workload — serial feedback, the parallel merge with
delta or full frames, serial or parallel f-AME, or group-key
establishment — on one seed against one adversary of the gallery, and
hashes everything the run can observably produce:

* the canonical trace (``keep_trace=True``: every action, every hop,
  every adversary transmission and delivery);
* the :class:`~repro.radio.metrics.NetworkMetrics`;
* the result (output sets, f-AME outcomes, the group key and holders);
* the post-run state of every stream in the run's
  :class:`~repro.rng.RngRegistry` (the listener hop streams included);
* the :class:`~repro.feedback.parallel.DeltaApplyState` counters of
  delta merges.

The first 62 digests in ``golden_grid.json`` were recorded on the
per-round listener-bucket engine.  The rest were recorded on the hop-block
engine, before oblivious jammers planned whole blocks and before the
cipher kept per-key hash state: ``ScheduleAwareJammer`` with the
``random`` and ``suffix`` policies on every workload, t=2 geometries,
a ``BudgetAdversary`` that runs dry partway through a block, and
``SecureSession`` runs (preshared and group mode: send, flush, drain,
re-key) whose traces pin ciphertext bytes.  Those cases also hash the
adversary's private stream after the run.  The last batch was recorded
before pairwise epochs became single hop blocks: oblivious gossip,
group key and a preshared session on the restricted-listening model,
sessions under the spoofer and a budget that runs dry mid-session, and
bare pairwise-channel exchanges.  Any engine change must
reproduce all of them; a mismatch means the change altered an
execution, not just its speed.
The feedback cases also replay through the reference paths of
``tests/oracles/feedback.py`` (the per-round loops and the per-draw
sampler), which must give the same digests.  The full-frame parallel
merge and dense f-AME exist only as those oracles now; their digests were
recorded when the library still carried them, so the oracles are pinned
to the library's old behaviour.

Regenerate (only when an execution is *meant* to change) with::

    PYTHONPATH=src python tests/test_golden_grid.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.adversary import (
    BudgetAdversary,
    RandomJammer,
    ReactiveJammer,
    ScheduleAwareJammer,
    SpoofingAdversary,
    SweepJammer,
)
from repro.baselines.oblivious_gossip import run_oblivious_gossip
from repro.crypto.dh import TEST_GROUP_64
from repro.extensions.restricted_listening import (
    RestrictedListeningNetwork,
    StickyEavesdropper,
)
from repro.fame import Regime, make_config, run_fame
from repro.feedback.parallel import DeltaApplyState, run_parallel_feedback
from repro.feedback.protocol import run_feedback
from repro.feedback.witness import WitnessAssignment
from repro.groupkey import establish_group_key
from repro.radio.network import RadioNetwork
from repro.rng import RngRegistry
from repro.service import PairwiseChannel, SecureSession

from oracles.fame import run_fame_dense
from oracles.feedback import (
    loop_draws,
    per_round_transfers,
    run_feedback_per_round,
)

GOLDEN_PATH = Path(__file__).with_name("golden_grid.json")

SEEDS = (3, 17)

ADVERSARIES = {
    "random": lambda seed: RandomJammer(random.Random(seed * 31 + 1)),
    "sweep": lambda seed: SweepJammer(),
    "reactive": lambda seed: ReactiveJammer(random.Random(seed * 31 + 2)),
    "schedule-aware": lambda seed: ScheduleAwareJammer(
        random.Random(seed * 31 + 3)
    ),
    "spoof": lambda seed: SpoofingAdversary(random.Random(seed * 31 + 4)),
}


def _canonical_trace(trace) -> list[str]:
    return [
        json.dumps(record, sort_keys=True, default=repr)
        for record in trace.canonical_forms()
    ]


def _stream_states(rng: RngRegistry) -> list:
    # Every stream the run created, keyed by name: pins the exact number
    # of draws each listener (and every other consumer) took.
    return sorted(
        (key, stream.getstate()) for key, stream in rng._streams.items()
    )


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _fingerprint_network(net, rng, result, extra=()) -> str:
    return _digest(
        _canonical_trace(net.trace),
        repr(net.metrics),
        result,
        _stream_states(rng),
        extra,
    )


def _serial_feedback(adversary, seed):
    n, channels, t = 24, 3, 1
    net = RadioNetwork(n, channels, t, adversary=adversary)
    sets = tuple(tuple(range(s * 3, s * 3 + 3)) for s in range(4))
    wa = WitnessAssignment(sets=sets, channels=(0, 1, 2))
    flags = {w: (s % 3 != 1) for s, ws in enumerate(sets) for w in ws}
    rng = RngRegistry(seed=seed)
    out = run_feedback(net, wa, flags, list(range(n)), rng)
    return _fingerprint_network(
        net, rng, sorted((node, sorted(d)) for node, d in out.items())
    )


def _parallel_feedback(adversary, seed, delta):
    """The parallel merge with delta frames, or with the full-frame oracle
    (which leaves the delta state untouched, so no counters are hashed)."""
    n, channels, t = 30, 8, 2
    net = RadioNetwork(n, channels, t, adversary=adversary)
    witness_sets = [tuple(range(s * 4, s * 4 + 4)) for s in range(4)]
    flags = {w: (s != 1) for s, ws in enumerate(witness_sets) for w in ws}
    rng = RngRegistry(seed=seed)
    state = DeltaApplyState()
    with nullcontext() if delta else per_round_transfers(full_frames=True):
        out = run_parallel_feedback(
            net, witness_sets, flags, list(range(n)), rng, delta_state=state
        )
    counters = (
        ()
        if not delta
        else (
            state.applications,
            state.skips,
            state.digest_mismatches,
            state.resyncs,
            sorted(
                (node, sorted(map(repr, keys)))
                for node, keys in state.applied.items()
            ),
        )
    )
    return _fingerprint_network(
        net,
        rng,
        sorted((node, sorted(d)) for node, d in out.items()),
        counters,
    )


def _fame_result(res) -> tuple:
    return (
        sorted((pair, repr(outcome)) for pair, outcome in res.outcomes.items()),
        res.moves,
        res.rounds,
        res.divergence_events,
        res.disagreeing_nodes,
        sorted(res.claimed_cover),
        sorted(res.starred),
        sorted(res.surrogate_holders.items()),
    )


def _fame(adversary, seed, parallel, run=run_fame):
    if parallel:
        n, channels, t = 40, 4, 1
        config = make_config(n, channels, t, regime=Regime.SQUARED)
    else:
        n, channels, t = 20, 2, 1
        config = make_config(n, channels, t, regime=Regime.BASE)
    net = RadioNetwork(n, channels, t, adversary=adversary)
    edges = [(i, i + n // 2) for i in range(4)] + [(n - 1, 0)]
    rng = RngRegistry(seed=seed)
    res = run(net, edges, rng=rng, config=config)
    return _fingerprint_network(net, rng, _fame_result(res))


def _groupkey(adversary, seed, network=RadioNetwork):
    net = network(18, 2, 1, adversary=adversary)
    rng = RngRegistry(seed=seed)
    res = establish_group_key(net, rng, group=TEST_GROUP_64)
    return _fingerprint_network(
        net,
        rng,
        (
            None if res.group_key is None else res.group_key.hex(),
            sorted(res.holders()),
            sorted(
                (v, None if k is None else k.hex())
                for v, k in res.adopted.items()
            ),
            res.expected_leader,
            res.part1_rounds,
            res.part2_rounds,
            res.part3_rounds,
            res.part2_payload_units,
        ),
    )


WORKLOADS = {
    "feedback": _serial_feedback,
    "parallel-delta": lambda adv, seed: _parallel_feedback(adv, seed, True),
    "parallel-full": lambda adv, seed: _parallel_feedback(adv, seed, False),
    "fame-serial": lambda adv, seed: _fame(adv, seed, False),
    "fame-parallel": lambda adv, seed: _fame(adv, seed, True),
    "groupkey": _groupkey,
}

# f-AME on the dense reference engine, recorded separately because its
# parallel merge ships full frames (so payload units differ); the serial
# digests equal the ``fame-serial`` ones.
DENSE_WORKLOADS = {
    "fame-serial-dense": lambda adv, seed: _fame(adv, seed, False, run_fame_dense),
    "fame-parallel-dense": lambda adv, seed: _fame(adv, seed, True, run_fame_dense),
}

# The workloads that call the feedback routines directly, whose reference
# paths (kept as equivalence oracles) must reproduce the same digests.
FEEDBACK_WORKLOADS = (
    "feedback",
    "feedback-t2",
    "parallel-delta",
    "parallel-full",
)


def _per_round(monkeypatch):
    """Serial workloads call the standalone per-round loop (through this
    module's ``run_feedback`` name); the merge's transfers run per round."""
    monkeypatch.setitem(globals(), "run_feedback", run_feedback_per_round)
    return per_round_transfers()


REFERENCE_PATHS = {
    "per-round": _per_round,
    "per-draw": lambda monkeypatch: loop_draws(),
}


# Cases recorded later, on the hop-block engine, before oblivious jammers
# planned whole blocks.  Their digests also pin the adversary's private
# stream after the run, so a plan that draws more (or less) than the
# rounds it covers shows up even when no round's moves change.
PLANNED_ADVERSARIES = {
    "schedule-aware-random": lambda rng: ScheduleAwareJammer(rng, policy="random"),
    "schedule-aware-suffix": lambda rng: ScheduleAwareJammer(rng, policy="suffix"),
}


def _serial_feedback_t2(adversary, seed):
    """Serial feedback at t=2: a random jammer draws two channels a round."""
    n, channels, t = 30, 5, 2
    net = RadioNetwork(n, channels, t, adversary=adversary)
    sets = tuple(tuple(range(s * 5, s * 5 + 5)) for s in range(5))
    wa = WitnessAssignment(sets=sets, channels=(0, 1, 2, 3, 4))
    flags = {w: (s % 2 == 0) for s, ws in enumerate(sets) for w in ws}
    rng = RngRegistry(seed=seed)
    out = run_feedback(net, wa, flags, list(range(n)), rng)
    return _fingerprint_network(
        net, rng, sorted((node, sorted(d)) for node, d in out.items())
    )


def _groupkey_t2(adversary, seed):
    net = RadioNetwork(34, 4, 2, adversary=adversary)
    rng = RngRegistry(seed=seed)
    res = establish_group_key(net, rng, group=TEST_GROUP_64)
    return _fingerprint_network(
        net,
        rng,
        (
            None if res.group_key is None else res.group_key.hex(),
            sorted(res.holders()),
            res.part1_rounds,
            res.part2_rounds,
            res.part3_rounds,
        ),
    )


def _service(adversary, seed, group_mode, network=RadioNetwork):
    """A service session: send, flush, drain every inbox, re-key, send
    again.  The trace pins every ciphertext the session put on the air."""
    if group_mode:
        net = network(18, 2, 1, adversary=adversary)
        rng = RngRegistry(seed=seed)
        session = SecureSession(net, rng, group=TEST_GROUP_64)
    else:
        net = network(8, 2, 1, adversary=adversary)
        rng = RngRegistry(seed=seed)
        session = SecureSession.from_preshared(
            net, bytes(range(32)), range(8), rng
        )
    members = list(session.members)
    for i, sender in enumerate(members[:5]):
        session.send(sender, bytes([i]) * (7 * i + 1))
    first = session.flush()
    inboxes = [(m, session.inbox(m)) for m in members]
    report = session.rekey([members[-1]])
    session.send(session.members[0], b"after the re-key " * 3)
    second = session.flush()
    return _fingerprint_network(
        net,
        rng,
        (
            repr(first),
            repr(inboxes),
            repr(report),
            repr(second),
            repr(session.stats),
            sorted(session.members),
        ),
    )


def _pairwise(adversary, seed):
    """Bare pairwise-channel exchanges in both directions, on base and
    channel-aware epochs."""
    net = RadioNetwork(8, 2, 1, adversary=adversary)
    rng = RngRegistry(seed=seed)
    key = hashlib.sha256(b"pair-%d" % seed).digest()
    base = PairwiseChannel(net, key, 2, 5)
    aware = PairwiseChannel(net, key[::-1], 6, 1, channel_aware_epochs=True)
    deliveries = [
        channel.send(sender, bytes([i]) * (5 * i + 1))
        for i, (channel, sender) in enumerate(
            [(base, 2), (base, 5), (aware, 1), (base, 2), (aware, 6)]
        )
    ]
    return _fingerprint_network(net, rng, repr(deliveries))


def _oblivious_gossip(adversary, seed):
    net = RadioNetwork(10, 2, 1, adversary=adversary)
    rng = RngRegistry(seed=seed)
    res = run_oblivious_gossip(net, rng, max_rounds=2000)
    return _fingerprint_network(
        net,
        rng,
        (
            res.rounds,
            res.completed,
            [sorted(known) for known in res.knowledge],
            res.spoofed_rumors_accepted,
        ),
    )


# Rows recorded with the planned-adversary cases: each maps a case name
# (workload/adversary) to ``(run, adversary factory)``.
PLANNED_ROWS = {
    "feedback-t2/random": (
        _serial_feedback_t2,
        lambda rng: RandomJammer(rng),
    ),
    "groupkey-t2/random": (_groupkey_t2, lambda rng: RandomJammer(rng)),
    # A budget of 37 runs out partway through a feedback slot's block.
    "feedback/budget-random": (
        _serial_feedback,
        lambda rng: BudgetAdversary(RandomJammer(rng), 37),
    ),
    "groupkey/budget-random": (
        _groupkey,
        lambda rng: BudgetAdversary(RandomJammer(rng), 1500),
    ),
    "service-preshared/random": (
        lambda adv, seed: _service(adv, seed, False),
        lambda rng: RandomJammer(rng),
    ),
    "service-preshared/schedule-aware": (
        lambda adv, seed: _service(adv, seed, False),
        lambda rng: ScheduleAwareJammer(rng),
    ),
    "service-group/random": (
        lambda adv, seed: _service(adv, seed, True),
        lambda rng: RandomJammer(rng),
    ),
    "service-group/schedule-aware": (
        lambda adv, seed: _service(adv, seed, True),
        lambda rng: ScheduleAwareJammer(rng),
    ),
    "service-preshared/spoof": (
        lambda adv, seed: _service(adv, seed, False),
        lambda rng: SpoofingAdversary(rng),
    ),
    # 200 rounds run dry during the re-key epochs.
    "service-preshared/budget-random": (
        lambda adv, seed: _service(adv, seed, False),
        lambda rng: BudgetAdversary(RandomJammer(rng), 200),
    ),
    "service-group/spoof": (
        lambda adv, seed: _service(adv, seed, True),
        lambda rng: SpoofingAdversary(rng),
    ),
    # 5 950 rounds outlast the group-key setup and run dry while re-keying.
    "service-group/budget-random": (
        lambda adv, seed: _service(adv, seed, True),
        lambda rng: BudgetAdversary(RandomJammer(rng), 5950),
    ),
    "pairwise/random": (_pairwise, lambda rng: RandomJammer(rng)),
    "pairwise/spoof": (_pairwise, lambda rng: SpoofingAdversary(rng)),
}


def _planned_case(run, factory, seed):
    adversary_rng = random.Random(seed * 31 + 5)
    digest = run(factory(adversary_rng), seed)
    return _digest(digest, adversary_rng.getstate())


def _restricted_feedback(seed):
    """Serial feedback on the restricted-listening model: the engine's
    ``execute_round`` fallback for customised networks."""
    n, channels, t = 16, 3, 1
    net = RestrictedListeningNetwork(n, channels, t, StickyEavesdropper([1]))
    sets = tuple(tuple(range(s * 3, s * 3 + 3)) for s in range(3))
    wa = WitnessAssignment(sets=sets, channels=(0, 1, 2))
    flags = {w: (s != 1) for s, ws in enumerate(sets) for w in ws}
    rng = RngRegistry(seed=seed)
    out = run_feedback(net, wa, flags, list(range(n)), rng)
    return _fingerprint_network(
        net,
        rng,
        sorted((node, sorted(d)) for node, d in out.items()),
        (
            _canonical_trace(net.redacted_trace),
            net.observed_channel_rounds,
        ),
    )


def _sticky_network(n, channels, t, adversary=None):
    """The restricted-listening model, which resolves every schedule
    through its ``execute_round`` override."""
    return RestrictedListeningNetwork(n, channels, t, StickyEavesdropper([1]))


RESTRICTED_ROWS = {
    "restricted-groupkey": lambda seed: _groupkey(None, seed, _sticky_network),
    "restricted-service-preshared": lambda seed: _service(
        None, seed, False, _sticky_network
    ),
}


GOSSIP_ADVERSARIES = ("random", "sweep")


def _cases() -> dict[str, object]:
    cases: dict[str, object] = {}
    for seed in SEEDS:
        for workload, run in {**WORKLOADS, **DENSE_WORKLOADS}.items():
            for name, factory in ADVERSARIES.items():
                cases[f"{workload}/{name}/{seed}"] = (
                    lambda run=run, factory=factory, seed=seed: run(
                        factory(seed), seed
                    )
                )
        cases[f"restricted-feedback/sticky/{seed}"] = (
            lambda seed=seed: _restricted_feedback(seed)
        )
        for row, run in RESTRICTED_ROWS.items():
            cases[f"{row}/sticky/{seed}"] = lambda run=run, seed=seed: run(seed)
        for name in GOSSIP_ADVERSARIES:
            cases[f"oblivious-gossip/{name}/{seed}"] = (
                lambda factory=ADVERSARIES[name], seed=seed: _oblivious_gossip(
                    factory(seed), seed
                )
            )
        rows = {
            f"{workload}/{name}": (run, factory)
            for workload, run in WORKLOADS.items()
            for name, factory in PLANNED_ADVERSARIES.items()
        }
        rows.update(PLANNED_ROWS)
        for row, (run, factory) in rows.items():
            cases[f"{row}/{seed}"] = (
                lambda run=run, factory=factory, seed=seed: (
                    _planned_case(run, factory, seed)
                )
            )
    return cases


CASES = _cases()


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_grid_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_matches_golden_fingerprint(case):
    assert CASES[case]() == _golden()[case]


@pytest.mark.parametrize("path", sorted(REFERENCE_PATHS))
@pytest.mark.parametrize(
    "case",
    sorted(
        c
        for c in CASES
        if c.split("/")[0] in FEEDBACK_WORKLOADS + ("restricted-feedback",)
    ),
)
def test_reference_path_matches_golden_fingerprint(case, path, monkeypatch):
    with REFERENCE_PATHS[path](monkeypatch):
        assert CASES[case]() == _golden()[case]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_grid.py --record")
    GOLDEN_PATH.write_text(
        json.dumps({case: run() for case, run in sorted(CASES.items())}, indent=1)
        + "\n"
    )
    print(f"recorded {len(CASES)} fingerprints to {GOLDEN_PATH}")
