"""Ablations over the reproduction's own design choices.

A1 — the w.h.p. constants: sweeping ``feedback_factor`` shows why the
     default sits at 3.0 — smaller constants trade rounds for feedback
     divergences (the Lemma 5 failure event), larger ones buy nothing.
A2 — channel-aware hopping epochs (the Section 7 parenthetical): the cost
     of an emulated round falls from Θ(t log n) to Θ(log n) once C >= 2t.
A3 — the Byzantine-hardened variant (Section 8 Q1): with up to t corrupt
     nodes lying in feedback and garbling messages, the hardened exchange
     stays within 2t-disruptability, at a measurable round premium over
     plain f-AME.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import RandomJammer, ScheduleAwareJammer
from repro.fame import CorruptionModel, run_byzantine_exchange, run_fame
from repro.params import ProtocolParameters, log2n
from repro.rng import RngRegistry
from repro.service import LongLivedChannel

from bench_common import make_network, report

EDGES = [(0, 1), (2, 3), (4, 5), (6, 7), (1, 8)]


# ---------------------------------------------------------------------------
# A1: the explicit Θ(·) constants.
# ---------------------------------------------------------------------------

def _run_with_factor(factor, seed):
    params = ProtocolParameters(
        feedback_factor=factor, strict_consistency=False
    ).validate()
    net = make_network(
        20, 2, 1, adversary=RandomJammer(random.Random(seed)), params=params
    )
    return run_fame(net, EDGES, rng=RngRegistry(seed=seed))


def _a1_constants_table():
    rows = []
    for factor in (0.25, 0.5, 1.0, 2.0, 3.0, 4.0):
        divergences = rounds = failures = 0
        trials = 10
        for seed in range(trials):
            res = _run_with_factor(factor, seed)
            divergences += res.divergence_events
            rounds += res.rounds
            failures += len(res.failed)
            assert res.is_d_disruptable(1)  # resync keeps correctness
        rows.append([
            factor, round(rounds / trials), divergences,
            round(divergences / trials, 2), failures,
        ])
    report(
        "A1 — feedback_factor vs divergence rate (10 seeds each, t=1)",
        ["factor", "avg rounds", "divergent moves", "per run", "failed pairs"],
        rows,
    )
    # The default (3.0) sits where divergences vanish.
    by_factor = {row[0]: row[2] for row in rows}
    assert by_factor[0.25] > 0  # starved constants do diverge
    assert by_factor[3.0] == 0
    assert by_factor[4.0] == 0


def test_a1_constants_table(benchmark):
    benchmark.pedantic(_a1_constants_table, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# A2: channel-aware hopping epochs.
# ---------------------------------------------------------------------------

def _service_cost(channels, t, channel_aware, seed=0):
    n = 40
    net = make_network(
        n, channels, t, adversary=RandomJammer(random.Random(seed))
    )
    ch = LongLivedChannel(
        net, b"a" * 32, list(range(n)), channel_aware_epochs=channel_aware
    )
    delivered = expected = 0
    for i in range(4):
        out = ch.run_round({i: b"x"})
        expected += len(out)
        delivered += sum(1 for d in out.values() if d is not None)
    return net.metrics.rounds / 4, delivered, expected


def _a2_epoch_table():
    rows = []
    t = 2
    for channels, label in ((3, "C = t+1"), (4, "C = 2t"), (8, "C = 4t")):
        base, d1, e1 = _service_cost(channels, t, channel_aware=False)
        aware, d2, e2 = _service_cost(channels, t, channel_aware=True)
        rows.append([
            label, base, aware, round(base / aware, 2),
            f"{d1}/{e1}", f"{d2}/{e2}",
        ])
        assert d2 == e2  # the shorter epochs still deliver w.h.p.
    report(
        "A2 — emulated-round cost: fixed Θ(t log n) vs channel-aware epochs",
        ["channels", "base rounds", "aware rounds", "speedup",
         "base deliveries", "aware deliveries"],
        rows,
    )
    # With C = 2t, the channel-aware epoch is ~t times shorter.
    speedups = {row[0]: row[3] for row in rows}
    assert speedups["C = 2t"] > 1.5
    assert speedups["C = 4t"] >= speedups["C = 2t"]


def test_a2_epoch_table(benchmark):
    benchmark.pedantic(_a2_epoch_table, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# A3: the Byzantine-hardened exchange.
# ---------------------------------------------------------------------------

def _a3_byzantine_table():
    rows = []
    for t in (1, 2):
        n = 20 if t == 1 else 40
        edges = [(i, i + n // 2) for i in range(6)]
        corrupt = tuple(range(t))  # corrupt the first t sources

        net_b = make_network(
            n, t + 1, t,
            adversary=ScheduleAwareJammer(random.Random(t), policy="prefix"),
        )
        byz = run_byzantine_exchange(
            net_b, edges, rng=RngRegistry(seed=t),
            corruption=CorruptionModel.of(*corrupt),
        )
        net_f = make_network(
            n, t + 1, t,
            adversary=ScheduleAwareJammer(random.Random(t), policy="prefix"),
        )
        fame = run_fame(net_f, edges, rng=RngRegistry(seed=t))
        rows.append([
            t, len(corrupt), byz.disruptability(), 2 * t,
            fame.disruptability(), t,
            byz.rounds, fame.rounds,
        ])
        assert byz.disruptability() <= 2 * t
        assert fame.disruptability() <= t
    report(
        "A3 — Byzantine-hardened exchange (t corrupt nodes) vs plain f-AME",
        ["t", "corrupt", "byz cover", "bound 2t", "f-AME cover", "bound t",
         "byz rounds", "f-AME rounds"],
        rows,
    )


def test_a3_byzantine_table(benchmark):
    benchmark.pedantic(_a3_byzantine_table, rounds=1, iterations=1)
