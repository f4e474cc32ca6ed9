"""Engine equivalence: the sparse fast path resolves exactly like the
legacy dense-action path.

This PR's flyweight round engine lets callers submit only non-sleeping
nodes, skips record construction when nothing retains it, and replaces the
per-move pool derivation and n-replica game state with incremental
structures.  These tests are the safety net: for seeded runs — with and
without adversaries — the sparse and dense paths must produce identical
per-round results, byte-identical metrics, canonically identical traces
(explicit ``Sleep`` entries are semantically absent; see
:meth:`repro.radio.trace.RoundRecord.canonical_form`), and identical
``FameResult``s; and the incremental greedy pools must reproduce the
from-scratch pools move for move.  The dense f-AME driver is the
``DenseFameProtocol`` oracle of ``tests/oracles/fame.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import (
    NullAdversary,
    RandomJammer,
    ScheduleAwareJammer,
    SpoofingAdversary,
    SweepJammer,
)
from repro.fame import Regime, make_config, run_fame
from repro.game.graph import GameGraph
from repro.game.greedy import GreedyPools, greedy_proposal, proposal_pools
from repro.params import ProtocolParameters
from repro.radio.actions import SLEEP, Listen, Sleep, Transmit
from repro.radio.messages import Message
from repro.radio.network import RadioNetwork
from repro.rng import RngRegistry

from conftest import make_network
from oracles.fame import run_fame_dense
from oracles.feedback import metrics_except_payload, semantic_trace


def _random_actions(rng: random.Random, n: int, channels: int) -> dict:
    """A random sparse action map over roughly half the nodes."""
    actions = {}
    for node in rng.sample(range(n), rng.randrange(1, n)):
        kind = rng.random()
        if kind < 0.4:
            actions[node] = Transmit(
                rng.randrange(channels),
                Message(kind="d", sender=node, payload=("p", node)),
            )
        elif kind < 0.9:
            actions[node] = Listen(rng.randrange(channels))
        else:
            continue  # sleeps: absent in the sparse map
    return actions


def _densify(actions: dict, n: int) -> dict:
    """The legacy submission style: every idle node sleeps explicitly."""
    dense = dict(actions)
    for node in range(n):
        dense.setdefault(node, SLEEP)
    return dense


class TestActionFlyweights:
    def test_sleep_is_a_singleton(self):
        assert Sleep() is Sleep() is SLEEP

    def test_listen_interned_per_channel(self):
        assert Listen(3) is Listen(3)
        assert Listen(3) is not Listen(4)

    def test_equality_and_hashing_preserved(self):
        assert Listen(2) == Listen(2) and hash(Listen(2)) == hash(Listen(2))
        assert Sleep() == Sleep()
        assert Listen(1) != Listen(2)

    def test_equal_but_differently_typed_channel_never_mutates_flyweight(self):
        # Regression: bool/float channels hash-collide with the interned
        # int key; they must get fresh instances, never re-initialise the
        # shared flyweight every existing action dict points at.
        interned = Listen(1)
        oddball = Listen(True)
        assert oddball is not interned
        assert interned.channel == 1 and type(interned.channel) is int
        assert Listen(1.0) is not interned
        assert type(Listen(1).channel) is int

    def test_copy_and_pickle_round_trip(self):
        import copy
        import pickle

        assert copy.deepcopy(Listen(5)) is Listen(5)
        assert copy.copy(SLEEP) is SLEEP
        assert pickle.loads(pickle.dumps(Listen(5))) is Listen(5)
        assert pickle.loads(pickle.dumps(SLEEP)) is SLEEP


class TestRadioPathEquivalence:
    """Dense vs sparse submission over random rounds, replayed seeded."""

    ADVERSARIES = {
        "none": lambda: None,
        "sweep": lambda: SweepJammer(),
        "random": lambda: RandomJammer(random.Random(0xA)),
        "spoof": lambda: SpoofingAdversary(random.Random(0xB)),
    }

    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    def test_results_metrics_and_traces_match(self, adversary):
        n, channels, t, rounds = 12, 3, 1, 40
        nets = {
            style: RadioNetwork(
                n, channels, t, adversary=self.ADVERSARIES[adversary]()
            )
            for style in ("dense", "sparse")
        }
        plans = random.Random(1234)
        per_round = [
            _random_actions(plans, n, channels) for _ in range(rounds)
        ]
        for actions in per_round:
            sparse_out = nets["sparse"].execute_round(actions)
            dense_out = nets["dense"].execute_round(_densify(actions, n))
            assert sparse_out == dense_out
        assert nets["sparse"].metrics == nets["dense"].metrics
        assert (
            nets["sparse"].trace.canonical_forms()
            == nets["dense"].trace.canonical_forms()
        )

    def test_keep_trace_false_preserves_metrics(self):
        n, channels, t, rounds = 10, 3, 1, 30
        kept = RadioNetwork(n, channels, t, adversary=SweepJammer())
        dropped = RadioNetwork(
            n, channels, t, adversary=SweepJammer(), keep_trace=False
        )
        plans = random.Random(77)
        for actions in (
            _random_actions(plans, n, channels) for _ in range(rounds)
        ):
            assert kept.execute_round(actions) == dropped.execute_round(
                actions
            )
        # The spoof scan no longer needs the record: counters still agree.
        assert kept.metrics == dropped.metrics
        assert len(dropped.trace) == 0 and len(kept.trace) == rounds

    def test_validation_opt_out_resolves_identically(self):
        n, channels, t = 10, 3, 1
        params = ProtocolParameters(validate_actions=False).validate()
        checked = RadioNetwork(n, channels, t)
        unchecked = RadioNetwork(n, channels, t, params=params)
        plans = random.Random(5)
        for actions in (
            _random_actions(plans, n, channels) for _ in range(20)
        ):
            assert checked.execute_round(actions) == unchecked.execute_round(
                actions
            )
        assert checked.metrics == unchecked.metrics

    def test_execute_rounds_matches_loop(self):
        n, channels, t = 8, 2, 1
        plans = random.Random(9)
        batch = [
            (_random_actions(plans, n, channels), None) for _ in range(15)
        ]
        looped = RadioNetwork(n, channels, t)
        batched = RadioNetwork(n, channels, t)
        expected = [looped.execute_round(a, m) for a, m in batch]
        assert batched.execute_rounds(batch) == expected
        assert batched.metrics == looped.metrics


class TestGreedyPoolEquivalence:
    """Incremental pools vs from-scratch derivation over random games."""

    @pytest.mark.parametrize("seed", range(6))
    def test_pools_track_random_grant_sequences(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(6, 16)
        pairs = {
            (v, w)
            for v in range(n)
            for w in range(n)
            if v != w and rng.random() < 0.25
        }
        graph = GameGraph.from_pairs(sorted(pairs), vertices=range(n))
        pools = GreedyPools(graph)
        reference = graph.copy()
        for _ in range(60):
            assert pools.pools() == proposal_pools(reference)
            assert pools.proposal(1) == greedy_proposal(reference, 1)
            # Apply one random grant of either kind, mirrored to both.
            if reference.edges and rng.random() < 0.6:
                edge = rng.choice(sorted(reference.edges))
                pools.remove_edge(edge)
                reference.remove_edge(edge)
            else:
                node = rng.randrange(n)
                if node in reference.starred:
                    continue
                pools.star(node)
                reference.star(node)
        assert pools.pools() == proposal_pools(reference)

    def test_fingerprints_advance_in_lockstep(self):
        a = GameGraph.from_pairs([(0, 1), (2, 3), (0, 2)], vertices=range(5))
        b = a.copy()
        assert a.fingerprint == b.fingerprint
        for g in (a, b):
            g.star(0)
            g.remove_edge((2, 3))
        assert a.fingerprint == b.fingerprint
        b.remove_edge((0, 1))
        assert a.fingerprint != b.fingerprint


FAME_ADVERSARIES = pytest.mark.parametrize(
    "adversary_factory",
    [
        NullAdversary,
        SweepJammer,
        lambda: RandomJammer(random.Random(0xC)),
        lambda: ScheduleAwareJammer(random.Random(0xD), policy="prefix"),
        lambda: SpoofingAdversary(random.Random(0xE)),
    ],
    ids=["null", "sweep", "random", "schedule-aware", "spoof"],
)


class TestFameProtocolEquivalence:
    """End-to-end: the dense oracle replays the legacy engine exactly."""

    EDGES = [(0, 1), (2, 3), (4, 5), (1, 6), (7, 8)]

    def _pair(
        self, adversary_factory, *, n=20, channels=2, t=1, seed=5, config=None
    ):
        results = []
        nets = []
        for run in (run_fame, run_fame_dense):
            net = make_network(
                n=n, channels=channels, t=t, adversary=adversary_factory()
            )
            res = run(
                net, self.EDGES, rng=RngRegistry(seed=seed), config=config
            )
            results.append(res)
            nets.append(net)
        return results, nets

    @FAME_ADVERSARIES
    def test_sparse_and_dense_runs_identical(self, adversary_factory):
        (sparse, dense), nets = self._pair(adversary_factory)
        t_sparse, t_dense = (net.trace.canonical_forms() for net in nets)
        m_sparse, m_dense = (net.metrics for net in nets)
        assert sparse.summary() == dense.summary()
        assert sparse.outcomes == dense.outcomes
        assert sparse.claimed_cover == dense.claimed_cover
        assert sparse.starred == dense.starred
        assert sparse.surrogate_holders == dense.surrogate_holders
        assert m_sparse == m_dense
        assert t_sparse == t_dense

    @FAME_ADVERSARIES
    def test_sparse_and_dense_runs_match_in_parallel_regime(
        self, adversary_factory
    ):
        """At ``C >= 2t^2`` the feedback phase is the parallel merge, and
        the dense oracle ships full knowledge frames: everything matches
        but the payload counter, which the delta frames shrink."""
        n, channels, t = 40, 4, 1
        config = make_config(n, channels, t, regime=Regime.SQUARED)
        assert config.parallel_feedback
        (sparse, dense), (s_net, d_net) = self._pair(
            adversary_factory, n=n, channels=channels, t=t, config=config
        )
        assert sparse.summary() == dense.summary()
        assert sparse.outcomes == dense.outcomes
        assert sparse.claimed_cover == dense.claimed_cover
        assert sparse.starred == dense.starred
        assert sparse.surrogate_holders == dense.surrogate_holders
        assert metrics_except_payload(s_net.metrics) == metrics_except_payload(
            d_net.metrics
        )
        assert s_net.metrics.payload_units < d_net.metrics.payload_units
        assert semantic_trace(s_net) == semantic_trace(d_net)
