"""Property-based tests: greedy proposals always schedule cleanly.

For arbitrary mid-game states (random edge sets, random starred subsets
with plausible surrogate tables), the schedule derived from a greedy
proposal must satisfy the radio-level invariants the correctness proof
leans on:

* every proposal item occupies exactly one distinct channel;
* nobody broadcasts and listens in the same round;
* surrogates hold the vector they broadcast and stand in only for starred
  sources;
* witness groups are sized 3(t+1), mutually disjoint, and disjoint from
  every scheduled role.

Also home to the slot-set digest properties backing the delta feedback
frames: applying any sequence of (possibly overlapping) slot-set deltas
and digesting incrementally must equal the one-shot digest of the merged
set, and disjoint parts must combine to the whole.

And to the block-draw properties backing the batched hop sampler: for
arbitrary ``(n, count, seed)``, block draws == sequential
``draw_uniform_indices`` == a ``choice`` loop, byte-for-byte — values AND
post-draw generator state — the invariant (see ``repro.rng``) that makes
the compiled feedback pipelines' bulk hop matrices exchangeable with the
historical per-draw paths.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

import pytest

from repro.fame.config import make_config, witness_group_size
from repro.fame.digests import SlotSetDigest, combine_digests, slot_set_digest
from repro.fame.schedule import build_schedule
from repro.game.graph import GameGraph
from repro.game.greedy import GreedyTermination, greedy_proposal
from repro.rng import (
    BlockDrawer,
    draw_uniform_indices,
)

N = 60
T = 2
CONFIG = make_config(N, T + 1, T)

edge_sets = st.sets(
    st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(
        lambda e: e[0] != e[1]
    ),
    min_size=3,
    max_size=25,
)


@given(edges=edge_sets, star_seed=st.integers(0, 2**16))
@settings(max_examples=120, deadline=None)
def test_greedy_schedules_are_always_valid(edges, star_seed):
    import random

    graph = GameGraph.from_pairs(edges, vertices=range(N))
    # Star a pseudo-random subset of sources and give each starred node a
    # plausible surrogate table (as a successful starring round would).
    stream = random.Random(star_seed)
    sources = sorted(graph.sources())
    starred = [v for v in sources if stream.random() < 0.5]
    surrogates = {}
    free_pool = [v for v in range(N) if v >= 20]
    size = witness_group_size(T)
    # Each starring round hands its source a full witness group, so the
    # pool backs at most len(free_pool) // size starred sources.
    for i, v in enumerate(starred[: len(free_pool) // size]):
        graph.star(v)
        surrogates[v] = tuple(free_pool[i * size : (i + 1) * size])

    move = greedy_proposal(graph, T)
    if isinstance(move, GreedyTermination):
        return

    schedule = build_schedule(CONFIG, move, graph.starred, surrogates)

    # One distinct channel per item, in order.
    assert schedule.channels_in_use == tuple(range(len(move)))

    broadcasters = [a.broadcaster for a in schedule.assignments]
    assert len(set(broadcasters)) == len(broadcasters)

    listeners = schedule.listeners()
    assert not set(broadcasters) & set(listeners)

    for a in schedule.assignments:
        if a.uses_surrogate:
            assert a.source in graph.starred
            assert a.broadcaster in surrogates[a.source]
        if a.listener is not None:
            assert listeners[a.listener] == a.channel

    size = witness_group_size(T)
    seen: set[int] = set()
    involved = schedule.involved()
    for group in schedule.witness_groups:
        assert len(group) == size
        assert not set(group) & seen
        seen.update(group)
    # Witness groups never overlap scheduled roles.
    witness_union = {w for g in schedule.witness_groups for w in g}
    scheduled_roles = set(broadcasters) | {
        a.listener for a in schedule.assignments if a.listener is not None
    } | {a.source for a in schedule.assignments}
    assert not witness_union & scheduled_roles
    assert witness_union <= involved | witness_union


slot_batches = st.lists(
    st.lists(st.integers(0, 300), max_size=10), max_size=8
)


@given(batches=slot_batches)
@settings(max_examples=150, deadline=None)
def test_delta_apply_then_digest_equals_digest_of_merged(batches):
    """Incremental update over any delta sequence == one-shot digest of the
    union — the invariant that lets merge groups maintain their frame
    digest in O(delta) while receivers verify against the merged set."""
    incremental = SlotSetDigest()
    merged: set[int] = set()
    for batch in batches:
        incremental.update(batch)
        merged |= set(batch)
    assert incremental.value == slot_set_digest(merged)
    # Order independence: the reversed-order one-shot digest agrees too.
    assert incremental.value == slot_set_digest(sorted(merged, reverse=True))
    assert incremental.slots == frozenset(merged)


@given(slots=st.sets(st.integers(0, 300), max_size=24), pivot=st.integers(0, 300))
@settings(max_examples=150, deadline=None)
def test_disjoint_digests_combine_to_the_union_digest(slots, pivot):
    """combine_digests over a disjoint split == digest of the whole — the
    O(1) merge the parallel feedback tree performs per level."""
    left = {s for s in slots if s < pivot}
    right = slots - left
    assert combine_digests(
        slot_set_digest(left), slot_set_digest(right)
    ) == slot_set_digest(slots)
    assert combine_digests(slot_set_digest(slots)) == slot_set_digest(slots)
    assert combine_digests() == slot_set_digest(())


class _ExoticRandom(random.Random):
    """Subclass ⇒ both draw paths must take the choice-loop fallback."""


@given(
    n=st.integers(1, 1 << 20),
    count=st.integers(0, 200),
    seed=st.integers(0, 2**48),
)
@settings(max_examples=200, deadline=None)
def test_block_draws_equal_loop_draws_equal_choice_loop(n, count, seed):
    """Block == sequential == choice, values and post-draw state, for
    arbitrary (n, count) — the byte-identical consumption proof."""
    a, b, c = random.Random(seed), random.Random(seed), random.Random(seed)
    seq = range(n)
    choice_values = [c.choice(seq) for _ in range(count)]
    loop_values = draw_uniform_indices(a, n, count)
    block_values = BlockDrawer(n).draw(b, count)
    assert block_values == loop_values == choice_values
    assert a.getstate() == b.getstate() == c.getstate()


@given(
    n=st.integers(1, 5000),
    count=st.integers(0, 100),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_block_draws_fallback_matches_choice_for_exotic_streams(
    n, count, seed
):
    """Non-``random.Random`` streams take the choice fallback on every
    path; values and state still coincide."""
    a, b, c = _ExoticRandom(seed), _ExoticRandom(seed), _ExoticRandom(seed)
    seq = range(n)
    choice_values = [c.choice(seq) for _ in range(count)]
    assert BlockDrawer(n).draw(a, count) == choice_values
    assert draw_uniform_indices(b, n, count) == choice_values
    assert a.getstate() == b.getstate() == c.getstate()


@given(n=st.integers(-50, 0), count=st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_empty_range_raises_on_every_path(n, count):
    """n <= 0 is a ValueError before any stream state is touched, on the
    fast paths, the block paths, and the exotic fallbacks alike."""
    for stream in (random.Random(1), _ExoticRandom(1)):
        before = stream.getstate()
        with pytest.raises(ValueError):
            draw_uniform_indices(stream, n, count)
        with pytest.raises(ValueError):
            BlockDrawer(n).draw(stream, count)
        with pytest.raises(ValueError):
            BlockDrawer(n)
        assert stream.getstate() == before


@given(edges=edge_sets)
@settings(max_examples=60, deadline=None)
def test_schedule_is_a_pure_function(edges):
    graph = GameGraph.from_pairs(edges, vertices=range(N))
    move = greedy_proposal(graph, T)
    if isinstance(move, GreedyTermination):
        return
    s1 = build_schedule(CONFIG, move, graph.starred, {})
    s2 = build_schedule(CONFIG, move, graph.starred, {})
    assert s1 == s2
    assert s1.meta_schedule() == s2.meta_schedule()
