"""Tests for repro.rng: deterministic named substreams."""

from __future__ import annotations

import pytest

import random

from repro.rng import (
    BlockDrawer,
    RngRegistry,
    derive_seed,
    derive_seeds,
    draw_uniform_indices,
    sample_distinct,
    shuffled,
)


class ExoticRandom(random.Random):
    """Not exactly random.Random: exercises the choice-loop fallback."""


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_sensitive_to_master_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_sensitive_to_name(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_64_bit_range(self):
        s = derive_seed(123, "x")
        assert 0 <= s < 2**64


class TestRegistry:
    def test_same_name_returns_same_stream_object(self):
        reg = RngRegistry(seed=1)
        assert reg.stream("node", 3) is reg.stream("node", 3)

    def test_streams_replayable_across_registries(self):
        a = RngRegistry(seed=9).stream("x")
        b = RngRegistry(seed=9).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_distinct_names_give_independent_sequences(self):
        reg = RngRegistry(seed=4)
        xs = [reg.stream("a").random() for _ in range(8)]
        ys = [RngRegistry(seed=4).stream("b").random() for _ in range(8)]
        assert xs != ys

    def test_name_parts_stringified_consistently(self):
        reg = RngRegistry(seed=7)
        # int 3 and str "3" collide by design (names are stringified);
        # callers must use structured names, which the library does.
        assert reg.stream("n", 3) is reg.stream("n", "3")

    def test_fresh_restarts_the_stream(self):
        reg = RngRegistry(seed=5)
        first = reg.fresh("s").random()
        again = reg.fresh("s").random()
        assert first == again

    def test_stream_advances_but_fresh_does_not_affect_it(self):
        reg = RngRegistry(seed=5)
        s = reg.stream("s")
        v1 = s.random()
        reg.fresh("s").random()
        v2 = s.random()
        assert v1 != v2  # stream advanced past its first draw

    def test_spawn_creates_disjoint_namespace(self):
        reg = RngRegistry(seed=6)
        child = reg.spawn("sub")
        assert child.seed != reg.seed
        assert child.stream("x").random() != reg.stream("x").random()

    def test_spawn_deterministic(self):
        a = RngRegistry(seed=6).spawn("sub").stream("x").random()
        b = RngRegistry(seed=6).spawn("sub").stream("x").random()
        assert a == b

    def test_seed_property(self):
        assert RngRegistry(seed=42).seed == 42

    def test_stream_block_matches_per_call_streams(self):
        a, b = RngRegistry(seed=13), RngRegistry(seed=13)
        nodes = [0, 3, 7, 1024, -2]
        bulk = a.stream_block("ns", "listen", nodes=nodes)
        per_call = [b.stream("ns", "listen", v) for v in nodes]
        assert [s.random() for s in bulk] == [s.random() for s in per_call]

    def test_stream_block_returns_cached_stream_objects(self):
        reg = RngRegistry(seed=13)
        existing = reg.stream("ns", "listen", 3)
        bulk = reg.stream_block("ns", "listen", nodes=[2, 3, 4])
        assert bulk[1] is existing
        # And the bulk-built ones are now the registry's cached objects.
        assert reg.stream("ns", "listen", 2) is bulk[0]
        assert reg.stream("ns", "listen", 4) is bulk[2]

    def test_stream_block_fallback_paths_match(self):
        # Empty prefix and non-int nodes take the per-call fallback; both
        # must still agree with stream() exactly.
        a, b = RngRegistry(seed=5), RngRegistry(seed=5)
        bulk = a.stream_block(nodes=[1, 2])
        per_call = [b.stream(v) for v in (1, 2)]
        assert [s.random() for s in bulk] == [s.random() for s in per_call]
        c, d = RngRegistry(seed=5), RngRegistry(seed=5)
        bulk = c.stream_block("ns", nodes=["x", 1])
        per_call = [d.stream("ns", v) for v in ("x", 1)]
        assert [s.random() for s in bulk] == [s.random() for s in per_call]


class TestDrawUniformIndices:
    def test_matches_choice_stream(self):
        a, b = random.Random(11), random.Random(11)
        seq = range(7)
        assert draw_uniform_indices(a, 7, 20) == [b.choice(seq) for _ in range(20)]

    def test_empty_range_raises_fast_path(self):
        # Regression: n <= 0 used to spin forever in the getrandbits
        # rejection loop (getrandbits(0) == 0 is never < n).
        with pytest.raises(ValueError):
            draw_uniform_indices(random.Random(1), 0, 1)
        with pytest.raises(ValueError):
            draw_uniform_indices(random.Random(1), -3, 1)

    def test_empty_range_raises_fallback_path(self):
        class ExoticRandom(random.Random):
            pass

        with pytest.raises(ValueError):
            draw_uniform_indices(ExoticRandom(1), 0, 1)

    def test_zero_count_still_validates_range(self):
        with pytest.raises(ValueError):
            draw_uniform_indices(random.Random(1), 0, 0)
        assert draw_uniform_indices(random.Random(1), 4, 0) == []


class TestDeriveSeeds:
    def test_matches_per_call_spawn_path(self):
        for master in (0, 1, 7, 2**63 + 5):
            for prefix in ((), ("trial",), ("sweep", 3), ("a", "b", 0)):
                bulk = derive_seeds(master, *prefix, count=6)
                per_call = [
                    RngRegistry(seed=master).spawn(*prefix, i).seed
                    for i in range(6)
                ]
                assert bulk == per_call

    def test_zero_count(self):
        assert derive_seeds(1, "trial", count=0) == []

    def test_64_bit_range(self):
        assert all(0 <= s < 2**64 for s in derive_seeds(9, "t", count=32))

    def test_registry_method_matches_module_function(self):
        reg = RngRegistry(seed=11)
        assert reg.spawn_seeds("trial", count=4) == derive_seeds(
            11, "trial", count=4
        )

    def test_distinct_prefixes_give_distinct_seed_sequences(self):
        assert derive_seeds(5, "trial", count=8) != derive_seeds(
            5, "sweep", count=8
        )


class TestBlockDrawer:
    """Block draws must be byte-identical to the sequential chain: same
    values AND same post-draw generator state (the module's invariant)."""

    def test_matches_loop_values_and_state(self):
        for n in (1, 2, 3, 4, 7, 16, 100):
            for count in (0, 1, 5, 64):
                a, b = random.Random(n * 1000 + count), random.Random(
                    n * 1000 + count
                )
                assert BlockDrawer(n).draw(a, count) == (
                    draw_uniform_indices(b, n, count)
                )
                assert a.getstate() == b.getstate()

    def test_matches_choice_stream_and_state(self):
        a, b = random.Random(11), random.Random(11)
        seq = range(7)
        assert BlockDrawer(7).draw(a, 50) == [
            b.choice(seq) for _ in range(50)
        ]
        assert a.getstate() == b.getstate()

    def test_matches_randrange_stream_and_state(self):
        # Single-argument randrange bottoms out in the same rejection
        # chain — the contract the group-key Part 3 batching relies on.
        a, b = random.Random(23), random.Random(23)
        assert BlockDrawer(5).draw(a, 40) == [
            b.randrange(5) for _ in range(40)
        ]
        assert a.getstate() == b.getstate()

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            BlockDrawer(0)
        with pytest.raises(ValueError):
            BlockDrawer(-3)
        with pytest.raises(ValueError):
            BlockDrawer(0).draw(random.Random(1), 1)

    def test_zero_count_still_validates_range(self):
        with pytest.raises(ValueError):
            BlockDrawer(0).draw(random.Random(1), 0)
        assert BlockDrawer(4).draw(random.Random(1), 0) == []

    def test_exotic_stream_fallback_matches_choice(self):
        a, b = ExoticRandom(5), ExoticRandom(5)
        seq = range(9)
        assert BlockDrawer(9).draw(a, 30) == [
            b.choice(seq) for _ in range(30)
        ]
        assert a.getstate() == b.getstate()

    def test_exotic_stream_empty_range_raises(self):
        with pytest.raises(ValueError):
            BlockDrawer(0).draw(ExoticRandom(1), 1)

    def test_matrix_draws_per_stream_in_order(self):
        drawer = BlockDrawer(6)
        streams = [random.Random(s) for s in (1, 2, 3)]
        reference = [random.Random(s) for s in (1, 2, 3)]
        matrix = drawer.matrix(streams, 12)
        assert matrix == [
            draw_uniform_indices(r, 6, 12) for r in reference
        ]
        assert [s.getstate() for s in streams] == [
            r.getstate() for r in reference
        ]


class TestHelpers:
    def test_sample_distinct_size_and_membership(self):
        reg = RngRegistry(seed=2)
        out = sample_distinct(reg.stream("s"), range(10), 4)
        assert len(out) == 4
        assert len(set(out)) == 4
        assert all(0 <= x < 10 for x in out)

    def test_sample_distinct_overdraw_raises(self):
        reg = RngRegistry(seed=2)
        with pytest.raises(ValueError):
            sample_distinct(reg.stream("s"), range(3), 4)

    def test_sample_distinct_does_not_copy_or_mutate_sequences(self):
        # Regression for the redundant list(population) wrapper: sequence
        # populations go to random.sample directly (sample never mutates),
        # and draw consumption is unchanged versus the copying path.
        population = list(range(10))
        a, b = random.Random(4), random.Random(4)
        out = sample_distinct(a, population, 4)
        assert population == list(range(10))
        assert out == b.sample(list(range(10)), 4)
        assert a.getstate() == b.getstate()

    def test_sample_distinct_sequence_kinds_consume_identically(self):
        # range / tuple / list populations of equal length draw the same.
        draws = []
        for population in (range(10), tuple(range(10)), list(range(10))):
            stream = random.Random(77)
            draws.append(
                (sample_distinct(stream, population, 3), stream.getstate())
            )
        assert draws[0] == draws[1] == draws[2]

    def test_sample_distinct_materializes_non_sequences(self):
        out = sample_distinct(random.Random(1), (x for x in range(8)), 3)
        assert len(out) == 3 and all(0 <= x < 8 for x in out)

    def test_shuffled_does_not_mutate_input(self):
        reg = RngRegistry(seed=3)
        original = [1, 2, 3, 4, 5]
        out = shuffled(reg.stream("s"), original)
        assert original == [1, 2, 3, 4, 5]
        assert sorted(out) == original

    def test_shuffled_draw_consumption_unchanged(self):
        # One shuffle of a len-n list regardless of the input's type.
        a, b, c = random.Random(6), random.Random(6), random.Random(6)
        reference = [1, 2, 3, 4]
        expected = list(reference)
        c.shuffle(expected)
        assert shuffled(a, reference) == expected
        assert shuffled(b, iter(reference)) == expected
        assert a.getstate() == b.getstate() == c.getstate()
