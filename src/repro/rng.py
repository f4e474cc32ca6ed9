"""Deterministic, named random-number substreams.

Every source of randomness in the library flows through a :class:`RngRegistry`
so that an entire experiment is replayable bit-for-bit from a single integer
seed.  Each consumer asks the registry for a *named* substream; the substream
seed is derived by hashing the master seed together with the name, which makes
streams independent of the order in which they are requested.

The paper's model (Section 3) distinguishes the honest nodes' coins from the
adversary's coins, and assumes the adversary learns honest coins only at the
end of each round.  Keeping the streams separate in code makes it impossible
for an adversary implementation to accidentally consume (and thereby observe)
honest randomness.

The interpreter-mirroring invariant (block draws)
-------------------------------------------------
The protocols here are *oblivious*: every hop sequence is private coin flips
drawn independently of anything observed mid-phase, so whole hop matrices can
be materialized in bulk.  This module is the single home of the contract that
makes the bulk paths exchangeable with the naive ones:

    For a plain :class:`random.Random`, one uniform draw from ``range(n)``
    is ``getrandbits(n.bit_length())`` rejection-sampled until the value is
    ``< n`` — CPython's ``_randbelow_with_getrandbits``, the primitive under
    both ``choice`` and single-argument ``randrange``.

:func:`draw_uniform_indices` (one rejection chain per draw),
:meth:`BlockDrawer.draw` (one bulk ``getrandbits(32 * shortfall)`` pull
per pass — the same Mersenne-Twister words as that many single draws,
since every ``getrandbits(k)`` with ``k <= 32`` consumes exactly one 32-bit
word — with values extracted and rejections dropped at C level) and a ``choice``/``randrange(n)`` loop
therefore consume **byte-identical** generator state and produce identical
values: the block sampler pulls exactly ``remaining`` words per pass, and a
pass can only reach ``remaining`` acceptances on its final word, so it can
never overshoot the sequential chain.  The feedback equivalence gauntlets
and the hypothesis properties in
``tests/test_schedule_properties.py`` pin values *and* post-draw state
against the real ``choice``-driven path.  Exotic stream types (anything that
is not exactly ``random.Random``) fall back to calling ``choice`` itself on
every path.

Example
-------
>>> reg = RngRegistry(seed=7)
>>> a = reg.stream("node", 3)
>>> b = reg.stream("adversary")
>>> a.randrange(10) == RngRegistry(seed=7).stream("node", 3).randrange(10)
True
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable, Sequence
from typing import TypeVar

T = TypeVar("T")

_MASK_64 = (1 << 64) - 1


def derive_seed(master_seed: int, *name_parts: object) -> int:
    """Derive a 64-bit substream seed from ``master_seed`` and a name.

    The derivation hashes the canonical string representation of the parts
    with SHA-256, so any hashable/printable identifiers (strings, ints,
    tuples) may be used as name components.
    """
    material = repr((master_seed,) + tuple(str(p) for p in name_parts))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _MASK_64


def derive_seeds(
    master_seed: int, *prefix_parts: object, count: int
) -> list[int]:
    """Bulk trial-seed derivation: the seeds of
    ``RngRegistry(master_seed).spawn(*prefix_parts, i)`` for ``i`` in
    ``range(count)``, without constructing any intermediate registries.

    One SHA-256 per index over a precomputed prefix (the spawn tuple's
    ``repr`` is reopened per index), so sweep/Monte Carlo planners can
    derive thousands of trial seeds in a single hashlib loop.  Proven
    identical to the per-call ``spawn(...).seed`` path by
    ``tests/test_rng.py``.
    """
    base = (master_seed, "spawn") + tuple(str(p) for p in prefix_parts)
    prefix = repr(base)[:-1]  # "(seed, 'spawn', ...": reopened per index
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    out: list[int] = []
    append = out.append
    for i in range(count):
        digest = sha256(f"{prefix}, '{i}')".encode("utf-8")).digest()
        append(from_bytes(digest[:8], "big") & _MASK_64)
    return out


class RngRegistry:
    """Factory for independent, reproducible :class:`random.Random` streams.

    Parameters
    ----------
    seed:
        Master seed.  Two registries with the same seed produce identical
        substreams for identical names.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[tuple[str, ...], random.Random] = {}

    @property
    def seed(self) -> int:
        """The master seed this registry was created with."""
        return self._seed

    def stream(self, *name_parts: object) -> random.Random:
        """Return the substream for ``name_parts``, creating it on demand.

        Repeated calls with the same name return the *same* stream object,
        so state advances across calls; use distinct names for independent
        streams.
        """
        key = tuple(str(p) for p in name_parts)
        stream = self._streams.get(key)
        if stream is None:
            stream = random.Random(derive_seed(self._seed, *key))
            self._streams[key] = stream
        return stream

    def fresh(self, *name_parts: object) -> random.Random:
        """Return a brand-new stream seeded for ``name_parts``.

        Unlike :meth:`stream`, the result is not cached: every call restarts
        from the derived seed.  Useful for replaying one component.
        """
        return random.Random(derive_seed(self._seed, *name_parts))

    def spawn(self, *name_parts: object) -> "RngRegistry":
        """Return a child registry whose master seed is derived from a name.

        Child registries let a sub-protocol (e.g. one f-AME invocation inside
        the group-key protocol) own a private namespace of streams.
        """
        return RngRegistry(derive_seed(self._seed, "spawn", *name_parts))

    def spawn_seeds(self, *prefix_parts: object, count: int) -> list[int]:
        """Bulk form of ``[self.spawn(*prefix_parts, i).seed for i in
        range(count)]`` — see :func:`derive_seeds`."""
        return derive_seeds(self._seed, *prefix_parts, count=count)

    def stream_block(
        self, *prefix_parts: object, nodes: Iterable[object]
    ) -> list[random.Random]:
        """Bulk form of ``[self.stream(*prefix_parts, v) for v in nodes]``.

        Identical streams (same objects for already-cached names, same
        seeds and registry-cache entries for new ones), built with one
        precomputed name-``repr`` prefix and one SHA-256 per missing node
        instead of a key construction + hash + lookup per call — the hot
        path under the compiled feedback pipelines, which need a whole
        per-listener stream table per invocation.  The fast derivation
        applies when the prefix is non-empty and every node is a plain
        ``int`` (``repr`` of a stringified int is always
        ``'<digits>'``-quoted, so the spliced material equals the full
        tuple ``repr`` :func:`derive_seed` hashes); anything else falls
        back to per-call :meth:`stream`.
        """
        items = list(nodes)
        if not prefix_parts or not all(type(v) is int for v in items):
            return [self.stream(*prefix_parts, v) for v in items]
        prefix = tuple(str(p) for p in prefix_parts)
        opening = repr((self._seed,) + prefix)[:-1]
        streams = self._streams
        get = streams.get
        sha256 = hashlib.sha256
        from_bytes = int.from_bytes
        Random = random.Random
        out: list[random.Random] = []
        append = out.append
        for v in items:
            key = prefix + (str(v),)
            stream = get(key)
            if stream is None:
                digest = sha256(f"{opening}, '{v}')".encode("utf-8")).digest()
                stream = Random(from_bytes(digest[:8], "big") & _MASK_64)
                streams[key] = stream
            append(stream)
        return out


def draw_uniform_indices(
    stream: random.Random, n: int, count: int
) -> list[int]:
    """``count`` uniform draws from ``range(n)``, stream-compatible with
    ``choice``.

    Consumes **exactly** the same generator state as ``count`` calls of
    ``stream.choice(seq)`` on a length-``n`` sequence: for a plain
    :class:`random.Random` the ``choice`` internals are inlined — one
    rejection chain per draw, per the interpreter-mirroring invariant in
    the module docstring — saving two Python frames per draw on hot paths
    that precompute whole hop sequences.  :class:`BlockDrawer` batches the
    same chain with amortized block pulls; the two are byte-identical.
    Exotic stream types fall back to calling ``choice`` itself.

    Raises :class:`ValueError` when ``n <= 0``: an empty range is a caller
    bug in this API, reported like ``sample``'s over-draw ``ValueError``
    (deliberately *not* ``choice``'s ``IndexError`` — ``n`` is a count
    here, not a sequence lookup).  The guard sits before either path:
    without it the fast path's rejection loop — ``getrandbits(0)`` is
    always ``0``, which is never ``< n`` — would spin forever, and the
    fallback would surface ``choice``'s ``IndexError`` instead.
    """
    if n <= 0:
        raise ValueError(f"cannot draw indices from an empty range (n={n})")
    if type(stream) is random.Random:
        k = n.bit_length()
        grb = stream.getrandbits
        out: list[int] = []
        append = out.append
        for _ in range(count):
            r = grb(k)
            while r >= n:
                r = grb(k)
            append(r)
        return out
    seq = range(n)
    return [stream.choice(seq) for _ in range(count)]


# Bulk passes only pay off while the shortfall amortizes their fixed cost
# (one getrandbits + to_bytes + slice + translate); below this the inline
# rejection chain is faster.  Tuned empirically; correctness is unaffected
# (both paths consume identical generator state).
_BULK_THRESHOLD = 24

# (value-extraction table, rejected-byte set) per range size, built once:
# channel counts recur constantly and the 256-entry tables cost more to
# build than a whole block draw.
_TABLE_CACHE: dict[int, tuple[bytes, bytes]] = {}
_TABLE_CACHE_CAP = 4096


def _byte_tables(n: int, k: int) -> tuple[bytes, bytes]:
    cached = _TABLE_CACHE.get(n)
    if cached is None:
        shift = 8 - k
        if len(_TABLE_CACHE) >= _TABLE_CACHE_CAP:
            _TABLE_CACHE.clear()
        cached = (
            bytes(b >> shift for b in range(256)),
            bytes(range(n << shift, 256)),
        )
        _TABLE_CACHE[n] = cached
    return cached


class BlockDrawer:
    """Batched uniform index draws from ``range(n)``, ``choice``-compatible.

    Materializes whole hop sequences (and, via :meth:`matrix`, whole hop
    matrices) without an interpreter round-trip per draw.  Each
    ``getrandbits(k)`` with ``0 < k <= 32`` consumes exactly one 32-bit
    Mersenne-Twister word and returns its top ``k`` bits, so one bulk
    ``getrandbits(32 * m)`` call consumes the *same* ``m`` words as ``m``
    single draws — word ``i`` sits at little-endian byte offset ``4 * i``
    of the bulk value.  For ``n < 256`` (every radio channel count) the
    draw value is therefore the high byte of its word shifted down by
    ``8 - k``, and a whole pass reduces to C-level primitives:
    ``to_bytes``, a ``[3::4]`` high-byte slice, and one
    :meth:`bytes.translate` whose delete-set drops rejected words while
    its table maps survivors to their values.  A pass pulls exactly the
    outstanding shortfall and can only complete on its final word, so the
    sampler never pulls a word the sequential rejection chain would not
    have pulled; small shortfalls (and ``n >= 256``) finish on the inline
    chain instead of paying bulk setup.  Values and post-draw generator
    state are byte-identical to :func:`draw_uniform_indices` and to a
    ``choice`` loop on every path (the module docstring's invariant;
    pinned by the hypothesis properties and the feedback gauntlets).

    Raises :class:`ValueError` on construction when ``n <= 0``, mirroring
    :func:`draw_uniform_indices` (even for zero-count draws).  Exotic
    stream types fall back to a ``choice`` loop per stream.
    """

    __slots__ = ("n", "_k", "_table", "_reject")

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(
                f"cannot draw indices from an empty range (n={n})"
            )
        self.n = int(n)
        self._k = self.n.bit_length()
        if self._k <= 8:
            self._table, self._reject = _byte_tables(self.n, self._k)
        else:
            self._table = self._reject = None

    def draw(self, stream: random.Random, count: int) -> list[int]:
        """``count`` uniform draws from ``range(self.n)`` off ``stream``."""
        if type(stream) is not random.Random:
            seq = range(self.n)
            return [stream.choice(seq) for _ in range(count)]
        n = self.n
        k = self._k
        grb = stream.getrandbits
        out: list[int] = []
        short = count
        table = self._table
        if table is not None:
            reject = self._reject
            while short >= _BULK_THRESHOLD:
                raw = grb(32 * short).to_bytes(4 * short, "little")
                out += raw[3::4].translate(table, reject)
                short = count - len(out)
        if short:
            append = out.append
            for _ in range(short):
                r = grb(k)
                while r >= n:
                    r = grb(k)
                append(r)
        return out

    def matrix(
        self, streams: Iterable[random.Random], count: int
    ) -> list[list[int]]:
        """One length-``count`` hop sequence per stream, in stream order."""
        draw = self.draw
        return [draw(stream, count) for stream in streams]


def sample_distinct(rng: random.Random, population: Sequence[T], k: int) -> list[T]:
    """Sample ``k`` distinct elements; a deterministic thin wrapper.

    Sequence populations (lists, tuples, ``range``) are passed to
    :func:`random.sample` directly — ``sample`` never mutates its input, so
    the historical ``list(population)`` wrapper copied a population that
    was frequently already a fresh list (and ``sample`` re-copies into its
    selection pool for large ``k`` anyway).  Only non-sequence iterables
    are materialized.  Draw consumption is unchanged: ``sample``'s
    algorithm depends only on ``len(population)`` and ``k``.

    Raises :class:`ValueError` when ``k`` exceeds the population size, same
    as :func:`random.sample`.
    """
    if not isinstance(population, Sequence):
        population = list(population)
    return rng.sample(population, k)


def shuffled(rng: random.Random, items: Iterable[T]) -> list[T]:
    """Return a new shuffled list of ``items`` without mutating the input.

    The single ``list(items)`` is the materialization (for iterators) or
    the one no-mutation copy (for sequences) — there is no second pass;
    draw consumption is exactly one :meth:`random.Random.shuffle` of a
    length-``len(items)`` list.
    """
    out = list(items)
    rng.shuffle(out)
    return out
