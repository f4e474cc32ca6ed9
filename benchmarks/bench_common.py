"""Shared helpers for the benchmark harness.

Every paper table/figure has one module here.
Benchmarks print the regenerated rows with :func:`report` — run with
``pytest benchmarks/ --benchmark-only -s`` to see them — and attach the
same numbers to ``benchmark.extra_info`` so they land in the JSON output.

This module (not ``conftest.py``) is the import target for benchmark
code: both ``tests/`` and ``benchmarks/`` carry a ``conftest.py``, and a
bare ``import conftest`` resolves to whichever directory pytest put on
``sys.path`` first — so the benchmark-specific factory (which disables
trace retention by default) lives under an unambiguous name.
"""

from __future__ import annotations

import random

from repro.radio.network import RadioNetwork


def make_network(
    n: int = 20,
    channels: int = 2,
    t: int = 1,
    adversary=None,
    **kwargs,
) -> RadioNetwork:
    """Network factory for benchmarks: trace retention off unless needed."""
    kwargs.setdefault("keep_trace", False)
    if adversary is not None and getattr(adversary, "needs_history", False):
        kwargs["keep_trace"] = True
    return RadioNetwork(n, channels, t, adversary=adversary, **kwargs)


def report(title: str, headers: list[str], rows: list[list]) -> None:
    """Print one paper-style table."""
    widths = [
        max(len(str(h)), *(len(str(row[i])) for row in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def disjoint_pairs(count: int, offset: int = 0) -> list[tuple[int, int]]:
    """`count` vertex-disjoint ordered pairs starting at node `offset`."""
    return [(offset + 2 * i, offset + 2 * i + 1) for i in range(count)]


def random_pairs(count: int, n: int, seed: int) -> list[tuple[int, int]]:
    """`count` distinct random ordered pairs over `n` nodes."""
    rng = random.Random(seed)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < count:
        v, w = rng.randrange(n), rng.randrange(n)
        if v != w:
            pairs.add((v, w))
    return sorted(pairs)
