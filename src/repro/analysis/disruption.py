"""Disruption graphs and the ``d``-disruptability check of Definition 1.

After an AME execution, the *disruption graph* ``G_d = (Π, E')`` collects the
pairs that output ``fail``.  A protocol run satisfied ``d``-disruptability
iff the minimum vertex cover of ``G_d`` has at most ``d`` vertices — i.e.
some ``d`` nodes account for every failure.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from .vertex_cover import has_cover_at_most, min_vertex_cover


def disruption_graph(
    outcomes: Mapping[tuple[int, int], bool]
) -> list[tuple[int, int]]:
    """Extract failed pairs from an outcome map.

    Parameters
    ----------
    outcomes:
        Map from ordered pair ``(v, w)`` to ``True`` (message delivered and
        authenticated) or ``False`` (the pair output ``fail``).
    """
    return [pair for pair, ok in outcomes.items() if not ok]


def disruptability(failed_pairs: Iterable[tuple[int, int]]) -> int:
    """The protocol run's disruptability: min vertex cover of the failures."""
    return len(min_vertex_cover(failed_pairs))


def is_d_disruptable(
    failed_pairs: Iterable[tuple[int, int]], d: int
) -> bool:
    """Check Definition 1's property 3 for a given ``d``."""
    return has_cover_at_most(failed_pairs, d)


def disruptability_histogram(covers: Iterable[int]) -> dict[int, int]:
    """Histogram of per-run disruptability values across many executions.

    Parameters
    ----------
    covers:
        One cover size per execution (each run's :func:`disruptability` of
        its failed pairs).  Takes precomputed values rather than the raw
        failed-pair sets because callers — e.g. a sweep's per-point fold —
        typically need the per-run covers anyway (min vertex cover is
        exact and worst-case exponential, so it should run once per run,
        ideally inside the worker that produced the run).

    Returns the map ``cover size -> number of runs``; an empty input yields
    an empty histogram.
    """
    return dict(Counter(covers))
