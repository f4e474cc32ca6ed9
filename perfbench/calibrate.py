"""A fixed pure-Python loop that gauges the host's speed between operations.

On a shared host the same single-threaded code runs up to 1.6x slower for
minutes at a time.  The closed-loop workloads (``groupkey``, ``fame``) time
this loop in their own process right before each operation and report host
times scaled to the speed at which the loop takes ``NOMINAL_S``; the raw
times stay in the environment block.  The loop uses no code from ``src/``,
so no change to the program can move it.  The ``serve`` and ``sweep``
workloads do their work in other processes, where this process's speed says
little, and report raw times.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.018
"""Reference-loop time that defines nominal host speed."""


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt: "_Node | None") -> None:
        self.key = key
        self.value = value
        self.next = nxt


def reference_loop() -> int:
    """Interpreter-bound work of the simulator's kind: calls, attribute
    reads, small dicts, lists and tuples, integer arithmetic."""
    table: dict[int, list[tuple[int, int]]] = {}
    head = None
    state = 12345
    for i in range(12000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        channel = state % 7
        table.setdefault(channel, []).append((i, state))
        head = _Node(channel, state, head)
    total = 0
    node = head
    while node is not None:
        total += node.value ^ node.key
        node = node.next
    for channel, frames in sorted(table.items()):
        total += sum(v for _, v in frames[:: channel + 1]) & 0xFFFF
    return total


def reference_seconds(repeats: int = 3) -> float:
    """Median time of ``repeats`` reference loops."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
