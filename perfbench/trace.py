"""Outside-in span tracing of the ``repro`` layers.

Nothing here edits a protocol module's source.  :func:`install` replaces
public functions and methods with wrappers that open a span on entry and
close it on exit; :meth:`Installation.uninstall` puts the originals back.  Class
methods are patched on the class.  A function imported by name is patched
at every import site the workloads reach, because the importing module
holds its own reference.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  The :class:`Ledger` keeps spans folded into per-boundary
aggregates as they close (calls, self time, total time, and call counts per
parent boundary), so a run of 100k spans costs a few dictionaries, not a
list of 100k records.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable

ROOT = ""
"""Parent name recorded for spans opened outside any other span."""


class Ledger:
    """Per-boundary span aggregates with exact self-time arithmetic."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[list] = []  # [name, start, child_time]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.root_s = 0.0  # duration covered by spans with no parent

    def begin(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def end(self) -> None:
        name, start, child = self._stack.pop()
        duration = self._clock() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            edge = (parent[0], name)
        else:
            self.root_s += duration
            edge = (ROOT, name)
        self.edges[edge] = self.edges.get(edge, 0) + 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call is one span named ``name``."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    @property
    def spans(self) -> int:
        return sum(self.calls.values())

    def as_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "edges": [[p, c, k] for (p, c), k in sorted(self.edges.items())],
            "root_s": self.root_s,
        }

    def absorb(self, data: dict) -> None:
        """Add another ledger's :meth:`as_dict` (e.g. from the daemon)."""
        for key in ("calls", "self_s", "total_s"):
            mine = getattr(self, key)
            for name, value in data[key].items():
                mine[name] = mine.get(name, 0) + value
        for parent, child, count in data["edges"]:
            self.edges[(parent, child)] = self.edges.get((parent, child), 0) + count
        self.root_s += data["root_s"]


# (module, attribute path, span name).  A dotted attribute path is a method
# patched on its class; a bare name is a module-level function patched in
# that module's namespace (an import site).
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("repro.radio.network", "RadioNetwork.execute_schedule", "radio"),
    ("repro.radio.network", "RadioNetwork.execute_round", "radio"),
    ("repro.rng", "BlockDrawer.draw", "rng"),
    ("repro.fame.protocol", "run_feedback", "feedback.serial"),
    ("repro.fame.protocol", "run_parallel_feedback", "feedback.parallel"),
    ("repro.game.greedy", "GreedyPools.proposal", "game"),
    ("repro.fame.protocol", "FameProtocol.run", "fame"),
    ("repro.crypto.stream", "AuthenticatedCipher.encrypt", "crypto.aead"),
    ("repro.crypto.stream", "AuthenticatedCipher.decrypt", "crypto.aead"),
    ("repro.crypto.dh", "DhGroup.keypair", "crypto.dh"),
    ("repro.crypto.dh", "DhKeyPair.shared_key", "crypto.dh"),
    ("repro.crypto.hashes", "derive_key", "crypto.kdf"),
    ("repro.crypto.stream", "derive_key", "crypto.kdf"),
    ("repro.crypto.hopping", "derive_key", "crypto.kdf"),
    ("repro.crypto.dh", "derive_key", "crypto.kdf"),
    ("repro.service.session", "derive_key", "crypto.kdf"),
    ("repro.groupkey.protocol", "GroupKeyProtocol._part1_pairwise_keys", "groupkey.part1"),
    ("repro.groupkey.protocol", "GroupKeyProtocol._part2_disseminate", "groupkey.part2"),
    ("repro.groupkey.protocol", "GroupKeyProtocol._part3_agree", "groupkey.part3"),
    ("repro.service.session", "SecureSession.__init__", "service.setup"),
    ("repro.service.session", "SecureSession.from_preshared", "service.setup"),
    ("repro.service.session", "SecureSession.flush", "service.flush"),
    ("repro.service.session", "SecureSession.rekey", "service.rekey"),
    ("repro.serve.host", "SessionHost.handle", "serve.handle"),
)

TRIAL_BOUNDARY = ("repro.dispatch.backend", "run_trial", "experiments.trial")
"""Patched only around serial replays: a parallel backend pickles
``run_trial`` by name, which a wrapper would break."""


def _adversary_boundaries() -> list[tuple[str, str, str]]:
    """``act`` of every concrete adversary class that defines its own."""
    from repro import adversary
    from repro.adversary.base import Adversary

    found = []
    for name in sorted(dir(adversary)):
        obj = getattr(adversary, name)
        if (
            isinstance(obj, type)
            and issubclass(obj, Adversary)
            and "act" in obj.__dict__
            and not getattr(obj.__dict__["act"], "__isabstractmethod__", False)
        ):
            found.append((obj.__module__, f"{obj.__name__}.act", "adversary"))
    return found


class Installation:
    """The patches one :func:`install` made.

    :meth:`uninstall` puts the originals back and :meth:`apply` re-applies
    the wrappers, so a caller can trace some calls and not others.
    """

    def __init__(self, patches: list[tuple[object, str, object, object]]) -> None:
        self._patches = patches  # (owner, attr, original, wrapper)

    def apply(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)


def _resolve(module_name: str, path: str) -> tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(ledger: Ledger, *, trial_spans: bool = False) -> Installation:
    """Wrap every boundary so its calls become spans in ``ledger``."""
    boundaries = list(BOUNDARIES) + _adversary_boundaries()
    if trial_spans:
        boundaries.append(TRIAL_BOUNDARY)
    patches = []
    for module_name, path, span in boundaries:
        owner, attr = _resolve(module_name, path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: object = classmethod(ledger.wrap(span, raw.__func__))
        else:
            wrapped = ledger.wrap(span, raw)
        patches.append((owner, attr, raw, wrapped))
    installation = Installation(patches)
    installation.apply()
    return installation


def span_names() -> list[str]:
    """Every span name :func:`install` can record (with trial spans)."""
    names = {span for _, _, span in BOUNDARIES}
    names.add("adversary")
    names.add(TRIAL_BOUNDARY[2])
    return sorted(names)
