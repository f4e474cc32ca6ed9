"""Lightweight counters aggregated while the simulation runs.

Unlike :mod:`repro.radio.trace`, which stores everything, the metrics object
keeps O(1) state and is always cheap enough to leave enabled — benchmark runs
that disable trace retention still get round/energy accounting from here.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Any

_SCALAR_TYPES = frozenset((bool, int, float, str, bytes))


def payload_size(payload: Any) -> int:
    """Abstract wire size of a frame payload, in scalar units.

    The accounting is deliberately simple — every scalar (int, str, bool,
    bytes digest, ...) costs one unit, containers cost the sum of their
    contents, ``None`` is free — so that *relative* sizes between frame
    encodings are meaningful without modelling a real serializer.  A
    payload that knows its own wire representation (e.g.
    :class:`~repro.radio.messages.DeltaFrame`) exposes a ``wire_size()``
    method, which takes precedence over the container fallbacks; this is
    how the digest/delta feedback frames report their compressed size.
    """
    if payload is None:
        return 0
    # Exact-type dispatch first: scalar and tuple payloads dominate the
    # per-round hot path, and the wire_size probe (a getattr) is only
    # worth paying for the exotic rest.
    kind = type(payload)
    if kind in _SCALAR_TYPES:
        return 1
    if kind is tuple or kind is list:
        return sum(payload_size(part) for part in payload)
    wire = getattr(payload, "wire_size", None)
    if callable(wire):
        return wire()
    if isinstance(payload, (tuple, list, set, frozenset)):
        return sum(payload_size(part) for part in payload)
    if isinstance(payload, dict):
        return sum(
            payload_size(key) + payload_size(value)
            for key, value in payload.items()
        )
    return 1


def frame_size(message: Any) -> int:
    """Wire size of a decodable frame: one unit of kind + its payload."""
    return 1 + payload_size(message.payload)


@dataclass
class NetworkMetrics:
    """Aggregate counters for one :class:`repro.radio.RadioNetwork` run.

    Attributes
    ----------
    rounds:
        Total synchronous rounds executed.
    honest_transmissions:
        Total (node, round) transmit actions — a proxy for energy spent.
    listens:
        Total (node, round) listen actions.
    deliveries:
        Channel-rounds on which a message was successfully decoded.
    collisions:
        Channel-rounds with two or more transmitters (honest or adversarial).
    adversary_transmissions:
        Total adversary (channel, round) transmissions.
    spoofs_delivered:
        Deliveries whose sole transmitter was the adversary — i.e. successful
        spoofs at the *radio* level (a protocol may still reject the frame).
    payload_units:
        Total wire size of all honest transmissions (see
        :func:`payload_size`); adversary frames are excluded — their cost
        model is the per-round channel budget, not bandwidth.  This is the
        counter the digest/delta feedback frames shrink.
    rounds_by_phase:
        Round counts keyed by the ``phase`` annotation of round metadata.
    """

    rounds: int = 0
    honest_transmissions: int = 0
    listens: int = 0
    deliveries: int = 0
    collisions: int = 0
    adversary_transmissions: int = 0
    spoofs_delivered: int = 0
    payload_units: int = 0
    rounds_by_phase: dict[str, int] = field(default_factory=dict)

    def note_phase(self, phase: str, rounds: int = 1) -> None:
        """Attribute the current round (or ``rounds`` rounds) to ``phase``."""
        self.rounds_by_phase[phase] = self.rounds_by_phase.get(phase, 0) + rounds

    def merge(self, other: "NetworkMetrics") -> "NetworkMetrics":
        """Return a new metrics object summing ``self`` and ``other``.

        The merge is *total* by construction: the result's class is the
        more derived of the two operand types (which must be related by
        subclassing; unrelated types raise :class:`TypeError`), and every
        dataclass field of that class participates — a counter added
        later, including by a subclass, merges automatically instead of
        being silently dropped.  The property is what lets the Monte Carlo
        harness fold per-trial metrics with a plain
        ``NetworkMetrics().merge(...)`` seed, and
        ``tests/test_radio_trace.py`` pins it by field enumeration.  A
        field absent on one operand (base-class instance merged with a
        subclass's) contributes its declared default.  Scalar counters
        add; dict-valued counters (``rounds_by_phase``) merge key-wise by
        addition.
        """
        if isinstance(other, type(self)):
            merged = type(other)()
        elif isinstance(self, type(other)):
            merged = type(self)()
        else:
            raise TypeError(
                f"cannot merge {type(self).__name__} with unrelated "
                f"{type(other).__name__}"
            )
        for f in fields(merged):
            default = (
                f.default_factory()
                if f.default_factory is not MISSING
                else f.default
            )
            mine = getattr(self, f.name, default)
            theirs = getattr(other, f.name, default)
            if isinstance(mine, dict):
                combined = dict(mine)
                for key, count in theirs.items():
                    combined[key] = combined.get(key, 0) + count
                setattr(merged, f.name, combined)
            else:
                setattr(merged, f.name, mine + theirs)
        return merged
