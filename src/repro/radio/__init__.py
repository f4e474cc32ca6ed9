"""The synchronous multi-channel single-hop radio network substrate.

This subpackage implements the communication model of Section 3 of the paper
verbatim:

* ``n`` nodes, ``C > 1`` channels, synchronous rounds, all nodes start
  together;
* each round a node transmits **or** receives on a single channel (or
  sleeps);
* exactly one transmitter on a channel ⇒ every listener on that channel
  receives the transmission; zero or two-plus transmitters ⇒ listeners
  receive nothing;
* no collision detection — silence and collision are indistinguishable;
* a malicious adversary may transmit on up to ``t < C`` channels per round
  (jamming and/or spoofing) and observes everything with one round of delay.
"""

from .actions import SLEEP, Action, Listen, Sleep, Transmit
from .messages import DELTA_KIND, JAM, DeltaFrame, Jam, Message
from .network import (
    AdversaryView,
    HopBlock,
    RadioNetwork,
    RoundMeta,
    RoundSchedule,
    TransmitColumn,
)
from .shapes import ScheduleShapeCache
from .trace import ExecutionTrace, RoundRecord, SparseDelivered
from .metrics import NetworkMetrics, frame_size, payload_size
from .export import channel_occupancy, dump_trace, trace_to_records

__all__ = [
    "Action",
    "AdversaryView",
    "DELTA_KIND",
    "DeltaFrame",
    "ExecutionTrace",
    "HopBlock",
    "JAM",
    "Jam",
    "Listen",
    "Message",
    "NetworkMetrics",
    "RadioNetwork",
    "RoundMeta",
    "RoundRecord",
    "RoundSchedule",
    "SLEEP",
    "ScheduleShapeCache",
    "Sleep",
    "SparseDelivered",
    "Transmit",
    "TransmitColumn",
    "channel_occupancy",
    "dump_trace",
    "frame_size",
    "payload_size",
    "trace_to_records",
]
