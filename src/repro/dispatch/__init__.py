"""Cluster-scale trial dispatch: pluggable backends, journal, sweeps.

ROADMAP's remote fan-out item observed that :class:`~repro.experiments.
trial.TrialSpec` is a plain picklable unit of work whose seed depends
only on its index — so the serial loop, the ``multiprocessing`` pool,
and a task queue spanning machines are the *same* computation dispatched
differently.  This package makes that literal:

* :mod:`~repro.dispatch.backend` — the :class:`~repro.dispatch.backend.
  DispatchBackend` contract (at-most-once result application keyed by
  trial index, streaming ``on_result``, interruptible) plus
  :class:`~repro.dispatch.backend.SerialBackend` and
  :class:`~repro.dispatch.backend.MultiprocessBackend`;
  :class:`~repro.dispatch.backend.ResultAssembler` is the shared
  order/duplicate-oblivious merge.
* :mod:`~repro.dispatch.socket_pool` — :class:`~repro.dispatch.
  socket_pool.SocketBackend`: a stdlib ``socket``/``selectors``/pickle
  coordinator serving ``python -m repro worker`` processes (local or on
  other machines), with length-prefixed framing, a versioned handshake,
  per-run spec-context tables (shared ``TrialSpec`` fields pickled once
  per worker, not once per trial), batched spec frames sized adaptively
  from observed per-trial cost (``--batch-size`` pins them), a pipelined
  in-flight window of batches per worker, optional warm pools reused
  across runs (``keep_alive=True`` / ``warm_up()`` / ``close()``), and
  lost-worker detection that requeues in-flight batches with
  already-applied indices filtered out.
* :mod:`~repro.dispatch.wire` — :func:`~repro.dispatch.wire.
  loads_restricted`, the allowlist unpickler both the socket frames and
  the journal's pickled records decode through (hostile payloads raise
  :class:`~repro.dispatch.wire.FrameRejected` instead of executing).
* :mod:`~repro.dispatch.journal` — the durable JSONL
  :class:`~repro.dispatch.journal.SweepJournal` (one fsynced record per
  completed trial; ``--resume`` replays it and skips completed indices).
* :mod:`~repro.dispatch.sweep` — :class:`~repro.dispatch.sweep.
  SweepSpec` grid expansion (seeds via ``RngRegistry.spawn("sweep",
  point_index, trial_index)``), :class:`~repro.dispatch.sweep.
  SweepRunner` with streaming per-point aggregation, and the
  backend-independent :class:`~repro.dispatch.sweep.SweepReport`.

``python -m repro sweep``, ``python -m repro montecarlo`` (a one-point
sweep) and ``python -m repro worker`` are the CLI front-ends.
"""

from .backend import (
    BACKEND_NAMES,
    DispatchBackend,
    MultiprocessBackend,
    ResultAssembler,
    SerialBackend,
    default_backend,
)
from .journal import SweepJournal
from .socket_pool import SocketBackend, worker_main
from .sweep import (
    SweepPoint,
    SweepReport,
    SweepRunner,
    SweepSpec,
    SweepState,
)
from .wire import FrameRejected, RestrictedUnpickler, loads_restricted

__all__ = [
    "BACKEND_NAMES",
    "DispatchBackend",
    "FrameRejected",
    "MultiprocessBackend",
    "RestrictedUnpickler",
    "ResultAssembler",
    "SerialBackend",
    "SocketBackend",
    "SweepJournal",
    "SweepPoint",
    "SweepReport",
    "SweepRunner",
    "SweepSpec",
    "SweepState",
    "default_backend",
    "loads_restricted",
    "worker_main",
]
