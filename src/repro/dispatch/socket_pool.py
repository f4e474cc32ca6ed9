"""Stdlib-only socket worker pool: coordinator + ``python -m repro worker``.

The one backend that leaves the machine: a coordinator binds a TCP port,
workers (local subprocesses it spawns itself, or ``python -m repro worker
--connect HOST:PORT`` processes started anywhere that can reach the port)
connect, handshake, and pull *batches* of :class:`~repro.experiments.
trial.TrialSpec` coordinates.  ``socket`` + ``selectors`` + ``pickle``
only — no third-party queue.

Throughput model
----------------
Version 1 of this protocol shipped one fully-pickled spec per frame and
waited for its result before sending the next — per-trial round-trip
latency serialised with worker compute, and the shared spec fields
(workload, n, channels, …) were re-pickled for every trial.  Version 2
amortises all three costs, the classic message-complexity move of paying
per *batch* instead of per unit of work:

* **context table once per run** — the distinct ``(workload, n,
  channels, t, pairs, adversary, options)`` combinations are sent to
  each worker in a single ``contexts`` frame; batches then carry only
  ``(ctx_id, index, seed)`` triples per trial;
* **batched assignment** — a ``batch`` frame carries K trials; the
  worker runs them all and replies with one merged ``results`` frame.
  K adapts to the observed per-trial cost (workers report their batch
  compute time) targeting :data:`TARGET_BATCH_SECONDS` per batch, capped
  by a fair share of the remaining work so the tail stays balanced;
  ``batch_size=`` (CLI ``--batch-size``) pins K instead;
* **pipelined in-flight window** — each worker holds up to ``window``
  (default :data:`DEFAULT_WINDOW`) outstanding batches, so coordinator
  send latency hides behind worker compute instead of alternating with
  it;
* **warm pool** — the pool can outlive a single :meth:`SocketBackend.
  run` call (``keep_alive=True``): workers stay connected and the next
  batch of specs reuses them, paying spawn + import + handshake once.
  A whole sweep is already *one* ``run`` call (every point's trials in
  one interleaved stream); ``keep_alive`` extends that to sequences of
  sweeps.  :meth:`SocketBackend.warm_up` pre-spawns and handshakes the
  pool so timed runs measure dispatch, not process startup.

Wire protocol (version :data:`PROTOCOL_VERSION`)
------------------------------------------------
Every frame is a 4-byte big-endian length prefix followed by a pickled
dict (``pickle.HIGHEST_PROTOCOL``, capped at :data:`MAX_FRAME_BYTES`
against malformed prefixes):

* worker → ``{"kind": "hello", "protocol": 2, "repro": ..., "pid": ...}``
* coordinator → ``{"kind": "welcome"}`` or ``{"kind": "reject",
  "reason": ...}`` (protocol mismatch: the stray worker is turned away
  and the sweep continues with the rest);
* coordinator → ``{"kind": "contexts", "contexts": [ctx, ...]}`` — the
  run's distinct spec contexts, sent once per run per worker (replacing
  any previous table on a warm pool);
* coordinator → ``{"kind": "batch", "trials": [(ctx_id, index, seed),
  ...]}``; worker → ``{"kind": "results", "results": [TrialResult, ...],
  "elapsed": seconds}`` (one merged frame per batch; ``elapsed`` is the
  worker-side compute time feeding the adaptive batch size) or
  ``{"kind": "error", "index": ..., "type": ..., "message": ...}`` if a
  trial itself raised — deterministic trials fail the same way
  everywhere, so that aborts the run instead of requeue-looping (a
  :class:`~repro.errors.ConfigurationError` is raised again as itself, as
  the in-process backends raise it, and anything else as a
  :class:`~repro.errors.DispatchError`);
* coordinator → ``{"kind": "shutdown"}`` once the pool is released.

Fault model
-----------
A worker that vanishes (killed, OOM, network cut) surfaces as EOF or a
send failure; requeue works at **batch granularity**: every spec of its
in-flight batches that is still unapplied is handed to the next idle
worker (:func:`unapplied_specs` filters out indices whose results
already arrived — the :class:`~repro.dispatch.backend.ResultAssembler`'s
at-most-once-per-index rule makes redelivery of partially-applied
batches harmless either way).  Because per-trial seeds are a pure
function of the trial index, a requeued trial re-runs bit-for-bit
identically on any worker, so the merged report stays byte-identical to
serial regardless of batch sizes, completion order, retries, or worker
count.

Trust model: frames are pickles, but both directions decode through
:func:`~repro.dispatch.wire.loads_restricted`, whose ``find_class``
allowlist is exactly {``TrialSpec``, ``TrialResult``,
``NetworkMetrics``} — an attacker who reaches the port can disrupt a
sweep (:class:`~repro.dispatch.wire.FrameRejected` kills the
connection) but cannot make the pickle layer import or call anything
else.  Still bind to localhost or a private network you control:
frames are neither authenticated nor encrypted.
"""

from __future__ import annotations

import os
import pickle
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..errors import ConfigurationError, DispatchError
from ..experiments.trial import TrialSpec
from ..experiments.workloads import run_trial
from .backend import DispatchBackend, ResultAssembler
from .wire import loads_restricted

PROTOCOL_VERSION = 2
"""Coordinator/worker wire-protocol version, checked in the handshake."""

MAX_FRAME_BYTES = 1 << 28
"""Upper bound on a single frame; larger prefixes abort the connection."""

_RECV_CHUNK = 1 << 16

DEFAULT_WINDOW = 2
"""Outstanding batches per worker: enough to hide coordinator latency
behind worker compute without hoarding work on one connection."""

INITIAL_BATCH = 2
"""Batch size before any latency observation exists: small, so the first
``results`` frame (and its ``elapsed`` measurement) arrives quickly."""

MAX_BATCH = 256
"""Adaptive batch-size ceiling; frames stay far below the size cap."""

TARGET_BATCH_SECONDS = 0.25
"""Adaptive target for one batch's worker compute time: long enough to
amortise a round trip, short enough for balanced tails and prompt
journal flushes."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def _check_frame_length(length: int) -> None:
    """The single :data:`MAX_FRAME_BYTES` guard, shared by both
    directions and both decoder styles."""
    if length > MAX_FRAME_BYTES:
        raise DispatchError(
            f"refusing a {length}-byte frame (cap {MAX_FRAME_BYTES})"
        )


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Pickle ``obj`` (``HIGHEST_PROTOCOL``) and send it length-prefixed."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    _check_frame_length(len(data))
    sock.sendall(len(data).to_bytes(4, "big") + data)


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < nbytes:
        chunk = sock.recv(nbytes - len(chunks))
        if not chunk:
            raise EOFError("connection closed mid-frame")
        chunks.extend(chunk)
    return bytes(chunks)


def recv_frame(sock: socket.socket) -> Any:
    """Blocking read of one length-prefixed frame (the worker side)."""
    length = int.from_bytes(_recv_exact(sock, 4), "big")
    _check_frame_length(length)
    return loads_restricted(_recv_exact(sock, length))


class FrameDecoder:
    """Incremental decoder for the coordinator's non-blocking reads.

    One ``bytearray`` feed buffer; completed frames are unpickled through
    a ``memoryview`` so the payload is never copied out first.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Any]:
        """Buffer ``data``; return every frame completed by it."""
        self._buffer.extend(data)
        frames: list[Any] = []
        while len(self._buffer) >= 4:
            length = int.from_bytes(self._buffer[:4], "big")
            _check_frame_length(length)
            if len(self._buffer) < 4 + length:
                break
            # Both views must be released before the del resizes the
            # buffer (a live export would raise BufferError).
            with memoryview(self._buffer) as view, \
                    view[4 : 4 + length] as payload:
                frames.append(loads_restricted(payload))
            del self._buffer[: 4 + length]
        return frames


# ----------------------------------------------------------------------
# Spec contexts: the shared fields, pickled once per run per worker
# ----------------------------------------------------------------------


def spec_context(spec: TrialSpec) -> tuple:
    """The spec's shared fields — everything but ``(index, seed)``."""
    return (
        spec.workload, spec.n, spec.channels, spec.t, spec.pairs,
        spec.adversary, spec.options,
    )


def spec_from_context(ctx: tuple, index: int, seed: int) -> TrialSpec:
    """Rebuild the exact :class:`TrialSpec` a batch triple refers to."""
    workload, n, channels, t, pairs, adversary, options = ctx
    return TrialSpec(
        workload=workload, index=index, seed=seed, n=n, channels=channels,
        t=t, pairs=pairs, adversary=adversary, options=tuple(options),
    )


def unapplied_specs(
    in_flight: Mapping[int, TrialSpec], missing: Iterable[int]
) -> list[TrialSpec]:
    """A dead worker's requeue set: in-flight specs still unapplied.

    Redelivery at batch granularity is safe because the assembler drops
    duplicates by index — this filter merely avoids re-running trials
    whose results already arrived (e.g. the worker died *after* its
    results frame was processed, or a prior requeue completed elsewhere).
    """
    missing_set = set(missing)
    return [
        spec for index, spec in sorted(in_flight.items())
        if index in missing_set
    ]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def parse_endpoint(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (the ``--connect`` / ``--bind`` argument)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"endpoint {text!r} is not of the form HOST:PORT"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ConfigurationError(
            f"endpoint {text!r} has a non-integer port"
        ) from None


def worker_main(
    host: str, port: int, *, retry_seconds: float = 10.0
) -> int:
    """The ``python -m repro worker`` loop; returns a process exit code.

    Connects (retrying up to ``retry_seconds`` so workers may be started
    before the coordinator binds), handshakes, stores each ``contexts``
    table as it arrives, then runs ``batch`` frames — every trial of a
    batch back to back, one merged ``results`` frame (with the batch's
    compute time) back — until the coordinator sends ``shutdown`` (exit
    0).  A rejected handshake exits 2; a coordinator that vanishes
    mid-run exits 1.
    """
    from .. import __version__

    deadline = time.monotonic() + retry_seconds
    sock: socket.socket | None = None
    while sock is None:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError:
            if time.monotonic() >= deadline:
                print(
                    f"repro worker: cannot reach {host}:{port} "
                    f"after {retry_seconds}s",
                    file=sys.stderr,
                )
                return 1
            time.sleep(0.1)
    sock.settimeout(None)
    # Frames are small and answered one by one: with Nagle's algorithm on,
    # a frame written while the previous one is unacknowledged waits for
    # the peer's delayed-ACK timer (~40 ms).
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    contexts: list[tuple] | None = None
    try:
        send_frame(
            sock,
            {
                "kind": "hello",
                "protocol": PROTOCOL_VERSION,
                "repro": __version__,
                "pid": os.getpid(),
            },
        )
        greeting = recv_frame(sock)
        if greeting.get("kind") != "welcome":
            print(
                f"repro worker: rejected by coordinator: "
                f"{greeting.get('reason', greeting)}",
                file=sys.stderr,
            )
            return 2
        while True:
            frame = recv_frame(sock)
            kind = frame.get("kind")
            if kind == "shutdown":
                return 0
            if kind == "contexts":
                contexts = frame["contexts"]
                continue
            if kind != "batch":
                print(
                    f"repro worker: unexpected frame {kind!r}",
                    file=sys.stderr,
                )
                return 1
            if contexts is None:
                print(
                    "repro worker: batch before contexts", file=sys.stderr
                )
                return 1
            results = []
            failed = False
            start = time.perf_counter()
            for ctx_id, index, seed in frame["trials"]:
                spec = spec_from_context(contexts[ctx_id], index, seed)
                try:
                    results.append(run_trial(spec))
                except Exception as exc:  # deterministic failure: report
                    send_frame(
                        sock,
                        {
                            "kind": "error",
                            "index": index,
                            "type": type(exc).__name__,
                            "message": str(exc),
                        },
                    )
                    failed = True
                    break
            if not failed:
                send_frame(
                    sock,
                    {
                        "kind": "results",
                        "results": results,
                        "elapsed": time.perf_counter() - start,
                    },
                )
    except (EOFError, OSError):
        print("repro worker: coordinator vanished", file=sys.stderr)
        return 1
    finally:
        sock.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


class _Connection:
    """Coordinator-side state for one worker socket."""

    __slots__ = ("sock", "decoder", "ready", "in_flight", "outstanding",
                 "peer")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = FrameDecoder()
        self.ready = False  # handshake completed
        self.in_flight: dict[int, TrialSpec] = {}  # index -> spec
        self.outstanding = 0  # batches sent, results frame not yet seen
        self.peer: dict[str, Any] = {}


class SocketBackend(DispatchBackend):
    """Coordinator for the batched, pipelined socket worker pool.

    Parameters
    ----------
    workers:
        Local worker subprocesses to spawn (``spawn_workers=True``); also
        the pool's nominal size, used to split early batches fairly
        before every worker has connected.
    host, port:
        Bind address; ``port=0`` lets the OS pick (the spawned workers
        are told the real port).  Bind a routable host + fixed port with
        ``spawn_workers=False`` to serve workers on other machines.
    spawn_workers:
        Spawn ``workers`` local ``python -m repro worker`` subprocesses
        after binding.  When ``False`` the coordinator only listens and
        prints the bound endpoint to stderr; start workers yourself.
    batch_size:
        Trials per ``batch`` frame.  ``None`` (default) adapts: start at
        :data:`INITIAL_BATCH`, then target :data:`TARGET_BATCH_SECONDS`
        of worker compute per batch from the observed per-trial cost,
        always capped by a fair share of the remaining work.
    window:
        Outstanding batches per worker (pipelining depth).
    keep_alive:
        Keep the pool connected after :meth:`run` completes so the next
        ``run`` reuses the same warm workers; call :meth:`close` (or use
        the backend as a context manager) to release them.  ``False``
        restores the one-shot behaviour: the pool is torn down when the
        batch completes.
    accept_timeout:
        Seconds to wait for the first successful handshake.
    idle_timeout:
        Seconds of no frames/connections before the batch is declared
        stuck (workers are then torn down; journalled trials survive).
    """

    name = "socket"

    def __init__(
        self,
        workers: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: bool = True,
        batch_size: int | None = None,
        window: int = DEFAULT_WINDOW,
        keep_alive: bool = False,
        accept_timeout: float = 30.0,
        idle_timeout: float = 300.0,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("SocketBackend needs workers >= 1")
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1 when given")
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        self.workers = workers
        self.host = host
        self.port = port
        self.spawn_workers = spawn_workers
        self.batch_size = batch_size
        self.window = window
        self.keep_alive = keep_alive
        self.accept_timeout = accept_timeout
        self.idle_timeout = idle_timeout
        self.target_batch_seconds = TARGET_BATCH_SECONDS
        self.spawned: list[subprocess.Popen] = []
        self.address: tuple[str, int] | None = None
        self._sel: selectors.BaseSelector | None = None
        self._listener: socket.socket | None = None
        self._conns: dict[int, _Connection] = {}
        self._ever_connected = False
        self._trial_cost: float | None = None  # EWMA seconds per trial

    # -- worker process management ------------------------------------

    def _spawn(self, count: int) -> None:
        import repro

        src_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing if existing else src_root
        )
        host, port = self.address  # type: ignore[misc]
        for _ in range(count):
            self.spawned.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "worker",
                        "--connect",
                        f"{host}:{port}",
                    ],
                    env=env,
                )
            )

    def _reap_spawned(self, *, force: bool) -> None:
        for proc in self.spawned:
            if proc.poll() is None and force:
                proc.terminate()
        for proc in self.spawned:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)

    # -- pool lifecycle -------------------------------------------------

    @property
    def pool_open(self) -> bool:
        """True while the listener (and any warm workers) are live."""
        return self._listener is not None

    def _open_pool(self) -> None:
        sel = selectors.DefaultSelector()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen()
        listener.setblocking(False)
        self.address = listener.getsockname()[:2]
        sel.register(listener, selectors.EVENT_READ, data=None)
        self._sel = sel
        self._listener = listener
        self._conns = {}
        self._ever_connected = False
        self.spawned = []
        if self.spawn_workers:
            self._spawn(self.workers)
        else:
            print(
                f"repro sweep: socket coordinator listening on "
                f"{self.address[0]}:{self.address[1]}",
                file=sys.stderr,
            )

    def _close_pool(self, *, force: bool) -> None:
        """Tear the pool down; graceful closes say goodbye first.

        A graceful close first lets every live spawned worker finish its
        handshake (bounded by ``accept_timeout``): a batch can complete
        before a slow-starting worker connects, and closing the listener
        under it would leave it spinning in its connect retry until the
        reaper killed it.  Every welcomed worker then gets ``shutdown``.
        """
        if self._sel is None:
            return
        if not force:
            self._greet_late_workers()
        for conn in list(self._conns.values()):
            if not force:
                try:
                    send_frame(conn.sock, {"kind": "shutdown"})
                except OSError:
                    pass
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.sock.close()
        self._conns = {}
        if self._listener is not None:
            try:
                self._sel.unregister(self._listener)
            except (KeyError, ValueError):
                pass
            self._listener.close()
            self._listener = None
        self._sel.close()
        self._sel = None
        # Workers exit on shutdown/EOF; force only the stragglers.
        self._reap_spawned(force=force)

    def close(self) -> None:
        """Release a warm pool: shutdown frames, reap, close sockets."""
        self._close_pool(force=False)

    def warm_up(self, timeout: float | None = None) -> int:
        """Open the pool and wait for every spawned worker's handshake.

        Returns the number of ready workers.  With ``spawn_workers=False``
        it waits for at least one remote worker.  Spawn + import +
        handshake are one-time pool costs; warming separates them from
        dispatch throughput (and is what a long-lived cluster pool looks
        like in steady state).  The pool stays open afterwards regardless
        of ``keep_alive`` — pair with :meth:`close`.
        """
        if not self.pool_open:
            self._open_pool()
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.accept_timeout
        )
        want = self.workers if self.spawn_workers else 1
        while self._ready_count() < want:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DispatchError(
                    f"only {self._ready_count()}/{want} workers completed "
                    f"the handshake while warming up"
                )
            self._handshake_pass(min(remaining, 0.25))
        return self._ready_count()

    def _handshake_pass(self, timeout: float) -> None:
        """One select pass outside a run: accept connections and answer
        ``hello`` frames.  Anything a welcomed worker still sends (late
        results of a finished run) is read and dropped."""
        for key, _events in self._sel.select(timeout=timeout):
            if key.data is None:
                self._accept()
                continue
            conn = key.data
            try:
                chunk = conn.sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError:
                self._forget(conn)
                continue
            if not chunk:
                self._forget(conn)
                continue
            for frame in conn.decoder.feed(chunk):
                if conn.ready or not self._handshake(frame, conn):
                    break

    def _greet_late_workers(self) -> None:
        """Serve handshakes until every live spawned worker is welcomed
        (or ``accept_timeout`` runs out); see :meth:`_close_pool`."""
        if self._listener is None:
            return
        deadline = time.monotonic() + self.accept_timeout
        while time.monotonic() < deadline:
            welcomed = {
                c.peer.get("pid") for c in self._conns.values() if c.ready
            }
            if all(
                proc.poll() is not None or proc.pid in welcomed
                for proc in self.spawned
            ):
                return
            try:
                self._handshake_pass(0.05)
            except DispatchError:
                return  # a garbled peer: close without waiting further

    def _ready_count(self) -> int:
        return sum(1 for c in self._conns.values() if c.ready)

    def _accept(self) -> _Connection | None:
        try:
            accepted, _addr = self._listener.accept()
        except (BlockingIOError, OSError):
            return None
        accepted.setblocking(False)
        # Small frames both ways; see worker_main on Nagle's algorithm.
        accepted.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(accepted)
        self._conns[accepted.fileno()] = conn
        self._sel.register(accepted, selectors.EVENT_READ, data=conn)
        return conn

    def _forget(self, conn: _Connection) -> None:
        """Drop a connection without requeueing (no run in progress)."""
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        self._conns.pop(conn.sock.fileno(), None)
        conn.sock.close()

    def _handshake(self, frame: Any, conn: _Connection) -> bool:
        """Process a ``hello``; True if the worker was welcomed."""
        kind = frame.get("kind") if isinstance(frame, dict) else None
        if kind != "hello":
            raise DispatchError(f"unexpected frame from worker: {frame!r}")
        conn.peer = frame
        if frame.get("protocol") != PROTOCOL_VERSION:
            try:
                send_frame(
                    conn.sock,
                    {
                        "kind": "reject",
                        "reason": (
                            f"protocol {frame.get('protocol')!r} != "
                            f"coordinator protocol {PROTOCOL_VERSION}"
                        ),
                    },
                )
            except OSError:
                pass
            self._forget(conn)
            return False
        try:
            send_frame(conn.sock, {"kind": "welcome"})
        except OSError:
            self._forget(conn)
            return False
        conn.ready = True
        self._ever_connected = True
        return True

    # -- batch sizing ---------------------------------------------------

    def _observe_batch(self, elapsed: float | None, count: int) -> None:
        """Fold one results frame's compute time into the cost EWMA."""
        if not elapsed or count < 1:
            return
        per_trial = elapsed / count
        if self._trial_cost is None:
            self._trial_cost = per_trial
        else:
            self._trial_cost = 0.5 * self._trial_cost + 0.5 * per_trial

    def _next_batch_size(self, pending_count: int, live_workers: int) -> int:
        """Trials for the next ``batch`` frame.

        A pinned ``batch_size`` wins outright (bar the pending cap).
        Otherwise: before any observation, :data:`INITIAL_BATCH`; after,
        enough trials for ~``target_batch_seconds`` of worker compute —
        both capped by a fair share of the remaining work across the
        pool's window slots, so one early-connecting worker can never
        hoard the whole stream and the tail splits evenly.
        """
        if pending_count < 1:
            return 0
        if self.batch_size is not None:
            return min(self.batch_size, pending_count)
        if self._trial_cost is None:
            size = INITIAL_BATCH
        else:
            size = int(self.target_batch_seconds / max(self._trial_cost, 1e-9))
        slots = max(live_workers, self.workers, 1) * self.window
        fair = -(-pending_count // slots)  # ceil
        return max(1, min(size, MAX_BATCH, fair, pending_count))

    # -- the coordinator loop ------------------------------------------

    def _execute(self, specs, assembler, should_stop):
        pending: deque[TrialSpec] = deque(specs)
        # The run's context table: shared spec fields, pickled once per
        # worker instead of once per trial.
        contexts: list[tuple] = []
        ctx_ids: dict[tuple, int] = {}
        for spec in specs:
            ctx = spec_context(spec)
            if ctx not in ctx_ids:
                ctx_ids[ctx] = len(contexts)
                contexts.append(ctx)
        contexts_frame = {"kind": "contexts", "contexts": contexts}

        if not self.pool_open:
            self._open_pool()
        sel = self._sel
        started = last_activity = time.monotonic()

        def drop(conn: _Connection) -> None:
            """Forget a worker; requeue its unapplied in-flight specs."""
            self._forget(conn)
            requeue = unapplied_specs(conn.in_flight, assembler.missing())
            conn.in_flight = {}
            conn.outstanding = 0
            if requeue:
                pending.extendleft(reversed(requeue))
                assign_idle()

        def send_or_drop(conn: _Connection, frame: dict[str, Any]) -> bool:
            try:
                send_frame(conn.sock, frame)
                return True
            except OSError:
                drop(conn)
                return False

        def live_workers() -> int:
            return self._ready_count()

        def assign(conn: _Connection) -> None:
            """Fill the worker's window with batches off the stream."""
            while conn.ready and conn.outstanding < self.window and pending:
                size = self._next_batch_size(len(pending), live_workers())
                batch = [pending.popleft() for _ in range(size)]
                trials = [
                    (ctx_ids[spec_context(s)], s.index, s.seed)
                    for s in batch
                ]
                # Record in-flight before sending: a failed send drops
                # the connection, and drop() requeues from in_flight.
                for s in batch:
                    conn.in_flight[s.index] = s
                conn.outstanding += 1
                if not send_or_drop(conn, {"kind": "batch", "trials": trials}):
                    return

        def assign_idle() -> None:
            """Hand requeued work to ready workers with window room."""
            for conn in list(self._conns.values()):
                if not pending:
                    return
                if conn.ready and conn.outstanding < self.window:
                    assign(conn)

        def handle(frame: Any, conn: _Connection) -> None:
            kind = frame.get("kind") if isinstance(frame, dict) else None
            if kind == "hello":
                if self._handshake(frame, conn):
                    if send_or_drop(conn, contexts_frame):
                        assign(conn)
                return
            if kind == "results":
                results = frame["results"]
                # Guard against a misbehaving worker's extra frames.
                if conn.outstanding > 0:
                    conn.outstanding -= 1
                self._observe_batch(frame.get("elapsed"), len(results))
                for result in results:
                    conn.in_flight.pop(result.index, None)
                    assembler.apply(result)  # duplicates dropped by index
                    self._check_stop(assembler, should_stop)
                    if assembler.done:
                        break
                assign(conn)
                return
            if kind == "error":
                error, message = frame.get("type"), frame.get("message")
                if error == ConfigurationError.__name__:
                    raise ConfigurationError(message)
                raise DispatchError(
                    f"trial {frame.get('index')} failed on worker "
                    f"pid={conn.peer.get('pid')}: {error}: {message}"
                )
            raise DispatchError(f"unexpected frame from worker: {frame!r}")

        try:
            # A warm pool's workers are mid-recv: ship the new run's
            # context table and start filling their windows immediately.
            for conn in list(self._conns.values()):
                if conn.ready and send_or_drop(conn, contexts_frame):
                    assign(conn)
            while not assembler.done:
                for key, _events in sel.select(timeout=0.25):
                    if key.data is None:
                        if self._accept() is not None:
                            last_activity = time.monotonic()
                        continue
                    conn = key.data
                    try:
                        chunk = conn.sock.recv(_RECV_CHUNK)
                    except (BlockingIOError, InterruptedError):
                        continue
                    except OSError:
                        drop(conn)
                        continue
                    if not chunk:
                        drop(conn)
                        continue
                    last_activity = time.monotonic()
                    for frame in conn.decoder.feed(chunk):
                        handle(frame, conn)
                        if assembler.done:
                            break
                now = time.monotonic()
                if not assembler.done:
                    self._check_liveness(assembler, started, last_activity, now)
        except BaseException:
            # Interrupts and dispatch errors always tear the pool down —
            # journalled trials survive; a fresh backend resumes them.
            self._close_pool(force=True)
            raise
        if not self.keep_alive:
            self._close_pool(force=False)

    def _check_liveness(self, assembler, started, last_activity, now) -> None:
        live = self._ready_count()
        if not self._ever_connected and now - started > self.accept_timeout:
            raise DispatchError(
                f"no worker completed the handshake within "
                f"{self.accept_timeout}s"
            )
        if self.spawn_workers and not live:
            if self.spawned and all(
                p.poll() is not None for p in self.spawned
            ):
                raise DispatchError(
                    f"all {len(self.spawned)} spawned workers exited with "
                    f"trials missing: {assembler.missing()[:10]}"
                )
        if now - last_activity > self.idle_timeout:
            raise DispatchError(
                f"no worker activity for {self.idle_timeout}s with "
                f"trials missing: {assembler.missing()[:10]}"
            )
