"""The multi-session key-service daemon: ``python -m repro serve``.

One ``selectors`` event loop (the :mod:`repro.dispatch.socket_pool`
idiom, and its exact framing: 4-byte length prefix + pickle, decoded
through :func:`~repro.dispatch.wire.loads_restricted`) multiplexes any
number of client connections over one :class:`~repro.serve.host.
SessionHost`.  Frames carry only dicts/tuples/scalars — see
:mod:`repro.serve.protocol` — so the restricted unpickler's class
allowlist is never widened for this daemon.

Division of labour: the daemon owns sockets, buffers, and the handshake;
every decision about sessions lives in the host, which is clock-free —
the daemon's only time source paces the *event loop* (select timeouts,
idle disconnects) and can never influence a session's traffic, keeping
daemon-served sessions byte-identical to synchronously driven ones.

Backpressure has two layers: the host refuses over-quota work with
``busy`` failure frames (bounded per-session send queues, bounded
session table), and the transport bounds each connection's outbound
buffer — a client that stops reading its responses gets ``busy``
failures for new requests until it drains, rather than growing the
buffer without limit.

Trust model matches the dispatch pool: restricted unpickling caps what a
hostile peer can make the daemon *construct*, but frames are neither
authenticated nor encrypted — bind to localhost or a private network.
"""

from __future__ import annotations

import pickle
import selectors
import socket
import sys
import time

from ..dispatch.socket_pool import FrameDecoder
from ..errors import DispatchError, ServiceError
from . import protocol as p
from .host import SessionHost

_RECV_CHUNK = 1 << 16

MAX_OUTBUF_BYTES = 1 << 22
"""Per-connection outbound buffer bound (the transport-level ``busy``)."""

SELECT_TIMEOUT = 0.25
"""Event-loop tick; also bounds shutdown/stop-flag latency."""


def _frame_bytes(obj) -> bytes:
    """One length-prefixed wire frame, as bytes for an outbound buffer."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return len(data).to_bytes(4, "big") + data


class _Client:
    """Daemon-side state for one client connection."""

    __slots__ = ("sock", "decoder", "outbuf", "ready", "token")

    def __init__(self, sock: socket.socket, token: int) -> None:
        self.sock = sock
        self.decoder = FrameDecoder()
        self.outbuf = bytearray()
        self.ready = False  # handshake completed
        self.token = token  # host-facing identity, stable for the conn


class ServeDaemon:
    """The serve event loop around one :class:`SessionHost`.

    Parameters
    ----------
    seed:
        Master seed for the host (every session's randomness derives
        from it and the session name).
    host, port:
        Bind address; ``port=0`` lets the OS pick (read
        :attr:`address` after :meth:`bind`).
    max_sessions:
        Bound on the host's session table.
    idle_timeout:
        Seconds without any traffic or live client before the daemon
        exits on its own (``None`` = serve forever).  A watchdog for CI
        smoke jobs, not a session property.
    max_outbuf:
        Per-connection outbound buffer bound.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int | None = None,
        idle_timeout: float | None = None,
        max_outbuf: int = MAX_OUTBUF_BYTES,
    ) -> None:
        kwargs = {} if max_sessions is None else {"max_sessions": max_sessions}
        self.host = SessionHost(seed=seed, **kwargs)
        self.bind_host = host
        self.bind_port = port
        self.idle_timeout = idle_timeout
        self.max_outbuf = int(max_outbuf)
        self.address: tuple[str, int] | None = None
        self._sel: selectors.BaseSelector | None = None
        self._listener: socket.socket | None = None
        self._clients: dict[int, _Client] = {}
        self._next_token = 0
        self._stop = False

    # ------------------------------------------------------------------

    def bind(self) -> tuple[str, int]:
        """Bind the listener; returns (and stores) the bound address."""
        sel = selectors.DefaultSelector()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.bind_host, self.bind_port))
        listener.listen()
        listener.setblocking(False)
        sel.register(listener, selectors.EVENT_READ, data=None)
        self._sel = sel
        self._listener = listener
        self.address = listener.getsockname()[:2]
        return self.address

    def request_stop(self) -> None:
        """Ask the loop to exit (thread-safe flag; one tick of latency)."""
        self._stop = True

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------

    def _accept(self) -> None:
        try:
            accepted, _addr = self._listener.accept()
        except (BlockingIOError, OSError):
            return
        accepted.setblocking(False)
        # Responses are small frames written while earlier ones may still
        # be unacknowledged; with Nagle's algorithm on, each would wait for
        # the client's next request or its delayed-ACK timer (~40 ms).
        accepted.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._next_token += 1
        client = _Client(accepted, self._next_token)
        self._clients[accepted.fileno()] = client
        self._sel.register(accepted, selectors.EVENT_READ, data=client)
        return

    def _drop(self, client: _Client) -> None:
        """Forget a connection; its sessions persist, its cursors don't."""
        try:
            self._sel.unregister(client.sock)
        except (KeyError, ValueError):
            pass
        self._clients.pop(client.sock.fileno(), None)
        client.sock.close()
        self.host.detach(client.token)

    def _enqueue(self, client: _Client, frame: dict) -> None:
        client.outbuf.extend(_frame_bytes(frame))
        self._want_write(client, True)

    def _want_write(self, client: _Client, on: bool) -> None:
        events = selectors.EVENT_READ
        if on:
            events |= selectors.EVENT_WRITE
        try:
            self._sel.modify(client.sock, events, data=client)
        except (KeyError, ValueError):
            pass

    def _flush_out(self, client: _Client) -> None:
        try:
            sent = client.sock.send(client.outbuf)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(client)
            return
        del client.outbuf[:sent]
        if not client.outbuf:
            self._want_write(client, False)

    # ------------------------------------------------------------------
    # Frame handling
    # ------------------------------------------------------------------

    def _handle_frame(self, client: _Client, frame: object) -> None:
        if not client.ready:
            self._handshake(client, frame)
            return
        if len(client.outbuf) > self.max_outbuf:
            # The client is not reading its responses; refuse new work
            # with a (small) typed failure instead of buffering without
            # bound.  No host state was touched: safe to retry.
            req_id = frame.get("req") if isinstance(frame, dict) else None
            self._enqueue(
                client,
                p.encode_response(
                    req_id,
                    p.Failure(
                        p.BUSY,
                        "connection outbound buffer is full; "
                        "read pending responses and retry",
                    ),
                ),
            )
            return
        try:
            req_id, request = p.decode_request(frame)
        except ServiceError as exc:
            req_id = frame.get("req") if isinstance(frame, dict) else None
            self._enqueue(
                client,
                p.encode_response(req_id, p.Failure(exc.code, exc.detail)),
            )
            return
        response = self.host.handle(client.token, request)
        self._enqueue(client, p.encode_response(req_id, response))
        if isinstance(response, p.ShuttingDown):
            self._stop = True

    def _handshake(self, client: _Client, frame: object) -> None:
        kind = frame.get("kind") if isinstance(frame, dict) else None
        if kind != "hello" or frame.get("protocol") != p.SERVE_PROTOCOL:
            got = frame.get("protocol") if isinstance(frame, dict) else None
            self._enqueue(
                client,
                {
                    "kind": "reject",
                    "reason": (
                        f"serve protocol {got!r} != daemon protocol "
                        f"{p.SERVE_PROTOCOL}"
                    ),
                },
            )
            # The reject frame drains before the next loop pass drops a
            # still-unready connection that sends more.
            client.ready = False
            return
        client.ready = True
        self._enqueue(
            client, {"kind": "welcome", "protocol": p.SERVE_PROTOCOL}
        )

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Serve until a ``shutdown`` request, :meth:`request_stop`, or
        the idle watchdog fires.  Outbound buffers are drained before
        the listener closes, so a shutdown acknowledgement always
        reaches its requester."""
        if self._sel is None:
            self.bind()
        sel = self._sel
        last_activity = time.monotonic()
        try:
            while not self._stop:
                for key, events in sel.select(timeout=SELECT_TIMEOUT):
                    if key.data is None:
                        self._accept()
                        last_activity = time.monotonic()
                        continue
                    client = key.data
                    if events & selectors.EVENT_WRITE:
                        self._flush_out(client)
                    if not (events & selectors.EVENT_READ):
                        continue
                    try:
                        chunk = client.sock.recv(_RECV_CHUNK)
                    except (BlockingIOError, InterruptedError):
                        continue
                    except OSError:
                        self._drop(client)
                        continue
                    if not chunk:
                        self._drop(client)
                        continue
                    last_activity = time.monotonic()
                    try:
                        frames = client.decoder.feed(chunk)
                    except DispatchError:
                        # Oversized or malformed prefix: kill the conn.
                        self._drop(client)
                        continue
                    for frame in frames:
                        self._handle_frame(client, frame)
                        if self._stop:
                            break
                if (
                    self.idle_timeout is not None
                    and not self._clients
                    and time.monotonic() - last_activity > self.idle_timeout
                ):
                    break
            # Drain goodbyes (bounded: purely writing, no new requests).
            deadline = time.monotonic() + 5.0
            while (
                any(c.outbuf for c in self._clients.values())
                and time.monotonic() < deadline
            ):
                for key, events in sel.select(timeout=SELECT_TIMEOUT):
                    if key.data is not None and events & selectors.EVENT_WRITE:
                        self._flush_out(key.data)
        finally:
            self._close()

    def _close(self) -> None:
        for client in list(self._clients.values()):
            self._drop(client)
        if self._listener is not None:
            try:
                self._sel.unregister(self._listener)
            except (KeyError, ValueError):
                pass
            self._listener.close()
            self._listener = None
        if self._sel is not None:
            self._sel.close()
            self._sel = None


def serve_main(
    *,
    seed: int = 0,
    host: str = "127.0.0.1",
    port: int = 0,
    max_sessions: int | None = None,
    idle_timeout: float | None = None,
) -> int:
    """The ``python -m repro serve`` entry point; returns an exit code."""
    daemon = ServeDaemon(
        seed=seed,
        host=host,
        port=port,
        max_sessions=max_sessions,
        idle_timeout=idle_timeout,
    )
    bound = daemon.bind()
    print(
        f"repro serve: key-service daemon listening on "
        f"{bound[0]}:{bound[1]} (seed={seed})",
        file=sys.stderr,
        flush=True,
    )
    try:
        daemon.run()
    except KeyboardInterrupt:
        pass
    return 0
