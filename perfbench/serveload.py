"""The ``serve`` workload: an open loop against a real daemon subprocess.

A seeded schedule starts session lifecycles at a fixed offered rate.  Every
``GROUP_EVERY``-th session opens in group mode at n=20, which runs the whole
Section 6 set-up inside the daemon's single-threaded loop; the rest are
preshared n=8 sessions.  Each request has a due time fixed in advance and is
sent when due whatever happened to earlier ones, so a stalled request delays
the ones queued behind it and that wait is counted: latency runs from the
due time to the response.  Requests of one session share one connection,
which keeps their order; sessions spread over at most ``nproc`` connections.
"""

from __future__ import annotations

import os
import pickle
import random
import re
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SESSION_RATE = 12.0
"""Offered session starts per second: about half of the daemon's
closed-loop capacity for this mix on a 2-core x86 host (see README)."""

GROUP_EVERY = 10
REQUEST_GAP_S = 0.004
"""Spacing of the due times of one session's consecutive requests."""

PRESHARED_N, GROUP_N = 8, 20
ANSWER_GRACE_S = 30.0
"""How long after the last due time a request may still be answered."""


@dataclass(frozen=True)
class Event:
    due: float  # seconds after the schedule starts
    conn: int
    session: str
    kind: str
    request: object


def session_requests(name: str, group: bool, rnd: random.Random) -> list[tuple[str, object]]:
    """One session lifecycle as (kind, request) pairs, in order."""
    from repro.serve import protocol as p

    if group:
        reqs: list[tuple[str, object]] = [
            ("open-group", p.OpenSession(name=name, n=GROUP_N, mode="group"))
        ]
        for _ in range(2):
            reqs.append(("send", p.SendMessage(name=name, sender=rnd.randrange(GROUP_N), payload=rnd.randbytes(24))))
            reqs.append(("flush", p.Flush(name=name)))
    else:
        reqs = [("open", p.OpenSession(name=name, n=PRESHARED_N))]
        for _ in range(PRESHARED_N):
            reqs.append(("send", p.SendMessage(name=name, sender=rnd.randrange(PRESHARED_N), payload=rnd.randbytes(24))))
            reqs.append(("flush", p.Flush(name=name)))
        for member in range(PRESHARED_N):
            reqs.append(("drain", p.DrainInbox(name=name, member=member)))
        reqs.append(("rekey", p.Rekey(name=name)))
    reqs.append(("stats", p.SessionStatsReq(name=name)))
    reqs.append(("close", p.CloseSession(name=name)))
    return reqs


def make_schedule(seed: int, duration: float, conns: int, prefix: str = "s") -> list[Event]:
    """Session starts at ``SESSION_RATE`` (seeded +-5% jitter) for ``duration``."""
    rnd = random.Random(seed)
    events: list[Event] = []
    start, index = 0.0, 0
    while start < duration:
        name = f"{prefix}{index}"
        group = index % GROUP_EVERY == GROUP_EVERY - 1
        for k, (kind, req) in enumerate(session_requests(name, group, rnd)):
            events.append(Event(start + k * REQUEST_GAP_S, index % conns, name, kind, req))
        start += rnd.uniform(0.95, 1.05) / SESSION_RATE
        index += 1
    events.sort(key=lambda e: e.due)
    return events


class Daemon:
    """A ``repro serve`` subprocess on loopback and its client sockets.

    Untraced, it is ``python -m repro serve``.  Traced, it is
    ``serve_launcher.py``, which installs the span wrappers before calling
    ``serve_main`` and prints the daemon-side ledger on exit.
    """

    def __init__(self, root: Path, seed: int, *, traced: bool = False) -> None:
        if traced:
            cmd = [sys.executable, str(Path(__file__).with_name("serve_launcher.py")), "--seed", str(seed)]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--bind", "127.0.0.1:0", "--seed", str(seed), "--idle-timeout", "60"]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        self.socks: list[socket.socket] = []
        banner = self.proc.stderr.readline()
        found = re.search(r"listening on ([\d.]+):(\d+)", banner)
        if found is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {banner!r}")
        self.address = (found.group(1), int(found.group(2)))

    def connect(self, count: int) -> None:
        from repro import __version__
        from repro.dispatch.socket_pool import recv_frame, send_frame
        from repro.serve import protocol as p

        for i in range(count):
            sock = socket.create_connection(self.address, timeout=30.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_frame(sock, {"kind": "hello", "protocol": p.SERVE_PROTOCOL, "repro": __version__, "client": f"perfbench-{i}"})
            greeting = recv_frame(sock)
            if not (isinstance(greeting, dict) and greeting.get("kind") == "welcome"):
                raise RuntimeError(f"handshake refused: {greeting!r}")
            self.socks.append(sock)

    def stop(self) -> str:
        """Shut the daemon down, wait for it, and return its stdout."""
        from repro.dispatch.socket_pool import recv_frame, send_frame
        from repro.serve import protocol as p

        if self.socks and self.proc.poll() is None:
            try:
                send_frame(self.socks[0], p.encode_request(0, p.Shutdown()))
                recv_frame(self.socks[0])
            except (OSError, EOFError):
                pass
        for sock in self.socks:
            sock.close()
        self.socks = []
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out or ""


@dataclass
class Drive:
    """What an open-loop drive observed, one entry per scheduled event."""

    events: list[Event]
    due: list[float]  # absolute perf_counter due times
    sent: list[float]
    answered: list[float | None]
    responses: list[object]
    elapsed: float

    def latencies(self, kind: str | None = None) -> list[float]:
        return [
            a - d
            for e, d, a in zip(self.events, self.due, self.answered)
            if a is not None and (kind is None or e.kind == kind)
        ]

    def lateness(self) -> list[float]:
        return [s - d for s, d in zip(self.sent, self.due)]


def drive(socks: list[socket.socket], events: list[Event]) -> Drive:
    """Send each event when due; collect every response as it arrives."""
    from repro.dispatch.socket_pool import FrameDecoder, send_frame
    from repro.serve import protocol as p

    count = len(events)
    sent = [0.0] * count
    answered: list[float | None] = [None] * count
    responses: list[object] = [None] * count
    pending: list[dict[int, int]] = [{} for _ in socks]
    decoders = [FrameDecoder() for _ in socks]
    next_id = [0] * len(socks)
    sel = selectors.DefaultSelector()
    for index, sock in enumerate(socks):
        sel.register(sock, selectors.EVENT_READ, data=index)
    clock = time.perf_counter
    start = clock() + 0.01
    due = [start + e.due for e in events]
    deadline = (due[-1] if due else start) + ANSWER_GRACE_S
    issued = outstanding = 0
    try:
        while issued < count or outstanding:
            now = clock()
            while issued < count and due[issued] <= now:
                event = events[issued]
                next_id[event.conn] += 1
                rid = next_id[event.conn]
                send_frame(socks[event.conn], p.encode_request(rid, event.request))
                sent[issued] = clock()
                pending[event.conn][rid] = issued
                issued += 1
                outstanding += 1
                now = clock()
            if now > deadline:
                break
            wait = due[issued] - now if issued < count else 0.5
            for key, _ in sel.select(timeout=max(0.0, min(wait, 0.5))):
                conn = key.data
                chunk = socks[conn].recv(1 << 16)
                if not chunk:
                    raise RuntimeError("daemon closed a connection")
                for frame in decoders[conn].feed(chunk):
                    rid, response = p.decode_response(frame)
                    index = pending[conn].pop(rid)
                    answered[index] = clock()
                    responses[index] = response
                    outstanding -= 1
    finally:
        sel.close()
    return Drive(events, due, sent, answered, responses, clock() - start)


def canonical(response: object) -> bytes:
    """Wire-normal bytes of a response, whichever side produced it."""
    from repro.dispatch.wire import loads_restricted
    from repro.serve import protocol as p

    _, decoded = p.decode_response(
        loads_restricted(pickle.dumps(p.encode_response(0, response)))
    )
    return pickle.dumps(p.encode_response(0, decoded))


def replay(seed: int, events: list[Event]) -> list[bytes]:
    """The same script through a synchronous ``SessionHost``."""
    from repro.serve.host import SessionHost

    host = SessionHost(seed=seed)
    return [canonical(host.handle(e.conn + 1, e.request)) for e in events]


def replay_traced(seed: int, events: list[Event], installation) -> tuple[list[bytes], float, float]:
    """The script through an untraced and a traced ``SessionHost``, event by
    event, alternating which goes first so that host drift cancels.

    Returns the traced host's responses and both hosts' total handle time.
    ``installation`` is applied only around the traced host's calls.
    """
    from repro.serve.host import SessionHost

    hosts = {False: SessionHost(seed=seed), True: SessionHost(seed=seed)}
    seconds = {False: 0.0, True: 0.0}
    traced: list[bytes] = []
    clock = time.perf_counter
    installation.uninstall()
    for index, event in enumerate(events):
        for tracing in ((False, True) if index % 2 == 0 else (True, False)):
            if tracing:
                installation.apply()
            try:
                start = clock()
                response = hosts[tracing].handle(event.conn + 1, event.request)
                seconds[tracing] += clock() - start
            finally:
                if tracing:
                    installation.uninstall()
            if tracing:
                traced.append(canonical(response))
    return traced, seconds[False], seconds[True]


def failures(result: Drive) -> tuple[int, int]:
    """(failed, busy): requests answered with ``Failure`` or not answered."""
    from repro.serve import protocol as p

    failed = busy = 0
    for response in result.responses:
        if response is None or isinstance(response, p.Failure):
            failed += 1
            busy += isinstance(response, p.Failure) and response.code == p.BUSY
    return failed, busy


def sim_rounds(result: Drive) -> int:
    """Simulated radio rounds the drive's sessions spent in the daemon."""
    from repro.serve import protocol as p

    rounds = 0
    for response in result.responses:
        if isinstance(response, p.SessionStatsInfo):
            rounds += response.setup_rounds + response.real_rounds
        elif isinstance(response, p.RekeyDone):
            rounds += response.rounds
    return rounds
