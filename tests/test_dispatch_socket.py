"""End-to-end tests for the socket worker pool.

These run the real thing: a coordinator in-process and genuine
``python -m repro worker`` subprocesses over localhost TCP — including
the acceptance scenario (2 workers, one killed mid-sweep, coordinator
interrupted, resumed from the journal, report byte-identical to an
uninterrupted serial run).  CI runs this module as its sweep smoke job.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.dispatch import (
    SerialBackend,
    SocketBackend,
    SweepRunner,
    SweepSpec,
)
from repro.dispatch.socket_pool import (
    INITIAL_BATCH,
    PROTOCOL_VERSION,
    FrameDecoder,
    parse_endpoint,
    recv_frame,
    send_frame,
    spec_context,
    spec_from_context,
    unapplied_specs,
    worker_main,
)
from repro.errors import ConfigurationError, DispatchError, SweepInterrupted

N = 18


def point_specs(
    trials: int = 4, *, seed: int = 7, channels: int = 2, t: int = 1
):
    """The trial specs of a one-point fame grid, indices 0..trials-1."""
    return SweepSpec(
        ns=(N,), channels=(channels,), ts=(t,), trials=trials, seed=seed,
        pairs=4,
    ).specs()


class TestFraming:
    def test_send_recv_round_trip(self):
        a, b = socket.socketpair()
        try:
            payload = {"kind": "task", "blob": b"x" * 5000, "n": 17}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_decoder_reassembles_byte_by_byte(self):
        import pickle

        frames = [{"kind": "hello", "i": i} for i in range(3)]
        wire = b""
        for frame in frames:
            data = pickle.dumps(frame)
            wire += len(data).to_bytes(4, "big") + data
        decoder = FrameDecoder()
        out = []
        for i in range(len(wire)):  # worst case: one byte per feed
            out.extend(decoder.feed(wire[i : i + 1]))
        assert out == frames

    def test_oversized_frame_announcement_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(DispatchError):
            decoder.feed((1 << 30).to_bytes(4, "big") + b"xxxx")

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:80") == ("127.0.0.1", 80)
        with pytest.raises(ConfigurationError):
            parse_endpoint("no-port")
        with pytest.raises(ConfigurationError):
            parse_endpoint("host:nan")


class TestBatching:
    """Unit coverage for the v2 batching machinery (no sockets)."""

    def test_spec_context_round_trip(self):
        for spec in point_specs(trials=3, channels=3, t=2):
            ctx = spec_context(spec)
            assert spec_from_context(ctx, spec.index, spec.seed) == spec

    def test_unapplied_specs_filters_applied_indices(self):
        specs = point_specs(trials=6)
        in_flight = {s.index: s for s in specs[:4]}
        # Indices 1 and 3 already have results; 0 and 2 are still missing
        # (index 5 is missing too but was never in flight here).
        requeue = unapplied_specs(in_flight, [0, 2, 5])
        assert requeue == [specs[0], specs[2]]

    def test_next_batch_size_pinned(self):
        backend = SocketBackend(workers=2, batch_size=7)
        assert backend._next_batch_size(100, 2) == 7
        assert backend._next_batch_size(3, 2) == 3  # capped by pending
        assert backend._next_batch_size(0, 2) == 0

    def test_next_batch_size_starts_small_then_adapts(self):
        backend = SocketBackend(workers=2)
        assert backend._next_batch_size(1000, 2) == INITIAL_BATCH
        backend._observe_batch(0.05, 10)  # 5 ms/trial observed
        # target 0.25s / 5ms = 50 trials, but fair share over
        # 2 workers * window 2 = 4 slots caps it at ceil(1000/4).
        assert backend._next_batch_size(1000, 2) == 50
        assert backend._next_batch_size(100, 2) == 25  # fair-share cap

    def test_next_batch_size_never_zero_for_slow_trials(self):
        backend = SocketBackend(workers=2)
        backend._observe_batch(10.0, 1)  # 10 s/trial
        assert backend._next_batch_size(100, 2) == 1

    def test_observe_batch_ewma(self):
        backend = SocketBackend(workers=2)
        backend._observe_batch(1.0, 1)
        assert backend._trial_cost == pytest.approx(1.0)
        backend._observe_batch(0.5, 1)
        assert backend._trial_cost == pytest.approx(0.75)
        backend._observe_batch(None, 1)  # frame without elapsed: ignored
        assert backend._trial_cost == pytest.approx(0.75)

    def test_batch_size_validation(self):
        with pytest.raises(ConfigurationError):
            SocketBackend(workers=2, batch_size=0)
        with pytest.raises(ConfigurationError):
            SocketBackend(workers=2, window=0)


class TestSocketBackendEndToEnd:
    def test_two_real_workers_match_serial(self):
        specs = point_specs(trials=4)
        serial = SerialBackend().run(specs)
        backend = SocketBackend(workers=2, accept_timeout=60.0)
        assert backend.run(specs) == serial
        # spawned workers exited cleanly on shutdown
        assert [p.wait(timeout=10) for p in backend.spawned] == [0, 0]

    def test_lost_worker_requeues_in_flight_trials(self):
        specs = point_specs(trials=4)
        serial = SerialBackend().run(specs)
        backend = SocketBackend(workers=2, accept_timeout=60.0)
        killed = []

        def kill_one(result) -> None:
            if not killed:
                backend.spawned[0].kill()
                killed.append(True)

        # One worker is murdered after the first result; its in-flight
        # trial is requeued and the survivor finishes the batch.
        assert backend.run(specs, on_result=kill_one) == serial

    def test_all_workers_dead_is_a_dispatch_error(self):
        specs = point_specs(trials=4)
        backend = SocketBackend(workers=1, accept_timeout=60.0)

        def kill_all(result) -> None:
            for proc in backend.spawned:
                proc.kill()

        with pytest.raises(DispatchError):
            backend.run(specs, on_result=kill_all)

    def test_warm_pool_reused_across_runs(self):
        specs_a = point_specs(trials=4)
        specs_b = point_specs(trials=4, seed=11)
        serial_a = SerialBackend().run(specs_a)
        serial_b = SerialBackend().run(specs_b)
        backend = SocketBackend(
            workers=2, accept_timeout=60.0, keep_alive=True
        )
        try:
            assert backend.warm_up(timeout=60.0) == 2
            spawned = list(backend.spawned)
            assert backend.run(specs_a) == serial_a
            # keep_alive: the pool survives the run ...
            assert backend.pool_open
            assert backend.run(specs_b) == serial_b
            # ... and the second run reused the same worker processes.
            assert backend.spawned == spawned
        finally:
            backend.close()
        assert not backend.pool_open
        assert [p.wait(timeout=10) for p in spawned] == [0, 0]


class _FakeWorker(threading.Thread):
    """A hand-rolled worker speaking protocol v2 from this thread."""

    def __init__(self, port: int, *, protocol=PROTOCOL_VERSION,
                 duplicate_results=False):
        super().__init__(daemon=True)
        self.port = port
        self.protocol = protocol
        self.duplicate_results = duplicate_results
        self.greeting = None
        self.batch_sizes: list[int] = []

    def run(self) -> None:
        from repro.experiments.workloads import run_trial

        # The coordinator binds from its own thread, which may not have
        # run yet: retry the connect like the real worker does.
        deadline = time.monotonic() + 30
        while True:
            try:
                sock = socket.create_connection(
                    ("127.0.0.1", self.port), timeout=30
                )
                break
            except ConnectionRefusedError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        try:
            send_frame(
                sock, {"kind": "hello", "protocol": self.protocol, "pid": 0}
            )
            self.greeting = recv_frame(sock)
            if self.greeting.get("kind") != "welcome":
                return
            contexts = None
            while True:
                frame = recv_frame(sock)
                if frame["kind"] == "shutdown":
                    return
                if frame["kind"] == "contexts":
                    contexts = frame["contexts"]
                    continue
                trials = frame["trials"]
                self.batch_sizes.append(len(trials))
                reply = {
                    "kind": "results",
                    "results": [
                        run_trial(spec_from_context(contexts[c], i, s))
                        for c, i, s in trials
                    ],
                    "elapsed": 0.01,
                }
                send_frame(sock, reply)
                if self.duplicate_results:
                    send_frame(sock, reply)
        except (EOFError, OSError):
            pass
        finally:
            sock.close()


def _run_backend_in_thread(backend, specs, **kwargs):
    out: dict = {}

    def target() -> None:
        try:
            out["results"] = backend.run(specs, **kwargs)
        except BaseException as exc:  # surfaced by the caller
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, out


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestHandshake:
    def test_protocol_mismatch_rejected_but_sweep_continues(self):
        specs = point_specs(trials=2)
        serial = SerialBackend().run(specs)
        port = _free_port()
        backend = SocketBackend(
            workers=1, port=port, spawn_workers=False, accept_timeout=60.0
        )
        thread, out = _run_backend_in_thread(backend, specs)
        stray = _FakeWorker(port, protocol=PROTOCOL_VERSION + 1)
        stray.start()
        stray.join(timeout=30)
        assert stray.greeting["kind"] == "reject"
        assert "protocol" in stray.greeting["reason"]
        good = _FakeWorker(port)
        good.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert out.get("results") == serial

    def test_duplicate_results_from_worker_are_dropped(self):
        specs = point_specs(trials=3)
        serial = SerialBackend().run(specs)
        port = _free_port()
        backend = SocketBackend(
            workers=1, port=port, spawn_workers=False, accept_timeout=60.0
        )
        applied: list[int] = []
        thread, out = _run_backend_in_thread(
            backend, specs, on_result=lambda r: applied.append(r.index)
        )
        worker = _FakeWorker(port, duplicate_results=True)
        worker.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert out.get("results") == serial
        assert sorted(applied) == [0, 1, 2]  # once each, duplicates dropped


class TestWorkerMain:
    def test_worker_unreachable_coordinator_exits_1(self):
        assert worker_main("127.0.0.1", _free_port(), retry_seconds=0.2) == 1

    def test_worker_rejected_exits_2(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1]

        def coordinator() -> None:
            conn, _ = listener.accept()
            recv_frame(conn)
            send_frame(conn, {"kind": "reject", "reason": "nope"})
            conn.close()

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        try:
            assert worker_main("127.0.0.1", port, retry_seconds=5.0) == 2
        finally:
            listener.close()

    def test_worker_runs_batches_until_shutdown(self):
        specs = point_specs(trials=2)
        expected = SerialBackend().run(specs)
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1]
        got: dict = {}

        def coordinator() -> None:
            conn, _ = listener.accept()
            got["hello"] = recv_frame(conn)
            send_frame(conn, {"kind": "welcome"})
            send_frame(
                conn,
                {"kind": "contexts", "contexts": [spec_context(specs[0])]},
            )
            send_frame(
                conn,
                {
                    "kind": "batch",
                    "trials": [(0, s.index, s.seed) for s in specs],
                },
            )
            got["results"] = recv_frame(conn)
            send_frame(conn, {"kind": "shutdown"})
            conn.close()

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        try:
            assert worker_main("127.0.0.1", port, retry_seconds=5.0) == 0
        finally:
            thread.join(timeout=30)
            listener.close()
        assert got["hello"]["protocol"] == PROTOCOL_VERSION
        assert got["results"]["kind"] == "results"
        # One merged frame for the whole batch, with its compute time.
        assert got["results"]["results"] == expected
        assert got["results"]["elapsed"] > 0

    def test_worker_batch_before_contexts_exits_1(self):
        spec = point_specs(trials=1)[0]
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1]

        def coordinator() -> None:
            conn, _ = listener.accept()
            recv_frame(conn)
            send_frame(conn, {"kind": "welcome"})
            send_frame(
                conn,
                {"kind": "batch", "trials": [(0, spec.index, spec.seed)]},
            )
            conn.close()

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        try:
            assert worker_main("127.0.0.1", port, retry_seconds=5.0) == 1
        finally:
            thread.join(timeout=30)
            listener.close()


class TestNagle:
    def test_accepted_connections_disable_nagle(self):
        port = _free_port()
        backend = SocketBackend(
            workers=1, port=port, spawn_workers=False, keep_alive=True,
            accept_timeout=60.0,
        )
        worker = _FakeWorker(port)
        worker.start()
        try:
            assert backend.warm_up(timeout=60.0) == 1
            (conn,) = backend._conns.values()
            assert conn.sock.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
        finally:
            backend.close()
        worker.join(timeout=30)

    def test_worker_connection_disables_nagle(self, monkeypatch):
        opened: list[socket.socket] = []
        connect = socket.create_connection

        def recording_connect(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(socket, "create_connection", recording_connect)
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1]
        got: dict = {}

        def coordinator() -> None:
            conn, _ = listener.accept()
            recv_frame(conn)  # the worker sends hello once it is set up
            got["nodelay"] = opened[0].getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
            send_frame(conn, {"kind": "welcome"})
            send_frame(conn, {"kind": "shutdown"})
            conn.close()

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        try:
            assert worker_main("127.0.0.1", port, retry_seconds=5.0) == 0
        finally:
            thread.join(timeout=30)
            listener.close()
        assert got["nodelay"]


class TestKillAndResumeAcceptance:
    """The ISSUE acceptance scenario, end to end on localhost."""

    def test_mid_batch_kill_journals_every_index_exactly_once(
        self, tmp_path
    ):
        """Batched redelivery: a worker killed while holding multi-trial
        batches (some of whose indices are already journalled) must not
        make any index run twice into the journal, and the finished
        report must still match serial byte-for-byte."""
        spec = SweepSpec(ns=(N,), trials=8, seed=7, pairs=4)
        reference = SweepRunner(spec).run().as_dict()

        journal = tmp_path / "sweep.jsonl"
        backend = SocketBackend(
            workers=2, accept_timeout=60.0, batch_size=2
        )
        runner = SweepRunner(
            spec, backend=backend, journal_path=str(journal)
        )
        killed = []
        original_add = runner.state.add

        def add_and_kill(result):
            # Kill a worker on the first durable result: its remaining
            # in-flight batches get requeued with this (journalled)
            # index filtered out.
            if not killed and backend.spawned:
                backend.spawned[0].kill()
                killed.append(True)
            return original_add(result)

        runner.state.add = add_and_kill
        report = runner.run()
        assert killed, "a worker should have been killed mid-run"
        assert json.dumps(report.as_dict(), sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        indices = [
            json.loads(line)["index"]
            for line in journal.read_text().splitlines()[1:]
        ]
        assert sorted(indices) == list(range(8))  # each exactly once

    def test_killed_worker_plus_resume_matches_serial_uninterrupted(
        self, tmp_path
    ):
        spec = SweepSpec(ns=(N,), trials=6, seed=7, pairs=4)
        # Reference: uninterrupted serial run of the same SweepSpec/seed.
        reference = SweepRunner(spec).run().as_dict()

        journal = tmp_path / "sweep.jsonl"
        backend = SocketBackend(workers=2, accept_timeout=60.0)
        killed = []

        def kill_one_worker(point, section) -> None:
            pass  # progress hook unused; kill below is on_result-driven

        runner = SweepRunner(
            spec,
            backend=backend,
            journal_path=str(journal),
            stop_after=4,  # the coordinator "crash"
            on_point_complete=kill_one_worker,
        )
        # Arrange the worker kill on the first journalled result by
        # wrapping the journal append (the earliest durable hook).
        original_append = runner.state.add

        def add_and_kill(result):
            if not killed and backend.spawned:
                backend.spawned[0].kill()  # one worker dies mid-sweep
                killed.append(True)
            return original_append(result)

        runner.state.add = add_and_kill
        with pytest.raises(SweepInterrupted):
            runner.run()
        assert killed, "a worker should have been killed mid-sweep"
        journalled = [
            json.loads(line)
            for line in journal.read_text().splitlines()[1:]
        ]
        assert len(journalled) == 4  # exactly the applied trials, durably

        # Resume from the journal on a fresh socket pool.
        resumed = SweepRunner(
            spec,
            backend=SocketBackend(workers=2, accept_timeout=60.0),
            journal_path=str(journal),
            resume=True,
        ).run()
        assert json.dumps(resumed.as_dict(), sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
