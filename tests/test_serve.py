"""Tests for the multi-session key-service daemon (repro.serve)."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ServiceError
from repro.serve import ServeDaemon, ServiceClient, SessionHost
from repro.serve import protocol as p


# ----------------------------------------------------------------------
# Protocol: typed frames <-> plain dicts
# ----------------------------------------------------------------------


class TestProtocol:
    def test_request_round_trips(self):
        requests = [
            p.OpenSession(name="a", n=6, adversary="random"),
            p.JoinSession(name="a"),
            p.LeaveSession(name="a"),
            p.CloseSession(name="a"),
            p.SendMessage(name="a", sender=0, payload=b"x"),
            p.Flush(name="a", max_rounds=3),
            p.DrainInbox(name="a", member=2, include_former=True),
            p.Rekey(name="a", compromised=(1, 2)),
            p.SessionStatsReq(name="a"),
            p.ListSessions(),
            p.Shutdown(),
        ]
        for i, request in enumerate(requests):
            frame = p.encode_request(i, request)
            assert isinstance(frame, dict) and frame["req"] == i
            req_id, decoded = p.decode_request(frame)
            assert req_id == i
            assert decoded == request

    def test_response_round_trips(self):
        responses = [
            p.SessionOpened(
                name="a", members=(0, 1), mode="preshared",
                epoch_length=21, setup_rounds=0, generation=0,
            ),
            p.Flushed(
                name="a", deliveries=((1, 0, 0, b"x"),),
                emulated_rounds=1, pending=0,
                rekeys=((1, 0, (0, 1), (), (), 42),),
            ),
            p.InboxBatch(name="a", member=1, deliveries=((0, 0, b"x"),)),
            p.RekeyDone(
                name="a", generation=1, distributor=0, members=(0, 1),
                excluded=(2,), dropped=(3,), rounds=84,
            ),
            p.Failure(code="busy", message="try later"),
        ]
        for i, response in enumerate(responses):
            req_id, decoded = p.decode_response(p.encode_response(i, response))
            assert req_id == i
            assert decoded == response

    def test_wire_frames_are_plain_dicts(self):
        # The restricted unpickler's allowlist is never widened for
        # serve: nothing but containers and scalars may hit the wire.
        def assert_plain(value):
            if isinstance(value, (list, tuple)):
                for item in value:
                    assert_plain(item)
            elif isinstance(value, dict):
                for k, v in value.items():
                    assert_plain(k)
                    assert_plain(v)
            else:
                assert value is None or isinstance(
                    value, (str, bytes, int, float, bool)
                ), f"non-plain value on the wire: {value!r}"

        assert_plain(p.encode_request(1, p.OpenSession(name="a")))
        assert_plain(
            p.encode_response(
                1,
                p.Flushed(
                    name="a", deliveries=((1, 0, 0, b"x"),),
                    emulated_rounds=1, pending=0,
                ),
            )
        )

    def test_lists_normalised_to_tuples(self):
        frame = {
            "kind": "rekey", "req": 1, "name": "a", "compromised": [3, 4],
        }
        _, decoded = p.decode_request(frame)
        assert decoded.compromised == (3, 4)

    def test_malformed_frames_raise_bad_request(self):
        for frame in (
            "not-a-dict",
            {"kind": "no-such-kind", "req": 1},
            {"kind": "send", "req": 1, "bogus_field": 1},
        ):
            with pytest.raises(ServiceError) as err:
                p.decode_request(frame)
            assert err.value.code == p.BAD_REQUEST

    def test_failure_codes_catalogued(self):
        assert p.BUSY in p.FAILURE_CODES
        assert p.UNKNOWN_SESSION in p.FAILURE_CODES
        with pytest.raises(ServiceError) as err:
            p.Failure(code=p.BUSY, message="m").raise_()
        assert err.value.code == p.BUSY and err.value.detail == "m"

    def test_delivery_row_round_trip(self):
        delivery = p.row_delivery((7, 3, b"payload"))
        assert delivery.emulated_round == 7
        assert delivery.sender == 3
        assert delivery.payload == b"payload"
        assert p.inbox_row(delivery) == (7, 3, b"payload")


# ----------------------------------------------------------------------
# SessionHost: the clock-free brain
# ----------------------------------------------------------------------


def open_default(host, token=1, name="s", **kwargs):
    kwargs.setdefault("n", 6)
    response = host.handle(token, p.OpenSession(name=name, **kwargs))
    assert not isinstance(response, p.Failure), response
    return response


class TestSessionHost:
    def test_open_send_flush_drain(self):
        host = SessionHost(seed=1)
        opened = open_default(host)
        assert opened.members == (0, 1, 2, 3, 4, 5)
        assert opened.setup_rounds == 0
        host.handle(1, p.SendMessage(name="s", sender=0, payload=b"hi"))
        flushed = host.handle(1, p.Flush(name="s"))
        assert flushed.emulated_rounds == 1
        assert len(flushed.deliveries) == 5  # every other member heard it
        batch = host.handle(1, p.DrainInbox(name="s", member=3))
        assert batch.deliveries == ((0, 0, b"hi"),)

    def test_drain_cursor_is_per_connection(self):
        host = SessionHost(seed=1)
        open_default(host, token=1)
        host.handle(1, p.JoinSession(name="s"))
        host.handle(2, p.JoinSession(name="s"))
        host.handle(1, p.SendMessage(name="s", sender=0, payload=b"m"))
        host.handle(1, p.Flush(name="s"))
        assert len(host.handle(1, p.DrainInbox(name="s", member=1)).deliveries) == 1
        assert len(host.handle(1, p.DrainInbox(name="s", member=1)).deliveries) == 0
        # the second connection has its own cursor: still sees everything
        assert len(host.handle(2, p.DrainInbox(name="s", member=1)).deliveries) == 1

    def test_send_backpressure_is_busy_without_side_effects(self):
        host = SessionHost(seed=1)
        open_default(host, max_pending=2)
        host.handle(1, p.SendMessage(name="s", sender=0, payload=b"a"))
        host.handle(1, p.SendMessage(name="s", sender=0, payload=b"b"))
        refused = host.handle(1, p.SendMessage(name="s", sender=0, payload=b"c"))
        assert isinstance(refused, p.Failure) and refused.code == p.BUSY
        # the refusal queued nothing: a flush drains exactly two
        flushed = host.handle(1, p.Flush(name="s"))
        assert flushed.emulated_rounds == 2

    def test_session_table_bound_is_busy(self):
        host = SessionHost(seed=1, max_sessions=2)
        open_default(host, name="a")
        open_default(host, name="b")
        refused = host.handle(1, p.OpenSession(name="c", n=6))
        assert isinstance(refused, p.Failure) and refused.code == p.BUSY

    def test_duplicate_and_unknown_session(self):
        host = SessionHost(seed=1)
        open_default(host)
        dup = host.handle(1, p.OpenSession(name="s", n=6))
        assert isinstance(dup, p.Failure) and dup.code == p.DUPLICATE_SESSION
        missing = host.handle(1, p.Flush(name="nope"))
        assert isinstance(missing, p.Failure)
        assert missing.code == p.UNKNOWN_SESSION

    def test_invalid_configs_are_typed(self):
        host = SessionHost(seed=1)
        for request in (
            p.OpenSession(name="x", n=6, mode="nonsense"),
            p.OpenSession(name="x", n=6, max_pending=0),
            p.OpenSession(name="x", n=6, rekey_interval=-1),
            p.OpenSession(name="x", n=6, mode="group"),  # n too small
            p.OpenSession(name="x", n=6, adversary="no-such-adversary"),
            p.OpenSession(name=""),
        ):
            response = host.handle(1, request)
            assert isinstance(response, p.Failure), request
            assert response.code == p.INVALID_CONFIG, request
        assert host.sessions == {}

    def test_membership_failures_are_typed(self):
        host = SessionHost(seed=1)
        open_default(host)
        refused = host.handle(1, p.SendMessage(name="s", sender=99, payload=b"x"))
        assert isinstance(refused, p.Failure)
        assert refused.code == p.NOT_A_MEMBER
        never = host.handle(1, p.DrainInbox(name="s", member=99))
        assert isinstance(never, p.Failure) and never.code == p.NOT_A_MEMBER
        host.handle(1, p.Rekey(name="s", compromised=(5,)))
        former = host.handle(1, p.DrainInbox(name="s", member=5))
        assert isinstance(former, p.Failure)
        assert former.code == p.FORMER_MEMBER
        ok = host.handle(
            1, p.DrainInbox(name="s", member=5, include_former=True)
        )
        assert isinstance(ok, p.InboxBatch)

    def test_rekey_excludes_and_reports(self):
        host = SessionHost(seed=1)
        open_default(host)
        done = host.handle(1, p.Rekey(name="s", compromised=(5,)))
        assert done.generation == 1
        assert done.members == (0, 1, 2, 3, 4)
        assert done.excluded == (5,)
        assert done.dropped == ()
        # traffic still flows on the fresh key
        host.handle(1, p.SendMessage(name="s", sender=0, payload=b"post"))
        flushed = host.handle(1, p.Flush(name="s"))
        assert len(flushed.deliveries) == 4

    def test_rekey_without_leader_is_typed(self):
        host = SessionHost(seed=1)
        open_default(host)
        refused = host.handle(
            1, p.Rekey(name="s", compromised=(0, 1, 2, 3, 4, 5))
        )
        assert isinstance(refused, p.Failure)
        assert refused.code == p.REKEY_FAILED

    def test_scheduled_rekeys_fire_during_flush(self):
        host = SessionHost(seed=1)
        open_default(host, rekey_interval=2)
        for i in range(5):
            host.handle(1, p.SendMessage(name="s", sender=0, payload=b"%d" % i))
        flushed = host.handle(1, p.Flush(name="s"))
        assert flushed.emulated_rounds == 5
        assert len(flushed.rekeys) == 2  # after rounds 2 and 4
        generations = [row[0] for row in flushed.rekeys]
        assert generations == [1, 2]
        stats = host.handle(1, p.SessionStatsReq(name="s"))
        assert stats.generation == 2 and stats.rekeys == 2
        # deliveries span the re-keys: all five messages arrived
        assert len(flushed.deliveries) == 5 * 5

    def test_flush_budget_is_per_call(self):
        host = SessionHost(seed=1)
        open_default(host)
        for i in range(4):
            host.handle(1, p.SendMessage(name="s", sender=0, payload=b"%d" % i))
        first = host.handle(1, p.Flush(name="s", max_rounds=2))
        assert first.emulated_rounds == 2 and first.pending == 2
        second = host.handle(1, p.Flush(name="s", max_rounds=2))
        assert second.emulated_rounds == 2 and second.pending == 0

    def test_detach_forgets_cursors_but_keeps_sessions(self):
        host = SessionHost(seed=1)
        open_default(host, token=7)
        host.handle(7, p.SendMessage(name="s", sender=0, payload=b"m"))
        host.handle(7, p.Flush(name="s"))
        host.handle(7, p.DrainInbox(name="s", member=1))
        host.detach(7)
        assert "s" in host.sessions
        assert host.sessions["s"].attached == set()
        # a reconnecting client re-reads from the start
        assert len(host.handle(8, p.DrainInbox(name="s", member=1)).deliveries) == 1

    def test_close_session_frees_the_name(self):
        host = SessionHost(seed=1)
        open_default(host)
        host.handle(1, p.CloseSession(name="s"))
        assert host.handle(1, p.ListSessions()).names == ()
        assert isinstance(open_default(host), p.SessionOpened)

    def test_shutdown_blocks_new_opens(self):
        host = SessionHost(seed=1)
        assert isinstance(host.handle(1, p.Shutdown()), p.ShuttingDown)
        refused = host.handle(1, p.OpenSession(name="s", n=6))
        assert isinstance(refused, p.Failure)
        assert refused.code == p.SHUTTING_DOWN

    def test_adversarial_session_still_delivers(self):
        host = SessionHost(seed=1)
        open_default(host, adversary="random")
        host.handle(1, p.SendMessage(name="s", sender=0, payload=b"jammed?"))
        flushed = host.handle(1, p.Flush(name="s"))
        assert len(flushed.deliveries) == 5  # whp through the epoch


# ----------------------------------------------------------------------
# Daemon + client end to end
# ----------------------------------------------------------------------


@pytest.fixture
def daemon():
    d = ServeDaemon(seed=11)
    host, port = d.bind()
    thread = threading.Thread(target=d.run, daemon=True)
    thread.start()
    yield d, host, port
    d.request_stop()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestDaemonEndToEnd:
    def test_smoke_two_sessions_one_jammed_rekey_mid_traffic(self, daemon):
        _d, host, port = daemon
        with ServiceClient(host, port, name="t") as client:
            client.open_session("quiet", n=6)
            client.open_session("noisy", n=6, adversary="random")
            for name in ("quiet", "noisy"):
                client.send(name, 0, b"first")
                flushed = client.flush(name)
                assert len(flushed.deliveries) == 5
            done = client.rekey("noisy", (5,))
            assert done.generation == 1 and done.excluded == (5,)
            for name in ("quiet", "noisy"):
                client.send(name, 1, b"second")
                client.flush(name)
            assert [d.payload for d in client.drain_inbox("quiet", 2)] == [
                b"first", b"second",
            ]
            assert [d.payload for d in client.drain_inbox("noisy", 2)] == [
                b"first", b"second",
            ]
            with pytest.raises(ServiceError) as err:
                client.drain_inbox("noisy", 5)
            assert err.value.code == p.FORMER_MEMBER

    def test_two_clients_share_a_session(self, daemon):
        _d, host, port = daemon
        with ServiceClient(host, port, name="a") as alice:
            alice.open_session("shared", n=6)
            alice.send("shared", 0, b"from-alice")
            alice.flush("shared")
            with ServiceClient(host, port, name="b") as bob:
                joined = bob.join_session("shared")
                assert joined.members == (0, 1, 2, 3, 4, 5)
                assert [
                    d.payload for d in bob.drain_inbox("shared", 1)
                ] == [b"from-alice"]
            stats = alice.stats("shared")
            assert stats.attached == 1  # bob's disconnect detached him

    def test_busy_failure_round_trips(self, daemon):
        _d, host, port = daemon
        with ServiceClient(host, port, name="t") as client:
            client.open_session("tiny", n=6, max_pending=1)
            client.send("tiny", 0, b"a")
            with pytest.raises(ServiceError) as err:
                client.send("tiny", 0, b"b")
            assert err.value.code == p.BUSY
            client.flush("tiny")
            client.send("tiny", 0, b"b")  # drained: accepted again

    def test_handshake_rejects_wrong_protocol(self, daemon):
        import socket as socket_mod

        from repro.dispatch.socket_pool import recv_frame, send_frame

        _d, host, port = daemon
        with socket_mod.create_connection((host, port), timeout=10) as sock:
            send_frame(sock, {"kind": "hello", "protocol": 999})
            reply = recv_frame(sock)
            assert reply["kind"] == "reject"
            assert "999" in reply["reason"]

    def test_malformed_request_gets_typed_failure(self, daemon):
        import socket as socket_mod

        from repro.dispatch.socket_pool import recv_frame, send_frame

        _d, host, port = daemon
        with socket_mod.create_connection((host, port), timeout=10) as sock:
            send_frame(sock, {"kind": "hello", "protocol": p.SERVE_PROTOCOL})
            assert recv_frame(sock)["kind"] == "welcome"
            send_frame(sock, {"kind": "no-such-kind", "req": 5})
            reply = recv_frame(sock)
            assert reply["kind"] == "fail" and reply["req"] == 5
            assert reply["code"] == p.BAD_REQUEST
            # the connection survives a bad request
            send_frame(sock, {"kind": "list-sessions", "req": 6})
            assert recv_frame(sock)["kind"] == "session-list"

    def test_accepted_connections_disable_nagle(self, daemon):
        import socket as socket_mod

        d, host, port = daemon
        with ServiceClient(host, port, name="t") as client:
            client.list_sessions()  # answered: the daemon has accepted
            (accepted,) = [c.sock for c in d._clients.values()]
            assert accepted.getsockopt(
                socket_mod.IPPROTO_TCP, socket_mod.TCP_NODELAY
            )

    def test_clean_shutdown_acknowledged(self):
        d = ServeDaemon(seed=3)
        host, port = d.bind()
        thread = threading.Thread(target=d.run, daemon=True)
        thread.start()
        with ServiceClient(host, port, name="t") as client:
            client.open_session("s", n=6)
            client.shutdown()  # acknowledged before the listener closes
        thread.join(timeout=10)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# The acceptance bar: >= 100 concurrent sessions, byte-identical to
# driving the same sessions synchronously one at a time.
# ----------------------------------------------------------------------


SESSIONS = 100
ACCEPT_SEED = 2008


def session_script(name: str, index: int):
    """The deterministic op sequence each acceptance session runs."""
    ops = []
    for message_round in range(2):
        sender = (index + message_round) % 6
        ops.append(("send", sender, b"%s:%d" % (name.encode(), message_round)))
        ops.append(("flush",))
    if index % 10 == 0:
        ops.append(("rekey", (5,)))
        ops.append(("send", 0, b"%s:post-rekey" % name.encode()))
        ops.append(("flush",))
    return ops


def apply_op(do, name: str, op):
    """Run one script op through ``do`` (a request executor)."""
    if op[0] == "send":
        do(p.SendMessage(name=name, sender=op[1], payload=op[2]))
    elif op[0] == "flush":
        do(p.Flush(name=name))
    elif op[0] == "rekey":
        do(p.Rekey(name=name, compromised=op[1]))


def drain_all(do, name: str):
    """Every member's inbox rows for a finished session, by member."""
    out = {}
    for member in range(6):
        batch = do(
            p.DrainInbox(name=name, member=member, include_former=True)
        )
        out[member] = batch.deliveries
    return out


class TestAcceptanceHundredSessions:
    def test_daemon_matches_synchronous_drive(self):
        names = [f"s{i:03d}" for i in range(SESSIONS)]
        scripts = {
            name: session_script(name, i) for i, name in enumerate(names)
        }

        # -- daemon path: all sessions live concurrently, ops interleaved
        # round-robin across sessions (maximal multiplexing churn).
        daemon = ServeDaemon(seed=ACCEPT_SEED)
        host, port = daemon.bind()
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        via_daemon = {}
        with ServiceClient(host, port, name="acceptance") as client:
            def do(request):
                return client.request(request)

            for name in names:
                client.open_session(name, n=6)
            assert len(client.list_sessions()) == SESSIONS
            longest = max(len(s) for s in scripts.values())
            for step in range(longest):
                for name in names:
                    script = scripts[name]
                    if step < len(script):
                        apply_op(do, name, script[step])
            for name in names:
                via_daemon[name] = drain_all(do, name)
            client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()

        # -- synchronous path: a fresh host with the same seed, each
        # session created, driven to completion, and drained before the
        # next one is even opened.
        sync_host = SessionHost(seed=ACCEPT_SEED)
        via_sync = {}
        for name in names:
            def do(request, _token=1):
                response = sync_host.handle(_token, request)
                assert not isinstance(response, p.Failure), response
                return response

            do(p.OpenSession(name=name, n=6))
            for op in scripts[name]:
                apply_op(do, name, op)
            via_sync[name] = drain_all(do, name)
            do(p.CloseSession(name=name))

        assert via_daemon == via_sync  # byte-identical, per member, per session

    def test_rekeyed_sessions_really_rekeyed(self):
        # Companion sanity check: the acceptance script's rekey ops did
        # change generations (the equality above is not vacuous).
        sync_host = SessionHost(seed=ACCEPT_SEED)
        name = "s000"
        sync_host.handle(1, p.OpenSession(name=name, n=6))
        for op in session_script(name, 0):
            apply_op(lambda r: sync_host.handle(1, r), name, op)
        stats = sync_host.handle(1, p.SessionStatsReq(name=name))
        assert stats.generation == 1
        assert stats.members == (0, 1, 2, 3, 4)
