"""Tests of the benchmark's own arithmetic and accounting.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import run, serveload, stats, trace, workloads

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Self time on nested spans
# ----------------------------------------------------------------------


def test_self_time_subtracts_children_covered_time():
    clock = FakeClock()
    ledger = trace.Ledger(clock)
    ledger.begin("a")          # t=0
    clock.now = 1.0
    ledger.begin("b")
    clock.now = 3.0
    ledger.end()               # b: 2 s
    clock.now = 4.0
    ledger.begin("c")
    clock.now = 4.5
    ledger.begin("d")
    clock.now = 5.0
    ledger.end()               # d: 0.5 s inside c
    ledger.end()               # c: 1 s, self 0.5 s
    clock.now = 10.0
    ledger.end()               # a: 10 s, children cover 3 s
    assert ledger.self_s == {"b": 2.0, "d": 0.5, "c": 0.5, "a": 7.0}
    assert ledger.total_s["a"] == 10.0
    assert ledger.root_s == 10.0
    assert ledger.edges == {("a", "b"): 1, ("a", "c"): 1, ("c", "d"): 1, ("", "a"): 1}
    assert sum(ledger.self_s.values()) == ledger.root_s


def test_recursive_span_self_times_sum_to_wall_time():
    clock = FakeClock()
    ledger = trace.Ledger(clock)

    def work(depth: int) -> int:
        clock.now += 1.0
        return depth if depth == 0 else traced(depth - 1)

    traced = ledger.wrap("rec", work)
    assert traced(3) == 0
    assert ledger.calls == {"rec": 4}
    assert ledger.self_s["rec"] == 4.0
    assert ledger.total_s["rec"] == 4.0 + 3.0 + 2.0 + 1.0
    assert ledger.root_s == 4.0


def test_span_closes_when_the_call_raises():
    ledger = trace.Ledger(FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        ledger.wrap("boom", boom)()
    assert ledger.calls == {"boom": 1}
    assert ledger._stack == []


def test_absorb_adds_a_ledger_dump():
    clock = FakeClock()
    first, second = trace.Ledger(clock), trace.Ledger(clock)
    for ledger in (first, second):
        ledger.begin("x")
        clock.now += 2.0
        ledger.end()
    first.absorb(json.loads(json.dumps(second.as_dict())))
    assert first.calls == {"x": 2}
    assert first.self_s == {"x": 4.0}
    assert first.edges == {("", "x"): 2}


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_tail_percentile_leaves_ten_samples_above_it():
    values = list(range(1, 1001))
    p = stats.tail_percentile(len(values))
    cut = stats.percentile(values, p)
    assert sum(v > cut for v in values) == 10


def test_tail_or_median_falls_back_to_the_median():
    assert stats.tail_or_median([3.0, 1.0, 2.0]) == 2.0
    assert stats.tail_or_median(list(range(100))) == 89


# ----------------------------------------------------------------------
# Open-loop due-time accounting
# ----------------------------------------------------------------------


def _stalling_server(sock: socket.socket, stall: float) -> None:
    """Answer each request in order; the first one takes ``stall`` seconds."""
    from repro.dispatch.socket_pool import recv_frame, send_frame
    from repro.serve import protocol as p

    first = True
    try:
        while True:
            rid, request = p.decode_request(recv_frame(sock))
            if first:
                time.sleep(stall)
                first = False
            send_frame(sock, p.encode_response(rid, p.Sent(name=request.name, pending=0)))
    except (EOFError, OSError):
        pass


def test_one_stalled_request_delays_the_ones_behind_it():
    from repro.serve import protocol as p

    client, server = socket.socketpair()
    stall = 0.4
    worker = threading.Thread(target=_stalling_server, args=(server, stall), daemon=True)
    worker.start()
    events = [
        serveload.Event(0.05 * i, 0, "s", "send", p.SendMessage(name="s", sender=0, payload=b"x"))
        for i in range(4)
    ]
    try:
        result = serveload.drive([client], events)
    finally:
        client.close()
        worker.join(timeout=5)
        server.close()
    assert not worker.is_alive()
    latency = result.latencies()
    # Requests were sent on time although the first had not been answered...
    assert max(result.lateness()) < 0.1
    # ...and each one behind the stall waited until the stall ended.
    for i, value in enumerate(latency):
        assert value >= stall - 0.05 * i - 0.02
    assert latency[3] > stall - 0.2


def test_failures_count_failure_and_unanswered_responses():
    from repro.serve import protocol as p

    drive = serveload.Drive(
        events=[], due=[], sent=[], answered=[], elapsed=1.0,
        responses=[
            p.Sent(name="s", pending=0),
            p.Failure(p.BUSY, "full"),
            p.Failure(p.UNKNOWN_SESSION, "gone"),
            None,
        ],
    )
    assert serveload.failures(drive) == (3, 1)


# ----------------------------------------------------------------------
# Correctness checks that count into failed_share
# ----------------------------------------------------------------------


def _groupkey_result(adopted: dict, key=b"k"):
    return SimpleNamespace(
        group_key=key,
        adopted=adopted,
        non_holders=lambda: [v for v, k in adopted.items() if k != key],
    )


def test_groupkey_check_counts_non_holders_and_disagreement():
    assert workloads.groupkey_ok(_groupkey_result({0: b"k", 1: b"k", 2: None}), 1)
    assert not workloads.groupkey_ok(_groupkey_result({0: b"k", 1: None, 2: None}), 1)
    assert not workloads.groupkey_ok(_groupkey_result({0: b"k", 1: b"k", 2: b"other"}), 1)
    assert not workloads.groupkey_ok(_groupkey_result({0: None}, key=None), 1)


def test_fame_check_needs_disruptability_and_no_spoof():
    disruptable = SimpleNamespace(is_d_disruptable=lambda d: d >= 1)
    assert workloads.fame_ok(disruptable, SimpleNamespace(spoofs_delivered=0), 1)
    assert not workloads.fame_ok(disruptable, SimpleNamespace(spoofs_delivered=1), 1)
    assert not workloads.fame_ok(disruptable, SimpleNamespace(spoofs_delivered=0), 0)


def test_sweep_op_counts_every_trial_of_a_diverged_report(monkeypatch):
    sweep = workloads.Sweep(seed=1)
    sweep.reference = "reference"
    report = SimpleNamespace(trials=48, successes=48, results=())
    monkeypatch.setattr(sweep, "run", lambda backend: (1.0, "different", report))
    op = sweep.op(0)
    assert (op.attempted, op.failed) == (48, 48)


# ----------------------------------------------------------------------
# Tracing installs and removes cleanly; BENCHMARK.json matches the code
# ----------------------------------------------------------------------


def test_install_wraps_and_uninstall_restores():
    from repro import RadioNetwork, RandomJammer, RngRegistry, run_fame
    from repro.fame import protocol as fame_protocol
    from repro.radio.network import RadioNetwork as Net

    original = Net.__dict__["execute_schedule"]
    original_feedback = fame_protocol.run_feedback

    def exchange():
        network = RadioNetwork(n=20, channels=2, t=1, adversary=RandomJammer(random.Random(1)))
        result = run_fame(network, [(0, 1), (2, 3)], rng=RngRegistry(seed=7))
        return sorted(result.delivered_messages().items()), network.metrics.rounds

    plain = exchange()
    ledger = trace.Ledger()
    installation = trace.install(ledger)
    try:
        assert Net.__dict__["execute_schedule"] is not original
        traced = exchange()
    finally:
        installation.uninstall()
    assert Net.__dict__["execute_schedule"] is original
    assert fame_protocol.run_feedback is original_feedback
    assert traced == plain
    assert ledger.calls["fame"] == 1 and ledger.calls["radio"] > 0
    assert ledger.calls["feedback.serial"] > 0
    assert "crypto.aead" not in ledger.calls
    cov = run.coverage("fame", ledger)
    assert cov["missing"] == ["feedback.parallel"]
    assert cov["unexpected"] == ["feedback.serial"]


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["groupkey", "fame", "serve", "sweep"]
