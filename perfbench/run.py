"""Run one benchmark workload: correctness gate, timing, metrics.

    python3 perfbench/run.py --workload groupkey --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs each
input untraced and traced, back to back, checks that both give identical
results and work counters, and prints every per-layer metric.  The last line of
stdout is the result object; the line before it is the environment block
(commit, Python, nproc, load, seed, per-metric quartiles and sample counts,
exact work counters, trace coverage).  The exit code is 1 when a check
fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import serveload, workloads  # noqa: E402
from perfbench.calibrate import NOMINAL_S, reference_seconds  # noqa: E402
from perfbench.stats import percentile, summarize, tail_or_median  # noqa: E402
from perfbench.trace import Ledger, install, span_names  # noqa: E402

SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "tail_ms": "ms",
    "sim_rounds": "rounds",
}

SERVE_KINDS = ("open", "open-group", "send", "flush", "drain", "rekey", "stats", "close")

# Span name -> (calls metric, self-time metric); both are reported per op.
SPAN_METRICS = {
    "radio": ("radio.calls", "radio.self_s"),
    "adversary": ("adversary.calls", "adversary.self_s"),
    "rng": ("rng.calls", "rng.self_s"),
    "feedback.serial": ("feedback.serial_calls", "feedback.serial_self_s"),
    "feedback.parallel": ("feedback.parallel_calls", "feedback.parallel_self_s"),
    "game": ("game.calls", "game.self_s"),
    "fame": ("fame.calls", "fame.self_s"),
    "crypto.aead": ("crypto.aead_calls", "crypto.aead_self_s"),
    "crypto.dh": ("crypto.dh_calls", "crypto.dh_self_s"),
    "crypto.kdf": ("crypto.kdf_calls", "crypto.kdf_self_s"),
    "groupkey.part1": (None, "groupkey.part1_s"),
    "groupkey.part2": (None, "groupkey.part2_s"),
    "groupkey.part3": (None, "groupkey.part3_s"),
    "service.setup": (None, "service.setup_self_s"),
    "service.flush": (None, "service.flush_self_s"),
    "service.rekey": (None, "service.rekey_self_s"),
    "serve.handle": (None, "serve.handle_s"),
    "experiments.trial": ("experiments.trials", None),
}

# Work counter -> per-layer metric (per op).
WORK_METRICS = {
    "rounds": "radio.rounds",
    "payload_units": "radio.payload_units",
    "adversary_transmissions": "adversary.transmissions",
    "moves": "fame.moves",
    "part1_rounds": "groupkey.part1_rounds",
    "part2_rounds": "groupkey.part2_rounds",
    "part3_rounds": "groupkey.part3_rounds",
    "part2_payload_units": "groupkey.part2_payload_units",
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for calls, self_s in SPAN_METRICS.values():
        if calls:
            units[calls] = "count"
        if self_s:
            units[self_s] = "s"
    for name in WORK_METRICS.values():
        units[name] = "count"
    for kind in SERVE_KINDS:
        units[f"serve.{kind}.p50_ms"] = "ms"
        units[f"serve.{kind}.tail_ms"] = "ms"
    units.update({
        "serve.transport_ms": "ms",
        "serve.busy_share": "share",
        "serve.late_ms": "ms",
        "dispatch.serial_trials_per_s": "1/s",
        "dispatch.efficiency": "share",
        "dispatch.requeues": "count",
        "experiments.trial_s.fame": "s",
        "experiments.trial_s.groupkey": "s",
        "trace.overhead_share": "share",
        "trace.spans": "count",
        "trace.unattributed_s": "s",
    })
    return units


PER_LAYER = per_layer_units()

CORE = {"radio", "adversary", "rng", "game", "fame"}
GROUPKEY = {"crypto.aead", "crypto.dh", "crypto.kdf", "groupkey.part1", "groupkey.part2", "groupkey.part3"}
EXPECTED_HITS = {
    "groupkey": CORE | GROUPKEY | {"feedback.serial"},
    "fame": CORE | {"feedback.parallel"},
    "serve": CORE | GROUPKEY | {"feedback.serial", "service.setup", "service.flush", "service.rekey", "serve.handle"},
    "sweep": CORE | GROUPKEY | {"feedback.serial", "experiments.trial"},
}
"""The boundaries each workload must cross; every other one must record
zero calls (no crypto on ``fame``, no parallel feedback on ``groupkey``)."""


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def loadavg() -> list[float]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest() -> str:
    """Content hash of ``src/``: identifies the program where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def import_seconds(modules: tuple[str, ...]) -> float:
    """Time to import ``modules`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(out.stdout.strip())


# ----------------------------------------------------------------------
# Ledger -> per-layer metrics
# ----------------------------------------------------------------------


def ledger_metrics(ledger: Ledger, ops: int) -> dict[str, float]:
    out: dict[str, float] = {}
    for span, (calls, self_s) in SPAN_METRICS.items():
        if calls:
            out[calls] = ledger.calls.get(span, 0) / ops
        if self_s:
            out[self_s] = ledger.self_s.get(span, 0.0) / ops
    out["trace.spans"] = ledger.spans / ops
    return out


def work_metrics(work: dict, ops: int) -> dict[str, float]:
    return {metric: work.get(key, 0) / ops for key, metric in WORK_METRICS.items()}


def coverage(workload: str, ledger: Ledger) -> dict:
    hits = EXPECTED_HITS[workload]
    missing = sorted(s for s in hits if ledger.calls.get(s, 0) == 0)
    unexpected = sorted(s for s in span_names() if s not in hits and ledger.calls.get(s, 0))
    return {"ok": not missing and not unexpected, "missing": missing, "unexpected": unexpected}


def record_ledger(result: "Result", workload: str, ledger: Ledger, ops: int) -> None:
    """Per-op layer metrics, the coverage self-check and the span edges."""
    cov = coverage(workload, ledger)
    result.checks["coverage"] = cov["ok"]
    result.info["coverage"] = cov
    result.info["ledger_edges"] = ledger.as_dict()["edges"]
    result.layers.update(ledger_metrics(ledger, ops))


def sum_work(ops) -> dict:
    total: dict[str, int] = {}
    for op in ops:
        for key, value in op.work.items():
            total[key] = total.get(key, 0) + value
    return total


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Result:
    """Everything one run measured, before it is printed."""

    def __init__(self) -> None:
        self.setup: list[float] = []
        self.samples: list[float] = []  # seconds per op
        self.ref: list[float] = []  # reference-loop seconds (closed loops)
        self.ops_per_s = 0.0
        self.sim_rounds = 0.0
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.work: dict = {}
        self.layers: dict[str, float] = {}
        self.info: dict = {}

    def count(self, op) -> None:
        self.attempted += op.attempted
        self.failed += op.failed


def timed_ops(wl, result: Result, seconds: float, *, calibrate: bool = False) -> list:
    """Run operations 0, 1, ... back to back until ``seconds`` have passed,
    timing the reference loop before each one when ``calibrate``."""
    ops = []
    start = time.perf_counter()
    index = 0
    while not ops or time.perf_counter() - start < seconds:
        if calibrate:
            result.ref.append(reference_seconds())
        op = wl.op(index)
        result.count(op)
        ops.append(op)
        index += 1
    return ops


def run_closed(wl, seconds: float, trace: bool) -> Result:
    """``groupkey`` and ``fame``: one operation after another."""
    result = Result()
    for rep in range(SETUP_REPS):
        result.ref.append(reference_seconds())
        imported = import_seconds(wl.modules)
        warm = wl.op(-1 - rep)  # untimed warm-up, also the correctness gate
        result.count(warm)
        result.setup.append(imported + warm.seconds)
    result.checks["gate"] = result.failed == 0

    ledger = Ledger()
    if trace:
        ops, traced = traced_pairs(wl, result, ledger, seconds)
    else:
        ops = timed_ops(wl, result, seconds, calibrate=True)
    result.samples = [op.seconds for op in ops]
    result.ops_per_s = len(ops) / sum(result.samples)
    result.sim_rounds = statistics.mean(op.work["rounds"] for op in ops)
    result.work.update(op0=ops[0].work, op0_fingerprint=ops[0].fingerprint)
    if not trace:
        return result

    result.checks["traced_equals_untraced"] = all(
        a.fingerprint == b.fingerprint and a.work == b.work for a, b in zip(ops, traced)
    )
    record_ledger(result, wl.name, ledger, len(ops))
    traced_s = sum(op.seconds for op in traced)
    result.layers.update(work_metrics(sum_work(ops), len(ops)))
    result.layers["trace.overhead_share"] = traced_s / sum(result.samples) - 1
    result.layers["trace.unattributed_s"] = (traced_s - ledger.root_s) / len(ops)
    return result


def traced_pairs(wl, result: Result, ledger: Ledger, seconds: float) -> tuple[list, list]:
    """Each operation untraced and traced, back to back, alternating which
    goes first, so that host drift cancels out of the overhead."""
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while not plain or time.perf_counter() - start < seconds:
        result.ref.append(reference_seconds())
        for tracing in ((False, True) if index % 2 == 0 else (True, False)):
            installation = install(ledger) if tracing else None
            try:
                op = wl.op(index)
            finally:
                if installation is not None:
                    installation.uninstall()
            (traced if tracing else plain).append(op)
            if tracing and index == 0:
                result.work["op0_spans"] = dict(sorted(ledger.calls.items()))
        result.count(plain[-1])
        index += 1
    return plain, traced


def run_sweep(seconds: float, seed: int, trace: bool) -> Result:
    """Whole sweeps through ``default_backend(workers=nproc)``."""
    from repro.dispatch.backend import ResultAssembler, SerialBackend, default_backend
    from repro.dispatch.sweep import SweepReport

    wl = workloads.Sweep(seed)
    result = Result()
    warm_spec = workloads.sweep_spec(seed + 1)
    for _ in range(SETUP_REPS):
        imported = import_seconds(wl.modules)
        start = time.perf_counter()
        # Warm-up: a few trials through a fresh pool (the backend builds
        # its pool per run, so warming means paying its first start).
        default_backend(workers=workloads.workers()).run(warm_spec.specs()[:4])
        result.setup.append(imported + time.perf_counter() - start)

    # Correctness gate: the serial reference report, with per-trial times.
    spec = workloads.sweep_spec(seed)
    specs = spec.specs()
    kinds = {s.index: s.workload for s in specs}
    stamps: list[tuple[str, float]] = []
    last = [time.perf_counter()]

    def stamp(trial) -> None:
        now = time.perf_counter()
        stamps.append((kinds[trial.index], now - last[0]))
        last[0] = now

    start = last[0] = time.perf_counter()
    serial_results = SerialBackend().run(specs, on_result=stamp)
    serial_s = time.perf_counter() - start
    wl.reference = json.dumps(SweepReport.build(spec, serial_results).as_dict(), sort_keys=True)

    requeues = [0]
    original_apply = ResultAssembler.apply

    def counting_apply(self, trial):
        applied = original_apply(self, trial)
        requeues[0] += not applied
        return applied

    if trace:
        ResultAssembler.apply = counting_apply
    try:
        ops = timed_ops(wl, result, seconds / 2 if trace else seconds)
    finally:
        ResultAssembler.apply = original_apply
    trials = spec.total_trials
    result.samples = [op.seconds / trials for op in ops]
    result.ops_per_s = len(ops) * trials / sum(op.seconds for op in ops)
    result.sim_rounds = ops[0].work.get("rounds", 0) / trials
    result.work = {"sweep": ops[0].work, "fingerprint": ops[0].fingerprint}
    if not trace:
        return result

    # Every trial untraced and traced, back to back, alternating the order.
    from repro.dispatch import backend as backend_module

    ledger = Ledger()
    plain_s = traced_s = 0.0
    traced_results = []
    for spec_ in specs:
        for tracing in ((False, True) if spec_.index % 2 == 0 else (True, False)):
            installation = install(ledger, trial_spans=True) if tracing else None
            try:
                start = time.perf_counter()
                trial = backend_module.run_trial(spec_)
                elapsed = time.perf_counter() - start
            finally:
                if installation is not None:
                    installation.uninstall()
            if tracing:
                traced_s += elapsed
                traced_results.append(trial)
            else:
                plain_s += elapsed
    text = json.dumps(SweepReport.build(spec, traced_results).as_dict(), sort_keys=True)
    result.checks["traced_equals_untraced"] = text == wl.reference
    record_ledger(result, "sweep", ledger, trials)
    result.work["spans"] = dict(sorted(ledger.calls.items()))
    serial_tps = trials / serial_s
    result.layers.update(work_metrics(ops[0].work, trials))
    for kind in ("fame", "groupkey"):
        times = [s for k, s in stamps if k == kind]
        result.layers[f"experiments.trial_s.{kind}"] = statistics.median(times)
    result.layers["dispatch.serial_trials_per_s"] = serial_tps
    result.layers["dispatch.efficiency"] = result.ops_per_s / (serial_tps * workloads.workers())
    result.layers["dispatch.requeues"] = requeues[0]
    result.layers["trace.overhead_share"] = traced_s / plain_s - 1
    result.layers["trace.unattributed_s"] = (traced_s - ledger.root_s) / trials
    return result


def responses(drive: serveload.Drive) -> list[bytes]:
    return [serveload.canonical(r) if r is not None else b"" for r in drive.responses]


def run_serve(seconds: float, seed: int, trace: bool) -> Result:
    """An open loop of session lifecycles against the daemon."""
    result = Result()
    conns = workloads.workers()
    warm_events = serveload.make_schedule(seed + 1, 0.01, conns, prefix="warm")  # one session
    daemon = None
    try:
        for rep in range(SETUP_REPS):
            if daemon is not None:
                daemon.stop()
            imported = import_seconds(("repro.serve.client", "repro.serve.protocol"))
            start = time.perf_counter()
            daemon = serveload.Daemon(ROOT, seed)
            daemon.connect(conns)
            warm = serveload.drive(daemon.socks, warm_events)
            result.setup.append(imported + time.perf_counter() - start)
        result.checks["gate"] = responses(warm) == serveload.replay(seed, warm_events)

        events = serveload.make_schedule(seed, seconds / 2 if trace else seconds, conns)
        drive = serveload.drive(daemon.socks, events)
    finally:
        if daemon is not None:
            daemon.stop()

    failed, busy = serveload.failures(drive)
    result.attempted, result.failed = len(events), failed
    # Correctness: every response equals a synchronous host replay's.
    daemon_bytes = responses(drive)
    result.checks["replay_equals_daemon"] = daemon_bytes == serveload.replay(seed, events)
    latencies = drive.latencies()
    result.samples = latencies
    result.ops_per_s = (len(events) - failed) / drive.elapsed
    rounds = serveload.sim_rounds(drive)
    result.sim_rounds = rounds / len(events)
    result.work = {
        "requests": len(events),
        "sessions": len({e.session for e in events}),
        "rounds": rounds,
        "fingerprint": workloads.fingerprint(daemon_bytes),
    }
    result.info["offered"] = {
        "session_rate_per_s": serveload.SESSION_RATE,
        "group_every": serveload.GROUP_EVERY,
        "request_gap_s": serveload.REQUEST_GAP_S,
        "connections": conns,
    }
    if not trace:
        return result

    traced_daemon = serveload.Daemon(ROOT, seed, traced=True)
    try:
        traced_daemon.connect(conns)
        traced_drive = serveload.drive(traced_daemon.socks, events)
    finally:
        out = traced_daemon.stop()
    ledger = Ledger()
    ledger.absorb(json.loads(out.strip().splitlines()[-1]))
    result.checks["traced_equals_untraced"] = responses(traced_drive) == daemon_bytes
    requests = len(events)
    record_ledger(result, "serve", ledger, requests)
    result.work["spans"] = dict(sorted(ledger.calls.items()))
    result.layers.update(work_metrics({"rounds": rounds}, requests))
    for kind in SERVE_KINDS:
        kind_latency = drive.latencies(kind)
        if not kind_latency:
            continue
        result.layers[f"serve.{kind}.p50_ms"] = statistics.median(kind_latency) * 1e3
        result.layers[f"serve.{kind}.tail_ms"] = tail_or_median(kind_latency) * 1e3
    handle_total = ledger.total_s.get("serve.handle", 0.0)
    traced_latencies = traced_drive.latencies()
    result.layers["serve.transport_ms"] = (
        statistics.mean(traced_latencies) - handle_total / requests
    ) * 1e3
    result.layers["serve.busy_share"] = busy / requests
    result.layers["serve.late_ms"] = tail_or_median(drive.lateness()) * 1e3
    # The overhead is measured on the host's own work, in this process, with
    # traced and untraced calls interleaved; the daemon runs drift apart.
    replayed, plain_s, traced_s = serveload.replay_traced(seed, events, install(Ledger()))
    result.checks["traced_replay_equals_daemon"] = replayed == daemon_bytes
    result.layers["trace.overhead_share"] = traced_s / plain_s - 1
    return result


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def scale(value: float, unit: str, factor: float) -> float:
    """A host time moved to nominal host speed; other figures unchanged."""
    if unit in ("s", "ms"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def named_metrics(workload: str, result: Result) -> dict:
    """The workload's figures under the names the paper-facing docs use."""
    ms = [v * 1e3 for v in result.samples]
    named: dict = {"failed_share": result.failed / max(1, result.attempted), "sim_rounds": result.sim_rounds}
    if workload == "groupkey":
        named["key_s"] = summarize(result.samples)
    elif workload == "fame":
        named["exchange_s"] = summarize(result.samples)
    elif workload == "serve":
        named["req_p50_ms"] = statistics.median(ms)
        named["req_p99_ms"] = percentile(ms, 99.0)
        named["requests_per_s"] = result.ops_per_s
    else:
        named["trials_per_s"] = result.ops_per_s
    return named


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("groupkey", "fame", "serve", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    load_before = loadavg()
    trace = bool(args.trace)
    if args.workload == "serve":
        result = run_serve(args.seconds, args.seed, trace)
    elif args.workload == "sweep":
        result = run_sweep(args.seconds, args.seed, trace)
    else:
        cls = workloads.GroupKey if args.workload == "groupkey" else workloads.Fame
        result = run_closed(cls(args.seed), args.seconds, trace)

    e2e = {
        "setup_s": statistics.median(result.setup),
        "op_ms": statistics.median(result.samples) * 1e3,
        "tail_ms": tail_or_median(result.samples) * 1e3,
        "sim_rounds": result.sim_rounds,
    }
    # Closed loops report operation times at nominal host speed
    # (calibrate.py).  Set-up time stays raw: it includes a fresh
    # interpreter, and scaling made its spread worse.
    factor = NOMINAL_S / statistics.median(result.ref) if result.ref else 1.0
    if trace:
        units = PER_LAYER
        values = {
            name: scale(float(result.layers.get(name, 0.0)), unit, factor)
            for name, unit in units.items()
        }
    else:
        units = END_TO_END
        values = dict(e2e, op_ms=e2e["op_ms"] * factor, tail_ms=e2e["tail_ms"] * factor)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    quartiles = {
        "setup_s": summarize(result.setup),
        "op_ms": summarize([v * 1e3 * factor for v in result.samples]),
    }
    correct = all(result.checks.values()) and result.failed == 0
    env = {
        "env": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "commit": commit(),
            "src_digest": src_digest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": loadavg(),
        },
        "checks": result.checks,
        "raw_end_to_end": e2e,
        "host_speed": {"reference_s": summarize(result.ref), "factor": factor} if result.ref else None,
        "named": named_metrics(args.workload, result),
        "quartiles": quartiles,
        "work": result.work,
        **result.info,
    }
    print(json.dumps(env, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
