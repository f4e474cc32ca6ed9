"""The in-process workloads: group key, f-AME at scale, and a sweep.

Each operation is built from the workload seed and its index alone, so
the same seed always gives the same inputs and the same results.  An
operation returns an :class:`Op`: its host time, a fingerprint of its
output, exact work counters read from the program's own results and
``NetworkMetrics``, and how many of its parts failed the correctness check.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

# The workloads' geometry, fixed so that run-to-run figures compare.
GROUPKEY_N, GROUPKEY_C, T = 64, 2, 1
FAME_N, FAME_C, FAME_PAIRS = 512, 4, 128
SWEEP_TRIALS = 24


def op_seed(seed: int, index: int) -> int:
    """The seed of operation ``index`` of a run seeded with ``seed``."""
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def fingerprint(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def workers() -> int:
    return os.cpu_count() or 1


@dataclass
class Op:
    """One timed operation and what it produced."""

    seconds: float
    fingerprint: str
    work: dict = field(default_factory=dict)
    attempted: int = 1
    failed: int = 0


def network_work(metrics) -> dict:
    return {
        "rounds": metrics.rounds,
        "payload_units": metrics.payload_units,
        "adversary_transmissions": metrics.adversary_transmissions,
    }


def groupkey_ok(result, t: int) -> bool:
    """At most ``t`` non-holders, and no node holding a different key."""
    key = result.group_key
    disagreeing = [v for v, k in result.adopted.items() if k is not None and k != key]
    return key is not None and len(result.non_holders()) <= t and not disagreeing


def fame_ok(result, metrics, t: int) -> bool:
    """``t``-disruptable, and no spoofed frame was ever delivered."""
    return result.is_d_disruptable(t) and metrics.spoofs_delivered == 0


class GroupKey:
    """``establish_group_key`` at n=64, C=2, t=1 under a random jammer."""

    name = "groupkey"
    modules = ("repro.groupkey.protocol", "repro.adversary", "repro.radio.network")

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def op(self, index: int) -> Op:
        from repro import RadioNetwork, RandomJammer, RngRegistry
        from repro.crypto.dh import DEFAULT_GROUP
        from repro.groupkey.protocol import establish_group_key

        registry = RngRegistry(seed=op_seed(self.seed, index))
        network = RadioNetwork(
            GROUPKEY_N,
            GROUPKEY_C,
            T,
            adversary=RandomJammer(registry.stream("adversary")),
            keep_trace=False,
        )
        start = time.perf_counter()
        result = establish_group_key(
            network, registry.spawn("groupkey"), group=DEFAULT_GROUP
        )
        seconds = time.perf_counter() - start
        key = result.group_key
        failed = 0 if groupkey_ok(result, T) else 1
        work = network_work(network.metrics)
        work.update(
            moves=result.fame_summary.get("moves", 0),
            part1_rounds=result.part1_rounds,
            part2_rounds=result.part2_rounds,
            part3_rounds=result.part3_rounds,
            part2_payload_units=result.part2_payload_units,
        )
        fp = fingerprint((key, sorted(result.adopted.items()), sorted(work.items())))
        return Op(seconds, fp, work, failed=failed)


class Fame:
    """``run_fame`` at n=512, C=4, t=1 against a suffix schedule jammer."""

    name = "fame"
    modules = ("repro.fame.protocol", "repro.adversary", "repro.experiments.workloads")

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def op(self, index: int) -> Op:
        from repro import RadioNetwork, RngRegistry, ScheduleAwareJammer, run_fame
        from repro.experiments.workloads import default_pairs

        registry = RngRegistry(seed=op_seed(self.seed, index))
        network = RadioNetwork(
            FAME_N,
            FAME_C,
            T,
            adversary=ScheduleAwareJammer(
                registry.stream("adversary"), policy="suffix"
            ),
            keep_trace=False,
        )
        pairs = default_pairs(FAME_N, FAME_PAIRS)
        start = time.perf_counter()
        result = run_fame(network, pairs, rng=registry.spawn("fame"))
        seconds = time.perf_counter() - start
        failed = 0 if fame_ok(result, network.metrics, T) else 1
        work = network_work(network.metrics)
        work["moves"] = result.moves
        delivered = sorted(result.delivered_messages().items())
        fp = fingerprint((delivered, sorted(work.items())))
        return Op(seconds, fp, work, failed=failed)


def sweep_spec(seed: int):
    from repro.dispatch.sweep import SweepSpec

    return SweepSpec(
        workloads=("fame", "groupkey"),
        ns=(24,),
        channels=(2,),
        ts=(1,),
        adversaries=("schedule",),
        trials=SWEEP_TRIALS,
        seed=seed,
    )


class Sweep:
    """A two-point sweep through ``default_backend(workers=nproc)``.

    One operation is one whole sweep; its figures are reported per trial.
    ``reference`` is the ``SerialBackend`` report, computed once in the
    correctness gate, that every parallel sweep must reproduce byte for byte.
    """

    name = "sweep"
    modules = ("repro.dispatch.sweep", "repro.dispatch.backend", "repro.experiments.workloads")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference: str | None = None

    def run(self, backend) -> tuple[float, str, object]:
        from repro.dispatch.sweep import SweepRunner

        spec = sweep_spec(self.seed)
        start = time.perf_counter()
        report = SweepRunner(spec, backend=backend).run()
        seconds = time.perf_counter() - start
        return seconds, json.dumps(report.as_dict(), sort_keys=True), report

    def op(self, index: int) -> Op:
        from repro.dispatch.backend import default_backend
        from repro.errors import DispatchError

        total = sweep_spec(self.seed).total_trials
        try:
            seconds, text, report = self.run(default_backend(workers=workers()))
        except DispatchError:  # trials lost in dispatch
            return Op(0.0, "lost", attempted=total, failed=total)
        if text != self.reference:
            return Op(seconds, fingerprint(text), attempted=total, failed=total)
        work = {
            "trials": report.trials,
            "rounds": sum(r.metrics.rounds for r in report.results),
            "payload_units": sum(r.metrics.payload_units for r in report.results),
            "adversary_transmissions": sum(
                r.metrics.adversary_transmissions for r in report.results
            ),
        }
        return Op(
            seconds, fingerprint(text), work, attempted=total, failed=total - report.successes
        )
