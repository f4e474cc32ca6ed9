"""Monte Carlo harness benchmark: serial vs multiprocess trial throughput.

The w.h.p. sweeps (disruptability, Figure 3) run many independent seeded
f-AME executions: a one-point ``repro.dispatch.SweepSpec`` run by
``SweepRunner`` through ``default_backend(workers)`` — the
``python -m repro montecarlo`` path, serial at one worker and a
``multiprocessing`` pool above.  This benchmark measures trials/sec of the
same sweep at ``--workers 1`` versus ``--workers N`` and — **before**
reporting any speedup — asserts that the two runs' merged metrics and
per-trial outcomes are byte-identical, so a determinism regression fails
the bench rather than inflating it.

Run ``PYTHONPATH=src python benchmarks/bench_montecarlo.py`` to regenerate
``benchmarks/BENCH_montecarlo.json`` (n=256, 64 trials, 4 workers);
``--quick`` is the CI smoke mode (n=64, 16 trials, 2 workers, no JSON).
The ``--min-speedup`` floor is enforced only when the machine actually has
at least ``--workers`` CPUs (``os.cpu_count()``): a process pool cannot
beat serial on fewer cores, and the committed baseline records the core
count alongside the numbers so they stay interpretable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.dispatch import SweepRunner, SweepSpec, default_backend


def run_sweep(
    n: int, trials: int, workers: int, pairs: int, seed: int
) -> tuple[dict, float]:
    """One full sweep; returns (its point's report section, trials/sec)."""
    spec = SweepSpec(
        workloads=("fame",),
        ns=(n,),
        channels=(2,),
        ts=(1,),
        adversaries=("schedule",),
        trials=trials,
        seed=seed,
        pairs=pairs,
    )
    runner = SweepRunner(spec, backend=default_backend(workers))
    start = time.perf_counter()
    report = runner.run()
    elapsed = time.perf_counter() - start
    (point,) = report.as_dict()["points"]
    return point, trials / elapsed


def assert_equivalent(serial: dict, parallel: dict, n: int) -> None:
    """Serial and parallel sweeps must agree before any timing is trusted."""
    for section in ("merged_metrics", "trial_outcomes", "success_rate",
                    "disruptability"):
        a = json.dumps(serial[section], sort_keys=True)
        b = json.dumps(parallel[section], sort_keys=True)
        if a != b:
            raise AssertionError(
                f"serial/parallel divergence at n={n} in {section!r}:\n"
                f"  serial:   {a[:200]}\n  parallel: {b[:200]}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Monte Carlo harness throughput benchmark"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: small n, few trials, no JSON written",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size for the parallel sweep (default: 4, quick: 2)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="fail (exit 1) if the largest-n parallel speedup drops below "
        "this — enforced only when os.cpu_count() >= workers",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="output path for the JSON baseline (default: "
        "benchmarks/BENCH_montecarlo.json; written automatically in full "
        "mode, and in --quick mode only when this flag is given)",
    )
    args = parser.parse_args(argv)
    json_path = (
        args.json
        if args.json is not None
        else Path(__file__).parent / "BENCH_montecarlo.json"
    )
    write_json = not args.quick or args.json is not None

    workers = (
        args.workers if args.workers is not None
        else (2 if args.quick else 4)
    )
    # (n, trials, pairs): trials >= 64 at n >= 256 for the committed run.
    sweeps = [(64, 16, 16)] if args.quick else [(64, 64, 16), (256, 64, 16)]
    seed = 7
    cpu_count = os.cpu_count() or 1

    results: dict[str, dict] = {}
    for n, trials, pairs in sweeps:
        serial, serial_tps = run_sweep(n, trials, 1, pairs, seed)
        parallel, parallel_tps = run_sweep(n, trials, workers, pairs, seed)
        assert_equivalent(serial, parallel, n)
        results[str(n)] = {
            "trials": trials,
            "pairs": pairs,
            "workers": workers,
            "serial_trials_per_sec": round(serial_tps, 2),
            "parallel_trials_per_sec": round(parallel_tps, 2),
            "speedup": round(parallel_tps / serial_tps, 2),
        }
        print(
            f"n={n:>4}  trials={trials}  serial={serial_tps:.2f}/s  "
            f"{workers} workers={parallel_tps:.2f}/s  "
            f"speedup={parallel_tps / serial_tps:.2f}x  (equivalence OK)"
        )

    n_max = str(max(n for n, _t, _p in sweeps))
    speedup = results[n_max]["speedup"]
    enforceable = cpu_count >= workers
    if write_json:
        payload = {
            "generated_by": "benchmarks/bench_montecarlo.py",
            "workload": {
                "workload": "fame",
                "adversary": "schedule",
                "channels": 2,
                "t": 1,
                "seed": seed,
                "equivalence": "serial vs parallel merged metrics, trial "
                "outcomes, Wilson intervals, and disruptability histograms "
                "asserted byte-identical before timing",
            },
            "python": platform.python_version(),
            "cpu_count": cpu_count,
            "speedup_floor_enforced": enforceable,
            "results": results,
        }
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {json_path}")

    if not enforceable:
        print(
            f"NOTE: {cpu_count} CPU(s) < {workers} workers — a process "
            f"pool cannot beat serial here; speedup floor not enforced "
            f"(measured {speedup}x at n={n_max}, equivalence still asserted)"
        )
        return 0
    if speedup < args.min_speedup:
        print(
            f"FAIL: parallel speedup at n={n_max} is {speedup}x "
            f"(< {args.min_speedup}x floor with {workers} workers on "
            f"{cpu_count} CPUs)",
            file=sys.stderr,
        )
        return 1
    print(f"\nOK: parallel speedup at n={n_max} is {speedup}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
