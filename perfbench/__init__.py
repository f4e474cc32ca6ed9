"""End-to-end benchmark with a per-layer cost ledger.

Run it from the repository root::

    python3 perfbench/run.py --workload groupkey --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how to read
a ledger row.
"""
