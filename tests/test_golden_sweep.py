"""Golden digests of whole sweep reports.

Each case runs one small :class:`~repro.dispatch.sweep.SweepSpec` through
the serial backend and hashes ``json.dumps(report.as_dict(),
sort_keys=True)`` — every per-point section (success counts, Wilson
interval, w.h.p. verdict, disruptability histogram, merged metrics,
per-trial outcomes) and the grid totals.  The grids cover each gallery
workload, a scenario workload, a multi-point grid, and the one-point grid
``python -m repro montecarlo --trials 4 -n 18 --seed 7`` runs.  A change
to how trials are seeded, folded or rendered shows up as a mismatch here.

Regenerate (only when a report is *meant* to change) with::

    PYTHONPATH=src python tests/test_golden_sweep.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.dispatch.sweep import SweepRunner, SweepSpec

GOLDEN_PATH = Path(__file__).with_name("golden_sweep.json")

GRIDS = {
    "fame": SweepSpec(workloads=("fame",), ns=(18,), trials=4, seed=3),
    "groupkey": SweepSpec(workloads=("groupkey",), ns=(18,), trials=2, seed=5),
    "gauntlet": SweepSpec(
        workloads=("gauntlet",), ns=(18,), trials=2, seed=11, pairs=4
    ),
    "scenario": SweepSpec(
        workloads=("scenario:serve.duplicate-open",), trials=3, seed=5
    ),
    "grid-2x2": SweepSpec(
        workloads=("fame",),
        ns=(18, 24),
        adversaries=("schedule", "random"),
        trials=3,
        seed=13,
    ),
    # The grid `python -m repro montecarlo --trials 4 -n 18 --seed 7` runs.
    "montecarlo": SweepSpec(workloads=("fame",), ns=(18,), trials=4, seed=7),
}


def _digest(spec: SweepSpec) -> str:
    report = SweepRunner(spec).run()
    text = json.dumps(report.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_grid():
    assert sorted(_golden()) == sorted(GRIDS)


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_sweep_report_matches_golden_digest(grid):
    assert _digest(GRIDS[grid]) == _golden()[grid]


def test_montecarlo_command_writes_the_golden_report(tmp_path):
    from repro.__main__ import main

    out = tmp_path / "mc.json"
    assert main(
        ["montecarlo", "--trials", "4", "-n", "18", "--seed", "7",
         "--json-out", str(out)]
    ) == 0
    text = json.dumps(json.loads(out.read_text()), sort_keys=True)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == _golden()["montecarlo"]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_sweep.py --record")
    GOLDEN_PATH.write_text(
        json.dumps(
            {name: _digest(spec) for name, spec in sorted(GRIDS.items())},
            indent=1,
        )
        + "\n"
    )
    print(f"recorded {len(GRIDS)} digests to {GOLDEN_PATH}")
