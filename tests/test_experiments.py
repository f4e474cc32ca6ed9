"""Tests for the Monte Carlo trial harness.

``repro.experiments`` defines trials and workloads; a one-point
:class:`~repro.dispatch.sweep.SweepSpec` runs them and its report folds
the outcomes (the ``python -m repro montecarlo`` path).
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
from dataclasses import asdict

import pytest

from repro.dispatch import (
    MultiprocessBackend,
    SweepReport,
    SweepRunner,
    SweepSpec,
    SweepState,
    default_backend,
)
from repro.errors import ConfigurationError
from repro.experiments import (
    TrialResult,
    TrialSpec,
    WORKLOADS,
    default_pairs,
    run_trial,
)
from repro.radio.actions import Transmit
from repro.radio.messages import Message
from repro.radio.metrics import NetworkMetrics
from repro.radio.network import HopBlock, RoundMeta, RoundSchedule, TransmitColumn
from repro.rng import RngRegistry

N = 18  # smallest population comfortably above the f-AME witness bound


def make_spec(trials: int = 6, **kwargs) -> SweepSpec:
    """A one-point grid, as ``python -m repro montecarlo`` builds it."""
    return SweepSpec(
        workloads=(kwargs.pop("workload", "fame"),),
        ns=(kwargs.pop("n", N),),
        adversaries=(kwargs.pop("adversary", "schedule"),),
        trials=trials,
        seed=kwargs.pop("seed", 7),
        pairs=kwargs.pop("pairs", 4),
        **kwargs,
    )


def run_point(workers: int = 1, trials: int = 6, **kwargs) -> SweepReport:
    return SweepRunner(
        make_spec(trials, **kwargs), backend=default_backend(workers)
    ).run()


def section(report: SweepReport) -> dict:
    (point,) = report.as_dict()["points"]
    return point


def build_section(trials: int, results) -> dict:
    return section(SweepReport.build(make_spec(trials), results))


def metrics_json(report: SweepReport) -> str:
    return json.dumps(section(report)["merged_metrics"], sort_keys=True)


class TestTrialSeeds:
    def test_seeds_independent_of_worker_count(self):
        serial = run_point(workers=1).results
        parallel = run_point(workers=4).results
        assert [r.seed for r in serial] == [r.seed for r in parallel]
        expected = [s.seed for s in make_spec().specs()]
        assert [r.seed for r in serial] == expected

    def test_seeds_are_distinct_across_trials(self):
        seeds = [s.seed for s in make_spec(trials=32).specs()]
        assert len(set(seeds)) == len(seeds)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_spec(workload="nope")
        with pytest.raises(ConfigurationError):
            make_spec(trials=0)
        with pytest.raises(ConfigurationError):
            default_backend(0)
        with pytest.raises(ConfigurationError):
            make_spec(adversary="nope")


class TestSerialParallelEquivalence:
    def test_merged_metrics_byte_identical(self):
        serial = run_point(workers=1)
        parallel = run_point(workers=2)
        assert metrics_json(serial) == metrics_json(parallel)
        assert (
            section(serial)["merged_metrics"]
            == section(parallel)["merged_metrics"]
        )

    def test_per_trial_results_identical(self):
        serial = run_point(workers=1)
        parallel = run_point(workers=2)
        assert serial.results == parallel.results
        assert (
            section(serial)["success_rate"]
            == section(parallel)["success_rate"]
        )
        assert (
            section(serial)["disruptability"]
            == section(parallel)["disruptability"]
        )

    def test_scheduling_order_irrelevant(self, monkeypatch):
        # One trial per dispatch interleaves trials across workers; six
        # run them in one block.  Same report either way.
        reports = []
        for chunk in (1, 6):
            monkeypatch.setattr(
                MultiprocessBackend,
                "effective_chunksize",
                lambda self, batch_size, chunk=chunk: chunk,
            )
            reports.append(run_point(workers=2))
        a, b = reports
        assert a.results == b.results
        assert metrics_json(a) == metrics_json(b)

    def test_aggregate_insensitive_to_result_order(self):
        spec = make_spec()
        results = [run_trial(s) for s in spec.specs()]
        assert SweepReport.build(spec, results).as_dict() == (
            SweepReport.build(spec, results[::-1]).as_dict()
        )


class TestPickling:
    def test_trial_spec_round_trips(self):
        spec = make_spec().specs()[0]
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_trial_result_round_trips(self):
        result = run_trial(make_spec().specs()[0])
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.metrics == result.metrics

    def test_round_schedule_round_trips(self):
        msg = Message(kind="k", sender=1, payload=("x", 2))
        hops = bytes((0, 1, 1))
        schedule = RoundSchedule(
            [
                HopBlock(
                    3,
                    {4: Transmit(1, msg)},
                    (0, 1),
                    (2, 3),
                    (hops, bytes((1, 0, 0))),
                    RoundMeta(phase="p", extra={"slot": 4}),
                    TransmitColumn((1,), hops, ((msg, msg, msg),)),
                )
            ]
        )
        clone = pickle.loads(pickle.dumps(schedule))
        assert len(clone) == 3
        assert clone.blocks == schedule.blocks

    def test_spec_round_trips_into_worker(self):
        # A pickled spec executed by a real worker process reproduces the
        # in-process result exactly.
        spec = make_spec().specs()[0]
        expected = run_trial(spec)
        with multiprocessing.get_context().Pool(1) as pool:
            [remote] = pool.map(run_trial, [spec])
        assert remote == expected


class TestWorkloads:
    def test_registry_contents(self):
        assert {"fame", "groupkey", "gauntlet"} <= set(WORKLOADS)

    def test_unknown_workload_rejected_by_run_trial(self):
        spec = TrialSpec(workload="nope", index=0, seed=1)
        with pytest.raises(ConfigurationError):
            run_trial(spec)

    def test_fame_trial_shape(self):
        result = run_trial(make_spec().specs()[0])
        detail = result.detail_dict()
        assert detail["pairs"] == len(default_pairs(N, 4))
        assert detail["delivered"] + len(result.failed_pairs) == detail["pairs"]
        assert result.metrics.rounds > 0
        assert result.success  # schedule jammer stays within t=1

    def test_groupkey_trial(self):
        spec = TrialSpec(
            workload="groupkey", index=0,
            seed=RngRegistry(3).spawn("trial", 0).seed, n=N,
            adversary="random",
        )
        result = run_trial(spec)
        detail = result.detail_dict()
        assert detail["holders"] >= N - spec.t
        assert result.success
        assert result.metrics.rounds == detail["total_rounds"]

    def test_gauntlet_trial_merges_all_gallery_runs(self):
        spec = TrialSpec(
            workload="gauntlet", index=0,
            seed=RngRegistry(5).spawn("trial", 0).seed, n=N, pairs=4,
        )
        result = run_trial(spec)
        covers = dict(result.detail_dict()["covers"])
        assert set(covers) == {
            "null", "random", "reactive", "schedule", "spoofer", "sweep"
        }
        assert result.detail_dict()["worst_cover"] == max(covers.values())
        assert result.success == (max(covers.values()) <= spec.t)
        # metrics merged across six networks: at least six runs of rounds
        assert result.metrics.rounds > 6

    def test_run_trial_precomputes_cover_in_worker(self):
        from repro.analysis.vertex_cover import min_vertex_cover

        result = run_trial(make_spec().specs()[0])
        assert result.cover is not None
        assert result.cover == len(min_vertex_cover(result.failed_pairs))
        assert result.disruptability() == result.cover

    def test_trial_disruptability_is_cover_of_failed_pairs(self):
        result = TrialResult(
            index=0,
            seed=0,
            success=False,
            failed_pairs=((0, 1), (0, 2), (3, 4)),
            metrics=NetworkMetrics(),
        )
        assert result.disruptability() == 2


class TestAggregation:
    def test_whp_uninformative_at_small_trial_counts(self):
        # 6 trials cannot resolve a 1/18 claim: report says so instead of
        # vacuously confirming.
        whp = section(run_point())["whp"]
        assert not whp["informative"]
        assert whp["claim_holds"] is None

    def test_whp_informative_with_synthetic_results(self):
        results = [
            TrialResult(
                index=i, seed=i, success=True, failed_pairs=(),
                metrics=NetworkMetrics(rounds=1),
            )
            for i in range(80)
        ]
        point = build_section(80, results)
        assert point["whp"]["informative"]
        assert point["whp"]["claim_holds"] is True
        assert point["merged_metrics"]["rounds"] == 80

    def test_aggregate_preserves_metrics_subclass_counters(self):
        # merge promotes to the more derived operand, so subclass counters
        # survive the fold from a plain NetworkMetrics seed.
        import dataclasses

        @dataclasses.dataclass
        class Extended(NetworkMetrics):
            dropped_frames: int = 0

        results = [
            TrialResult(
                index=i, seed=i, success=True, failed_pairs=(),
                metrics=Extended(rounds=1, dropped_frames=i + 1),
            )
            for i in range(2)
        ]
        point = build_section(2, results)
        assert point["merged_metrics"]["rounds"] == 2
        assert point["merged_metrics"]["dropped_frames"] == 3

    def test_aggregate_rejects_empty_results(self):
        state = SweepState(make_spec())
        (point,) = make_spec().points()
        with pytest.raises(ConfigurationError):
            state.point_report(point)

    def test_single_trial_merged_metrics_not_aliased(self):
        result = TrialResult(
            index=0, seed=0, success=True, failed_pairs=(),
            metrics=NetworkMetrics(rounds=5),
        )
        point = build_section(1, [result])
        assert point["merged_metrics"] == asdict(result.metrics)
        point["merged_metrics"]["rounds"] += 1  # must not touch the trial
        assert result.metrics.rounds == 5

    def test_histogram_and_wilson(self):
        results = [
            TrialResult(
                index=i, seed=i, success=(i % 2 == 0),
                failed_pairs=((0, 1),) if i < 3 else (),
                metrics=NetworkMetrics(),
            )
            for i in range(4)
        ]
        point = build_section(4, results)
        assert point["disruptability"]["histogram"] == {"0": 1, "1": 3}
        assert point["disruptability"]["max"] == 1
        assert point["disruptability"]["mean"] == 0.75
        rate = point["success_rate"]
        assert rate["successes"] == 2
        assert rate["wilson_low"] < 0.5 < rate["wilson_high"]

    def test_report_dict_is_json_serialisable(self):
        report = run_point(trials=2)
        payload = report.as_dict()
        parsed = json.loads(json.dumps(payload, sort_keys=True))
        assert parsed["points"][0]["trials"] == 2
        merged = NetworkMetrics()
        for result in run_point(trials=2).results:
            merged = merged.merge(result.metrics)
        assert parsed["points"][0]["merged_metrics"] == asdict(merged)
