"""Tests for the dispatch subsystem: backends, journal, sweeps.

The socket backend's end-to-end scenarios (real worker processes, kills,
resume) live in ``tests/test_dispatch_socket.py``; hypothesis properties
in ``tests/test_dispatch_properties.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.dispatch import (
    BACKEND_NAMES,
    MultiprocessBackend,
    ResultAssembler,
    SerialBackend,
    SweepJournal,
    SweepReport,
    SweepRunner,
    SweepSpec,
    SweepState,
    default_backend,
)
from repro.dispatch.journal import decode_record, encode_record
from repro.errors import (
    ConfigurationError,
    DispatchError,
    SweepInterrupted,
)
from repro.experiments import TrialResult
from repro.radio.metrics import NetworkMetrics
from repro.rng import RngRegistry

N = 18  # smallest population comfortably above the f-AME witness bound

# One grid point of four trials: its specs are trial indices 0..3.
point_spec = SweepSpec(ns=(N,), trials=4, seed=7, pairs=4)


def fake_result(index: int, success: bool = True) -> TrialResult:
    return TrialResult(
        index=index,
        seed=index * 11,
        success=success,
        failed_pairs=() if success else ((0, 1),),
        metrics=NetworkMetrics(rounds=index + 1),
        cover=0 if success else 1,
    )


small_spec = SweepSpec(ns=(N,), trials=2, seed=7, pairs=4)


class TestResultAssembler:
    def test_applies_each_index_once(self):
        seen = []
        assembler = ResultAssembler([0, 1, 2], on_result=seen.append)
        assert assembler.apply(fake_result(1))
        assert not assembler.apply(fake_result(1))  # duplicate dropped
        assert not assembler.apply(fake_result(9))  # unexpected dropped
        assert [r.index for r in seen] == [1]
        assert assembler.missing() == [0, 2]
        assert not assembler.done

    def test_ordered_is_index_order_whatever_arrival_order(self):
        assembler = ResultAssembler([0, 1, 2])
        for i in (2, 0, 1, 2, 0):
            assembler.apply(fake_result(i))
        assert assembler.done
        assert [r.index for r in assembler.ordered()] == [0, 1, 2]

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            ResultAssembler([])


class TestBackends:
    def test_serial_matches_multiprocess(self):
        specs = point_spec.specs()
        serial = SerialBackend().run(specs)
        parallel = MultiprocessBackend(2).run(specs)
        assert serial == parallel

    def test_runner_accepts_explicit_backend(self):
        default = SweepRunner(point_spec).run().as_dict()
        for backend in (SerialBackend(), MultiprocessBackend(2)):
            report = SweepRunner(point_spec, backend=backend).run()
            assert report.as_dict() == default

    def test_on_result_streams_in_index_order_for_serial(self):
        seen: list[int] = []
        SerialBackend().run(
            point_spec.specs(), on_result=lambda r: seen.append(r.index)
        )
        assert seen == [0, 1, 2, 3]

    def test_should_stop_interrupts_with_completed_results(self):
        specs = point_spec.specs()
        seen: list[int] = []
        with pytest.raises(SweepInterrupted) as excinfo:
            SerialBackend().run(
                specs,
                on_result=lambda r: seen.append(r.index),
                should_stop=lambda: len(seen) >= 2,
            )
        assert [r.index for r in excinfo.value.completed] == [0, 1]

    def test_multiprocess_validation(self):
        with pytest.raises(ConfigurationError):
            MultiprocessBackend(1)
        assert MultiprocessBackend(2).effective_chunksize(64) == 8

    def test_auto_chunksize_small_grids(self):
        from repro.dispatch.backend import MIN_AUTO_CHUNK, auto_chunksize

        # Large batches: the classic workers*4 oversubscription split.
        assert auto_chunksize(64, 2) == 8
        assert auto_chunksize(1024, 8) == 32
        # Small grids used to degenerate to chunksize 1 (a dispatch per
        # trial); now they floor at MIN_AUTO_CHUNK ...
        assert auto_chunksize(16, 4) == MIN_AUTO_CHUNK
        # ... but never so large that a worker sits idle from the start.
        assert auto_chunksize(6, 4) == 2  # ceil(6/4), not MIN_AUTO_CHUNK
        assert auto_chunksize(1, 4) == 1
        # The backend derives from the actual dispatched batch size.
        assert MultiprocessBackend(4).effective_chunksize(16) == MIN_AUTO_CHUNK

    def test_default_backend_shape(self):
        assert isinstance(default_backend(1), SerialBackend)
        assert isinstance(default_backend(4), MultiprocessBackend)
        for workers in (0, -1):
            with pytest.raises(ConfigurationError):
                default_backend(workers)

    def test_backend_names(self):
        assert set(BACKEND_NAMES) == {"serial", "procs", "socket"}


class TestJournal:
    def test_record_round_trips_exact_result(self):
        result = fake_result(3, success=False)
        record = json.loads(encode_record(result))
        assert record["index"] == 3 and record["success"] is False
        assert decode_record(record) == result

    def test_attach_fresh_then_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, completed = SweepJournal.attach(path, "fp", resume=False)
        assert completed == {}
        journal.append(fake_result(0))
        journal.append(fake_result(2))
        journal.close()
        journal, completed = SweepJournal.attach(path, "fp", resume=True)
        journal.close()
        assert sorted(completed) == [0, 2]
        assert completed[2] == fake_result(2)

    def test_existing_journal_requires_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        SweepJournal.attach(path, "fp", resume=False)[0].close()
        with pytest.raises(ConfigurationError):
            SweepJournal.attach(path, "fp", resume=False)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        SweepJournal.attach(path, "fp-a", resume=False)[0].close()
        with pytest.raises(ConfigurationError):
            SweepJournal.attach(path, "fp-b", resume=True)

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = SweepJournal.attach(path, "fp", resume=False)
        journal.append(fake_result(0))
        journal.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write(encode_record(fake_result(1))[: 40])  # crash mid-write
        _journal, completed = SweepJournal.attach(path, "fp", resume=True)
        _journal.close()
        assert sorted(completed) == [0]

    def test_corrupt_interior_line_is_an_error(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = SweepJournal.attach(path, "fp", resume=False)
        journal.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write("{broken\n")
            fh.write(encode_record(fake_result(1)) + "\n")
        with pytest.raises(DispatchError):
            SweepJournal.attach(path, "fp", resume=True)

    def test_duplicate_records_keep_first(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = SweepJournal.attach(path, "fp", resume=False)
        journal.append(fake_result(0, success=True))
        journal.append(fake_result(0, success=False))  # redelivery
        journal.close()
        _journal, completed = SweepJournal.attach(path, "fp", resume=True)
        _journal.close()
        assert completed[0].success is True


class TestSweepSpec:
    def test_grid_order_is_product_order(self):
        spec = SweepSpec(
            workloads=("fame",), ns=(18, 24), channels=(2,), ts=(1,),
            adversaries=("schedule", "null"), trials=2,
        )
        labels = [(p.n, p.adversary) for p in spec.points()]
        assert labels == [
            (18, "schedule"), (18, "null"), (24, "schedule"), (24, "null")
        ]
        assert [p.point_index for p in spec.points()] == [0, 1, 2, 3]
        assert spec.total_trials == 8

    def test_seeds_come_from_sweep_point_trial_spawn(self):
        spec = SweepSpec(ns=(18, 24), trials=3, seed=11)
        root = RngRegistry(seed=11)
        for trial in spec.specs():
            point_index = spec.point_for_index(trial.index)
            trial_index = trial.index - point_index * spec.trials
            assert trial.seed == root.spawn(
                "sweep", point_index, trial_index
            ).seed

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(ns=())
        with pytest.raises(ConfigurationError):
            SweepSpec(ns=(18, 18))
        with pytest.raises(ConfigurationError):
            SweepSpec(workloads=("nope",))
        with pytest.raises(ConfigurationError):
            SweepSpec(adversaries=("nope",))
        with pytest.raises(ConfigurationError):
            SweepSpec(trials=0)

    @pytest.mark.parametrize(
        "axes",
        [
            {"ns": (18, 1)},
            {"channels": (1,)},
            {"ts": (-1,)},
            {"channels": (2, 3), "ts": (2,)},  # t >= C at the C=2 points
        ],
    )
    def test_every_grid_point_obeys_the_model(self, axes):
        with pytest.raises(ConfigurationError):
            SweepSpec(**axes)

    def test_adversary_blind_workload_rejects_adversary_axis(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(
                workloads=("gauntlet",), adversaries=("schedule", "null")
            )
        # mixed grids too: the gauntlet points would be the identical
        # configuration run twice under different labels
        with pytest.raises(ConfigurationError):
            SweepSpec(
                workloads=("fame", "gauntlet"),
                adversaries=("schedule", "null"),
            )
        # a single-adversary grid is the supported way to sweep gauntlet
        SweepSpec(workloads=("fame", "gauntlet"), adversaries=("schedule",))

    def test_fingerprint_tracks_config(self):
        a, b = SweepSpec(seed=1), SweepSpec(seed=2)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == SweepSpec(seed=1).fingerprint()


class TestSweepRunnerSerial:
    def test_report_is_backend_shape_free(self):
        report = SweepRunner(small_spec).run().as_dict()
        text = json.dumps(report, sort_keys=True)
        assert '"workers"' not in text
        assert '"chunksize"' not in text
        assert report["totals"]["trials"] == small_spec.total_trials

    def test_multiprocess_backend_matches_serial(self):
        serial = SweepRunner(small_spec).run()
        procs = SweepRunner(
            small_spec, backend=MultiprocessBackend(2)
        ).run()
        assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
            procs.as_dict(), sort_keys=True
        )

    def test_journal_stop_resume_identical_to_uninterrupted(self, tmp_path):
        uninterrupted = SweepRunner(small_spec).run().as_dict()
        journal = tmp_path / "sweep.jsonl"
        with pytest.raises(SweepInterrupted):
            SweepRunner(
                small_spec, journal_path=str(journal), stop_after=1
            ).run()
        assert journal.exists()
        resumed = SweepRunner(
            small_spec, journal_path=str(journal), resume=True
        ).run().as_dict()
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            uninterrupted, sort_keys=True
        )

    def test_resume_with_complete_journal_runs_nothing(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        first = SweepRunner(small_spec, journal_path=str(journal)).run()

        class ExplodingBackend(SerialBackend):
            def _execute(self, specs, assembler, should_stop):
                raise AssertionError("no trials should be dispatched")

        again = SweepRunner(
            small_spec,
            backend=ExplodingBackend(),
            journal_path=str(journal),
            resume=True,
        ).run()
        assert again.as_dict() == first.as_dict()

    def test_on_point_complete_streams(self):
        finished = []
        SweepRunner(
            small_spec,
            on_point_complete=lambda point, section: finished.append(
                (point.point_index, section["success_rate"]["trials"])
            ),
        ).run()
        assert finished == [(0, small_spec.trials)]

    def test_partial_report_renders_mid_sweep(self, tmp_path):
        spec = SweepSpec(ns=(N,), adversaries=("schedule", "null"),
                         trials=2, seed=7, pairs=4)
        runner = SweepRunner(
            spec, journal_path=str(tmp_path / "j.jsonl"), stop_after=3
        )
        with pytest.raises(SweepInterrupted):
            runner.run()
        partial = runner.state.partial_report()
        assert partial["completed_trials"] == 3
        assert partial["total_trials"] == 4
        done = {p["point_index"]: p for p in partial["points"]}
        assert done[0]["completed_trials"] == 2
        assert done[1]["completed_trials"] == 1
        assert partial["pending_points"] == []
        # the half-done point renders with what it has
        assert done[1]["success_rate"]["trials"] == 1

    def test_partial_report_lists_untouched_points_as_pending(self):
        state = SweepState(small_spec)
        partial = state.partial_report()
        assert partial["points"] == []
        assert [p["point_index"] for p in partial["pending_points"]] == [0]

    def test_summary_line_whp_verdicts(self):
        def summary(trials: int, failures: int) -> str:
            spec = SweepSpec(ns=(N,), trials=trials)
            results = [
                fake_result(i, success=i >= failures) for i in range(trials)
            ]
            return SweepReport.build(spec, results).summary_line()

        # 4 trials cannot check a 1/18 claim: say so, not "ok".
        assert summary(4, 0).endswith("whp uninformative")
        assert summary(80, 0).endswith("whp ok")
        assert summary(80, 40).endswith("whp FAILED at points [0]")

    def test_summary_line_ok_when_any_point_was_checkable(self):
        spec = SweepSpec(ns=(N, 4000), trials=80)
        results = [fake_result(i) for i in range(spec.total_trials)]
        report = SweepReport.build(spec, results)
        informative = [s["whp"]["informative"] for s in report.point_sections]
        assert informative == [True, False]
        assert report.summary_line().endswith("whp ok")

    def test_report_build_requires_completeness(self):
        with pytest.raises(DispatchError):
            SweepReport.build(small_spec, [])
