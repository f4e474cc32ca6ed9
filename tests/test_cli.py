"""Tests for the ``python -m repro`` command-line demos."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["fame"])
        assert args.nodes == 20 and args.channels == 2 and args.strength == 1
        assert args.adversary == "schedule"

    def test_unknown_adversary_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fame", "--adversary", "nope"])


class TestCommands:
    def test_fame_command(self, capsys):
        assert main(["fame", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "f-AME:" in out
        assert "disruptability" in out

    def test_fame_null_adversary_all_delivered(self, capsys):
        assert main(["fame", "--adversary", "null"]) == 0
        out = capsys.readouterr().out
        assert "5/5 pairs delivered" in out

    def test_gauntlet_command(self, capsys):
        assert main(["gauntlet", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "worst cover" in out and "OK" in out

    def test_groupkey_command(self, capsys):
        assert main(["groupkey", "-n", "18", "--adversary", "random"]) == 0
        out = capsys.readouterr().out
        assert "key fingerprint" in out

    def test_service_command(self, capsys):
        assert main(["service", "-n", "18", "--adversary", "random"]) == 0
        out = capsys.readouterr().out
        assert "per-message cost" in out

    def test_montecarlo_defaults(self):
        args = build_parser().parse_args(["montecarlo"])
        assert args.trials == 100 and args.workers == 1
        assert args.workload == "fame" and "chunksize" not in vars(args)

    def test_montecarlo_default_trials_are_whp_informative(self):
        from repro.analysis.stats import min_informative_trials

        args = build_parser().parse_args(["montecarlo"])
        assert args.trials >= min_informative_trials(args.nodes)

    def test_montecarlo_reports_json_sweep(self, capsys):
        assert main(
            ["montecarlo", "--trials", "4", "-n", "18", "--seed", "7"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        (point,) = report["points"]
        assert report["totals"]["trials"] == point["trials"] == 4
        assert "wilson_low" in point["success_rate"]
        assert "histogram" in point["disruptability"]
        # 4 trials cannot resolve a 1/18 claim: reported, not confirmed.
        assert point["whp"]["claim_holds"] is None
        assert point["whp"]["informative"] is False

    def test_montecarlo_json_out_writes_file_and_one_line(
        self, capsys, tmp_path
    ):
        assert main(
            ["montecarlo", "--trials", "4", "-n", "18", "--seed", "7"]
        ) == 0
        stdout_report = json.loads(capsys.readouterr().out)
        out = tmp_path / "mc.json"
        assert main(
            ["montecarlo", "--trials", "4", "-n", "18", "--seed", "7",
             "--json-out", str(out)]
        ) == 0
        summary = capsys.readouterr().out
        assert summary.count("\n") == 1  # a single line on stdout
        assert "whp uninformative" in summary and str(out) in summary
        text = out.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == stdout_report

    def test_montecarlo_workers_do_not_change_report(self, capsys):
        assert main(
            ["montecarlo", "--trials", "4", "-n", "18", "--seed", "7",
             "--workers", "2"]
        ) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert main(
            ["montecarlo", "--trials", "4", "-n", "18", "--seed", "7"]
        ) == 0
        serial = json.loads(capsys.readouterr().out)
        # no execution-shape field: the whole report is identical
        assert parallel == serial


    def test_montecarlo_writes_the_one_point_sweep_report(self, tmp_path):
        mc, sw = tmp_path / "mc.json", tmp_path / "sw.json"
        assert main(
            ["montecarlo", "--trials", "4", "-n", "18", "--seed", "7",
             "--json-out", str(mc)]
        ) == 0
        assert main(
            ["sweep", "--trials", "4", "--nodes", "18", "--seed", "7",
             "--json-out", str(sw)]
        ) == 0
        assert mc.read_bytes() == sw.read_bytes()


class TestRejectBeforeDispatch:
    """Impossible grids and worker counts exit 2 before any backend runs."""

    @pytest.fixture(autouse=True)
    def no_dispatch(self, monkeypatch):
        from repro.dispatch import (
            MultiprocessBackend,
            SerialBackend,
            SocketBackend,
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a backend started")

        for cls in (SerialBackend, MultiprocessBackend, SocketBackend):
            monkeypatch.setattr(cls, "run", refuse)
        monkeypatch.setattr(SocketBackend, "_spawn", refuse)

    @pytest.mark.parametrize("backend", ["serial", "procs", "socket"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "1", "--nodes", "1"],
            ["--workers", "1", "--channels", "1"],
            ["--workers", "1", "--channels", "2", "--strengths", "2"],
            ["--workers", "0"],
            ["--workers", "-3"],
        ],
    )
    def test_sweep_exits_2(self, backend, flags, capsys):
        argv = ["sweep", "--backend", backend, "--trials", "2", *flags]
        assert main(argv) == 2
        assert "repro sweep:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["-n", "1"],
            ["-c", "1"],
            ["--workers", "0"],
            ["--workers", "2", "-n", "1"],
        ],
    )
    def test_montecarlo_exits_2(self, flags, capsys):
        assert main(["montecarlo", "--trials", "2", *flags]) == 2
        assert "repro montecarlo:" in capsys.readouterr().err


class TestWorkloadRejectsItsGrid:
    """A grid that passes the model check but breaks a workload's own
    bound (f-AME needs n >= 17) fails inside a trial; every backend
    reports the same ConfigurationError and exits 2, the socket backend
    included (its worker ships the error type home)."""

    @pytest.mark.parametrize("backend", ["serial", "procs", "socket"])
    def test_sweep_exits_2(self, backend, capsys):
        argv = [
            "sweep", "--backend", backend, "--workers", "1",
            "--nodes", "12", "--trials", "2",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (
            "repro sweep: f-AME in regime base with t=1 and proposal size 2 "
            "needs n >= 17 (got n=12)"
        ) in err.splitlines()


class TestSweepCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.nodes == [20] and args.adversaries == ["schedule"]
        assert args.backend == "serial" and args.trials == 20
        assert args.journal is None and not args.resume
        assert args.batch_size is None  # adaptive unless pinned

    def test_batch_size_flag_parses(self):
        args = build_parser().parse_args(
            ["sweep", "--backend", "socket", "--batch-size", "16"]
        )
        assert args.batch_size == 16

    def test_grid_axes_parse_comma_lists(self):
        args = build_parser().parse_args(
            ["sweep", "--nodes", "18,24", "--adversaries", "null,sweep"]
        )
        assert args.nodes == [18, 24]
        assert args.adversaries == ["null", "sweep"]

    def test_bad_axis_value_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--nodes", "18,x"])

    def test_unknown_adversary_exits_2(self, capsys):
        assert main(["sweep", "--adversaries", "nope", "--trials", "1"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_sweep_reports_grid(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--nodes", "18", "--adversaries", "schedule,null",
             "--trials", "2", "--seed", "7", "--pairs", "4",
             "--json-out", str(out)]
        ) == 0
        summary = capsys.readouterr().out
        assert summary.count("\n") == 1 and "sweep:" in summary
        report = json.loads(out.read_text())
        assert report["totals"]["points"] == 2
        assert report["totals"]["trials"] == 4
        assert [p["point_index"] for p in report["points"]] == [0, 1]
        # backend-shape-free report
        assert "workers" not in report["points"][0]

    def test_stop_after_then_resume_matches_uninterrupted(
        self, capsys, tmp_path
    ):
        grid = ["sweep", "--nodes", "18", "--trials", "3", "--seed", "7",
                "--pairs", "4"]
        ref = tmp_path / "ref.json"
        assert main(grid + ["--json-out", str(ref)]) == 0
        capsys.readouterr()
        journal = tmp_path / "sweep.jsonl"
        stopped = main(
            grid + ["--journal", str(journal), "--stop-after", "1",
                    "--json-out", str(tmp_path / "partial.json")]
        )
        captured = capsys.readouterr()
        assert stopped == 3
        assert "rerun with --resume" in captured.err
        assert not (tmp_path / "partial.json").exists()
        resumed = tmp_path / "resumed.json"
        assert main(
            grid + ["--journal", str(journal), "--resume",
                    "--json-out", str(resumed)]
        ) == 0
        assert resumed.read_bytes() == ref.read_bytes()

    def test_existing_journal_without_resume_exits_2(self, capsys, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        grid = ["sweep", "--nodes", "18", "--trials", "1", "--seed", "7",
                "--journal", str(journal)]
        assert main(grid) == 0
        capsys.readouterr()
        assert main(grid) == 2
        assert "--resume" in capsys.readouterr().err

    def test_progress_lines_on_stderr(self, capsys, tmp_path):
        assert main(
            ["sweep", "--nodes", "18", "--trials", "2", "--seed", "7",
             "--progress", "--json-out", str(tmp_path / "s.json")]
        ) == 0
        err = capsys.readouterr().err
        assert "point 1/1" in err


class TestWorkerCommand:
    def test_connect_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_unreachable_coordinator_exits_1(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(
            ["worker", "--connect", f"127.0.0.1:{port}",
             "--retry-seconds", "0.2"]
        ) == 1

    def test_malformed_endpoint_exits_2(self, capsys):
        assert main(["worker", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err


class TestLintCommand:
    """Exit-code contract of ``python -m repro lint`` (0 / 1 / 2)."""

    def write(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        return path

    def test_clean_tree_exits_0(self, tmp_path, capsys):
        self.write(tmp_path, "ok.py", "VALUE = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_seeded_violation_exits_1(self, tmp_path, capsys):
        # The permanent stand-in for the "CI goes red on a violation"
        # demonstration: a synthetic DET001 file must fail the run.
        self.write(
            tmp_path, "bad.py", "import random\nx = random.random()\n"
        )
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "bad.py:2:" in out

    def test_unknown_path_exits_2(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing")]) == 2
        assert "repro lint:" in capsys.readouterr().err

    def test_malformed_baseline_exits_2(self, tmp_path, capsys):
        self.write(tmp_path, "ok.py", "VALUE = 1\n")
        baseline = self.write(tmp_path, "base.json", "{\"nope\": true}")
        assert (
            main(["lint", str(tmp_path / "ok.py"),
                  "--baseline", str(baseline)]) == 2
        )
        assert "baseline" in capsys.readouterr().err

    def test_baseline_grandfathers_then_goes_stale(self, tmp_path, capsys):
        bad = self.write(
            tmp_path, "bad.py", "import random\nx = random.random()\n"
        )
        entry = {"path": str(bad), "rule": "DET001", "line": 2}
        baseline = self.write(
            tmp_path,
            "base.json",
            json.dumps({"version": 1, "findings": [entry]}),
        )
        assert (
            main(["lint", str(bad), "--baseline", str(baseline)]) == 0
        )
        capsys.readouterr()

        bad.write_text("VALUE = 1\n", encoding="utf-8")  # violation fixed
        assert (
            main(["lint", str(bad), "--baseline", str(baseline)]) == 1
        )
        assert "stale baseline" in capsys.readouterr().out

    def test_json_out_written_even_on_findings(self, tmp_path):
        bad = self.write(
            tmp_path, "bad.py", "import random\nx = random.random()\n"
        )
        out_path = tmp_path / "report.json"
        assert (
            main(["lint", str(bad), "--json-out", str(out_path)]) == 1
        )
        document = json.loads(out_path.read_text(encoding="utf-8"))
        assert document["clean"] is False
        assert document["findings"][0]["rule"] == "DET001"

    def test_list_rules_exits_0(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "WIRE001" in out
        assert "allowlisted: repro.rng" in out
