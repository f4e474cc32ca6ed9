"""Tests for the declarative attack-scenario registry (repro.scenarios).

Covers the registry schema and its import-time validation, the outcome
taxonomy (safety vs liveness asserted separately), the built-in catalog
(every entry's observed outcome equals its registered expectation), the
ported service-layer adversary gauntlet, the sweep integration
(``scenario:NAME`` workloads, byte-identical serial vs socket reports),
the serve daemon's ``RunScenario`` request, and the CLI front-end.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.dispatch import SweepRunner, SweepSpec
from repro.dispatch.socket_pool import SocketBackend
from repro.errors import ConfigurationError, ScenarioError
from repro.experiments import (
    SCENARIO_WORKLOAD_PREFIX,
    WORKLOAD_USES_ADVERSARY,
    make_workload,
)
from repro.fame.byzantine import BYZANTINE_REPORT_KIND
from repro.radio.actions import Listen, Transmit
from repro.radio.messages import Message
from repro.radio.trace import RoundRecord
from repro.scenarios import (
    LAYERS,
    SCENARIOS,
    AttackRejected,
    KeyMismatchDetected,
    LivenessLost,
    Outcome,
    SafetyViolated,
    SessionAborted,
    WhpBoundHolds,
    classify,
    decode_outcome,
    encode_outcome,
    get_scenario,
    run_gauntlet,
    run_scenario,
    scenario,
    scenario_names,
)
from repro.scenarios.injectors import CollusionTracker
from repro.serve import ServeDaemon, ServiceClient, SessionHost
from repro.serve import protocol as p

ALL_OUTCOMES = (
    AttackRejected(mechanism="mac"),
    KeyMismatchDetected(victims=(4, 5)),
    SessionAborted(code="busy"),
    WhpBoundHolds(bound=2),
    SafetyViolated(invariant="forged frame accepted"),
    LivenessLost(service="pairwise-delivery"),
)


# ----------------------------------------------------------------------
# Outcome taxonomy
# ----------------------------------------------------------------------


class TestOutcomes:
    def test_encode_decode_round_trips_every_type(self):
        for outcome in ALL_OUTCOMES:
            row = encode_outcome(outcome)
            assert isinstance(row, tuple) and isinstance(row[0], str)
            assert decode_outcome(row) == outcome

    def test_decode_coerces_list_rows(self):
        # JSON round trips turn tuples into lists; decoding must accept
        # them and rebuild tuple-typed fields.
        row = list(encode_outcome(KeyMismatchDetected(victims=(4,))))
        row[1] = list(row[1])
        assert decode_outcome(row) == KeyMismatchDetected(victims=(4,))

    def test_decode_rejects_unknown_kind_and_bad_arity(self):
        with pytest.raises(ScenarioError):
            decode_outcome(("no-such-kind", 1))
        with pytest.raises(ScenarioError):
            decode_outcome(("session-aborted",))
        with pytest.raises(ScenarioError):
            decode_outcome(("whp-bound-holds", 1, 2))

    def test_classify_separates_safety_and_liveness(self):
        assert classify(SafetyViolated(invariant="x")) == "safety-failure"
        assert classify(LivenessLost(service="x")) == "liveness-failure"
        for contained in ALL_OUTCOMES[:4]:
            assert classify(contained) == "contained"

    def test_outcomes_are_frozen_values(self):
        a = SessionAborted(code="busy")
        assert a == SessionAborted(code="busy")
        assert a != SessionAborted(code="bad-request")
        with pytest.raises(AttributeError):
            a.code = "other"

    def test_describe_is_readable(self):
        assert AttackRejected(mechanism="mac").describe() == (
            "attack-rejected(mechanism='mac')"
        )


# ----------------------------------------------------------------------
# Registry schema and validation
# ----------------------------------------------------------------------


class TestRegistry:
    def test_catalog_spans_the_stack(self):
        """The ISSUE floor: >= 15 scenarios across >= 4 layers, every
        one declaring a typed non-empty expected outcome."""
        names = scenario_names()
        assert len(names) >= 15
        layers = {get_scenario(name).layer for name in names}
        assert layers == set(LAYERS)
        for name in names:
            scen = get_scenario(name)
            assert isinstance(scen.expected, Outcome)
            assert scen.expected.KIND
            assert scen.attack and scen.target

    def test_names_are_sorted_and_stable(self):
        names = scenario_names()
        assert list(names) == sorted(names)
        assert scenario_names() == names

    def test_unknown_name_raises_typed(self):
        with pytest.raises(ScenarioError) as info:
            get_scenario("no.such")
        assert "no.such" in str(info.value)
        assert isinstance(info.value, ConfigurationError)

    def test_duplicate_registration_rejected(self):
        taken = scenario_names()[0]
        with pytest.raises(ScenarioError):
            scenario(
                taken,
                layer="channel",
                target="t",
                attack="a",
                expected=AttackRejected(mechanism="mac"),
            )

    def test_unknown_layer_rejected(self):
        with pytest.raises(ScenarioError):
            scenario(
                "tmp.bad-layer",
                layer="transport",
                target="t",
                attack="a",
                expected=AttackRejected(mechanism="mac"),
            )
        assert "tmp.bad-layer" not in SCENARIOS

    def test_untyped_expected_rejected(self):
        # The runtime half of lint rule SCN001.
        for bad in (None, "attack-rejected", ("attack-rejected", "mac")):
            with pytest.raises(ScenarioError):
                scenario(
                    "tmp.bad-expected",
                    layer="channel",
                    target="t",
                    attack="a",
                    expected=bad,
                )
        assert "tmp.bad-expected" not in SCENARIOS


# ----------------------------------------------------------------------
# The built-in catalog, end to end
# ----------------------------------------------------------------------


class TestGauntlet:
    def test_every_scenario_matches_its_expectation(self):
        report = run_gauntlet(seed=0)
        assert report.total == len(scenario_names())
        assert report.all_matched(), report.mismatched()

    def test_gauntlet_holds_across_seeds(self):
        for seed in (1, 7):
            report = run_gauntlet(seed=seed)
            assert report.all_matched(), (seed, report.mismatched())

    def test_report_is_deterministic(self):
        names = ("channel.sender-spoof", "serve.duplicate-open")
        a = run_gauntlet(names, seed=3).as_dict()
        b = run_gauntlet(names, seed=3).as_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_shape(self):
        report = run_gauntlet(("byzantine.lying-witnesses",), seed=0)
        section = report.as_dict()["scenarios"]["byzantine.lying-witnesses"]
        assert section["layer"] == "protocol"
        assert section["matched"] is True
        assert section["expected"] == ["whp-bound-holds", 2]
        assert decode_outcome(tuple(section["observed"])) == WhpBoundHolds(
            bound=2
        )
        assert report.summary_line().endswith("ok")

    def test_mismatch_is_reported_not_raised(self):
        name = "tmp.always-mismatched"
        scenario(
            name,
            layer="channel",
            target="t",
            attack="a",
            expected=AttackRejected(mechanism="never-this"),
        )(lambda ctx: SafetyViolated(invariant="by construction"))
        try:
            report = run_gauntlet((name,), seed=0)
            assert not report.all_matched()
            assert report.mismatched() == (name,)
            assert not report.runs[0].matched
        finally:
            del SCENARIOS[name]

    def test_garbling_source_asserts_a_safety_failure(self):
        """The taxonomy asserts failures too: a garbling *source* defeats
        its own pairs, and the scenario pins that concession exactly."""
        run = run_scenario("byzantine.garbling-source", seed=0)
        assert isinstance(run.observed, SafetyViolated)
        assert run.matched
        assert classify(run.observed) == "safety-failure"


# ----------------------------------------------------------------------
# Injector units
# ----------------------------------------------------------------------


def _report_round(index, votes):
    """A fake trace round: ``votes`` is {witness: (slot, flag)}."""
    actions = {
        witness: Transmit(
            channel=0,
            message=Message(
                kind=BYZANTINE_REPORT_KIND,
                sender=witness,
                payload=(slot, flag, witness),
            ),
        )
        for witness, (slot, flag) in votes.items()
    }
    actions[99] = Listen(channel=0)
    return RoundRecord(
        index=index,
        actions=actions,
        adversary_transmissions=(),
        delivered={0: None},
    )


class TestCollusionTracker:
    def test_flags_equivocators_and_liars(self):
        trace = [
            _report_round(0, {8: (0, True), 9: (0, True), 10: (1, False)}),
            _report_round(1, {8: (0, False), 9: (0, True), 10: (1, False)}),
        ]
        tracker = CollusionTracker().scan(trace)
        # Witness 8 voted both flags on slot 0; 9 and 10 stayed constant.
        assert tracker.equivocators() == (8,)
        # Against ground truth, 8 lied once and 10 lied consistently —
        # consistent liars are invisible to equivocation detection but
        # not to a truth comparison.
        assert tracker.liars({0: True, 1: True}) == (8, 10)
        assert tracker.liars({0: False, 1: False}) == (8, 9)

    def test_equivocating_colluders_caught_in_catalog_run(self):
        run = run_scenario("byzantine.equivocating-colluders", seed=0)
        assert run.matched
        assert ("equivocators", (8,)) in run.detail


# ----------------------------------------------------------------------
# The ported service adversary gauntlet (satellite of the registry):
# the hand-written attacks from tests/test_service.py, now asserted
# through registry entries.
# ----------------------------------------------------------------------


class TestPortedServiceGauntlet:
    def test_pairwise_replay_from_prior_exchange(self):
        run = run_scenario("service.pairwise-replay", seed=0)
        assert run.matched
        assert run.observed == LivenessLost(service="pairwise-delivery")

    def test_spoofed_sender_equal_to_receiver(self):
        run = run_scenario("channel.sender-spoof", seed=0)
        assert run.matched
        assert run.observed == AttackRejected(
            mechanism="mac-associated-data"
        )

    def test_rekey_replay_from_older_generation(self):
        run = run_scenario("service.rekey-stale-replay", seed=0)
        assert run.matched
        assert run.observed == KeyMismatchDetected(victims=(4,))
        # The victim must be dropped at generation 2, not re-keyed with
        # the obsolete generation-1 key.
        assert ("generation", 2) in run.detail


# ----------------------------------------------------------------------
# Sweep integration: scenario:NAME workloads
# ----------------------------------------------------------------------

CHEAP = "scenario:serve.duplicate-open"
CHEAP_B = "scenario:channel.tampered-ciphertext"


class TestScenarioWorkloads:
    def test_lazy_registration_is_adversary_blind(self):
        fn = make_workload(CHEAP)
        assert callable(fn)
        assert WORKLOAD_USES_ADVERSARY[CHEAP] is False
        assert make_workload(CHEAP) is fn  # cached, not re-registered

    def test_unknown_scenario_workload_raises_typed(self):
        with pytest.raises(ScenarioError):
            make_workload(SCENARIO_WORKLOAD_PREFIX + "no.such")
        with pytest.raises(ConfigurationError) as info:
            make_workload("no-such-workload")
        assert "scenario:" in str(info.value)

    def test_sweepspec_rejects_adversary_axis_for_scenarios(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(
                workloads=(CHEAP,), adversaries=("schedule", "null")
            )
        # single-adversary grids are the supported spelling
        SweepSpec(workloads=(CHEAP,), adversaries=("schedule",))

    def test_montecarlo_runs_scenario_workload(self):
        report = SweepRunner(
            SweepSpec(workloads=(CHEAP,), trials=3, seed=5)
        ).run()
        assert report.successes == 3
        detail = dict(report.results[0].detail)
        assert detail["scenario"] == "serve.duplicate-open"
        assert decode_outcome(detail["observed"]) == SessionAborted(
            code="duplicate-session"
        )

    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_scenario_grid_expands_deterministically(self, seed, trials):
        spec_a = SweepSpec(workloads=(CHEAP, CHEAP_B), trials=trials, seed=seed)
        spec_b = SweepSpec(workloads=(CHEAP, CHEAP_B), trials=trials, seed=seed)
        assert spec_a.specs() == spec_b.specs()
        assert spec_a.fingerprint() == spec_b.fingerprint()
        assert [s.workload for s in spec_a.specs()] == (
            [CHEAP] * trials + [CHEAP_B] * trials
        )

    def test_serial_and_socket_reports_are_byte_identical(self):
        spec = SweepSpec(workloads=(CHEAP, CHEAP_B), trials=3, seed=9)
        serial = SweepRunner(spec).run().as_dict()
        assert all(
            point["success_rate"]["successes"] == 3
            for point in serial["points"]
        )
        socket_backend = SocketBackend(workers=2, accept_timeout=60.0)
        via_socket = SweepRunner(spec, backend=socket_backend).run().as_dict()
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            via_socket, sort_keys=True
        )


# ----------------------------------------------------------------------
# Serve-layer integration: the RunScenario request
# ----------------------------------------------------------------------


class TestServeRunScenario:
    def test_protocol_round_trips(self):
        req = p.RunScenario(name="channel.sender-spoof", seed=4)
        assert p.decode_request(p.encode_request(1, req)) == (1, req)
        out = p.ScenarioOutcome(
            name="x",
            layer="channel",
            seed=4,
            expected=("attack-rejected", "mac"),
            observed=("attack-rejected", "mac"),
            matched=True,
            detail=(("k", 1),),
        )
        assert p.decode_response(p.encode_response(1, out)) == (1, out)

    def test_host_runs_scenarios_synchronously(self):
        host = SessionHost(seed=0)
        out = host.handle("tok", p.RunScenario(name=CHEAP[9:], seed=3))
        assert isinstance(out, p.ScenarioOutcome)
        assert out.matched
        local = run_scenario(CHEAP[9:], seed=3)
        assert out.observed == encode_outcome(local.observed)
        assert out.detail == local.detail

    def test_host_refuses_unknown_scenario_as_bad_request(self):
        host = SessionHost(seed=0)
        out = host.handle("tok", p.RunScenario(name="no.such"))
        assert isinstance(out, p.Failure) and out.code == p.BAD_REQUEST

    def test_illtyped_request_fields_fail_typed_not_raise(self):
        """Regression: a decodable frame with ill-typed fields used to
        escape handle() as a TypeError and kill the daemon's select
        loop; it must come back as a bad-request failure."""
        host = SessionHost(seed=0)
        host.handle("tok", p.OpenSession(name="s", n=6))
        out = host.handle("tok", p.Flush(name="s", max_rounds="soon"))
        assert isinstance(out, p.Failure) and out.code == p.BAD_REQUEST
        # ...and the host survives to serve well-typed requests.
        assert isinstance(
            host.handle("tok", p.Flush(name="s")), p.Flushed
        )


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


class TestDaemonRunScenario:
    def test_daemon_run_matches_local_run(self, daemon):
        _d, host, port = daemon
        with ServiceClient(host, port, name="t") as client:
            out = client.run_scenario("serve.flood-backpressure", seed=6)
            assert out.matched
            local = run_scenario("serve.flood-backpressure", seed=6)
            assert out.expected == encode_outcome(local.expected)
            assert out.observed == encode_outcome(local.observed)
            # unknown names come back as typed failures, connection intact
            from repro.errors import ServiceError

            with pytest.raises(ServiceError) as info:
                client.run_scenario("no.such")
            assert info.value.code == p.BAD_REQUEST
            assert client.run_scenario("channel.tampered-ciphertext").matched

    def test_malformed_flush_does_not_kill_daemon(self, daemon):
        _d, host, port = daemon
        from repro.errors import ServiceError

        with ServiceClient(host, port, name="t") as client:
            client.open_session("s", n=6)
            with pytest.raises(ServiceError) as info:
                client.request(p.Flush(name="s", max_rounds="soon"))
            assert info.value.code == p.BAD_REQUEST
            # The daemon's loop survived the ill-typed frame.
            assert client.list_sessions() == ("s",)


# ----------------------------------------------------------------------
# CLI front-end
# ----------------------------------------------------------------------


class TestScenarioCLI:
    def test_list_prints_catalog(self, capsys):
        from repro.__main__ import main

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_run_exit_zero_iff_matched(self, capsys):
        from repro.__main__ import main

        assert main(["scenario", "run", "channel.sender-spoof"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_run_without_names_is_usage_error(self, capsys):
        from repro.__main__ import main

        assert main(["scenario", "run"]) == 2
        assert "scenario list" in capsys.readouterr().err

    def test_unknown_name_is_usage_error(self, capsys):
        from repro.__main__ import main

        assert main(["scenario", "run", "no.such"]) == 2
        assert "no.such" in capsys.readouterr().err

    def test_gauntlet_json_out(self, capsys, tmp_path):
        from repro.__main__ import main

        out_path = tmp_path / "gauntlet.json"
        assert main(
            ["scenario", "gauntlet", "--json-out", str(out_path)]
        ) == 0
        summary = capsys.readouterr().out
        assert "ok" in summary and str(out_path) in summary
        payload = json.loads(out_path.read_text())
        assert payload["total"] == len(scenario_names())
        assert payload["matched"] == payload["total"]
        assert payload["mismatched"] == []

    def test_montecarlo_accepts_scenario_workload(self, capsys, tmp_path):
        from repro.__main__ import main

        out_path = tmp_path / "mc.json"
        assert main(
            [
                "montecarlo",
                "--workload", CHEAP,
                "--trials", "3",
                "--json-out", str(out_path),
            ]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["points"][0]["success_rate"]["successes"] == 3

    def test_montecarlo_rejects_unknown_workload(self, capsys):
        from repro.__main__ import main

        assert main(["montecarlo", "--workload", "nope"]) == 2
        assert "scenario:NAME" in capsys.readouterr().err
