"""The service-layer fault campaign (repro.chaos.serve_faults): reply
classification and the ledger without a server, then one real campaign
against a ``repro serve`` subprocess."""

import pytest

from repro.chaos.serve_faults import (
    ServeFaultOutcome,
    _audit_twin,
    classify,
    generate_serve_scenario,
    run_serve_campaign,
    serve_ledger,
)
from repro.serve import protocol
from repro.serve.client import ServeConnectionError, SubmitReply


class TestClassify:
    def test_a_record_resolves(self):
        reply = SubmitReply(ok=True, run_id="ab", record={"run_id": "ab"})
        assert classify(reply) == "record"

    @pytest.mark.parametrize("reason", [protocol.REASON_POISON,
                                        protocol.REASON_DEADLINE,
                                        protocol.REASON_POOL_DEAD])
    def test_a_structured_failure_resolves(self, reason):
        reply = SubmitReply(ok=False, error="no", reason=reason)
        assert classify(reply) == f"reason:{reason}"

    @pytest.mark.parametrize("reason", protocol.RETRYABLE_REASONS)
    def test_a_refusal_is_shed_not_lost(self, reason):
        reply = SubmitReply(ok=False, error="later", reason=reason,
                            retryable=True)
        assert classify(reply) == "shed"

    @pytest.mark.parametrize("reply", [
        SubmitReply(ok=False, error="worker blew up"),
        SubmitReply(ok=False, error="?", reason="no-such-reason"),
        SubmitReply(ok=True, run_id="ab", cache=protocol.CACHE_INFLIGHT),
    ], ids=["bare-error", "unknown-reason", "accepted-no-record"])
    def test_anything_else_is_unresolved(self, reply):
        assert classify(reply) == ""


class TestLedger:
    def test_totals_are_derived_from_the_outcomes(self):
        sc = generate_serve_scenario(0, 0)

        def outcome(resolution, **kw):
            return ServeFaultOutcome(scenario=sc, resolution=resolution,
                                     **kw)

        outcomes = [
            outcome("record", twin_drift={}),
            outcome("record", twin_drift={}, restarts=1),
            outcome("record", status="mismatch",
                    twin_drift={"makespan_ns": (1, 2)}),
            outcome("record"),                        # record not audited
            outcome(f"reason:{protocol.REASON_POISON}"),
            outcome("shed"),                          # never accepted
            outcome("", status="unresolved"),         # accepted, lost
        ]
        assert serve_ledger(outcomes) == {
            "accepted": 6, "resolved": 5, "lost": 1,
            "records_verified": 3, "records_unverified": 0,
            "twin_mismatches": 1, "server_restarts": 1}

    def test_empty_campaign(self):
        assert set(serve_ledger([]).values()) == {0}


class StubClient:
    """Answers ``await_result`` with one reply, or raises one error."""

    def __init__(self, reply=None, error=None):
        self.reply, self.error = reply, error

    def await_result(self, run_id):
        if self.error is not None:
            raise self.error
        return self.reply


class TestUnverifiedTwins:
    def test_a_record_not_read_back_is_counted_with_its_reason(self):
        sc = generate_serve_scenario(0, 0)

        def audited(client):
            out = ServeFaultOutcome(scenario=sc, resolution="record",
                                    run_id="ab" * 32)
            _audit_twin(client, out)
            return out

        raised = audited(StubClient(
            error=ServeConnectionError("serve hung up (EOF)")))
        refused = audited(StubClient(reply=SubmitReply(
            ok=False, error="deadline exceeded after 5 ms",
            reason=protocol.REASON_DEADLINE)))
        assert raised.unverified == "connection: serve hung up (EOF)"
        assert refused.unverified == "not-ok: deadline-exceeded"
        for out in (raised, refused):
            assert out.ok and out.twin_drift is None
            assert out.to_dict()["unverified"] == out.unverified
        ledger = serve_ledger([
            raised, refused,
            ServeFaultOutcome(scenario=sc, resolution="record",
                              twin_drift={})])
        assert ledger["records_verified"] == 1
        assert ledger["records_unverified"] == 2
        assert ledger["unverified:connection"] == 1
        assert ledger["unverified:not-ok"] == 1


class TestCampaign:
    def test_twelve_scenarios_against_a_live_server(self, tmp_path):
        """Seed 0's first twelve: clean, worker-kill, poison, conn-drop
        and two server SIGKILL + restarts."""
        lines = []
        report = run_serve_campaign(0, 12, root=tmp_path,
                                    progress=lines.append)
        assert report.ok, report.summary()
        assert len(lines) == 12 and lines[0].startswith("[1/12]")
        assert report.kinds == {"clean": 5, "conn-drop": 2, "poison": 1,
                                "server-crash": 2, "worker-kill": 2}
        assert report.tally() == {"ok": 12}
        ledger = report.ledger
        assert ledger["accepted"] == ledger["resolved"] == 12
        assert ledger["lost"] == 0 and ledger["twin_mismatches"] == 0
        assert ledger["records_unverified"] == 0, [
            o.unverified for o in report.outcomes if o.unverified]
        assert ledger["records_verified"] == 11     # all but the poison job
        assert ledger["server_restarts"] == 2
        assert all(o.twin_drift == {} for o in report.outcomes
                   if o.resolution == "record")
        d = report.to_dict()
        assert d["seed"] == 0 and d["ledger"] == ledger
        assert "seed=0 count=12" in report.summary()
