"""End-to-end tests for the chaos campaign engine (repro.chaos.engine)."""

import pytest

from repro.chaos import (
    Violation,
    generate_scenario,
    run_campaign,
    run_drill,
    run_scenario,
)
from repro.errors import UNRECOVERABLE_REASONS
from repro.provenance.store import ProvenanceStore
from repro.provenance.runner import replay_record


@pytest.fixture()
def store(tmp_path):
    return ProvenanceStore(tmp_path / "prov")


def _first_of_kind(kind, campaign_seed=0, limit=60):
    for i in range(limit):
        sc = generate_scenario(campaign_seed, i)
        if sc.kind == kind:
            return sc
    raise AssertionError(f"no {kind} scenario in the first {limit}")


class TestRunScenario:
    def test_clean_scenario_is_green(self):
        out = run_scenario(_first_of_kind("clean"), replay=False,
                           shrink=False)
        assert out.ok and out.status == "ok"
        assert out.reason is None and out.plan is None
        assert out.timeline_sha256

    def test_crash_scenario_passes_all_invariants(self):
        out = run_scenario(_first_of_kind("crash"))
        assert out.ok
        assert out.status in ("ok", "unrecoverable")
        assert out.plan is not None
        assert out.plan["node_crashes"]

    def test_hostile_scenario_classifies_structurally(self):
        out = run_scenario(_first_of_kind("hostile"), replay=False,
                           shrink=False)
        assert out.ok
        if out.status == "unrecoverable":
            assert out.reason in UNRECOVERABLE_REASONS

    def test_outcome_is_deterministic(self):
        sc = _first_of_kind("crash")
        a = run_scenario(sc, replay=False, shrink=False)
        b = run_scenario(sc, replay=False, shrink=False)
        assert a.timeline_sha256 == b.timeline_sha256
        assert a.makespan_ns == b.makespan_ns
        assert a.status == b.status

    def test_stored_repro_replays_byte_identically(self, store):
        sc = _first_of_kind("crash")
        out = run_scenario(sc, store=store, replay=False, shrink=False)
        record = store.get(out.run_id)
        assert replay_record(record).ok

    def test_planted_violation_shrinks_and_records(self, store):
        sc = _first_of_kind("crash")

        def planted(result):
            return [Violation("planted-bug", "always fails")]

        out = run_scenario(sc, store=store, replay=False,
                           extra_check=planted, shrink=True,
                           shrink_budget=16)
        assert out.status == "violation"
        assert out.shrunk is not None
        assert out.shrunk["evaluations"] <= 16
        assert out.run_id is not None
        # An always-failing predicate shrinks the plan to nothing.
        assert out.shrunk["n_faults"] == 0


class TestCampaign:
    def test_small_campaign_is_green_and_deterministic(self):
        a = run_campaign(0, 6, replay=False, shrink=False)
        b = run_campaign(0, 6, replay=False, shrink=False)
        assert a.ok and b.ok
        assert [o.timeline_sha256 for o in a.outcomes] == \
            [o.timeline_sha256 for o in b.outcomes]
        assert sum(a.tally().values()) == 6

    def test_summary_names_the_seed_and_tally(self):
        report = run_campaign(3, 3, replay=False, shrink=False)
        s = report.summary()
        assert "seed=3" in s and "count=3" in s
        assert report.to_dict()["ok"] == report.ok

    def test_progress_callback_fires_per_scenario(self):
        lines = []
        run_campaign(0, 3, replay=False, shrink=False,
                     progress=lines.append)
        assert len(lines) == 3
        assert lines[0].startswith("[1/3]")


class TestDrill:
    def test_planted_bug_shrinks_to_one_crash_and_replays(self, store):
        report = run_drill(7, store, budget=32, max_faults=2)
        assert report.ok
        assert report.converged and report.replay_ok
        assert 1 <= report.n_faults <= 2
        assert report.evaluations <= 32
        assert report.run_id is not None
        assert report.steps  # the walkthrough for the docs
        d = report.to_dict()
        assert d["ok"] and d["plan"]


class TestCampaignRegressions:
    """Campaign-discovered bugs, pinned by their exact scenario."""

    @pytest.mark.parametrize("index", [59, 63])
    def test_local_recovery_under_wire_noise(self, index):
        # Seed-0 scenarios 59 and 63 found two local-recovery bugs: a
        # crash firing on the scheduler's idle path silently dropped the
        # popped RTO timer (deadlocking the retransmission), and a
        # co-recovering sender's replayed message could be consumed
        # twice (once from the log, once from the transport duplicate),
        # feeding a later receive stale halo data.
        out = run_scenario(generate_scenario(0, index), replay=False,
                           shrink=False)
        assert out.ok, [str(v) for v in out.violations]
        assert out.status == "ok"

    def test_a_run_that_never_finishes_is_a_liveness_violation(self, store):
        # Seed-2 scenario 25 deadlocks (local recovery of a cascade under
        # wire noise; still open).  It must be reported, not raised: no
        # record exists for a run that never finished, so the scenario
        # and its plan are the repro, and its shrunk plan still hangs.
        out = run_scenario(generate_scenario(2, 25), store=store,
                           replay=False, shrink_budget=8)
        assert out.status == "violation"
        assert [v.invariant for v in out.violations] == ["liveness"]
        assert "DeadlockError" in out.violations[0].detail
        assert out.plan["node_crashes"] and out.shrunk is not None
        assert out.run_id is None and out.timeline_sha256 is None
        assert store.ids() == []
