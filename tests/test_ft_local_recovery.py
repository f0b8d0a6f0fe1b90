"""Tests for sender-based message logging and local rollback recovery
(repro.ft.msglog + LocalRecoveryManager, ``recovery="local"``)."""

import pytest

from repro.apps.jacobi3d import JacobiConfig, run_jacobi
from repro.charm.node import JobLayout
from repro.errors import ReproError
from repro.ft import FaultPlan, MessageFaults, NodeCrash
from repro.perf.counters import (
    EV_LOG_BYTES,
    EV_RECOVERY_NS,
    EV_REPLAYED,
)

CFG = JacobiConfig(n=12, iters=8, reduce_every=2, ckpt_period=2,
                   compute_ns_per_cell=2000.0)
LAYOUT = JobLayout(nodes=4, processes_per_node=1, pes_per_process=2)


def _run(fault_plan=None, recovery="local", transport="reliable", **kw):
    return run_jacobi(CFG, 8, layout=LAYOUT, fault_plan=fault_plan,
                      transport=transport, recovery=recovery, **kw)


@pytest.fixture(scope="module")
def baseline():
    """Failure-free run, reliable transport, local recovery armed."""
    return _run()


@pytest.fixture(scope="module")
def crash_plan(baseline):
    at = baseline.startup_ns + baseline.app_ns // 2
    return FaultPlan(seed=3, node_crashes=(NodeCrash(at_ns=at, node=2),))


class TestValidation:
    def test_local_requires_reliable_transport(self):
        with pytest.raises(ReproError, match="reliable"):
            _run(transport="priced")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ReproError, match="transport"):
            _run(transport="carrier-pigeon")

    def test_unknown_recovery_rejected(self):
        with pytest.raises(ReproError, match="recovery"):
            _run(recovery="optimistic")


class TestMessageLogging:
    def test_no_logging_without_scheduled_crashes(self, baseline):
        # The fault plan is static, so a run that cannot crash skips the
        # sender-side log entirely — local recovery costs nothing then.
        assert baseline.counters[EV_LOG_BYTES] == 0
        assert baseline.counters[EV_REPLAYED] == 0
        assert baseline.recovery == "local"
        assert baseline.rollbacks == {}

    def test_crashable_run_logs_sends(self, crash_plan):
        r = _run(crash_plan)
        assert r.counters[EV_LOG_BYTES] > 0

    def test_logging_does_not_change_numerics(self, baseline):
        plain = _run(recovery="global", transport="priced")
        assert baseline.exit_values == plain.exit_values


class TestLocalRecovery:
    def test_only_dead_ranks_roll_back(self, baseline, crash_plan):
        r = _run(crash_plan)
        assert r.recoveries == 1
        # node 2 hosted exactly 2 of the 8 vps; only they rolled back.
        assert sum(r.rollbacks.values()) == 2
        assert r.counters[EV_REPLAYED] > 0
        assert r.exit_values == baseline.exit_values

    def test_global_rolls_everyone_back(self, baseline, crash_plan):
        r = _run(crash_plan, recovery="global")
        assert set(r.rollbacks) == set(range(8))
        assert r.exit_values == baseline.exit_values

    def test_local_recovery_cheaper_than_global(self, crash_plan):
        local = _run(crash_plan)
        glob = _run(crash_plan, recovery="global")
        assert 0 < local.counters[EV_RECOVERY_NS] \
            < glob.counters[EV_RECOVERY_NS]

    def test_deterministic(self, crash_plan):
        a = _run(crash_plan)
        b = _run(crash_plan)
        assert a.makespan_ns == b.makespan_ns
        assert a.exit_values == b.exit_values
        assert a.counters.snapshot() == b.counters.snapshot()

    def test_survives_crash_plus_message_faults(self, baseline, crash_plan):
        plan = FaultPlan(
            seed=crash_plan.seed, node_crashes=crash_plan.node_crashes,
            message_faults=MessageFaults(drop=0.02, duplicate=0.02))
        r = _run(plan)
        assert r.exit_values == baseline.exit_values
        assert sum(r.rollbacks.values()) == 2


class TestResultMetadata:
    def test_result_records_transport_and_recovery(self, baseline):
        assert baseline.transport == "reliable"
        assert baseline.recovery == "local"
        assert baseline.rollbacks == {}

    def test_rollbacks_serialized_with_string_keys(self, crash_plan):
        # a run's one serialization is its provenance record
        from repro.harness.jobspec import JobSpec, build_job
        from repro.provenance import RunRecord

        spec = JobSpec(app="jacobi3d", nvp=8, app_config=dict(CFG.__dict__),
                       layout=(4, 1, 2), fault_plan=crash_plan.to_dict(),
                       transport="reliable", recovery="local")
        job = build_job(spec)
        d = RunRecord.from_run(spec, job, job.run()).to_dict()
        assert d["rollbacks"] and all(isinstance(k, str)
                                      for k in d["rollbacks"])


class TestRecoveryComparisonExperiment:
    def test_table_shape_and_ordering(self):
        from repro.harness.experiments import recovery_comparison_experiment
        rows = recovery_comparison_experiment()
        assert [r.mode for r in rows] == ["none", "global", "local"]
        none, glob, local = rows
        assert none.residual == glob.residual == local.residual
        assert local.survivor_rollbacks == 0
        assert glob.survivor_rollbacks > 0
        assert 0 < local.recovery_ns < glob.recovery_ns
        assert local.replayed > 0
