"""Replay and diff: the acceptance criteria of the provenance layer.

Byte-identical replay must hold for a plain Jacobi-3D run, an ADCIRC run
with GreedyRefineLB, and a faulty run under the reliable transport with
message-logging local recovery (including identical rollback counts).
Diffing two runs that differ only in their fault-plan seed must localize
the first divergent event (index, PE, kind).
"""

import pytest

from repro.ft import FaultPlan, MessageFaults, NodeCrash
from repro.harness import jobspec as js
from repro.harness.jobspec import JobSpec, run_spec
from repro.provenance import (
    ProvenanceStore,
    diff_records,
    enable_auto_record,
    first_divergence,
    record_run,
    replay_record,
)

JACOBI = JobSpec(app="jacobi3d", nvp=8,
                 app_config={"n": 12, "iters": 6, "reduce_every": 2})

ADCIRC = JobSpec(app="adcirc", nvp=8,
                 app_config={"width": 16, "height": 32, "steps": 10,
                             "lb_period": 5},
                 lb_strategy="greedyrefine", layout=(1, 1, 4))


def _faulty_spec(seed: int = 5) -> JobSpec:
    base = run_spec(JobSpec(
        app="jacobi3d", nvp=8, layout=(4, 1, 2),
        app_config={"n": 12, "iters": 8, "reduce_every": 2,
                    "ckpt_period": 2, "compute_ns_per_cell": 2000.0},
        transport="reliable", recovery="local"))
    crash_at = base.startup_ns + base.app_ns // 2
    plan = FaultPlan(seed=seed,
                     node_crashes=(NodeCrash(at_ns=crash_at, node=2),))
    return JobSpec(
        app="jacobi3d", nvp=8, layout=(4, 1, 2),
        app_config={"n": 12, "iters": 8, "reduce_every": 2,
                    "ckpt_period": 2, "compute_ns_per_cell": 2000.0},
        transport="reliable", recovery="local",
        fault_plan=plan.to_dict(), ft_interval_ns=0)


@pytest.fixture
def store(tmp_path):
    return ProvenanceStore(tmp_path / "store")


class TestReplay:
    @pytest.mark.parametrize("spec", [JACOBI, ADCIRC],
                             ids=["jacobi3d-default", "adcirc-greedyrefine"])
    def test_replay_is_byte_identical(self, store, spec):
        record = record_run(spec, store).record
        report = replay_record(record)
        assert report.ok and report.drift == {}
        assert report.actual_sha256 == record.timeline_sha256
        assert not report.code_version_changed

    def test_faulty_run_replays_with_identical_rollbacks(self, store):
        record = record_run(_faulty_spec(), store).record
        assert sum(record.rollbacks.values()) > 0   # the crash bit
        report = replay_record(record)
        assert report.ok
        assert report.record.rollbacks == record.rollbacks

    def test_replay_writes_back_to_store(self, store):
        record = record_run(JACOBI, store).record
        assert len(store) == 1
        replay_record(record, store=store)
        # Same spec, same sources -> cache hit, not a second record.
        assert len(store) == 1


class TestFirstDivergence:
    A = [(0, 0, 10), (0, 1, 20), (1, 0, 30)]

    def test_identical(self):
        assert first_divergence(self.A, list(self.A)) is None

    def test_retimed(self):
        b = [(0, 0, 10), (0, 1, 25), (1, 0, 30)]
        d = first_divergence(self.A, b)
        assert d.index == 1 and d.kind == "retimed"
        assert d.a.start_ns == 20 and d.b.start_ns == 25
        assert d.a.pe == d.b.pe == 0

    def test_reordered(self):
        b = [(0, 0, 10), (1, 0, 20), (0, 1, 30)]
        d = first_divergence(self.A, b)
        assert d.index == 1 and d.kind == "reordered"

    def test_truncated(self):
        d = first_divergence(self.A, self.A[:2])
        assert d.index == 2 and d.kind == "truncated"
        assert d.a is not None and d.b is None
        d2 = first_divergence(self.A[:2], self.A)
        assert d2.a is None and d2.b is not None


class TestDiff:
    def test_identical_specs_identical_timelines(self, store):
        a = record_run(JACOBI, store).record
        job, result = js.run_spec_job(JACOBI)
        from repro.provenance import RunRecord

        b = RunRecord.from_run(JACOBI, job, result)
        report = diff_records(a, b, store.load_timeline(a),
                              job.scheduler.timeline)
        assert report.identical
        assert report.divergence is None
        assert report.spec_diffs == {}
        assert report.counter_deltas == {}

    @staticmethod
    def _noisy_spec(seed: int) -> JobSpec:
        # The plan's seed drives the wire-noise RNG, so two specs that
        # differ only in the seed produce genuinely different runs.
        plan = FaultPlan(seed=seed,
                         message_faults=MessageFaults(drop=0.10))
        return JobSpec(app="jacobi3d", nvp=8, layout=(1, 1, 4),
                       app_config={"n": 12, "iters": 6, "reduce_every": 2},
                       transport="reliable", fault_plan=plan.to_dict())

    def test_seed_only_difference_localizes_divergence(self, store):
        """Two faulty runs differing only in the fault-plan seed: the
        diff names the first divergent event index, its PE, and kind."""
        a = record_run(self._noisy_spec(seed=5), store).record
        b = record_run(self._noisy_spec(seed=6), store).record
        report = diff_records(a, b, store.load_timeline(a),
                              store.load_timeline(b))
        assert not report.identical
        # Spec diff pinpoints the seed as the only input change.
        assert set(report.spec_diffs) == {"fault_plan.seed"}
        d = report.divergence
        assert d is not None
        assert d.index >= 0
        assert d.kind in ("retimed", "reordered", "truncated")
        assert (d.a or d.b).pe >= 0
        text = report.format()
        assert f"diverge at event index {d.index}" in text
        assert d.kind in text

    def test_diff_without_stored_timelines(self, store):
        a = record_run(self._noisy_spec(seed=5), store).record
        b = record_run(self._noisy_spec(seed=6), store).record
        report = diff_records(a, b, None, None)
        assert not report.identical
        assert report.divergence is None     # digest-level verdict only


class TestAutoRecord:
    def test_hook_records_every_spec_run(self, store):
        lines = []
        disable = enable_auto_record(store, notify=lines.append)
        try:
            run_spec(JobSpec(app="hello", nvp=2, method="pieglobals"))
            run_spec(JobSpec(app="hello", nvp=2, method="pieglobals"))
            run_spec(JobSpec(app="hello", nvp=3, method="pieglobals"))
        finally:
            disable()
        run_spec(JobSpec(app="hello", nvp=4, method="pieglobals"))
        assert len(store) == 2               # 2 distinct specs recorded
        assert sum("recorded" in l for l in lines) == 2
        assert sum("cache hit" in l for l in lines) == 1

    def test_experiment_sweep_is_recorded(self, store):
        from repro.harness.experiments import context_switch_experiment

        disable = enable_auto_record(store)
        try:
            context_switch_experiment(methods=("none", "pieglobals"),
                                      yields_per_rank=50)
        finally:
            disable()
        assert len(store) == 2
        apps = {r.spec.app for r in store.records()}
        assert apps == {"pingpong"}
