"""Recording and replaying runs against the provenance store.

:func:`record_run` executes a spec and stores its record + event
stream.  :func:`enable_auto_record` hooks the harness chokepoint
(:func:`repro.harness.jobspec.run_spec`) so *every* spec-built run — a
``repro run`` experiment sweep, a ``repro faults`` row — is recorded as
a side effect; this is what ``--provenance`` / ``$REPRO_PROVENANCE``
turn on.

:func:`replay_record` is the determinism audit: re-execute a stored
spec under the current sources and verify the timeline digest (and the
secondary observables — counters, rollbacks, makespan) match what was
recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.harness import jobspec as _jobspec
from repro.harness.jobspec import JobSpec, code_version, run_spec_job
from repro.provenance.record import RunRecord
from repro.provenance.store import ProvenanceStore


@dataclass
class RecordedRun:
    record: RunRecord
    result: Any                   #: the JobResult
    cache_hit: bool               #: an identical record already existed


def record_run(spec: JobSpec, store: ProvenanceStore,
               *, events: bool = True, **runtime: Any) -> RecordedRun:
    """Run a spec and persist its provenance; returns the record."""
    job, result = run_spec_job(spec, **runtime)
    record = RunRecord.from_run(spec, job, result)
    _, hit = store.put(record,
                       job.scheduler.timeline if events else None)
    return RecordedRun(record=record, result=result, cache_hit=hit)


# ---------------------------------------------------------------------------
# Automatic recording (the --provenance path)
# ---------------------------------------------------------------------------

def enable_auto_record(
    store: ProvenanceStore,
    *,
    events: bool = True,
    notify: Callable[[str], None] | None = None,
) -> Callable[[], None]:
    """Record every spec-built run into ``store`` until disabled.

    Returns the disable function.  ``notify`` (if given) receives one
    human-readable line per run — ``recorded <id>`` or ``cache hit
    <id>`` — which the CLI forwards to stderr.
    """

    def hook(spec: JobSpec, job: Any, result: Any) -> None:
        record = RunRecord.from_run(spec, job, result)
        _, hit = store.put(record,
                           job.scheduler.timeline if events else None)
        if notify is not None:
            verb = "cache hit" if hit else "recorded"
            notify(f"provenance: {verb} {record.run_id[:12]} "
                   f"({spec.app}, nvp={spec.nvp}, {spec.method})")

    _jobspec.add_result_hook(hook)

    def disable() -> None:
        _jobspec.remove_result_hook(hook)

    return disable


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayReport:
    """Outcome of re-executing a stored record under current sources."""

    run_id: str
    expected_sha: str
    actual_sha: str
    expected_events: int
    actual_events: int
    makespan_match: bool
    counters_match: bool
    rollbacks_match: bool
    #: an unrecoverable record must replay to the *same* structured
    #: classification (deterministic unrecoverability)
    reason_match: bool = True
    #: counters whose totals changed: name -> (recorded, replayed)
    counter_drift: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: the record was produced by different sources than are running now
    code_version_changed: bool = False
    #: the fresh record of the replay execution
    replayed: RunRecord | None = None

    @property
    def ok(self) -> bool:
        """Byte-identical timeline — the replay contract."""
        return self.expected_sha == self.actual_sha

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "ok": self.ok,
            "expected_sha256": self.expected_sha,
            "actual_sha256": self.actual_sha,
            "expected_events": self.expected_events,
            "actual_events": self.actual_events,
            "makespan_match": self.makespan_match,
            "counters_match": self.counters_match,
            "rollbacks_match": self.rollbacks_match,
            "reason_match": self.reason_match,
            "counter_drift": {k: list(v)
                              for k, v in sorted(self.counter_drift.items())},
            "code_version_changed": self.code_version_changed,
        }


def replay_record(record: RunRecord, *, store: ProvenanceStore | None = None,
                  **runtime: Any) -> ReplayReport:
    """Re-execute a stored record's spec and audit the outcome.

    When ``store`` is given the replay's own record is written back
    (append-only: a replay under unchanged sources is a cache hit; a
    replay under changed sources creates the new code version's record).
    """
    # Never strict: a recorded unrecoverable run replays to a structured
    # result whose classification is compared, not to an exception.
    runtime.setdefault("strict", False)
    job, result = run_spec_job(record.spec, **runtime)
    fresh = RunRecord.from_run(record.spec, job, result)
    if store is not None:
        store.put(fresh, job.scheduler.timeline)
    drift = {
        name: (record.counters.get(name, 0), fresh.counters.get(name, 0))
        for name in sorted(set(record.counters) | set(fresh.counters))
        if record.counters.get(name, 0) != fresh.counters.get(name, 0)
    }
    return ReplayReport(
        run_id=record.run_id,
        expected_sha=record.timeline_sha256,
        actual_sha=fresh.timeline_sha256,
        expected_events=record.events,
        actual_events=fresh.events,
        makespan_match=record.makespan_ns == fresh.makespan_ns,
        counters_match=not drift,
        rollbacks_match=record.rollbacks == fresh.rollbacks,
        reason_match=(record.unrecoverable_reason
                      == fresh.unrecoverable_reason),
        counter_drift=drift,
        code_version_changed=record.code_version != code_version(),
        replayed=fresh,
    )
