"""Recording and replaying runs against the provenance store.

:func:`record_run` executes a spec and stores its record + event
stream; :func:`file_run`, its filing half, is the one place a finished
run becomes a (stored) :class:`RunRecord`.  :func:`enable_auto_record`
hooks the harness chokepoint (:func:`repro.harness.jobspec.run_spec`)
so *every* spec-built run — a ``repro run`` experiment sweep, a ``repro
faults`` row — is recorded as a side effect; this is what
``--provenance`` / ``$REPRO_PROVENANCE`` turn on.

:func:`reexecute` is the determinism audit: run a recorded spec again
under the current sources and report the :func:`~repro.provenance.diff
.drift` of every observable the expectation recorded — a stored record
for ``repro replay`` (:func:`replay_record`), a pinned entry for ``repro
pin run`` (:func:`~repro.provenance.pin.verify_pin`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.harness import jobspec as _jobspec
from repro.harness.jobspec import JobSpec, code_version, run_spec_job
from repro.provenance.diff import describe_drift, drift
from repro.provenance.record import RunRecord
from repro.provenance.store import ProvenanceStore


@dataclass
class RecordedRun:
    record: RunRecord
    result: Any                   #: the JobResult
    cache_hit: bool               #: an identical record already existed


def file_run(spec: JobSpec, job: Any, result: Any,
             store: ProvenanceStore | None) -> RecordedRun:
    """Capture a finished run and, given a store, file the record with
    its event stream.  The job's scheduler timeline must still be live
    (it always is right after ``run()``)."""
    record = RunRecord.from_run(spec, job, result)
    hit = (store is not None
           and store.put(record, job.scheduler.timeline)[1])
    return RecordedRun(record=record, result=result, cache_hit=hit)


def record_run(spec: JobSpec, store: ProvenanceStore,
               **runtime: Any) -> RecordedRun:
    """Run a spec and persist its provenance; returns the record."""
    return file_run(spec, *run_spec_job(spec, **runtime), store)


# ---------------------------------------------------------------------------
# Automatic recording (the --provenance path)
# ---------------------------------------------------------------------------

def enable_auto_record(
    store: ProvenanceStore,
    *,
    notify: Callable[[str], None] | None = None,
) -> Callable[[], None]:
    """Record every spec-built run into ``store`` until disabled.

    Returns the disable function.  ``notify`` (if given) receives one
    human-readable line per run — ``recorded <id>`` or ``cache hit
    <id>`` — which the CLI forwards to stderr.
    """

    def hook(spec: JobSpec, job: Any, result: Any) -> None:
        filed = file_run(spec, job, result, store)
        if notify is not None:
            verb = "cache hit" if filed.cache_hit else "recorded"
            notify(f"provenance: {verb} {filed.record.run_id[:12]} "
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
    """Outcome of re-executing a recorded spec under current sources."""

    name: str                     #: record id prefix / pinned scenario
    expected_sha256: str
    #: observables that moved: dotted path -> (recorded, re-executed);
    #: empty means the run reproduced
    drift: dict[str, tuple[Any, Any]]
    #: the expectation was produced by different sources than are
    #: running now (context, not proof: the verdict is the drift)
    code_version_changed: bool
    #: the fresh record of the re-execution
    record: RunRecord

    @property
    def ok(self) -> bool:
        """Reproduced: no recorded observable moved."""
        return not self.drift

    @property
    def actual_sha256(self) -> str:
        return self.record.timeline_sha256

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "ok": self.ok,
            "expected_sha256": self.expected_sha256,
            "actual_sha256": self.actual_sha256,
            "drift": {k: list(v) for k, v in self.drift.items()},
            "code_version_changed": self.code_version_changed,
        }

    def format(self) -> str:
        if self.ok:
            return (f"ok   {self.name}: timeline {self.actual_sha256[:12]} "
                    f"({self.record.makespan_ns} ns)")
        return f"DRIFT {self.name}: {describe_drift(self.drift)}"


def reexecute(name: str, expected: Any, *,
              store: ProvenanceStore | None = None) -> ReplayReport:
    """Run ``expected.spec`` again and compare with ``expected`` (a
    :class:`RunRecord` or :class:`~repro.provenance.pin.PinEntry`).

    Never strict: a recorded unrecoverable run re-executes to a
    structured result whose classification is compared, not to an
    exception.  When ``store`` is given the fresh record is written back
    (append-only: under unchanged sources that is a cache hit; under
    changed sources it creates the new code version's record).
    """
    spec = expected.spec
    fresh = file_run(spec, *run_spec_job(spec, strict=False), store).record
    return ReplayReport(
        name=name,
        expected_sha256=expected.timeline_sha256,
        drift=drift(expected, fresh),
        code_version_changed=expected.code_version != code_version(),
        record=fresh,
    )


def replay_record(record: RunRecord, *,
                  store: ProvenanceStore | None = None) -> ReplayReport:
    """Re-execute a stored record's spec and audit the outcome."""
    return reexecute(record.run_id[:12], record, store=store)
