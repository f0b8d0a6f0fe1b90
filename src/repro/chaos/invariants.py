"""The chaos campaign's machine-checkable invariant suite.

Every scenario run — recoverable or not — must satisfy a set of
properties that follow from the simulator's contracts, not from any
particular workload:

* **numerics**: a run that completes under faults produces exit values
  bit-identical to its fault-free twin (faults cost latency, never
  data);
* **rollback accounting**: rollback counters reconcile exactly with the
  recovery manager's crash log — under global recovery every rank rolls
  back once per recovery; under local recovery a rank's rollbacks equal
  the number of times it died;
* **survivor rollbacks**: message-logging local recovery never rolls a
  survivor back (the scheme's entire point);
* **orphans**: no run leaks a user-level thread, whatever its exit path;
* **fault draws**: the fault injector's PRNG draw count reconciles with
  the transport counters (one draw per attempt on the reliable path, one
  per send on the priced path) — the determinism ledger;
* **taxonomy**: an unrecoverable run carries a structured reason from
  :data:`repro.errors.UNRECOVERABLE_REASONS` and a non-empty error; a
  completed run finished every rank;
* **replay** (checked by the engine via
  :func:`repro.provenance.replay_record`): re-executing the recorded
  spec reproduces every recorded observable
  (:func:`repro.provenance.diff.drift` is empty) — the timeline SHA,
  counters, rollbacks and, for unrecoverable runs, the classification.

Checks return :class:`Violation` values instead of raising so the
campaign engine can shrink the offending fault plan and persist a repro.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ampi.runtime import AmpiJob, JobResult
from repro.errors import UNRECOVERABLE_REASONS
from repro.harness.jobspec import JobSpec
from repro.perf.counters import (
    EV_ACK,
    EV_MSG_FAULT_CORRUPT,
    EV_MSG_FAULT_DROP,
    EV_MSG_SENT,
)
from repro.provenance.diff import describe_drift

if TYPE_CHECKING:  # pragma: no cover
    from repro.provenance.runner import ReplayReport


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough detail to debug the repro."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"

    def to_dict(self) -> dict:
        return {"invariant": self.invariant, "detail": self.detail}


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def check_numerics(result: JobResult,
                   base: JobResult) -> Violation | None:
    """Completed faulted run == fault-free twin, bit for bit."""
    if result.unrecoverable_reason is not None:
        return None
    if result.exit_values != base.exit_values:
        diff = sorted(
            vp for vp in set(result.exit_values) | set(base.exit_values)
            if result.exit_values.get(vp) != base.exit_values.get(vp)
        )
        return Violation(
            "numerics",
            f"exit values diverged from the fault-free twin at vp(s) "
            f"{diff[:8]}{'...' if len(diff) > 8 else ''}",
        )
    return None


def check_rollback_accounting(spec: JobSpec,
                              result: JobResult) -> Violation | None:
    """Rollback counters reconcile exactly with the crash log."""
    counts = {vp: n for vp, n in result.rollbacks.items() if n}
    log = result.crashes
    if result.recoveries != len(log):
        return Violation(
            "rollback-accounting",
            f"recoveries={result.recoveries} but the crash log has "
            f"{len(log)} entries",
        )
    if spec.recovery == "local":
        expected = Counter(vp for entry in log for vp in entry["dead_vps"])
        if counts != dict(expected):
            return Violation(
                "rollback-accounting",
                f"local rollback counts {counts} != per-crash dead sets "
                f"{dict(expected)}",
            )
    else:
        want = result.recoveries
        if want == 0:
            if counts:
                return Violation(
                    "rollback-accounting",
                    f"no recoveries but rollback counts {counts}",
                )
        else:
            bad = {vp: n for vp, n in result.rollbacks.items()
                   if n != want}
            missing = [vp for vp in range(result.nvp)
                       if vp not in result.rollbacks]
            if bad or missing:
                return Violation(
                    "rollback-accounting",
                    f"global recovery x{want} must roll every rank back "
                    f"{want} time(s); off: {bad}, missing: {missing}",
                )
    return None


def check_survivor_rollbacks(spec: JobSpec,
                             result: JobResult) -> Violation | None:
    """Local recovery never rolls back a rank that never died."""
    if spec.recovery != "local":
        return None
    died = {vp for entry in result.crashes for vp in entry["dead_vps"]}
    guilty = {vp: n for vp, n in result.rollbacks.items()
              if n and vp not in died}
    if guilty:
        return Violation(
            "survivor-rollbacks",
            f"survivors rolled back under local recovery: {guilty}",
        )
    return None


def check_orphans(job: AmpiJob) -> Violation | None:
    """No exit path may leak a user-level thread."""
    n = job.scheduler.orphaned
    if n:
        return Violation("orphans", f"{n} ULT(s) failed to unwind")
    return None


def check_fault_draws(spec: JobSpec, job: AmpiJob,
                      result: JobResult) -> Violation | None:
    """The injector's draw count reconciles with transport counters.

    One fault decision is drawn per transmission *attempt* on the
    reliable path — and every attempt lands in exactly one of
    {acked, dropped, corrupted} — or per send on the priced path.  With
    no message faults in the plan no draws are made at all.  Any slack
    here means a fault decision was consumed twice, skipped, or spent on
    a message that never existed: the determinism ledger is broken.
    """
    injector = job.fault_injector
    draws = injector.draws if injector is not None else 0
    plan = injector.plan if injector is not None else None
    mf = plan.message_faults if plan is not None else None
    c = result.counters
    if mf is None or not mf.any:
        if draws:
            return Violation(
                "fault-draws",
                f"{draws} draw(s) without message faults in the plan",
            )
        return None
    if spec.transport == "reliable":
        want = (c[EV_ACK] + c[EV_MSG_FAULT_DROP]
                + c[EV_MSG_FAULT_CORRUPT])
        identity = "ACKS + MSG_FAULT_DROP + MSG_FAULT_CORRUPT"
    else:
        want = c[EV_MSG_SENT]
        identity = "MSG_SENT"
    if draws != want:
        return Violation(
            "fault-draws",
            f"injector drew {draws} but {identity} = {want} "
            f"({spec.transport} transport)",
        )
    return None


def check_taxonomy(result: JobResult) -> Violation | None:
    """Failure classification is structured; completion is total."""
    reason = result.unrecoverable_reason
    if reason is not None:
        if reason not in UNRECOVERABLE_REASONS:
            return Violation(
                "taxonomy", f"unknown unrecoverable reason {reason!r}")
        if not result.error:
            return Violation(
                "taxonomy", f"reason {reason!r} without an error message")
        return None
    unfinished = sorted(vp for vp, v in result.exit_values.items()
                        if v is None)
    if unfinished:
        return Violation(
            "taxonomy",
            f"run reported ok but rank(s) {unfinished[:8]} never "
            "returned an exit value",
        )
    return None


def check_replay(report: "ReplayReport") -> Violation | None:
    """Recorded provenance reproduces: no observable drifted."""
    if report.ok:
        return None
    return Violation("replay", describe_drift(report.drift))


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

def check_run(spec: JobSpec, job: AmpiJob, result: JobResult,
              base: JobResult) -> list[Violation]:
    """All post-run invariants (replay is the engine's extra re-run)."""
    checks = (
        check_numerics(result, base),
        check_rollback_accounting(spec, result),
        check_survivor_rollbacks(spec, result),
        check_orphans(job),
        check_fault_draws(spec, job, result),
        check_taxonomy(result),
    )
    return [v for v in checks if v is not None]
