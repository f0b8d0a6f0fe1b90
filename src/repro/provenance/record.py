"""Run records: the durable provenance of one simulated run.

A :class:`RunRecord` is the PROBE-style answer to "what exactly ran?":
the full :class:`~repro.harness.jobspec.JobSpec` (inputs), the code
digest (which sources produced it), and the observed outputs — timeline
SHA, counter totals, per-PE utilization, rollback counts, makespan.
A record's one encoding is :func:`encode_record`, its canonical JSON;
the (compressed) scheduler event stream rides alongside in the store so
``repro diff`` can bisect without re-running.

Identity: ``record_id = sha256(spec_canonical + "\\n" + code_version)``.
Two runs of the same spec under the same sources are the *same* record
(the store surfaces that as a cache hit); the same spec under changed
sources is a new record, so history stays attributable per commit.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.ampi.runtime import AmpiJob, JobResult, jsonable
from repro.harness.jobspec import JobSpec, code_version
from repro.trace.stream import encode_timeline, timeline_sha


def run_id_for(spec: JobSpec, code_ver: str) -> str:
    """The content address of a (spec, code version) pair."""
    data = spec.canonical() + "\n" + code_ver
    return hashlib.sha256(data.encode()).hexdigest()


def encode_record(record: dict[str, Any]) -> str:
    """A record's canonical JSON: its ``to_dict()`` with sorted keys and
    no whitespace, from the C encoder.  The one encoding of a filed
    run: the store files it, the serve worker ships it, and a served
    reply splices it (the form of ``repro.serve.protocol``'s lines)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@dataclass
class RunRecord:
    """One run's provenance (JSON-able; event stream stored separately)."""

    spec: JobSpec
    run_id: str
    spec_digest: str
    code_version: str
    timeline_sha256: str
    events: int                   #: scheduler quanta in the event stream
    makespan_ns: int
    startup_ns: int
    counters: dict[str, int]
    pe_stats: list[dict[str, Any]]
    rollbacks: dict[int, int]
    recoveries: int
    #: structured unrecoverability classification (None: run completed);
    #: a deterministic failure is provenance like any other run, and
    #: replay must reproduce the same classification
    unrecoverable_reason: str | None
    migrations: int
    lb_moves: int
    exit_values: dict[int, Any]
    #: wall-clock creation time (epoch seconds) — used only by ``repro
    #: gc --max-age``; never part of any digest
    created_at: float = field(default_factory=time.time)
    #: (live timeline, its encoding) from :meth:`from_run` until filed
    _encoding: tuple[list, bytes] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def app_ns(self) -> int:
        return max(0, self.makespan_ns - self.startup_ns)

    @classmethod
    def from_run(cls, spec: JobSpec, job: AmpiJob,
                 result: JobResult) -> "RunRecord":
        """Capture a finished run.  The job's scheduler timeline must
        still be live (it always is right after ``run()``)."""
        code_ver = code_version()
        timeline = job.scheduler.timeline
        encoded = encode_timeline(timeline)
        record = cls(
            spec=spec,
            run_id=run_id_for(spec, code_ver),
            spec_digest=spec.digest(),
            code_version=code_ver,
            timeline_sha256=timeline_sha(encoded),
            events=len(timeline),
            makespan_ns=result.makespan_ns,
            startup_ns=result.startup_ns,
            counters=dict(sorted(result.counters.snapshot().items())),
            pe_stats=[p.to_dict() for p in result.pe_stats],
            rollbacks=dict(sorted(result.rollbacks.items())),
            recoveries=result.recoveries,
            unrecoverable_reason=result.unrecoverable_reason,
            migrations=sum(1 for m in result.migrations
                           if m.src_pe != m.dst_pe),
            lb_moves=sum(r.moves for r in result.lb_reports),
            exit_values={vp: jsonable(v)
                         for vp, v in sorted(result.exit_values.items())},
        )
        record._encoding = (timeline, encoded)
        return record

    def _take_encoding(self, timeline: Iterable[tuple[int, int, int]] | None
                       ) -> bytes | Iterable[tuple[int, int, int]] | None:
        """The bytes :meth:`from_run` made of ``timeline`` if it is still
        that list, ungrown, else ``timeline``; drops the bytes."""
        carried, self._encoding = self._encoding, None
        fresh = (carried is not None and carried[0] is timeline
                 and len(carried[0]) == self.events)
        return carried[1] if fresh else timeline

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "spec": self.spec.to_dict(),
            "spec_digest": self.spec_digest,
            "code_version": self.code_version,
            "timeline_sha256": self.timeline_sha256,
            "events": self.events,
            "makespan_ns": self.makespan_ns,
            "startup_ns": self.startup_ns,
            "counters": dict(sorted(self.counters.items())),
            "pe_stats": list(self.pe_stats),
            "rollbacks": {str(vp): n
                          for vp, n in sorted(self.rollbacks.items())},
            "recoveries": self.recoveries,
            "unrecoverable_reason": self.unrecoverable_reason,
            "migrations": self.migrations,
            "lb_moves": self.lb_moves,
            "exit_values": {str(vp): v
                            for vp, v in sorted(self.exit_values.items())},
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunRecord":
        return cls(
            spec=JobSpec.from_dict(d["spec"]),
            run_id=d["run_id"],
            spec_digest=d["spec_digest"],
            code_version=d["code_version"],
            timeline_sha256=d["timeline_sha256"],
            events=d["events"],
            makespan_ns=d["makespan_ns"],
            startup_ns=d["startup_ns"],
            counters=dict(d.get("counters", {})),
            pe_stats=list(d.get("pe_stats", [])),
            rollbacks={int(vp): n
                       for vp, n in d.get("rollbacks", {}).items()},
            recoveries=d.get("recoveries", 0),
            unrecoverable_reason=d.get("unrecoverable_reason"),
            migrations=d.get("migrations", 0),
            lb_moves=d.get("lb_moves", 0),
            exit_values={int(vp): v
                         for vp, v in d.get("exit_values", {}).items()},
            created_at=d.get("created_at", 0.0),
        )

    def summary(self) -> str:
        return (f"{self.run_id[:12]} {self.spec.app} nvp={self.spec.nvp} "
                f"method={self.spec.method} machine={self.spec.machine} "
                f"transport={self.spec.transport} "
                f"recovery={self.spec.recovery} "
                f"events={self.events} makespan={self.makespan_ns} ns "
                f"timeline={self.timeline_sha256[:12]}"
                + (f" UNRECOVERABLE({self.unrecoverable_reason})"
                   if self.unrecoverable_reason else ""))
