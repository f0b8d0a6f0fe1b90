"""The pinned-scenario corpus: a committed timeline-regression gate.

A pin manifest is a JSON file (committed to the repo, default
``benchmarks/pinned_scenarios.json``) mapping scenario names to a full
:class:`~repro.harness.jobspec.JobSpec` plus the expected observables —
timeline SHA-256, event count, makespan, and every counter total.
``repro pin run`` re-executes each spec under the current sources (the
same re-execution as ``repro replay``) and fails on *any* drift of
those, so a PR that silently changes the timeline of a pinned scenario
turns CI red instead of shipping a behaviour change nobody asked for.  Intentional changes are re-pinned explicitly with
``repro pin update`` and reviewed as a manifest diff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.harness.jobspec import JobSpec
from repro.provenance.record import RunRecord
from repro.provenance.runner import ReplayReport, reexecute

#: default manifest location (committed; CI runs it)
DEFAULT_MANIFEST = "benchmarks/pinned_scenarios.json"

MANIFEST_VERSION = 1


@dataclass
class PinEntry:
    """One pinned scenario: spec + expected observables."""

    name: str
    spec: JobSpec
    timeline_sha256: str
    events: int
    makespan_ns: int
    counters: dict[str, int]
    #: sources that produced the pinned values (informational)
    code_version: str = ""

    @classmethod
    def from_record(cls, name: str, record: RunRecord) -> "PinEntry":
        return cls(
            name=name,
            spec=record.spec,
            timeline_sha256=record.timeline_sha256,
            events=record.events,
            makespan_ns=record.makespan_ns,
            counters=dict(sorted(record.counters.items())),
            code_version=record.code_version,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "timeline_sha256": self.timeline_sha256,
            "events": self.events,
            "makespan_ns": self.makespan_ns,
            "counters": dict(sorted(self.counters.items())),
            "code_version": self.code_version,
        }

    @classmethod
    def from_dict(cls, name: str, d: dict[str, Any]) -> "PinEntry":
        return cls(
            name=name,
            spec=JobSpec.from_dict(d["spec"]),
            timeline_sha256=d["timeline_sha256"],
            events=d["events"],
            makespan_ns=d["makespan_ns"],
            counters=dict(d.get("counters", {})),
            code_version=d.get("code_version", ""),
        )


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------

def load_manifest(path: str | Path) -> dict[str, PinEntry]:
    path = Path(path)
    if not path.exists():
        return {}
    data = json.loads(path.read_text())
    version = data.get("version")
    if version != MANIFEST_VERSION:
        raise ReproError(
            f"unsupported pin manifest version {version!r} in {path}")
    return {
        name: PinEntry.from_dict(name, entry)
        for name, entry in sorted(data.get("scenarios", {}).items())
    }


def save_manifest(path: str | Path, entries: dict[str, PinEntry]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": MANIFEST_VERSION,
        "scenarios": {name: e.to_dict()
                      for name, e in sorted(entries.items())},
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def pinned_spec_digests(entries: dict[str, PinEntry]) -> frozenset[str]:
    """Spec digests the GC must never collect."""
    return frozenset(e.spec.digest() for e in entries.values())


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify_pin(entry: PinEntry) -> ReplayReport:
    """Re-execute one pinned scenario; it is judged on the observables
    the pin records (see :func:`repro.provenance.diff.drift`)."""
    return reexecute(entry.name, entry)


def verify_manifest(entries: dict[str, PinEntry],
                    names: list[str] | None = None) -> list[ReplayReport]:
    """Verify all (or the named) scenarios, sorted by name."""
    if names:
        unknown = [n for n in names if n not in entries]
        if unknown:
            raise ReproError(
                f"unknown pinned scenario(s): {', '.join(unknown)}; "
                f"manifest has: {', '.join(sorted(entries)) or '(none)'}")
        selected = {n: entries[n] for n in names}
    else:
        selected = entries
    return [verify_pin(e) for _, e in sorted(selected.items())]


def repin(entries: dict[str, PinEntry],
          results: list[ReplayReport]) -> dict[str, PinEntry]:
    """Fold fresh measurements back into the manifest (``pin update``)."""
    return {**entries,
            **{r.name: PinEntry.from_record(r.name, r.record)
               for r in results}}
