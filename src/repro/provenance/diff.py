"""Timeline forensics: where do two runs first diverge, and how?

Two runs of a deterministic simulator can only differ because their
inputs differ (spec fields) or because the code changed between them.
Either way the interesting question is *where the divergence starts*:
the first scheduler quantum at which the two event streams disagree.
Everything after that point is causally downstream noise; everything
before it is provably identical, so a perf or correctness regression is
localized to one event index instead of an eyeball scan of two traces.

:func:`first_divergence` is the event-level bisect (an O(n) scan — the
streams are already materialized, "bisect" refers to what it does to
the debugging search space).  :func:`diff_records` wraps it with spec
diffing, counter/metric deltas, and per-PE activity summaries at the
split, producing the ``repro diff`` report.

:func:`drift` is the one definition of "did this run reproduce?": every
tool that compares one run's observables with another's — ``repro
replay``, ``repro pin run``, ``repro diff``'s deltas, the chaos replay
invariant, the serve campaign's twin audit — reads that map, and
"reproduced" means it is empty.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.provenance.record import RunRecord
from repro.trace.stream import TimelineEvent

#: divergence kinds, most to least specific
KIND_RETIMED = "retimed"        #: same (pe, vp), different start time
KIND_REORDERED = "reordered"    #: a different rank/PE got the quantum
KIND_TRUNCATED = "truncated"    #: one stream ended (prefix of the other)


@dataclass(frozen=True)
class Divergence:
    """The first event index at which two streams disagree."""

    index: int
    kind: str
    a: TimelineEvent | None      #: None when stream A ended first
    b: TimelineEvent | None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "a": self.a.to_dict() if self.a else None,
            "b": self.b.to_dict() if self.b else None,
        }


def first_divergence(
    a: Sequence[tuple[int, int, int]],
    b: Sequence[tuple[int, int, int]],
) -> Divergence | None:
    """First index where the canonical event streams differ, or None."""
    n = min(len(a), len(b))
    for i in range(n):
        ea, eb = a[i], b[i]
        if ea != eb:
            kind = (KIND_RETIMED if ea[:2] == eb[:2] else KIND_REORDERED)
            return Divergence(
                index=i, kind=kind,
                a=TimelineEvent(i, *ea), b=TimelineEvent(i, *eb),
            )
    if len(a) != len(b):
        longer = a if len(a) > len(b) else b
        ev = TimelineEvent(n, *longer[n])
        return Divergence(index=n, kind=KIND_TRUNCATED,
                          a=ev if len(a) > len(b) else None,
                          b=ev if len(b) > len(a) else None)
    return None


def _flatten(d: dict, prefix: str = "") -> dict[str, Any]:
    out: dict[str, Any] = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def _differing(fa: dict[str, Any],
               fb: dict[str, Any]) -> dict[str, tuple[Any, Any]]:
    """Flattened paths whose values differ: path -> (a, b), sorted.  A
    counter absent on one side reads as 0, anything else as None."""
    out = {}
    for path in sorted(set(fa) | set(fb)):
        absent = 0 if path.startswith("counters.") else None
        pair = (fa.get(path, absent), fb.get(path, absent))
        if pair[0] != pair[1]:
            out[path] = pair
    return out


def spec_diff(a: RunRecord, b: RunRecord) -> dict[str, tuple[Any, Any]]:
    """Dotted-path spec fields whose values differ: path -> (a, b)."""
    return _differing(_flatten(a.spec.to_dict()), _flatten(b.spec.to_dict()))


#: identity and wall-clock: what a record *is*, not what its run *did*
_NOT_OBSERVED = frozenset(
    {"run_id", "spec", "spec_digest", "code_version", "created_at"})


def drift(expected: Any, actual: Any) -> dict[str, tuple[Any, Any]]:
    """Recorded observables that differ: dotted path -> (expected, actual).

    Each side is a :class:`RunRecord`, a :class:`~repro.provenance.pin
    .PinEntry` or the ``to_dict()`` form of either.  Every observable the
    expectation records is compared — the timeline digest, event count,
    makespan, start-up, each counter (absent reads as 0), per-PE stats,
    rollbacks, recoveries, the unrecoverable classification, migrations,
    LB moves, exit values — and nothing it does not record: a pin carries
    four of them and is judged on those four.
    """
    exp = expected if isinstance(expected, dict) else expected.to_dict()
    act = actual if isinstance(actual, dict) else actual.to_dict()
    return _differing(
        _flatten({k: v for k, v in exp.items() if k not in _NOT_OBSERVED}),
        _flatten({k: v for k, v in act.items()
                  if k in exp and k not in _NOT_OBSERVED}))


def describe_drift(d: dict[str, tuple[Any, Any]]) -> str:
    """One line of prose for a :func:`drift` map: the first six paths,
    long values (digests, per-PE tables) cut to 24 characters."""
    parts = [f"{path} {a!s:.24} -> {b!s:.24}"
             for path, (a, b) in list(d.items())[:6]]
    if len(d) > 6:
        parts.append(f"(+{len(d) - 6} more)")
    return "; ".join(parts)


def _pe_activity(timeline: Sequence[tuple[int, int, int]],
                 start: int) -> dict[int, int]:
    """Quanta per PE from event ``start`` to the end of the stream."""
    return dict(Counter(pe for pe, _, _ in timeline[start:]))


@dataclass
class DiffReport:
    """Structured ``repro diff`` output."""

    a_id: str
    b_id: str
    identical: bool
    a_sha: str
    b_sha: str
    a_events: int
    b_events: int
    divergence: Divergence | None
    #: spec fields that differ: dotted path -> (a value, b value)
    spec_diffs: dict[str, tuple[Any, Any]]
    code_version_differs: bool
    #: counter totals that differ: name -> (a, b, b - a)
    counter_deltas: dict[str, tuple[int, int, int]]
    #: headline metric deltas: name -> (a, b, b - a)
    metric_deltas: dict[str, tuple[int, int, int]]
    #: per-PE quanta counts from the split to each stream's end
    a_suffix_per_pe: dict[int, int] = field(default_factory=dict)
    b_suffix_per_pe: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "a": self.a_id,
            "b": self.b_id,
            "identical": self.identical,
            "a_sha256": self.a_sha,
            "b_sha256": self.b_sha,
            "a_events": self.a_events,
            "b_events": self.b_events,
            "divergence": (self.divergence.to_dict()
                           if self.divergence else None),
            "spec_diffs": {k: list(v)
                           for k, v in sorted(self.spec_diffs.items())},
            "code_version_differs": self.code_version_differs,
            "counter_deltas": {k: list(v) for k, v in
                               sorted(self.counter_deltas.items())},
            "metric_deltas": {k: list(v) for k, v in
                              sorted(self.metric_deltas.items())},
            "a_suffix_per_pe": {str(k): v for k, v in
                                sorted(self.a_suffix_per_pe.items())},
            "b_suffix_per_pe": {str(k): v for k, v in
                                sorted(self.b_suffix_per_pe.items())},
        }

    def format(self) -> str:
        lines = [f"diff {self.a_id[:12]} (A) .. {self.b_id[:12]} (B)"]
        if self.spec_diffs:
            lines.append("spec differences:")
            for path, (va, vb) in sorted(self.spec_diffs.items()):
                lines.append(f"  {path}: {va!r} -> {vb!r}")
        else:
            lines.append("specs: identical")
        if self.code_version_differs:
            lines.append("code versions differ "
                         "(runs come from different sources)")
        lines.append(f"events: A={self.a_events} B={self.b_events}")
        if self.identical:
            lines.append(f"timelines: IDENTICAL "
                         f"(sha256 {self.a_sha[:16]})")
        else:
            d = self.divergence
            lines.append(f"timelines: diverge at event index {d.index} "
                         f"({d.kind})")
            for label, ev in (("A", d.a), ("B", d.b)):
                if ev is None:
                    lines.append(f"  {label}: <stream ended>")
                else:
                    lines.append(f"  {label}: pe={ev.pe} vp={ev.vp} "
                                 f"start={ev.start_ns} ns")
            if self.a_suffix_per_pe or self.b_suffix_per_pe:
                pes = sorted(set(self.a_suffix_per_pe)
                             | set(self.b_suffix_per_pe))
                tail = ", ".join(
                    f"pe{p}: {self.a_suffix_per_pe.get(p, 0)}/"
                    f"{self.b_suffix_per_pe.get(p, 0)}"
                    for p in pes)
                lines.append(f"  quanta after the split (A/B): {tail}")
        if self.metric_deltas:
            lines.append("metric deltas (B - A):")
            for name, (va, vb, dd) in sorted(self.metric_deltas.items()):
                lines.append(f"  {name}: {va} -> {vb} ({dd:+d})")
        if self.counter_deltas:
            lines.append("counter deltas (B - A):")
            for name, (va, vb, dd) in sorted(self.counter_deltas.items()):
                lines.append(f"  {name}: {va} -> {vb} ({dd:+d})")
        elif not self.identical:
            lines.append("counter totals: identical")
        return "\n".join(lines)


#: the ``metric deltas`` block of ``repro diff`` (``rollbacks`` is the
#: total over ranks; :func:`drift` reports it per rank)
_HEADLINE_METRICS = ("makespan_ns", "startup_ns", "events", "migrations",
                     "recoveries", "rollbacks")


def diff_records(
    a: RunRecord, b: RunRecord,
    timeline_a: Sequence[tuple[int, int, int]] | None,
    timeline_b: Sequence[tuple[int, int, int]] | None,
) -> DiffReport:
    """Full structured diff of two stored runs.

    Event streams may be None (not stored); the report then contains
    only the digest-level verdict plus spec/counter/metric deltas.
    """
    identical = a.timeline_sha256 == b.timeline_sha256
    divergence = None
    a_suffix: dict[int, int] = {}
    b_suffix: dict[int, int] = {}
    if not identical and timeline_a is not None and timeline_b is not None:
        divergence = first_divergence(timeline_a, timeline_b)
        if divergence is not None:
            a_suffix = _pe_activity(timeline_a, divergence.index)
            b_suffix = _pe_activity(timeline_b, divergence.index)

    moved = drift(a, b)
    moved["rollbacks"] = (sum(a.rollbacks.values()),   # total, not per rank
                          sum(b.rollbacks.values()))
    counter_deltas = {
        path.removeprefix("counters."): (va, vb, vb - va)
        for path, (va, vb) in moved.items() if path.startswith("counters.")
    }
    metric_deltas = {
        name: (va, vb, vb - va)
        for name, (va, vb) in moved.items()
        if name in _HEADLINE_METRICS and va != vb
    }
    return DiffReport(
        a_id=a.run_id, b_id=b.run_id,
        identical=identical,
        a_sha=a.timeline_sha256, b_sha=b.timeline_sha256,
        a_events=a.events, b_events=b.events,
        divergence=divergence,
        spec_diffs=spec_diff(a, b),
        code_version_differs=a.code_version != b.code_version,
        counter_deltas=counter_deltas,
        metric_deltas=metric_deltas,
        a_suffix_per_pe=a_suffix,
        b_suffix_per_pe=b_suffix,
    )
