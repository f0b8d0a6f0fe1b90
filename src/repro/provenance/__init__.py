"""Provenance: content-addressed run records, replay, diff, and metrics.

Every simulated run can be captured as a :class:`RunRecord` — the full
job spec plus every observable the runtime produces (timeline digest,
counter totals, per-PE stats, rollbacks) — and filed in an append-only
:class:`ProvenanceStore` keyed by ``sha256(spec, code version)``.  On
top of the store sit the forensics tools: :func:`drift` (the one
definition of "reproduced": which recorded observables differ),
:func:`replay_record` (re-execute and report the drift),
:func:`diff_records` (first-divergent-event localization between two
runs), :class:`RunMetrics` (Projections-style per-PE reports), and the
pinned-scenario regression gate in :mod:`repro.provenance.pin`.
"""

from repro.provenance.diff import (
    DiffReport,
    Divergence,
    diff_records,
    drift,
    first_divergence,
    spec_diff,
)
from repro.provenance.metrics import PeMetrics, RunMetrics, compare_metrics
from repro.provenance.pin import (
    DEFAULT_MANIFEST,
    PinEntry,
    load_manifest,
    pinned_spec_digests,
    repin,
    save_manifest,
    verify_manifest,
    verify_pin,
)
from repro.provenance.record import RunRecord, run_id_for
from repro.provenance.runner import (
    RecordedRun,
    ReplayReport,
    enable_auto_record,
    record_run,
    replay_record,
)
from repro.provenance.store import (
    DEFAULT_STORE_DIR,
    LEASE_TTL_S,
    STORE_ENV,
    GcReport,
    ProvenanceStore,
    RunLease,
    default_store_dir,
)

__all__ = [
    "DEFAULT_MANIFEST",
    "DEFAULT_STORE_DIR",
    "LEASE_TTL_S",
    "STORE_ENV",
    "DiffReport",
    "Divergence",
    "GcReport",
    "PeMetrics",
    "PinEntry",
    "ProvenanceStore",
    "RecordedRun",
    "ReplayReport",
    "RunLease",
    "RunMetrics",
    "RunRecord",
    "compare_metrics",
    "default_store_dir",
    "diff_records",
    "drift",
    "enable_auto_record",
    "first_divergence",
    "load_manifest",
    "pinned_spec_digests",
    "record_run",
    "repin",
    "replay_record",
    "run_id_for",
    "save_manifest",
    "spec_diff",
    "verify_manifest",
    "verify_pin",
]
