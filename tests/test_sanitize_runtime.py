"""Runtime race detector: detection under ``none``, silence under
privatization, zero overhead and byte-identical timelines when off."""

from __future__ import annotations

import pytest

from repro.ampi.runtime import AmpiJob
from repro.charm.node import JobLayout
from repro.machine import TEST_MACHINE
from repro.perf.counters import EV_SAN_CHECK, EV_SAN_FINDING
from repro.program.source import Program
from repro.sanitize import RaceDetector

GOOD_METHODS = ("pieglobals", "pipglobals", "fsglobals")


def _racy_source():
    p = Program("racy")
    p.add_global("counter", 0)

    @p.function()
    def main(ctx):
        ctx.g.counter = ctx.g.counter + 1
        ctx.mpi.barrier()
        return ctx.g.counter

    return p.build()


def _mig_source():
    p = Program("mig")
    p.add_global("x", 0)

    @p.function()
    def main(ctx):
        ctx.g.x = ctx.mpi.rank() * 10
        ctx.mpi.barrier()
        if ctx.mpi.rank() == 0:
            ctx.mpi.migrate_to(1)
        ctx.mpi.barrier()
        return ctx.g.x == ctx.mpi.rank() * 10

    return p.build()


def _run(source, method, *, sanitize, nvp=4, layout=None, **kw):
    kw.setdefault("slot_size", 1 << 24)
    job = AmpiJob(source, nvp, method=method, machine=TEST_MACHINE,
                  layout=layout or JobLayout.single(2),
                  sanitize=sanitize, **kw)
    result = job.run()
    return job, result


# -- detection vs. silence --------------------------------------------------

def test_races_detected_under_none():
    _, result = _run(_racy_source(), "none", sanitize=True)
    codes = {f.code for f in result.sanitize_findings}
    assert "race-write-read" in codes or "race-write-write" in codes
    f = result.sanitize_findings[0]
    assert f.vp is not None and f.epoch is not None
    assert result.counters[EV_SAN_CHECK] > 0
    assert result.counters[EV_SAN_FINDING] == len(result.sanitize_findings)


@pytest.mark.parametrize("method", GOOD_METHODS)
def test_privatized_runs_are_clean(method):
    _, result = _run(_racy_source(), method, sanitize=True)
    assert result.sanitize_findings == []
    assert result.counters[EV_SAN_CHECK] > 0  # the detector did look


def test_use_after_migrate_under_none():
    _, result = _run(_mig_source(), "none", sanitize=True, nvp=2,
                     layout=JobLayout(1, 2, 1))
    assert "use-after-migrate" in {f.code for f in result.sanitize_findings}


def test_migration_clean_under_pieglobals():
    _, result = _run(_mig_source(), "pieglobals", sanitize=True, nvp=2,
                     layout=JobLayout(1, 2, 1))
    assert result.sanitize_findings == []


# -- determinism ------------------------------------------------------------

def test_findings_deterministic_across_runs():
    runs = [
        [f.to_dict() for f in
         _run(_racy_source(), "none", sanitize=True)[1].sanitize_findings]
        for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0]  # nonempty: the comparison is meaningful


def test_sanitizer_does_not_perturb_timelines():
    """On or off, the simulated schedule must be byte-identical."""
    job_off, res_off = _run(_racy_source(), "none", sanitize=None)
    job_on, res_on = _run(_racy_source(), "none", sanitize=True)
    assert job_off.scheduler.timeline == job_on.scheduler.timeline
    assert res_off.makespan_ns == res_on.makespan_ns
    assert res_on.sanitize_findings


def test_off_means_plain_view_class():
    from repro.program.context import GlobalsView

    job, _ = _run(_racy_source(), "none", sanitize=None)
    view = job.rank_of(0).ctx.view
    assert type(view) is GlobalsView


# -- detector mechanics -----------------------------------------------------

def test_shared_detector_accumulates_across_jobs():
    det = RaceDetector()
    _run(_racy_source(), "none", sanitize=det)
    n1 = len(det.findings)
    _run(_racy_source(), "none", sanitize=det)
    assert n1 > 0
    assert len(det.findings) > n1


def test_max_findings_cap_counts_drops():
    det = RaceDetector(max_findings=1)
    _, result = _run(_racy_source(), "none", sanitize=det, nvp=6)
    assert len(det.findings) == 1
    assert det.dropped > 0
    # Dropped findings still count in the counter.
    assert det.counters.snapshot()[EV_SAN_FINDING] == 1 + det.dropped


def test_epoch_advances_with_quanta():
    det = RaceDetector()
    job, _ = _run(_racy_source(), "none", sanitize=det)
    assert det.epoch == len(job.scheduler.timeline)


def test_stale_endpoint_delivery_dedups_per_frame():
    """Retransmitted copies of one frame produce one finding; a
    different channel sequence number is a new finding."""
    from types import SimpleNamespace

    det = RaceDetector()
    rank = SimpleNamespace(pe=SimpleNamespace(index=3))
    frame = SimpleNamespace(src_vp=0, dst_vp=1, chan_seq=5, arrival=100)
    det.on_stale_delivery(rank, frame)
    det.on_stale_delivery(rank, frame)  # the duplicate copy
    assert len(det.findings) == 1
    det.on_stale_delivery(rank, SimpleNamespace(
        src_vp=0, dst_vp=1, chan_seq=6, arrival=200))
    assert len(det.findings) == 2
    f = det.findings[0]
    assert f.code == "stale-endpoint-delivery"
    assert f.vp == 1
