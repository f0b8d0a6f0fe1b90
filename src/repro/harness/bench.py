"""Wall-clock performance harness (``repro bench``).

Everything else in this repo measures *simulated* time; this module
measures *real* time — how fast the event loop itself executes on the
host — so regressions in the scheduler hot path or the ULT execution
backends show up as numbers, not vibes.

Three stages, written to ``BENCH_scale.json``:

``ult_churn``
    Pure backend lifecycle cost: create N ULTs, run each through a
    couple of yields, join.  This isolates exactly the work the pooled
    backend eliminates (OS-thread spawn/join per ULT), so it is the
    stage where the backend speedup is visible undiluted.

``jacobi``
    End-to-end scale smoke: Jacobi-3D at paper-scale VP counts under
    each backend.  The ratio here is bounded by the simulation model
    work that both backends share; the stage also checks the
    determinism contract — both backends must produce byte-identical
    simulated timelines (same scheduling order, same makespan).

``ctx_sweep``
    Figure-6-style context-switch sweep: a yield ping-pong program at
    increasing VP counts on one PE, reporting real switches/second.

``serve`` (``--serve``)
    Load-generator for the ``repro serve`` job service: a client fleet
    submits the pinned-scenario corpus against a fresh store (cold
    pass, every spec executes) and again (warm pass, every spec must be
    a cache hit with a byte-identical record), plus a single-flight
    burst (N identical submissions must coalesce onto one execution)
    — all while the service's own gc janitor cycles concurrently.
    Reports cold/warm throughput, warm/cold speedup and hit rate.

Wall-clock methodology: per measurement we take the best of ``reps``
runs with the garbage collector disabled inside the timed window (GC
pauses over the simulated-machine object graph otherwise dominate at
1k+ VPs and are attributed to whatever allocation triggers them).  The
pooled backend is prewarmed and each stage gets one untimed warmup run,
so numbers reflect steady state, not first-touch costs.
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.apps.jacobi3d import JacobiConfig
from repro.harness.jobspec import JobSpec, build_job, code_version, run_spec_job
from repro.perf.counters import EV_CTX_SWITCH
from repro.threads import UserLevelThread, get_backend
from repro.trace.stream import timeline_sha

#: the two execution backends every stage compares
BACKENDS = ("thread", "pooled")


@dataclass
class BackendSample:
    """Wall-clock samples for one backend in one stage."""

    wall_s: list[float] = field(default_factory=list)
    ops: int = 0                 #: stage-defined unit count per run
    makespan_ns: int | None = None
    timeline_sha: str | None = None

    @property
    def min_s(self) -> float:
        return min(self.wall_s) if self.wall_s else float("inf")

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.min_s if self.wall_s and self.min_s > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "wall_s": [round(t, 6) for t in self.wall_s],
            "min_s": round(self.min_s, 6),
            "ops": self.ops,
            "ops_per_s": round(self.ops_per_s, 1),
        }
        if self.makespan_ns is not None:
            d["makespan_ns"] = self.makespan_ns
        if self.timeline_sha is not None:
            d["timeline_sha256"] = self.timeline_sha
        return d


def _timed(fn: Callable[[], int], reps: int, sample: BackendSample) -> None:
    """Run ``fn`` ``reps`` times with GC off, recording wall seconds.

    ``fn`` returns the stage's op count for the run (lifecycles, context
    switches, ...); the last run's count is kept.
    """
    gc_was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()  # repro: allow(det-wallclock) real host wall-clock is the measurement
            ops = fn()
            sample.wall_s.append(time.perf_counter() - t0)  # repro: allow(det-wallclock) real host wall-clock is the measurement
            sample.ops = ops
    finally:
        if gc_was_on:
            gc.enable()


def _reset_pool() -> None:
    """Drop the shared pooled backend so the next stage starts clean."""
    get_backend("pooled").close()


# ---------------------------------------------------------------------------
# Stage 1: ULT lifecycle churn
# ---------------------------------------------------------------------------

def bench_ult_churn(
    n_ults: int = 1024, yields: int = 2, reps: int = 3
) -> dict[str, Any]:
    """Create/run/join ``n_ults`` ULTs per rep under each backend.

    The op unit is one full ULT lifecycle.  The thread backend pays an
    OS-thread spawn + join per lifecycle; the pooled backend reuses a
    warm worker, which is the whole point of pooling.
    """
    def one_batch(backend: str) -> int:
        def body(u: UserLevelThread) -> None:
            for _ in range(yields):
                u.yield_("spin")

        ults = []
        for i in range(n_ults):
            u = UserLevelThread(f"churn{i}", lambda: None, backend=backend)
            u.target = body
            u.args = (u,)
            ults.append(u)
            u.start()
        live = ults
        while live:
            nxt = []
            for u in live:
                u.switch_in()
                if not u.finished:
                    nxt.append(u)
            live = nxt
        for u in ults:
            u.join_thread()
        return n_ults

    samples: dict[str, BackendSample] = {}
    for backend in BACKENDS:
        if backend == "pooled":
            get_backend("pooled").prewarm(n_ults)
        s = samples[backend] = BackendSample()
        one_batch(backend)  # untimed warmup
        _timed(lambda: one_batch(backend), reps, s)
    _reset_pool()

    ratio = samples["thread"].min_s / samples["pooled"].min_s
    return {
        "name": "ult_churn",
        "unit": "ULT lifecycles",
        "params": {"n_ults": n_ults, "yields": yields, "reps": reps},
        "backends": {b: s.to_dict() for b, s in samples.items()},
        "speedup_pooled_vs_thread": round(ratio, 2),
    }


# ---------------------------------------------------------------------------
# Stage 2: Jacobi scale smoke + determinism contract
# ---------------------------------------------------------------------------

def _run_jacobi_job(spec: JobSpec, backend: str) -> tuple[int, int, str]:
    """One Jacobi job; returns (ctx_switches, makespan_ns, timeline sha).

    The backend is a runtime option (zero-overhead-when-off contract),
    so one spec covers both backends — which is exactly the determinism
    claim this stage verifies.
    """
    job, result = run_spec_job(spec, ult_backend=backend)
    return (result.counters[EV_CTX_SWITCH], result.makespan_ns,
            timeline_sha(job.scheduler.timeline))


def bench_jacobi(
    nvp: int = 1024, n: int = 16, iters: int = 1, reps: int = 3
) -> dict[str, Any]:
    """End-to-end Jacobi-3D at ``nvp`` ranks under each backend.

    The op unit is one scheduler quantum (context switch).  Also
    verifies the backend determinism contract: identical simulated
    timelines and makespans across backends.
    """
    cfg = JacobiConfig(n=n, iters=iters, reduce_every=max(1, iters))
    spec = JobSpec(app="jacobi3d", nvp=nvp, app_config=dict(cfg.__dict__),
                   method="pieglobals", machine="generic-linux",
                   layout=(2, 2, 4))

    samples: dict[str, BackendSample] = {}
    shas: dict[str, list[str]] = {b: [] for b in BACKENDS}
    for backend in BACKENDS:
        if backend == "pooled":
            get_backend("pooled").prewarm(nvp)
        s = samples[backend] = BackendSample()
        _run_jacobi_job(spec, backend)  # untimed warmup

        def one_job(backend: str = backend, s: BackendSample = s) -> int:
            switches, makespan, sha = _run_jacobi_job(spec, backend)
            s.makespan_ns = makespan
            s.timeline_sha = sha
            shas[backend].append(sha)
            return switches

        _timed(one_job, reps, s)
    _reset_pool()

    # Determinism contract, both directions: every rep of one backend
    # must replay the same timeline (no hidden host-time dependence),
    # and the two backends must agree with each other.
    identical = (
        len({sha for reps_shas in shas.values() for sha in reps_shas}) == 1
        and samples["thread"].makespan_ns == samples["pooled"].makespan_ns
    )
    ratio = samples["thread"].min_s / samples["pooled"].min_s
    return {
        "name": "jacobi",
        "unit": "scheduler quanta",
        "params": {"nvp": nvp, "n": n, "iters": iters, "reps": reps},
        "backends": {b: s.to_dict() for b, s in samples.items()},
        "speedup_pooled_vs_thread": round(ratio, 2),
        "trace_identical": identical,
    }


# ---------------------------------------------------------------------------
# Stage 3: figure-6-style context-switch sweep
# ---------------------------------------------------------------------------

def bench_ctx_sweep(
    vps: Sequence[int] = (2, 64, 256),
    yields_per_rank: int = 200,
    backend: str = "pooled",
) -> dict[str, Any]:
    """Real switches/second of the yield ping-pong at growing VP counts.

    One PE, so every quantum hands the baton to a different rank —
    the figure 6 microbenchmark measured in host time instead of
    simulated time.
    """
    if backend == "pooled":
        get_backend("pooled").prewarm(max(vps))
    rows = []
    for nvp in vps:
        spec = JobSpec(app="pingpong", nvp=nvp,
                       app_config={"yields_per_rank": yields_per_rank,
                                   "name": "bench_ctxswitch"},
                       method="none", machine="generic-linux",
                       layout=(1, 1, 1), slot_size=1 << 26)
        job = build_job(spec, ult_backend=backend)
        gc.collect()
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()  # repro: allow(det-wallclock) real host wall-clock is the measurement
            result = job.run()
            wall = time.perf_counter() - t0  # repro: allow(det-wallclock) real host wall-clock is the measurement
        finally:
            if gc_was_on:
                gc.enable()
        switches = result.counters[EV_CTX_SWITCH]
        rows.append({
            "nvp": nvp,
            "wall_s": round(wall, 6),
            "switches": switches,
            "switches_per_s": round(switches / wall, 1),
        })
    _reset_pool()
    return {
        "name": "ctx_sweep",
        "unit": "context switches",
        "params": {"yields_per_rank": yields_per_rank, "backend": backend},
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Stage 4 (opt-in): serve load generator
# ---------------------------------------------------------------------------

def _serve_corpus(limit: int | None = None) -> list[JobSpec]:
    """The pinned-scenario specs (the committed regression corpus), or a
    synthetic ping-pong ladder when no manifest is checked out."""
    from repro.provenance import DEFAULT_MANIFEST, load_manifest

    entries = load_manifest(DEFAULT_MANIFEST)
    specs = [e.spec for _, e in sorted(entries.items())]
    if not specs:
        specs = [
            JobSpec(app="pingpong", nvp=n,
                    app_config={"yields_per_rank": 60,
                                "name": f"serve-bench-{n}"},
                    method="none", machine="generic-linux",
                    layout=(1, 1, 1), slot_size=1 << 24)
            for n in (2, 4, 8)
        ]
    return specs[:limit] if limit else specs


def _latency_pcts(replies) -> dict[str, float]:
    """Client-observed p50/p95/p99 round-trip latency in ms."""
    walls = sorted(r.wall_s for r in replies)
    if not walls:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}

    def pct(q: float) -> float:
        idx = min(len(walls) - 1, int(q * len(walls)))
        return round(walls[idx] * 1000.0, 3)

    return {"p50_ms": pct(0.50), "p95_ms": pct(0.95), "p99_ms": pct(0.99)}


def bench_serve(
    *,
    workers: int = 2,
    worker_mode: str = "process",
    clients: int = 8,
    coalesce_n: int = 6,
    gc_every_s: float = 0.05,
    spec_limit: int | None = None,
) -> dict[str, Any]:
    """Load-generate against a private ``repro serve`` instance.

    Fresh store and socket in a temp dir, the service's gc janitor
    cycling every ``gc_every_s`` throughout (age budget 7 days, so it
    scans concurrently with worker writes but must evict nothing).
    The stage's ``ok`` is correctness, not speed: every cold submit
    succeeds, N identical concurrent submissions execute exactly once,
    every warm submit is a cache hit, and warm records are
    byte-identical to cold ones.  The warm/cold speedup is reported
    (the acceptance target is >= 50x for the pinned corpus).
    """
    import concurrent.futures
    import json
    import tempfile
    from collections import Counter
    from pathlib import Path

    from repro.provenance.store import ProvenanceStore
    from repro.serve import JobService, ServeClient, ServiceThread

    specs = _serve_corpus(spec_limit)
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        store = ProvenanceStore(Path(tmp) / "store")
        service = JobService(
            store, workers=workers, worker_mode=worker_mode,
            socket_path=Path(tmp) / "serve.sock",
            gc_every_s=gc_every_s, gc_max_age_s=7 * 86400.0,
        )
        client = ServeClient(socket_path=Path(tmp) / "serve.sock")

        def submit_all() -> tuple[list, float]:
            t0 = time.perf_counter()  # repro: allow(det-wallclock) real host wall-clock is the measurement
            with concurrent.futures.ThreadPoolExecutor(clients) as ex:
                replies = list(ex.map(client.submit, specs))
            return replies, time.perf_counter() - t0  # repro: allow(det-wallclock) real host wall-clock is the measurement

        with ServiceThread(service):
            client.ping()
            cold, cold_s = submit_all()

            # Single-flight burst: a spec the corpus has not seen yet,
            # submitted coalesce_n times at once — exactly one execution.
            burst_spec = JobSpec(
                app="pingpong", nvp=4,
                app_config={"yields_per_rank": 40,
                            "name": "serve-bench-burst"},
                method="none", machine="generic-linux",
                layout=(1, 1, 1), slot_size=1 << 24)
            executed_before = client.stats()["executed"]
            with concurrent.futures.ThreadPoolExecutor(coalesce_n) as ex:
                burst = list(ex.map(
                    lambda _: client.submit(burst_spec), range(coalesce_n)))
            executed_delta = client.stats()["executed"] - executed_before

            warm, warm_s = submit_all()

            # Batch verb: the whole corpus in ONE round trip (all hits
            # by now) — amortizes the protocol over the job list.
            t0 = time.perf_counter()  # repro: allow(det-wallclock) real host wall-clock is the measurement
            batch = client.submit_many(specs)
            batch_s = time.perf_counter() - t0  # repro: allow(det-wallclock) real host wall-clock is the measurement

            stats = client.stats()
        records_after = len(store)

    def canon(reply) -> str:
        return json.dumps(reply.record, sort_keys=True)

    cold_by_id = {r.run_id: canon(r) for r in cold if r.ok}
    identical = (
        all(r.ok for r in cold) and all(r.ok for r in warm)
        and all(cold_by_id.get(r.run_id) == canon(r) for r in warm)
    )
    warm_hits = sum(1 for r in warm if r.hit)
    n = len(specs)
    expected_records = len(cold_by_id) + (1 if any(r.ok for r in burst)
                                          else 0)
    batch_hits = sum(1 for r in batch if r.hit)
    pool = stats.get("pool", {})
    ok = (
        identical
        and warm_hits == n
        and executed_delta == 1
        and all(r.ok for r in burst)
        and all(r.ok for r in batch)
        and batch_hits == n
        and stats["gc_errors"] == 0
        and stats["gc_cycles"] >= 1
        and records_after == expected_records
    )
    speedup = round(cold_s / warm_s, 2) if warm_s > 0 else float("inf")
    return {
        "name": "serve",
        "unit": "jobs",
        "params": {"workers": workers, "worker_mode": worker_mode,
                   "clients": clients, "n_specs": n,
                   "coalesce_n": coalesce_n, "gc_every_s": gc_every_s},
        "cold": {"jobs": n, "total_s": round(cold_s, 6),
                 "jobs_per_s": round(n / cold_s, 2),
                 "caches": dict(Counter(r.cache for r in cold)),
                 **_latency_pcts(cold)},
        "warm": {"jobs": n, "total_s": round(warm_s, 6),
                 "jobs_per_s": round(n / warm_s, 2),
                 "hit_rate": round(warm_hits / n, 4) if n else 0.0,
                 **_latency_pcts(warm)},
        "batch": {"jobs": n, "total_s": round(batch_s, 6),
                  "jobs_per_s": round(n / batch_s, 2) if batch_s > 0
                  else float("inf"),
                  "hit_rate": round(batch_hits / n, 4) if n else 0.0,
                  **_latency_pcts(batch)},
        "speedup_warm_vs_cold": speedup,
        "coalesce": {"burst": coalesce_n, "executed_delta": executed_delta,
                     "caches": dict(Counter(r.cache for r in burst))},
        "resilience": {
            "queue_depth": stats.get("inflight", 0),
            "max_queue": stats.get("max_queue"),
            "shed": stats.get("shed", 0),
            "deadline_exceeded": stats.get("deadline_exceeded", 0),
            "quarantined": stats.get("quarantined", 0),
            "retries": pool.get("retries", 0),
            "respawns": pool.get("respawns", 0),
            "lease_waits": stats.get("lease_waits", 0),
            "lease_takeovers": stats.get("lease_takeovers", 0),
        },
        "gc": {"cycles": stats["gc_cycles"], "errors": stats["gc_errors"],
               "records_after": records_after,
               "expected_records": expected_records},
        "records_identical": identical,
        "ok": ok,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_bench(quick: bool = False, *, nvp: int | None = None,
              reps: int | None = None, serve: bool = False) -> dict[str, Any]:
    """Run all stages; returns the ``BENCH_scale.json`` payload.

    ``quick`` shrinks every stage for CI smoke use (a few seconds
    total); the full run targets the paper-scale 1k-VP smoke.
    ``serve`` appends the opt-in job-service load-gen stage (thread
    workers under ``quick``, real worker processes otherwise).
    """
    if quick:
        churn_n, jacobi_nvp, sweep_vps = 128, 64, (2, 16, 64)
        nreps = reps or 2
    else:
        churn_n, jacobi_nvp, sweep_vps = 1024, nvp or 1024, (2, 64, 256)
        nreps = reps or 3
    if nvp is not None:
        jacobi_nvp = nvp
    stages = [
        bench_ult_churn(n_ults=churn_n, reps=nreps),
        bench_jacobi(nvp=jacobi_nvp, reps=nreps),
        bench_ctx_sweep(vps=sweep_vps),
    ]
    if serve:
        if quick:
            stages.append(bench_serve(worker_mode="thread", workers=2,
                                      clients=4, spec_limit=3))
        else:
            stages.append(bench_serve(worker_mode="process", workers=2,
                                      clients=8))
    return {
        "bench": "scale_smoke",
        "quick": quick,
        "python": sys.version.split()[0],
        "code_version": code_version(),
        "stages": stages,
    }
