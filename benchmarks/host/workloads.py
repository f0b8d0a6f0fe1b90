"""The seven host-time workloads.

Each workload drives the program from outside, through the entry points
its users call: ``JobSpec``/``build_job``/``AmpiJob.start``/``AmpiJob.run``/
``RunRecord.from_run``/``ProvenanceStore`` for in-process jobs,
``JobService`` + ``ServeClient`` for the service, ``python -m repro`` for
the CLI.  All of them are closed-loop (a caller waits for its reply
before sending the next request); the client count is ``clients``.

``--seed`` generates the argv salts that make specs distinct and the
warm-key order; the program only ever sees the generated specs.
Correctness is self-consistency, not pinned digests: see ``README.md``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

_now = time.perf_counter

def no_span(_name: str) -> Any:
    """The untraced pass's span factory."""
    return nullcontext()


def span_of(tracer: Any) -> Callable[[str], Any]:
    return no_span if tracer is None else tracer.span


#: one block's raw measurements (a dict so it goes straight into the
#: result JSON): samples_ms, wall_s, quanta; the driver adds calib_ms
Block = dict


def new_block() -> Block:
    return {"samples_ms": [], "wall_s": 0.0, "quanta": 0}


def timeline_path(store: Any, run_id: str) -> Path:
    """The store's documented on-disk layout (provenance/store.py)."""
    return store.records_dir / run_id[:2] / f"{run_id}.timeline.zz"


def record_bytes(record: dict[str, Any], *, twin: bool = False) -> bytes:
    """Canonical bytes of a record dict.  ``created_at`` is host wall
    clock: it is part of the comparison between a cold reply and its
    later warm hit (the same stored record), and dropped when comparing
    against an independently executed twin."""
    if twin:
        record = {k: v for k, v in record.items() if k != "created_at"}
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def vm_hwm_kb(pid: int) -> int:
    """Peak RSS of a live process's own address space (0 once it is gone)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    m = re.search(r"VmHWM:\s+(\d+) kB", status)
    return int(m.group(1)) if m else 0


class Workload:
    name = ""
    why = ""
    #: jobs per block (the unit every latency/throughput metric counts)
    block_jobs = 1
    clients = 1
    warmups = 2
    #: which sum the per-layer table closes: "sim", "serve" or "cli"
    kind = "sim"

    def __init__(self, seed: int, workdir: Path, quick: bool = False):
        self.seed = seed
        self.workdir = workdir
        if quick:
            self.block_jobs = max(1, self.block_jobs // 5)
            self.warmups = 1
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: (timeline_sha256, makespan_ns, quanta) of the first job; every
        #: later job of the run must reproduce it
        self.digest: Any = None
        self._spec_hash = hashlib.sha256()
        self.first_spec_digests: list[str] = []
        self.specs_generated = 0
        #: the last job's simulated counts, reported by the traced pass
        self.last_counts: dict[str, int] = {}
        #: set by the traced pass to time collector pauses inside jobs
        self.gcwatch: Any = None

    # -- bookkeeping --------------------------------------------------------

    def collect(self) -> None:
        """``gc.collect()`` outside the timed window, so the collector
        (left at interpreter defaults inside it) triggers at the same
        allocation counts every job."""
        watch = self.gcwatch
        if watch is not None:
            watch.muted = True
        gc.collect()
        if watch is not None:
            watch.muted = False

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why)

    def note_spec(self, spec: Any) -> None:
        d = spec.digest()
        self._spec_hash.update(d.encode())
        if len(self.first_spec_digests) < 3:
            self.first_spec_digests.append(d)
        self.specs_generated += 1

    def check_digest(self, digest: Any, what: str) -> None:
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.fail(f"{what}: simulated digest {digest} != first job's "
                      f"{self.digest}")

    def inputs(self) -> dict[str, Any]:
        """Enough to regenerate this run's inputs from its JSON alone."""
        return {"seed": self.seed, "salt_rule": self.salt_rule(),
                "specs_generated": self.specs_generated,
                "spec_digests_sha256": self._spec_hash.hexdigest(),
                "first_spec_digests": self.first_spec_digests,
                "shapes": self.shapes()}

    def salt_rule(self) -> str:
        return "argv=(f'{name}-{seed}-{Random(f\"{seed}/{name}/{stream}\")" \
               ".getrandbits(32):08x}-{i}',)"

    def _salts(self, stream: str):
        rng = random.Random(f"{self.seed}/{self.name}/{stream}")
        i = 0
        while True:
            yield f"{self.name}-{self.seed}-{rng.getrandbits(32):08x}-{i}"
            i += 1

    # -- interface ----------------------------------------------------------

    def shapes(self) -> list[dict[str, Any]]:
        return []

    def setup(self) -> None:
        raise NotImplementedError

    def block(self, tracer: Any = None) -> Block:
        raise NotImplementedError

    def finish(self) -> None:
        """Post-run correctness checks outside every timed window."""

    def probes(self) -> dict[str, float]:
        """Direct per-layer probes of the traced pass."""
        return {}

    def child_rss_kb(self) -> int:
        """Peak RSS of the largest child living beside the bench process."""
        return 0

    def teardown(self) -> None:
        pass


# ---------------------------------------------------------------------------
# In-process simulated jobs
# ---------------------------------------------------------------------------

class SimWorkload(Workload):
    """job = build_job -> start -> run -> RunRecord.from_run -> store.put,
    once per shape; a salted argv makes every put write."""

    #: JobSpec keyword dicts; one job runs each of them once
    SHAPES: list[dict[str, Any]] = []

    def shapes(self) -> list[dict[str, Any]]:
        return [dict(s, layout=list(s["layout"])) for s in self.SHAPES]

    def setup(self) -> None:
        from repro.provenance.store import ProvenanceStore
        from repro.threads import get_backend

        get_backend("pooled").prewarm(max(s["nvp"] for s in self.SHAPES))
        self.store = ProvenanceStore(self.workdir / "store")
        self.put_ids: list[str] = []
        self._salt = self._salts("jobs")
        for _ in range(self.warmups):
            self.job(no_span)

    def job(self, span: Callable[[str], Any]) -> tuple[float, int]:
        """Run one job; returns (host ms, simulated quanta)."""
        from repro.harness.jobspec import JobSpec, build_job
        from repro.perf.counters import EV_MSG_SENT
        from repro.provenance.record import RunRecord

        salt = next(self._salt)
        specs = [JobSpec(**shape, argv=(salt,)) for shape in self.SHAPES]
        for spec in specs:
            self.note_spec(spec)
        self.collect()
        self.attempted += 1
        done = []
        t0 = _now()
        try:
            with span("job"):
                for spec in specs:
                    with span("harness.build"):
                        job = build_job(spec, ult_backend="pooled")
                    with span("ampi.start"):
                        job.start()
                    result = job.run()
                    with span("provenance.record"):
                        record = RunRecord.from_run(spec, job, result)
                    with span("store.put"):
                        put = self.store.put(record, job.scheduler.timeline)
                    done.append((record, result, put))
        except Exception as e:  # a failed job is a counted failure
            self.fail(f"{salt}: {type(e).__name__}: {e}")
            return (_now() - t0) * 1e3, 0
        ms = (_now() - t0) * 1e3
        if any(hit for _, _, (_, hit) in done):
            self.fail(f"{salt}: store.put found the record already there")
        self.put_ids += [run_id for _, _, (run_id, _) in done]
        self.check_digest(tuple((r.timeline_sha256, r.makespan_ns, r.events)
                                for r, _, _ in done), salt)
        self.last_counts = {
            "ampi.msgs": sum(res.counters.snapshot().get(EV_MSG_SENT, 0)
                             for _, res, _ in done),
            "lb.migrations": sum(r.migrations for r, _, _ in done),
            "sim.makespan_ns": sum(r.makespan_ns for r, _, _ in done)}
        return ms, sum(r.events for r, _, _ in done)

    def block(self, tracer: Any = None) -> Block:
        b = new_block()
        span = span_of(tracer)
        for i in range(self.block_jobs):
            if tracer is not None:
                tracer.job = f"{self.name}#{self.attempted}"
            ms, quanta = self.job(span)
            if tracer is not None:
                tracer.keep = False     # raw spans: first traced job only
            b["samples_ms"].append(ms)
            b["quanta"] += quanta
        # callers of in-process jobs run them back to back: block wall is
        # the sum of the timed windows (spec generation, gc.collect and
        # the correctness checks between jobs are the benchmark's, not
        # the program's)
        b["wall_s"] = sum(b["samples_ms"]) / 1e3
        return b

    def probes(self) -> dict[str, float]:
        ids = self.put_ids[-self.block_jobs * len(self.SHAPES):]
        t0 = _now()
        for run_id in ids:
            self.store.get(run_id)
        get_ms = (_now() - t0) * 1e3 / len(ids)
        last_job = ids[-len(self.SHAPES):]
        return {"store.get_ms": get_ms, **self.last_counts,
                "trace.timeline_bytes": sum(
                    timeline_path(self.store, i).stat().st_size
                    for i in last_job)}


class Jacobi1k(SimWorkload):
    name = "jacobi_1k"
    why = ("1024 ULTs x ~4 quanta: start-up/privatization plus AMPI halo "
           "p2p + allreduce dominate, ULT handoff is a minority share")
    block_jobs = 1
    SHAPES = [dict(app="jacobi3d", nvp=1024,
                   app_config={"n": 16, "iters": 1, "reduce_every": 1},
                   method="pieglobals", machine="generic-linux",
                   layout=(2, 2, 4))]


class SwitchStorm(SimWorkload):
    name = "switch_storm"
    why = ("12864 quanta, no messages/numerics/privatization: ULT handoff "
           "+ run queue + scheduler loop are most of the job (Figure 6)")
    block_jobs = 1
    SHAPES = [dict(app="pingpong", nvp=64,
                   app_config={"yields_per_rank": 200}, method="none",
                   machine="generic-linux", layout=(1, 1, 1),
                   slot_size=1 << 26)]


class AdcircLb(SimWorkload):
    name = "adcirc_lb"
    why = ("numpy kernels + privatized-global accesses + LB/migration "
           "dominate, handoff ~10%: ULT/AMPI work should not move it")
    block_jobs = 1
    SHAPES = [dict(app="adcirc", nvp=16,
                   app_config={"height": 256, "width": 128, "steps": 40,
                               "lb_period": 10},
                   method="pieglobals", machine="generic-linux",
                   layout=(1, 1, 4), lb_strategy="greedyrefine")]


class MethodSweep(SimWorkload):
    name = "method_sweep"
    why = ("startup app x 5 privatization methods at 256 VPs: "
           "AmpiJob.start (privatization/elf/mem/fs) is the largest share "
           "(Figure 5)")
    block_jobs = 1
    SHAPES = [dict(app="startup", nvp=256, method=m, machine="bridges2",
                   # PIP: at most 12 namespaces, so one rank per process
                   layout=(1, 32, 1) if m == "pipglobals" else (1, 2, 4))
              for m in ("none", "tlsglobals", "pipglobals", "fsglobals",
                        "pieglobals")]


# ---------------------------------------------------------------------------
# The job service
# ---------------------------------------------------------------------------

SERVE_SHAPE = dict(app="jacobi3d", nvp=8,
                   app_config={"n": 12, "iters": 8, "reduce_every": 2},
                   method="pieglobals", machine="generic-linux",
                   layout=(1, 1, 4))


class ServeWorkload(Workload):
    """2 closed-loop client threads, one persistent connection each,
    against an in-process JobService (Unix socket, fresh store,
    workers=1, process workers, janitor off)."""

    clients = 2
    kind = "serve"
    expect_cache = ""

    def shapes(self) -> list[dict[str, Any]]:
        return [dict(SERVE_SHAPE, layout=list(SERVE_SHAPE["layout"]))]

    def setup(self) -> None:
        from repro.provenance.store import ProvenanceStore
        from repro.serve import JobService, ServeClient, ServiceThread

        # relative to the cwd: sun_path is 108 bytes and a checkout can
        # sit arbitrarily deep
        sock = os.path.relpath(self.workdir / "s.sock")
        self.store = ProvenanceStore(self.workdir / "store")
        self.service = JobService(
            self.store, workers=1, socket_path=sock, worker_mode="process",
            gc_every_s=None)
        self.thread = ServiceThread(self.service).start()
        self.client = ServeClient(socket_path=sock, timeout=120.0)
        # a client that died breaks the barrier instead of hanging the run
        self._go = threading.Barrier(self.clients + 1, timeout=150.0)
        self._done = threading.Barrier(self.clients + 1, timeout=150.0)
        self._lock = threading.Lock()
        self._stop = False
        self._tracer: Any = None
        self._results: list[list[tuple[float, int]]] = [
            [] for _ in range(self.clients)]
        self._threads = [
            threading.Thread(target=self._client_loop, args=(c,),
                             name=f"hb-client-{c}", daemon=True)
            for c in range(self.clients)]
        for t in self._threads:
            t.start()
        self.prepare()

    def prepare(self) -> None:
        """Fill caches and warm up (through the client threads)."""
        raise NotImplementedError

    def next_request(self, c: int) -> tuple[Any, Any]:
        """(spec, expected record dict or None) for client ``c``."""
        raise NotImplementedError

    def _client_loop(self, c: int) -> None:
        while True:
            self._go.wait()
            if self._stop:
                self.client.close()
                return
            tracer = self._tracer
            if tracer is not None:
                tracer.mark_client()
            out = self._results[c] = []
            n = self._per_client
            for _ in range(n):
                spec, expected = self.next_request(c)
                if tracer is not None:
                    tracer.set_request(spec.argv[0])
                try:
                    reply = self.client.submit(spec)
                except Exception as e:
                    out.append((0.0, 0))
                    self.client_fail(f"submit: {type(e).__name__}: {e}")
                    continue
                out.append((reply.wall_s * 1e3,
                            self.check_reply(spec, reply, expected)))
            self._done.wait()

    def client_fail(self, why: str) -> None:
        with self._lock:
            self.fail(why)

    def check_reply(self, spec: Any, reply: Any, expected: Any) -> int:
        """Count a wrong reply as failed; returns the quanta delivered."""
        salt = spec.argv[0]
        if not reply.ok or reply.record is None:
            self.client_fail(f"{salt}: not ok: {reply.error}")
            return 0
        if reply.cache != self.expect_cache:
            self.client_fail(f"{salt}: cache={reply.cache!r}, expected "
                             f"{self.expect_cache!r}")
            return 0
        rec = reply.record
        if expected is not None and rec != expected:
            self.client_fail(f"{salt}: hit differs from the filled record")
            return 0
        digest = (rec["timeline_sha256"], rec["makespan_ns"], rec["events"])
        with self._lock:
            self.check_digest(digest, salt)
        return rec["events"]

    def _run_clients(self, n_total: int, tracer: Any = None) -> Block:
        self._per_client = n_total // self.clients
        self._tracer = tracer
        b = new_block()
        self._go.wait()
        t0 = _now()
        self._done.wait()
        b["wall_s"] = _now() - t0
        for out in self._results:
            self.attempted += len(out)
            b["samples_ms"] += [ms for ms, _ in out]
            b["quanta"] += sum(q for _, q in out)
        return b

    def block(self, tracer: Any = None) -> Block:
        self.collect()      # per block: per request would be the workload
        return self._run_clients(self.block_jobs, tracer)

    def stats(self) -> dict[str, Any]:
        return self.client.stats()

    def probes(self) -> dict[str, float]:
        n = 200
        t0 = _now()
        for _ in range(n):
            self.client.ping()
        ping = (_now() - t0) * 1e3 / n
        ids = self.store.ids()[:64]
        t0 = _now()
        for run_id in ids:
            self.store.get(run_id)
        get = (_now() - t0) * 1e3 / len(ids)
        return {"serve.ping_ms": ping, "store.get_ms": get,
                "sim.makespan_ns": self.digest[1],
                "trace.timeline_bytes":
                    timeline_path(self.store, ids[0]).stat().st_size}

    def child_rss_kb(self) -> int:
        return max(map(vm_hwm_kb, self.client.health().get("worker_pids", [])),
                   default=0)

    def teardown(self) -> None:
        self._stop = True
        self._go.wait()
        for t in self._threads:
            t.join(timeout=10.0)
        self.client.close()
        self.thread.stop()


class ServeCold(ServeWorkload):
    name = "serve_cold"
    why = ("every request a never-seen spec: miss -> lease -> pool -> "
           "execute -> compress -> put -> reply; the write path")
    block_jobs = 50
    expect_cache = "miss"

    def prepare(self) -> None:
        self._salt = [self._salts(f"client{c}") for c in range(self.clients)]
        self.sent: list[tuple[Any, dict]] = []
        self.last: tuple[Any, dict] | None = None
        self._keep = False
        self._run_clients(self.warmups * self.clients)
        self._keep = True

    def next_request(self, c: int) -> tuple[Any, Any]:
        from repro.harness.jobspec import JobSpec

        spec = JobSpec(**SERVE_SHAPE, argv=(next(self._salt[c]),))
        with self._lock:
            self.note_spec(spec)
        return spec, None

    def check_reply(self, spec: Any, reply: Any, expected: Any) -> int:
        quanta = super().check_reply(spec, reply, expected)
        if quanta and self._keep:
            with self._lock:
                # the first three measured replies and the latest one
                # feed the twin / warm-hit check in finish()
                if len(self.sent) < 3:
                    self.sent.append((spec, reply.record))
                else:
                    self.last = (spec, reply.record)
        return quanta

    def finish(self) -> None:
        """cold record == in-process ``record_run`` twin == later hit."""
        from repro.provenance.runner import record_run
        from repro.provenance.store import ProvenanceStore

        twin_store = ProvenanceStore(self.workdir / "twin")
        for spec, cold in self.sent + ([self.last] if self.last else []):
            self.attempted += 1
            twin = record_run(spec, twin_store).record.to_dict()
            if record_bytes(twin, twin=True) != record_bytes(cold, twin=True):
                self.fail(f"{spec.argv[0]}: served record differs from its "
                          "in-process twin")
                continue
            again = self.client.submit(spec)
            if (again.cache != "hit" or again.record is None
                    or record_bytes(again.record) != record_bytes(cold)):
                self.fail(f"{spec.argv[0]}: later hit is not byte-identical "
                          "to the cold reply")

    def probes(self) -> dict[str, float]:
        """``serve.exec_ms``: workers are separate processes and cannot
        be wrapped, so the same kind of spec is executed in-process."""
        from repro.harness.jobspec import JobSpec
        from repro.serve.pool import execute_spec

        out = super().probes()
        salts = self._salts("exec-probe")
        times = []
        for _ in range(12):
            d = JobSpec(**SERVE_SHAPE, argv=(next(salts),)).to_dict()
            t0 = _now()
            execute_spec(d)
            times.append((_now() - t0) * 1e3)
        times.sort()
        out["serve.exec_ms"] = times[len(times) // 2]
        return out


class ServeWarm(ServeWorkload):
    name = "serve_warm"
    why = ("seeded uniform draws from a hot set of 64 records, every "
           "request a hit: the read path, simulator bypassed (control "
           "for simulator optimisations)")
    block_jobs = 1000
    expect_cache = "hit"
    HOT = 64

    def prepare(self) -> None:
        from repro.harness.jobspec import JobSpec

        salts = self._salts("hot")
        self.hot: list[tuple[Any, dict]] = []
        for _ in range(self.HOT):
            spec = JobSpec(**SERVE_SHAPE, argv=(next(salts),))
            self.note_spec(spec)
            reply = self.client.submit(spec)
            if not reply.ok or reply.cache != "miss" or reply.record is None:
                raise RuntimeError(f"hot-set fill failed: {reply}")
            self.hot.append((spec, reply.record))
        self._order = [random.Random(f"{self.seed}/{self.name}/order{c}")
                       for c in range(self.clients)]
        self.order_hash = hashlib.sha256()
        self._run_clients(self.warmups * self.clients)

    def inputs(self) -> dict[str, Any]:
        return dict(super().inputs(), hot_set=self.HOT,
                    key_order_rule="client c draws Random(f'{seed}/serve_"
                                   "warm/order{c}').randrange(64) per request",
                    key_order_sha256=self.order_hash.hexdigest())

    def next_request(self, c: int) -> tuple[Any, Any]:
        k = self._order[c].randrange(self.HOT)
        if c == 0:
            self.order_hash.update(bytes([k]))
        return self.hot[k]


# ---------------------------------------------------------------------------
# The CLI
# ---------------------------------------------------------------------------

class CliHello(Workload):
    name = "cli_hello"
    why = ("python -m repro hello: interpreter + import graph + one tiny "
           "job; the only workload a cli.py split can move")
    block_jobs = 1
    kind = "cli"
    ARGV = ["-m", "repro", "hello"]

    def shapes(self) -> list[dict[str, Any]]:
        return [{"argv": ["python", *self.ARGV]}]

    def salt_rule(self) -> str:
        return "none: the CLI takes no generated input"

    def setup(self) -> None:
        from repro.harness.jobspec import JobSpec, run_spec_job

        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.stdout: bytes | None = None
        self._child_rss = 0
        # the same job `repro hello` runs, to count its quanta
        job, _ = run_spec_job(JobSpec(
            app="hello", nvp=2, method="none", machine="generic-linux",
            layout=(1, 1, 1), slot_size=1 << 24))
        self.quanta_per_job = len(job.scheduler.timeline)
        for _ in range(self.warmups):
            self.job(self.ARGV)

    def _spawn(self, argv: list[str]) -> tuple[float, int, bytes, bytes]:
        t0 = _now()
        p = subprocess.run([sys.executable, *argv], env=self.env,
                           cwd=self.workdir, capture_output=True)
        return (_now() - t0) * 1e3, p.returncode, p.stdout, p.stderr

    def job(self, argv: list[str]) -> float:
        self.attempted += 1
        ms, code, out, err = self._spawn(argv)
        lines = out.decode(errors="replace").splitlines()
        if code != 0:
            self.fail(f"exit {code}: {err[-200:]!r}")
        elif (len(lines) != 3 or not lines[0].startswith("$ ./hello_world")
              or not all(re.fullmatch(r"rank: \d+", ln) for ln in lines[1:])):
            self.fail(f"unexpected stdout {out[:200]!r}")
        elif self.stdout is None:
            self.stdout = out
        elif out != self.stdout:
            self.fail("stdout differs from the first run's")
        return ms

    def finish(self) -> None:
        """One more run, untimed, polled for the child's own peak RSS.
        A spawned child's ``ru_maxrss`` starts from its parent's RSS (exec
        keeps the larger of the old and the new address space's peak), so
        ``wait4`` would report the bench's memory, not the CLI's."""
        p = subprocess.Popen([sys.executable, *self.ARGV], env=self.env,
                             cwd=self.workdir, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
        while p.poll() is None:
            self._child_rss = max(self._child_rss, vm_hwm_kb(p.pid))
            time.sleep(0.002)

    def block(self, tracer: Any = None) -> Block:
        b = new_block()
        span = span_of(tracer)
        for _ in range(self.block_jobs):
            with span("job"):
                b["samples_ms"].append(self.job(self.ARGV))
        b["wall_s"] = sum(b["samples_ms"]) / 1e3
        b["quanta"] = self.quanta_per_job * self.block_jobs
        return b

    def probes(self) -> dict[str, float]:
        """The parts of one CLI run, each timed in children of its own
        (fastest of 5, like the quiet-block job they are compared with):
        bare interpreter, ``import repro.cli``, ``main(['hello'])``."""
        def fastest(argv: list[str]) -> float:
            return min(self._spawn(argv)[0] for _ in range(5))

        code = ("import sys,time,json,io,contextlib;t=time.perf_counter();"
                "import repro.cli;t1=time.perf_counter();"
                "n=sum(m=='repro' or m.startswith('repro.') "
                "for m in sys.modules)\n"
                "with contextlib.redirect_stdout(io.StringIO()):"
                " repro.cli.main(['hello'])\n"
                "print(json.dumps([(t1-t)*1e3,(time.perf_counter()-t1)*1e3,n]))")
        parts = [json.loads(self._spawn(["-c", code])[2]) for _ in range(5)]
        return {"cli.interp_ms": fastest(["-c", "pass"]),
                "cli.help_ms": fastest(["-m", "repro", "--help"]),
                "cli.import_ms": min(p[0] for p in parts),
                "cli.main_ms": min(p[1] for p in parts),
                "cli.modules": parts[0][2]}

    def child_rss_kb(self) -> int:
        return self._child_rss


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Jacobi1k, SwitchStorm, AdcircLb, MethodSweep,
                        ServeCold, ServeWarm, CliHello)
}
