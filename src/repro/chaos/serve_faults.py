"""Service-layer chaos: fault campaigns against a live ``repro serve``.

:mod:`repro.chaos.engine` attacks the *simulated machine* (ranks die
inside deterministic time); this module attacks the *service around
it* — the one part of the stack that runs in real time on a real
host.  A seeded campaign drives a real server subprocess through
worker kills, poison jobs, client deadlines, dropped connections,
truncated frames, and full server crashes (SIGKILL + restart on the
same store), and then checks the two resilience invariants:

1. **No lost submissions** — every submission the service *accepted*
   eventually resolves: to a stored record, or to a structured failure
   (``poison-job``, ``deadline-exceeded``, ...).  Shed submissions
   (``busy``/``draining``) don't count: they were refused up front and
   are safe to retry, which is the point of shedding.
2. **Faults never corrupt results** — every record completed under
   chaos is byte-identical (modulo the ``created_at`` wall stamp) to a
   fault-free local execution of the same spec.  A retried job that
   crashed a worker twice must produce *the* record, not *a* record.

Scenario generation is a pure function of ``(seed, index)`` via
:class:`~repro.ft.prng.CounterRng` — the same seed replays the same
campaign, which is what makes a CI gate out of it.
"""

from __future__ import annotations

import os
import socket as socketlib
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.ft.prng import CounterRng
from repro.harness.jobspec import JobSpec
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeConnectionError
from repro.serve.pool import execute_spec

#: scenario kinds and their selection weights (normalized at draw time)
KINDS: tuple[tuple[str, float], ...] = (
    ("clean", 0.30),           #: no fault: the control group
    ("worker-kill", 0.20),     #: job kills its worker once; must retry
    ("poison", 0.10),          #: job kills every worker; must quarantine
    ("deadline", 0.10),        #: 1 ms deadline; shielded run still lands
    ("conn-drop", 0.12),       #: client vanishes mid-submit
    ("frame-truncate", 0.08),  #: garbage/partial frames on the wire
    ("server-crash", 0.10),    #: SIGKILL the server, restart, resubmit
)

#: structured reasons that legitimately resolve an accepted submission
_RESOLVING_REASONS = (protocol.REASON_POISON, protocol.REASON_DEADLINE,
                      protocol.REASON_POOL_DEAD)


@dataclass(frozen=True)
class ServeFaultScenario:
    """One deterministic service-fault scenario."""

    index: int
    kind: str
    spec: JobSpec
    #: frame-truncate flavor: 0 binary garbage, 1 truncated JSON,
    #: 2 partial frame then EOF
    variant: int = 0

    def label(self) -> str:
        return (f"#{self.index:03d} {self.kind:<14s} "
                f"{self.spec.app} nvp={self.spec.nvp}")


def generate_serve_scenario(seed: int, index: int) -> ServeFaultScenario:
    """The ``index``-th scenario of campaign ``seed`` (pure function)."""
    rng = CounterRng(seed, "serve-faults")
    base = index * 16
    pick = rng.uniform(base)
    total = sum(w for _, w in KINDS)
    acc = 0.0
    kind = KINDS[-1][0]
    for name, w in KINDS:
        acc += w / total
        if pick < acc:
            kind = name
            break
    spec = JobSpec(
        app="pingpong",
        nvp=2 + 2 * rng.randrange(base + 1, 2),
        app_config={
            "yields_per_rank": 10 + 5 * rng.randrange(base + 2, 3),
            "name": f"sf-{seed}-{index}",
        },
        method="none", machine="generic-linux",
        layout=(1, 1, 1), slot_size=1 << 24)
    return ServeFaultScenario(index=index, kind=kind, spec=spec,
                              variant=rng.randrange(base + 3, 3))


def generate_serve_scenarios(seed: int,
                             count: int) -> list[ServeFaultScenario]:
    return [generate_serve_scenario(seed, i) for i in range(count)]


@dataclass
class ServeFaultOutcome:
    """What one scenario did and how its submission resolved."""

    scenario: ServeFaultScenario
    status: str = "ok"        #: ok | unresolved | mismatch | unexpected
    resolution: str = ""      #: record | reason:<code> | shed | (empty)
    run_id: str | None = None
    detail: str = ""
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict[str, Any]:
        return {"index": self.scenario.index,
                "kind": self.scenario.kind,
                "status": self.status,
                "resolution": self.resolution,
                "run_id": self.run_id,
                "detail": self.detail,
                "wall_s": round(self.wall_s, 3)}


@dataclass
class ServeCampaignReport:
    """A full service-fault campaign: outcomes plus the two invariants."""

    seed: int
    count: int
    outcomes: list[ServeFaultOutcome] = field(default_factory=list)
    accepted: int = 0         #: submissions the service accepted
    resolved: int = 0         #: ... that resolved (record or reason)
    records_verified: int = 0  #: records compared against a clean twin
    twin_mismatches: int = 0  #: records that differed from the twin
    server_restarts: int = 0
    final_stats: dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def lost(self) -> int:
        return self.accepted - self.resolved

    @property
    def ok(self) -> bool:
        return (self.lost == 0 and self.twin_mismatches == 0
                and all(o.ok for o in self.outcomes))

    def tally(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for o in self.outcomes:
            out[o.scenario.kind] = out.get(o.scenario.kind, 0) + 1
        return dict(sorted(out.items()))

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "count": self.count,
                "ok": self.ok,
                "accepted": self.accepted, "resolved": self.resolved,
                "lost": self.lost,
                "records_verified": self.records_verified,
                "twin_mismatches": self.twin_mismatches,
                "server_restarts": self.server_restarts,
                "tally": self.tally(),
                "final_stats": self.final_stats,
                "wall_s": round(self.wall_s, 3),
                "outcomes": [o.to_dict() for o in self.outcomes]}

    def summary(self) -> str:
        verdict = "all invariants hold" if self.ok else "VIOLATIONS"
        lines = [f"serve chaos campaign (seed={self.seed}, "
                 f"n={self.count}): {verdict} "
                 f"[{self.wall_s:.1f}s wall]",
                 f"  accepted {self.accepted}, resolved {self.resolved}, "
                 f"lost {self.lost}",
                 f"  records byte-identical to fault-free twins: "
                 f"{self.records_verified - self.twin_mismatches}"
                 f"/{self.records_verified}",
                 f"  server restarts: {self.server_restarts}",
                 "  scenario mix: " + ", ".join(
                     f"{k}={n}" for k, n in self.tally().items())]
        for o in self.outcomes:
            if not o.ok:
                lines.append(f"  FAIL {o.scenario.label()}: "
                             f"{o.status} {o.detail}")
        return "\n".join(lines)


class _ServerProc:
    """A real ``repro serve`` subprocess on a Unix socket, with chaos
    hooks enabled and a short lease TTL (so crash takeover is fast)."""

    def __init__(self, store_dir: Path, socket_path: Path, *,
                 workers: int = 2, lease_ttl_s: float = 5.0,
                 max_queue: int = 64):
        self.store_dir = store_dir
        self.socket_path = socket_path
        self.workers = workers
        self.lease_ttl_s = lease_ttl_s
        self.max_queue = max_queue
        self.proc: subprocess.Popen | None = None

    def start(self, timeout_s: float = 60.0) -> None:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--store", str(self.store_dir),
             "--socket", str(self.socket_path),
             "--workers", str(self.workers),
             "--chaos-hooks",
             "--lease-ttl", str(self.lease_ttl_s),
             "--max-queue", str(self.max_queue)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + timeout_s  # repro: allow(det-wallclock) campaign harness paces a real subprocess
        last: Exception | None = None
        while time.monotonic() < deadline:  # repro: allow(det-wallclock) campaign harness paces a real subprocess
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve subprocess exited rc={self.proc.returncode} "
                    f"during startup")
            try:
                ServeClient(socket_path=self.socket_path, timeout=5.0,
                            retries=0).ping()
                return
            except Exception as e:
                last = e
                time.sleep(0.05)  # repro: allow(det-wallclock) campaign harness paces a real subprocess
        raise RuntimeError(f"serve subprocess never came up: {last}")

    def sigkill(self) -> None:
        assert self.proc is not None
        self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc = None

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                ServeClient(socket_path=self.socket_path, timeout=5.0,
                            retries=0).shutdown()
            except Exception:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=10)
        self.proc = None


def _raw_send(socket_path: Path, payload: bytes) -> None:
    """Fire bytes at the server and hang up without reading — the
    rudest client we can simulate."""
    s = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    try:
        s.settimeout(10.0)
        s.connect(str(socket_path))
        s.sendall(payload)
    finally:
        s.close()


def _twin_record(spec: JobSpec) -> dict[str, Any] | None:
    """Execute the spec locally, fault-free, and return its record dict
    (the determinism oracle for invariant 2)."""
    out = execute_spec(spec.to_dict())
    return out.get("record")


def _strip_wallclock(record: dict[str, Any]) -> dict[str, Any]:
    d = dict(record)
    d.pop("created_at", None)
    return d


def run_serve_campaign(seed: int, count: int, *,
                       root: Path | str | None = None,
                       workers: int = 2,
                       lease_ttl_s: float = 5.0,
                       max_queue: int = 64,
                       verify_twins: bool = True,
                       progress: Callable[[str], None] | None = None
                       ) -> ServeCampaignReport:
    """Run ``count`` seeded fault scenarios against a live server.

    ``root`` holds the store and socket (a temp dir when None); the
    server runs as a real subprocess with ``--chaos-hooks`` so worker
    kills can be injected through the protocol envelope.
    """
    import tempfile

    t0 = time.monotonic()  # repro: allow(det-wallclock) campaign wall-clock reporting, host-side
    report = ServeCampaignReport(seed=seed, count=count)
    scenarios = generate_serve_scenarios(seed, count)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(root) if root is not None else Path(tmp)
        base.mkdir(parents=True, exist_ok=True)
        store_dir = base / "store"
        socket_path = base / "serve.sock"
        server = _ServerProc(store_dir, socket_path, workers=workers,
                             lease_ttl_s=lease_ttl_s, max_queue=max_queue)
        server.start()
        client = ServeClient(socket_path=socket_path, timeout=300.0,
                             retries=3)
        completed: dict[str, tuple[JobSpec, dict[str, Any]]] = {}
        try:
            for sc in scenarios:
                out = _run_one(sc, client, server, report)
                report.outcomes.append(out)
                if out.resolution == "record" and out.run_id:
                    rec = completed_record(client, out.run_id)
                    if rec is not None:
                        completed[out.run_id] = (sc.spec, rec)
                if progress is not None:
                    progress(f"{sc.label()} -> {out.status} "
                             f"({out.resolution}) [{out.wall_s:.2f}s]")
            try:
                report.final_stats = client.stats()
            except Exception:
                pass
        finally:
            client.close()
            server.stop()
        if verify_twins:
            for run_id, (spec, rec) in sorted(completed.items()):
                report.records_verified += 1
                twin = _twin_record(spec)
                if twin is None or (_strip_wallclock(twin)
                                    != _strip_wallclock(rec)):
                    report.twin_mismatches += 1
                    for o in report.outcomes:
                        if o.run_id == run_id and o.ok:
                            o.status = "mismatch"
                            o.detail = "record differs from fault-free twin"
            if progress is not None and report.records_verified:
                progress(f"twin audit: "
                         f"{report.records_verified - report.twin_mismatches}"
                         f"/{report.records_verified} byte-identical")
    report.wall_s = time.monotonic() - t0  # repro: allow(det-wallclock) campaign wall-clock reporting, host-side
    return report


def completed_record(client: ServeClient,
                     run_id: str) -> dict[str, Any] | None:
    """Fetch a completed record through the service (hit path)."""
    try:
        reply = client.await_result(run_id)
    except ServeConnectionError:
        return None
    return reply.record if reply.ok else None


def _resolve(client: ServeClient, spec: JobSpec,
             report: ServeCampaignReport,
             out: ServeFaultOutcome, *,
             deadline_ms: float | None = None,
             chaos: dict[str, Any] | None = None,
             expect_reason: str | None = None) -> None:
    """Submit and classify the resolution; book-keep the ledger."""
    reply = client.submit(spec, deadline_ms=deadline_ms, chaos=chaos)
    out.run_id = reply.run_id
    if reply.reason in protocol.RETRYABLE_REASONS:
        # Shed before acceptance: not in the ledger, not a failure.
        out.resolution = "shed"
        return
    report.accepted += 1
    if reply.ok and reply.record is not None:
        report.resolved += 1
        out.resolution = "record"
        if expect_reason is not None:
            out.status = "unexpected"
            out.detail = (f"expected {expect_reason}, got a record "
                          f"(cache={reply.cache})")
        return
    if reply.reason in _RESOLVING_REASONS:
        report.resolved += 1
        out.resolution = f"reason:{reply.reason}"
        if expect_reason is not None and reply.reason != expect_reason:
            out.status = "unexpected"
            out.detail = f"expected {expect_reason}, got {reply.reason}"
        return
    out.status = "unresolved"
    out.detail = f"error={reply.error!r} reason={reply.reason!r}"


def _run_one(sc: ServeFaultScenario, client: ServeClient,
             server: _ServerProc,
             report: ServeCampaignReport) -> ServeFaultOutcome:
    t0 = time.monotonic()  # repro: allow(det-wallclock) campaign wall-clock reporting, host-side
    out = ServeFaultOutcome(scenario=sc)
    try:
        if sc.kind == "clean":
            _resolve(client, sc.spec, report, out)

        elif sc.kind == "worker-kill":
            # The job kills its first worker; the pool must retry it on
            # a replacement and still produce the record.
            _resolve(client, sc.spec, report, out,
                     chaos={"kill_worker_attempts": 1})

        elif sc.kind == "poison":
            # The job kills every worker it touches; the pool must
            # quarantine it, and the service must answer a resubmit
            # from quarantine without burning more workers.
            _resolve(client, sc.spec, report, out,
                     chaos={"kill_worker_attempts": 99},
                     expect_reason=protocol.REASON_POISON)
            if out.ok:
                again = client.submit(sc.spec)
                if again.reason != protocol.REASON_POISON:
                    out.status = "unexpected"
                    out.detail = (f"resubmit after quarantine gave "
                                  f"{again.reason!r}, not poison-job")

        elif sc.kind == "deadline":
            # 1 ms is unmeetable for a cold run: the waiter must get a
            # structured deadline reply — and because the execution is
            # shielded, the record must still land for the next caller.
            reply = client.submit(sc.spec, deadline_ms=1.0)
            report.accepted += 1
            out.run_id = reply.run_id
            if reply.ok:
                report.resolved += 1
                out.resolution = "record"   # cache was already warm/fast
            elif reply.reason == protocol.REASON_DEADLINE:
                settled = client.submit(sc.spec)   # no deadline: await it
                if settled.ok and settled.record is not None:
                    report.resolved += 1
                    out.resolution = "reason:deadline-exceeded"
                else:
                    out.status = "unresolved"
                    out.detail = (f"post-deadline settle failed: "
                                  f"{settled.error!r}")
            else:
                out.status = "unexpected"
                out.detail = f"wanted deadline reply, got {reply.reason!r}"

        elif sc.kind == "conn-drop":
            # Submit, hang up before the reply.  The execution must
            # finish server-side; a later submit observes it.
            _raw_send(server.socket_path, protocol.encode(
                {"op": protocol.OP_SUBMIT, "spec": sc.spec.to_dict(),
                 "wait": True}))
            report.accepted += 1
            _settle_after_drop(client, sc.spec, report, out)

        elif sc.kind == "frame-truncate":
            payload = (b"\x00\xff\x80garbage\n",
                       b'{"op": "submit", "spec"\n',
                       protocol.encode({"op": "submit"})[:-10],
                       )[sc.variant % 3]
            _raw_send(server.socket_path, payload)
            # The server must shrug it off: a clean submit right after
            # must work.
            _resolve(client, sc.spec, report, out)

        elif sc.kind == "server-crash":
            # Accept the job, SIGKILL the server mid-flight, restart on
            # the same store+socket: the resubmitted job must execute
            # (taking over the dead server's lease if it got that far).
            client.submit(sc.spec, wait=False)
            server.sigkill()
            server.start()
            report.server_restarts += 1
            report.accepted += 1
            _resolve_crashed(client, sc.spec, report, out)

        else:  # pragma: no cover
            out.status = "unexpected"
            out.detail = f"unknown kind {sc.kind!r}"
    except Exception as e:
        out.status = "unexpected"
        out.detail = f"{type(e).__name__}: {e}"
    out.wall_s = time.monotonic() - t0  # repro: allow(det-wallclock) campaign wall-clock reporting, host-side
    return out


def _settle_after_drop(client: ServeClient, spec: JobSpec,
                       report: ServeCampaignReport,
                       out: ServeFaultOutcome) -> None:
    """After the rude client hung up, the submission it fired must
    still resolve — observe it via a coalescing/hit resubmit."""
    reply = client.submit(spec)
    out.run_id = reply.run_id
    if reply.ok and reply.record is not None:
        report.resolved += 1
        out.resolution = "record"
    elif reply.reason in _RESOLVING_REASONS:
        report.resolved += 1
        out.resolution = f"reason:{reply.reason}"
    else:
        out.status = "unresolved"
        out.detail = f"error={reply.error!r} reason={reply.reason!r}"


def _resolve_crashed(client: ServeClient, spec: JobSpec,
                     report: ServeCampaignReport,
                     out: ServeFaultOutcome) -> None:
    """The server was SIGKILLed holding this job.  The client-side
    contract: resubmit (idempotent) and the restarted server delivers —
    waiting out any stale lease the dead server left behind."""
    reply = client.submit(spec)
    out.run_id = reply.run_id
    if reply.ok and reply.record is not None:
        report.resolved += 1
        out.resolution = "record"
    else:
        out.status = "unresolved"
        out.detail = (f"post-restart resubmit failed: "
                      f"error={reply.error!r} reason={reply.reason!r}")
