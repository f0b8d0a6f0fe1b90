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
   chaos reproduces a fault-free local execution of the same spec:
   their :func:`~repro.provenance.diff.drift` is empty.  A retried job
   that crashed a worker twice must produce *the* record, not *a*
   record.

Scenario generation is a pure function of ``(seed, index)`` via
:class:`~repro.ft.prng.CounterRng` — the same seed replays the same
campaign, which is what makes a CI gate out of it.  The loop and the
report are :mod:`repro.chaos.engine`'s ``campaign`` and ``CampaignReport``;
the accepted / resolved / lost account is :func:`serve_ledger`.
"""

from __future__ import annotations

import os
import socket as socketlib
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.chaos.engine import CampaignReport, campaign
from repro.ft.prng import CounterRng
from repro.harness.jobspec import JobSpec
from repro.provenance.diff import describe_drift, drift
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeConnectionError, SubmitReply
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


def classify(reply: SubmitReply) -> str:
    """How a reply resolves its submission: ``"shed"`` (refused before
    acceptance, safe to retry), ``"record"``, ``"reason:<code>"`` (a
    structured failure that legitimately ends it) or ``""`` — accepted
    and not resolved, i.e. lost."""
    if reply.reason in protocol.RETRYABLE_REASONS:
        return "shed"
    if reply.ok and reply.record is not None:
        return "record"
    if reply.reason in _RESOLVING_REASONS:
        return f"reason:{reply.reason}"
    return ""


@dataclass
class ServeFaultOutcome:
    """What one scenario did and how its submission resolved."""

    scenario: ServeFaultScenario
    status: str = "ok"        #: ok | unresolved | mismatch | unexpected
    resolution: str = ""      #: what :func:`classify` said of the reply
    run_id: str | None = None
    detail: str = ""
    #: drift of the completed record from its fault-free local twin
    #: (None: no record to audit; empty: reproduced)
    twin_drift: dict[str, tuple[Any, Any]] | None = None
    restarts: int = 0         #: server SIGKILL + restart cycles survived
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def failure(self) -> list[str]:
        return [f"{self.status} {self.detail}"]

    def to_dict(self) -> dict[str, Any]:
        return {"index": self.scenario.index,
                "kind": self.scenario.kind,
                "status": self.status,
                "resolution": self.resolution,
                "run_id": self.run_id,
                "detail": self.detail,
                "wall_s": round(self.wall_s, 3)}


def serve_ledger(outcomes: list[ServeFaultOutcome]) -> dict[str, int]:
    """The campaign's two invariants as totals over its outcomes: every
    submission the service did not shed is *accepted* and must be
    *resolved* (to a record or a resolving reason; the rest are *lost*),
    and every audited record must reproduce its fault-free twin."""
    accepted = sum(o.resolution != "shed" for o in outcomes)
    lost = sum(o.resolution == "" for o in outcomes)
    return {
        "accepted": accepted,
        "resolved": accepted - lost,
        "lost": lost,
        "records_verified": sum(o.twin_drift is not None for o in outcomes),
        "twin_mismatches": sum(bool(o.twin_drift) for o in outcomes),
        "server_restarts": sum(o.restarts for o in outcomes),
    }


class _ServerProc:
    """A real ``repro serve`` subprocess on a Unix socket, with chaos
    hooks enabled."""

    def __init__(self, store_dir: Path, socket_path: Path):
        self.store_dir = store_dir
        self.socket_path = socket_path
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
             "--workers", "2", "--chaos-hooks", "--max-queue", "64"],
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


def run_serve_campaign(seed: int, count: int, *,
                       root: Path | str | None = None,
                       progress: Callable[[str], None] | None = None
                       ) -> CampaignReport:
    """Run ``count`` seeded fault scenarios against a live server.

    ``root`` holds the store and socket (a temp dir when None); the
    server runs as a real subprocess with ``--chaos-hooks`` so worker
    kills can be injected through the protocol envelope.
    """
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(root) if root is not None else Path(tmp)
        base.mkdir(parents=True, exist_ok=True)
        server = _ServerProc(base / "store", base / "serve.sock")
        server.start()
        client = ServeClient(socket_path=server.socket_path, timeout=300.0,
                             retries=3)
        try:
            report = campaign(
                CampaignReport("serve chaos", seed, count),
                generate_serve_scenario,
                lambda sc: _run_one(sc, client, server), progress)
        finally:
            client.close()
            server.stop()
    report.ledger = serve_ledger(report.outcomes)
    return report


def _fail(out: ServeFaultOutcome, status: str, detail: str) -> None:
    out.status, out.detail = status, detail


def _submit(client: ServeClient, spec: JobSpec, out: ServeFaultOutcome,
            *, expect: str | None = None, **how: Any) -> None:
    """Submit and book the resolution on the outcome.  ``expect`` names
    the one resolution the scenario allows (a shed is never a surprise:
    it was refused up front)."""
    reply = client.submit(spec, **how)
    out.run_id = reply.run_id
    out.resolution = classify(reply)
    if out.resolution == "":
        _fail(out, "unresolved",
              f"error={reply.error!r} reason={reply.reason!r}")
    elif expect is not None and out.resolution not in (expect, "shed"):
        _fail(out, "unexpected", f"expected {expect}, got "
              f"{out.resolution} (cache={reply.cache})")


def _audit_twin(client: ServeClient, out: ServeFaultOutcome) -> None:
    """Invariant 2: the completed record, read back through the service
    (hit path), against a fault-free local execution of the same spec."""
    try:
        served = client.await_result(out.run_id)
    except ServeConnectionError:
        return
    if not served.ok:
        return
    twin = execute_spec(out.scenario.spec.to_dict())
    if twin["record"] is None:
        raise RuntimeError(f"fault-free twin failed: {twin['error']}")
    out.twin_drift = drift(twin["record"], served.record)
    if out.twin_drift and out.ok:
        _fail(out, "mismatch", "record differs from fault-free twin: "
              + describe_drift(out.twin_drift))


def _run_one(sc: ServeFaultScenario, client: ServeClient,
             server: _ServerProc) -> ServeFaultOutcome:
    t0 = time.monotonic()  # repro: allow(det-wallclock) campaign wall-clock reporting, host-side
    out = ServeFaultOutcome(scenario=sc)
    try:
        if sc.kind == "clean":
            _submit(client, sc.spec, out)

        elif sc.kind == "worker-kill":
            # The job kills its first worker; the pool must retry it on
            # a replacement and still produce the record.
            _submit(client, sc.spec, out,
                    chaos={"kill_worker_attempts": 1})

        elif sc.kind == "poison":
            # The job kills every worker it touches; the pool must
            # quarantine it, and the service must answer a resubmit
            # from quarantine without burning more workers.
            _submit(client, sc.spec, out,
                    chaos={"kill_worker_attempts": 99},
                    expect=f"reason:{protocol.REASON_POISON}")
            if out.ok:
                again = client.submit(sc.spec)
                if again.reason != protocol.REASON_POISON:
                    _fail(out, "unexpected",
                          f"resubmit after quarantine gave "
                          f"{again.reason!r}, not poison-job")

        elif sc.kind == "deadline":
            # 1 ms is unmeetable for a cold run: the waiter must get a
            # structured deadline reply — and because the execution is
            # shielded, the record must still land for the next caller.
            _submit(client, sc.spec, out, deadline_ms=1.0)
            if out.resolution == f"reason:{protocol.REASON_DEADLINE}":
                settled = client.submit(sc.spec)   # no deadline: await it
                if classify(settled) != "record":
                    out.resolution = ""
                    _fail(out, "unresolved", f"post-deadline settle "
                          f"failed: {settled.error!r}")
            elif out.resolution.startswith("reason:"):
                _fail(out, "unexpected",
                      f"wanted deadline reply, got {out.resolution}")

        elif sc.kind == "conn-drop":
            # Submit, hang up before the reply.  The execution must
            # finish server-side; a coalescing/hit resubmit observes it.
            _raw_send(server.socket_path, protocol.encode(
                {"op": protocol.OP_SUBMIT, "spec": sc.spec.to_dict(),
                 "wait": True}))
            _submit(client, sc.spec, out)

        elif sc.kind == "frame-truncate":
            payload = (b"\x00\xff\x80garbage\n",
                       b'{"op": "submit", "spec"\n',
                       protocol.encode({"op": "submit"})[:-10],
                       )[sc.variant % 3]
            _raw_send(server.socket_path, payload)
            # The server must shrug it off: a clean submit right after
            # must work.
            _submit(client, sc.spec, out)

        elif sc.kind == "server-crash":
            # Accept the job, SIGKILL the server mid-flight, restart on
            # the same store+socket: the resubmitted (idempotent) job
            # must execute, taking over the lease the dead server left
            # behind.
            client.submit(sc.spec, wait=False)
            server.sigkill()
            server.start()
            out.restarts += 1
            _submit(client, sc.spec, out, expect="record")

        else:  # pragma: no cover
            _fail(out, "unexpected", f"unknown kind {sc.kind!r}")

        if out.resolution == "record" and out.run_id:
            _audit_twin(client, out)
    except Exception as e:
        _fail(out, "unexpected", f"{type(e).__name__}: {e}")
    out.wall_s = time.monotonic() - t0  # repro: allow(det-wallclock) campaign wall-clock reporting, host-side
    return out
