"""Resilience of the ``repro serve`` service layer.

Worker-crash retry and poison-job quarantine (the pool), admission
control / deadlines / drain / health (the service), client reconnect
and batch submission (the clients), the never-dying gc janitor, and
cross-server execution leases — each failure mode gets a regression
test at the lowest layer that exhibits it.

Tests of the pool and of anything a worker's crash, pace or
concurrency can change run real worker processes; tests of the
service's request logic alone run their jobs inline (``inline_pool`` in
``conftest.py``).
"""

import asyncio
import concurrent.futures
import json
import os
import signal
import socket as socketlib
import threading
import time

import pytest

from repro.harness.jobspec import JobSpec
from repro.provenance import ProvenanceStore
from repro.serve import (
    CACHE_HIT,
    JobService,
    ServeClient,
    ServeConnectionError,
    ServiceThread,
    WorkerPool,
    protocol,
    server,
)
from repro.serve import client as client_mod
from repro.serve import pool as pool_mod

from test_serve_hits import Writer


def _spec(name: str, nvp: int = 2, yields: int = 10) -> JobSpec:
    return JobSpec(app="pingpong", nvp=nvp,
                   app_config={"yields_per_rank": yields, "name": name},
                   method="none", machine="generic-linux",
                   layout=(1, 1, 1), slot_size=1 << 24)


def _service(tmp_path, **kw) -> JobService:
    kw.setdefault("workers", 1)
    kw.setdefault("socket_path", tmp_path / "serve.sock")
    return JobService(ProvenanceStore(tmp_path / "store"), **kw)


@pytest.fixture(autouse=True)
def _fast_lease_polls(monkeypatch):
    monkeypatch.setattr(server, "LEASE_POLL_S", 0.01)


def _client(tmp_path, **kw) -> ServeClient:
    kw.setdefault("timeout", 120.0)
    return ServeClient(socket_path=tmp_path / "serve.sock", **kw)


# ---------------------------------------------------------------------------
# worker pool: crash retry, quarantine, pool death, orphaned workers
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestPoolCrashRecovery:
    def test_worker_kill_is_retried(self):
        with WorkerPool(1, retries=2) as pool:
            fut = pool.submit(_spec("die-once").to_dict(),
                              chaos={"kill_worker_attempts": 1})
            out = fut.result(timeout=120)
        assert out["error"] is None
        assert out["record"]["spec"]["app_config"]["name"] == "die-once"
        assert pool.stats.retries == 1
        assert pool.stats.respawns == 1

    def test_poison_job_is_quarantined_pool_survives(self):
        with WorkerPool(1, retries=1) as pool:
            fut = pool.submit(_spec("poison").to_dict(),
                              chaos={"kill_worker_attempts": 99})
            out = fut.result(timeout=120)
            assert out["reason"] == protocol.REASON_POISON
            assert out["unrecoverable_reason"] == "poison-job"
            assert out["attempts"] == 2          # initial + 1 retry
            assert pool.stats.quarantined == 1
            assert not pool.dead
            # The pool still executes honest work afterwards.
            ok = pool.submit(_spec("after-poison").to_dict())
            assert ok.result(timeout=120)["error"] is None

    def test_all_workers_dead_fails_pending_typed(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "RESPAWNS_PER_WORKER", 0)
        pool = WorkerPool(1, retries=0)
        try:
            bad = pool.submit(_spec("killer").to_dict(),
                              chaos={"kill_worker_attempts": 99})
            out = bad.result(timeout=120)
            assert out["reason"] == protocol.REASON_POISON
            deadline = time.time() + 60
            while not pool.dead and time.time() < deadline:
                time.sleep(0.05)
            assert pool.dead
            # New submissions fail fast with the same typed reply.
            out2 = pool.submit(_spec("too-late").to_dict()).result(
                timeout=10)
            assert out2["reason"] == protocol.REASON_POOL_DEAD
            assert out2["unrecoverable_reason"] == "pool-dead"
        finally:
            pool.close()


def _sem_mappings(pid) -> set[str]:
    """The process's ``/dev/shm`` semaphore mappings — the cross-process
    locks behind ``multiprocessing`` queues."""
    with open(f"/proc/{pid}/maps") as f:
        return {line for line in f if "/dev/shm/sem." in line}


@pytest.mark.slow
class TestPoolLiveness:
    def test_no_cross_process_lock_a_dying_worker_can_hold(self):
        """A worker killed while holding a lock shared with the pool
        would leave every other worker unable to reply.  After 4 jobs
        on 2 workers there is no such lock to hold: no semaphore is
        mapped in the pool's process or a worker, each worker runs one
        thread, and the pool adds one thread (its supervisor)."""
        threads = set(threading.enumerate())
        sems = _sem_mappings(os.getpid())
        with WorkerPool(2) as pool:
            futs = [pool.submit(_spec(f"count-{i}").to_dict())
                    for i in range(4)]
            assert all(f.result(timeout=120)["error"] is None
                       for f in futs)
            pids = pool.worker_pids()
            assert len(pids) == 2
            assert _sem_mappings(os.getpid()) - sems == set()
            assert len(set(threading.enumerate()) - threads) == 1
            for pid in pids:
                assert _sem_mappings(pid) == set(), pid
                assert len(os.listdir(f"/proc/{pid}/task")) == 1, pid

    def test_a_run_of_deaths_resolves_every_future(self, monkeypatch):
        """20 of 40 jobs kill their first worker: each is retried once,
        every death is replaced, and every future resolves."""
        monkeypatch.setattr(pool_mod, "RESPAWNS_PER_WORKER", 32)
        with WorkerPool(2) as pool:
            futs = [pool.submit(_spec(f"storm-{i}").to_dict(),
                                chaos=({"kill_worker_attempts": 1}
                                       if i % 2 == 0 else None))
                    for i in range(40)]
            outs = [f.result(timeout=300) for f in futs]
        assert all(out["error"] is None for out in outs)
        assert pool.stats.retries == pool.stats.respawns == 20
        assert pool.stats.quarantined == 0


def _gone(pid: int) -> bool:
    """No such process, or only its zombie (reaping is its new
    parent's business, not the worker's)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestOrphanedWorker:
    def test_worker_exits_on_eof_when_its_pool_is_killed(self):
        """The pool's end of a worker's pipe lives only in the pool's
        process: SIGKILL that process and the worker reads EOF and
        exits, with no poll to wait out."""
        import subprocess
        import sys

        code = (
            "import os, signal\n"
            "from repro.serve import WorkerPool\n"
            "pool = WorkerPool(1)\n"
            "print(pool.worker_pids()[0], flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # The worker inherits stdout: read the pid line, never to EOF.
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                stdout=subprocess.PIPE)
        try:
            pid = int(proc.stdout.readline())
            assert proc.wait(timeout=60) == -9
            deadline = time.monotonic() + 5.0
            while not _gone(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _gone(pid), f"worker {pid} outlived its pool"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()


# ---------------------------------------------------------------------------
# service: admission control, drain, health, deadlines
# ---------------------------------------------------------------------------

class TestAdmissionControl:
    @pytest.mark.usefixtures("inline_pool")
    def test_queue_watermark_sheds_busy(self, tmp_path):
        service = _service(tmp_path, max_queue=0)
        with ServiceThread(service):
            reply = _client(tmp_path).submit(_spec("shed-me"))
        assert not reply.ok
        assert reply.reason == protocol.REASON_BUSY
        assert reply.retryable
        assert service.stats.shed == 1

    @pytest.mark.usefixtures("inline_pool")
    def test_hits_are_admitted_past_watermark(self, tmp_path):
        # Warm the cache with a roomy queue, then shrink the watermark
        # to zero: the warm submit must still be served (hits are free).
        service = _service(tmp_path, max_queue=8)
        with ServiceThread(service):
            client = _client(tmp_path)
            assert client.submit(_spec("warm")).ok
            service.max_queue = 0
            reply = client.submit(_spec("warm"))
        assert reply.ok and reply.cache == CACHE_HIT

    @pytest.mark.usefixtures("inline_pool")
    def test_drain_refuses_new_finishes_inflight(self, tmp_path):
        service = _service(tmp_path)
        with ServiceThread(service):
            client = _client(tmp_path)
            assert client.submit(_spec("before")).ok
            drain = client.drain()
            assert drain["ok"]
            reply = client.submit(_spec("after-drain"))
            assert not reply.ok
            assert reply.reason == protocol.REASON_DRAINING
            assert reply.retryable
            health = client.health()
            assert health["draining"] and not health["ready"]

    @pytest.mark.slow
    def test_health_probe_shape(self, tmp_path):
        service = _service(tmp_path)
        with ServiceThread(service):
            h = _client(tmp_path).health()
            pids = service._pool.worker_pids()
        assert h["ok"] and h["ready"]
        assert h["draining"] is False
        assert h["pool_dead"] is False
        assert h["quarantined"] == 0
        assert h["leases"] is True
        assert h["workers_alive"] == 1
        assert h["worker_pids"] == pids and len(pids) == 1


def test_every_job_runs_in_a_worker_process(tmp_path):
    for mode in ("thread", "inline"):
        with pytest.raises(ValueError, match=mode):
            _service(tmp_path, worker_mode=mode)
    assert _service(tmp_path, worker_mode="process").workers == 1


@pytest.mark.slow
class TestServiceDeadlines:
    def test_deadline_exceeded_is_structured_and_shielded(self, tmp_path):
        service = _service(tmp_path)
        with ServiceThread(service):
            client = _client(tmp_path)
            reply = client.submit(_spec("slowpoke", yields=40),
                                  deadline_ms=1.0)
            assert not reply.ok
            assert reply.reason == protocol.REASON_DEADLINE
            assert not reply.retryable
            assert service.stats.deadline_exceeded >= 1
            # Shielded execution: the next caller, with no deadline of
            # its own, coalesces onto the run (or hits its record).
            settled = client.submit(_spec("slowpoke", yields=40))
            assert settled.ok and settled.record is not None


    def test_a_waiters_deadline_is_its_own(self, tmp_path):
        """A (1 ms deadline) launches the execution and gives up while
        the task is still queued behind a busy worker; B, coalesced
        onto it with no deadline, must get the record."""
        import asyncio

        service = _service(tmp_path)
        spec = _spec("shared").to_dict()

        async def scenario():
            await service.start()
            try:
                # A stopped worker holds the blocker job until SIGCONT.
                (worker,) = service._pool.worker_pids()
                os.kill(worker, signal.SIGSTOP)
                try:
                    await service.submit(_spec("blocker").to_dict(),
                                         wait=False)
                    a = await service.submit(spec, deadline_ms=1.0)
                    b = asyncio.ensure_future(service.submit(spec))
                    await asyncio.sleep(0)      # B attaches
                finally:
                    os.kill(worker, signal.SIGCONT)
                return a, await b
            finally:
                await service.close()

        a, b = asyncio.run(scenario())
        assert a["reason"] == protocol.REASON_DEADLINE
        assert b["ok"] and b["cache"] == protocol.CACHE_COALESCED
        assert b["record"]["spec"]["app_config"]["name"] == "shared"
        assert service.stats.deadline_exceeded == 1


#: ``deadline_ms`` values refused at the edge: not absent, null or a
#: non-negative number
BAD_DEADLINES = ["abc", [1], {"a": 1}, -5, True]


class TestMalformedDeadlines:
    """Each is answered ``invalid`` before anything is keyed or launched;
    the connection lives on."""

    @pytest.mark.parametrize("deadline_ms", BAD_DEADLINES, ids=repr)
    def test_refused_in_process(self, tmp_path, deadline_ms):
        service = _service(tmp_path)
        spec = _spec("never-run").to_dict()
        in_flight = "f" * 64

        async def scenario():
            service._inflight[in_flight] = \
                asyncio.get_running_loop().create_future()
            writer = Writer()
            replies = [
                await service.submit(spec, deadline_ms=deadline_ms),
                await service.await_result(in_flight,
                                           deadline_ms=deadline_ms)]
            await service._submit_many(
                {"op": protocol.OP_SUBMIT_MANY, "specs": [spec, spec],
                 "deadline_ms": deadline_ms}, writer)
            return replies + [protocol.decode(line) for line in
                              bytes(writer.data).splitlines()]

        *refused, done = asyncio.run(scenario())
        assert [(r["ok"], r.get("index")) for r in refused] == \
            [(False, None)] * 2 + [(False, 0), (False, 1)]
        assert all(r["error"].startswith("deadline_ms must be")
                   for r in refused)
        assert done == {"ok": True, "op": protocol.OP_SUBMIT_MANY_DONE,
                        "n": 2}
        assert list(service._inflight) == [in_flight]
        assert (service.stats.invalid, service.stats.executed) == (4, 0)

    @pytest.mark.usefixtures("inline_pool")
    def test_refused_over_a_socket(self, tmp_path):
        service = _service(tmp_path)
        spec = _spec("never-run").to_dict()
        requests = []
        for deadline_ms in BAD_DEADLINES:
            requests += [
                {"op": protocol.OP_SUBMIT, "spec": spec,
                 "deadline_ms": deadline_ms},
                {"op": protocol.OP_SUBMIT_MANY, "specs": [spec],
                 "deadline_ms": deadline_ms},
                {"op": protocol.OP_AWAIT, "run_id": "f" * 64,
                 "deadline_ms": deadline_ms}]
        requests.append({"op": protocol.OP_PING})
        with ServiceThread(service):
            s = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            s.settimeout(120.0)
            s.connect(str(tmp_path / "serve.sock"))
            s.sendall(b"".join(map(protocol.encode, requests)))
            buf = b""
            while buf.count(b"\n") < 4 * len(BAD_DEADLINES) + 1:
                chunk = s.recv(65536)
                assert chunk, "the server hung up"
                buf += chunk
            s.close()
        replies = [json.loads(x) for x in buf.splitlines()]
        assert replies[-1]["op"] == "pong"
        refused = [r for r in replies if r.get("op") is None]
        assert len(refused) == 3 * len(BAD_DEADLINES)
        assert all(not r["ok"] and r["error"].startswith("deadline_ms must")
                   for r in refused)
        assert service.stats.invalid == 3 * len(BAD_DEADLINES)
        assert service.stats.executed == 0


# ---------------------------------------------------------------------------
# service: poison quarantine memory (served without burning workers)
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestServiceQuarantine:
    def test_resubmit_answered_from_quarantine(self, tmp_path):
        service = _service(tmp_path, retries=0, enable_chaos=True)
        with ServiceThread(service):
            client = _client(tmp_path)
            first = client.submit(_spec("venom"),
                                  chaos={"kill_worker_attempts": 99})
            assert first.reason == protocol.REASON_POISON
            executed_before = service.stats.executed
            again = client.submit(_spec("venom"))
            assert again.reason == protocol.REASON_POISON
            # Served from quarantine memory: no new execution.
            assert service.stats.executed == executed_before
            assert client.status(first.run_id) == "quarantined"
            assert client.health()["quarantined"] == 1

    @pytest.mark.usefixtures("inline_pool")
    def test_chaos_envelope_rejected_without_flag(self, tmp_path):
        service = _service(tmp_path)      # enable_chaos defaults False
        with ServiceThread(service):
            reply = _client(tmp_path).submit(
                _spec("sneaky"), chaos={"kill_worker_attempts": 1})
        assert not reply.ok
        assert "chaos" in (reply.error or "")


# ---------------------------------------------------------------------------
# clients: persistent socket, reconnect, batch submission
# ---------------------------------------------------------------------------

class TestClientReconnect:
    def test_reconnects_across_service_restart(self, tmp_path):
        store_root = tmp_path / "store"
        client = _client(tmp_path)
        s1 = _service(tmp_path)
        with ServiceThread(s1):
            assert client.submit(_spec("persist")).ok
        # The server is gone; the client's socket is now dead.  A new
        # server on the same path must be reached transparently.
        s2 = JobService(ProvenanceStore(store_root), workers=1,
                        socket_path=tmp_path / "serve.sock")
        with ServiceThread(s2):
            reply = client.submit(_spec("persist"))
            assert reply.ok and reply.cache == CACHE_HIT
        client.close()

    def test_connection_error_after_retries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(client_mod, "BACKOFF_BASE_S", 0.01)
        monkeypatch.setattr(client_mod, "BACKOFF_CAP_S", 0.02)
        client = ServeClient(socket_path=tmp_path / "nothing.sock",
                             retries=1)
        with pytest.raises(ServeConnectionError):
            client.ping()

    @pytest.mark.usefixtures("inline_pool")
    def test_requests_reuse_one_connection(self, tmp_path):
        service = _service(tmp_path)
        with ServiceThread(service):
            client = _client(tmp_path)
            client.ping()
            sock = client._sock
            client.ping()
            client.health()
            assert client._sock is sock

    @pytest.mark.usefixtures("inline_pool")
    def test_shared_client_is_thread_safe(self, tmp_path):
        # One client across a thread pool: connections are thread-local,
        # so concurrent submits must never steal each other's replies
        # (the regression: interleaved frames on one shared socket
        # handed thread A the reply for thread B's spec).
        service = _service(tmp_path)
        specs = [_spec(f"tl-{i}") for i in range(8)]
        with ServiceThread(service):
            client = _client(tmp_path)
            with concurrent.futures.ThreadPoolExecutor(4) as ex:
                replies = list(ex.map(client.submit, specs))
        assert all(r.ok for r in replies)
        for spec, reply in zip(specs, replies):
            got = reply.record["spec"]["app_config"]["name"]
            assert got == spec.app_config["name"]


@pytest.mark.usefixtures("inline_pool")
class TestSubmitMany:
    def test_batch_replies_in_request_order(self, tmp_path):
        service = _service(tmp_path)
        specs = [_spec("batch-a"), _spec("batch-b"), _spec("batch-a")]
        with ServiceThread(service):
            replies = _client(tmp_path).submit_many(specs)
        assert len(replies) == 3
        assert all(r.ok for r in replies)
        assert [r.index for r in replies] == [0, 1, 2]
        # The duplicate spec coalesced or hit — never a third execution.
        assert replies[0].run_id == replies[2].run_id
        assert service.stats.executed == 2

    def test_batch_isolates_invalid_specs(self, tmp_path):
        service = _service(tmp_path)
        specs = [_spec("good").to_dict(),
                 {**_spec("bad").to_dict(), "app": "no-such-app"},
                 _spec("also-good").to_dict()]
        with ServiceThread(service):
            replies = _client(tmp_path).submit_many(specs)
        assert replies[0].ok and replies[2].ok
        assert not replies[1].ok
        assert "no-such-app" in (replies[1].error or "")

    def test_raw_stream_is_terminated(self, tmp_path):
        """Wire-level check: one reply line per spec plus the
        terminator frame, parseable with nothing but a socket."""
        service = _service(tmp_path)
        with ServiceThread(service):
            s = socketlib.socket(socketlib.AF_UNIX,
                                 socketlib.SOCK_STREAM)
            s.settimeout(120.0)
            s.connect(str(tmp_path / "serve.sock"))
            s.sendall(protocol.encode(
                {"op": "submit_many",
                 "specs": [_spec("raw-1").to_dict(),
                           _spec("raw-2").to_dict()]}))
            buf = b""
            while buf.count(b"\n") < 3:
                buf += s.recv(65536)
            s.close()
        lines = [json.loads(x) for x in buf.splitlines()]
        assert lines[-1]["op"] == protocol.OP_SUBMIT_MANY_DONE
        assert lines[-1]["n"] == 2
        assert sorted(x["index"] for x in lines[:-1]) == [0, 1]


# ---------------------------------------------------------------------------
# the gc janitor never dies
# ---------------------------------------------------------------------------

class _ExplodingStore(ProvenanceStore):
    def __init__(self, root):
        super().__init__(root)
        self.gc_calls = 0

    def gc(self, **kw):
        self.gc_calls += 1
        raise OSError("disk on fire")


@pytest.mark.usefixtures("inline_pool")
class TestJanitorSurvivesStoreErrors:
    def test_gc_loop_logs_and_continues(self, tmp_path):
        store = _ExplodingStore(tmp_path / "store")
        service = JobService(store, workers=1,
                             socket_path=tmp_path / "serve.sock",
                             gc_every_s=0.02)
        with ServiceThread(service):
            client = _client(tmp_path)
            deadline = time.time() + 30
            while service.stats.gc_errors < 3 and time.time() < deadline:
                time.sleep(0.02)
            # Several cycles failed, each was survived...
            assert service.stats.gc_errors >= 3
            assert store.gc_calls >= 3
            # ...and the service still serves.
            assert client.ping()["ok"]
            assert client.submit(_spec("still-alive")).ok


# ---------------------------------------------------------------------------
# cross-server leases: two services, one store, exactly one execution
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestCrossServerLeases:
    def test_two_servers_execute_once(self, tmp_path):
        """Two services on one store root receive the same spec
        concurrently: the lease must collapse them onto a single
        execution, with the loser serving the winner's stored record."""
        store_root = tmp_path / "store"
        s1 = JobService(ProvenanceStore(store_root), workers=1,
                        socket_path=tmp_path / "a.sock")
        s2 = JobService(ProvenanceStore(store_root), workers=1,
                        socket_path=tmp_path / "b.sock")
        # Long enough (~0.1 s) that the two submissions overlap: a 3 ms
        # job can finish on one server before the other has looked the
        # spec up, which is then a legitimate cache hit, not a lease wait.
        spec = _spec("shared", yields=3000)
        replies = {}

        def ask(name, sock):
            client = ServeClient(socket_path=sock, timeout=120.0)
            replies[name] = client.submit(spec)
            client.close()

        with ServiceThread(s1), ServiceThread(s2):
            t1 = threading.Thread(target=ask,
                                  args=("a", tmp_path / "a.sock"))
            t2 = threading.Thread(target=ask,
                                  args=("b", tmp_path / "b.sock"))
            t1.start(); t2.start()
            t1.join(timeout=120); t2.join(timeout=120)
        assert replies["a"].ok and replies["b"].ok
        # Exactly one of the two services executed; the other waited on
        # the lease and served the winner's record.
        executed = s1.stats.executed + s2.stats.executed
        assert executed == 1
        assert s1.stats.lease_waits + s2.stats.lease_waits >= 1
        ra = dict(replies["a"].record)
        rb = dict(replies["b"].record)
        assert ra == rb                   # byte-identical, created_at too
        # No lease survives the execution.
        assert not list(store_root.rglob("*.lease*"))

    def test_stale_lease_of_dead_server_taken_over(self, tmp_path):
        """A server that died holding a lease must not wedge the job:
        the next server takes its leftover lease file and executes."""
        store_root = tmp_path / "store"
        store = ProvenanceStore(store_root)
        spec = _spec("orphaned")
        service = JobService(ProvenanceStore(store_root), workers=1,
                             socket_path=tmp_path / "serve.sock")
        # The lease file a dead server left behind, which nobody locks.
        from repro.provenance import run_id_for
        from repro.serve.cache import ResultCache

        run_id = ResultCache(store).key(spec)
        path = store._lease_path(run_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"")
        with ServiceThread(service):
            reply = _client(tmp_path).submit(spec)
        assert reply.ok and reply.record is not None
        assert service.stats.lease_takeovers == 1
        assert run_id_for(spec, reply.record["code_version"]) == run_id


# ---------------------------------------------------------------------------
# protocol: new ops and reason taxonomy
# ---------------------------------------------------------------------------

class TestProtocolAdditions:
    def test_new_ops_registered(self):
        for op in ("submit_many", "health", "drain"):
            assert op in protocol.OPS

    def test_shed_reply_marks_retryable(self):
        busy = protocol.shed_reply(protocol.REASON_BUSY, "full")
        assert busy["retryable"] is True and not busy["ok"]
        poison = protocol.shed_reply(protocol.REASON_POISON, "bad")
        assert poison["retryable"] is False

    def test_decode_survives_binary_garbage(self):
        for frame in (b"\x00\xff\x80garbage\n", b'{"op": "submit"',
                      b"[1,2]\n"):
            with pytest.raises(protocol.ProtocolError):
                protocol.decode(frame)

    def test_reasons_are_distinct_and_complete(self):
        assert len(set(protocol.REASONS)) == len(protocol.REASONS)
        assert set(protocol.RETRYABLE_REASONS) < set(protocol.REASONS)

    @pytest.mark.usefixtures("inline_pool")
    def test_frame_garbage_does_not_kill_server(self, tmp_path):
        service = _service(tmp_path)
        with ServiceThread(service):
            s = socketlib.socket(socketlib.AF_UNIX,
                                 socketlib.SOCK_STREAM)
            s.settimeout(30.0)
            s.connect(str(tmp_path / "serve.sock"))
            s.sendall(b"\x00\xff\x80 not json \n")
            reply = s.recv(65536)
            s.close()
            assert b'"ok": false' in reply or b'"ok":false' in reply
            # The server shrugged it off.
            assert _client(tmp_path).ping()["ok"]


class TestUnrecoverableReasonTaxonomy:
    def test_service_reasons_in_errors_module(self):
        from repro.errors import UNRECOVERABLE_REASONS

        for reason in ("poison-job", "deadline-exceeded", "pool-dead"):
            assert reason in UNRECOVERABLE_REASONS


# ---------------------------------------------------------------------------
# chaos campaign: scenario generation is a pure function of (seed, i)
# ---------------------------------------------------------------------------

class TestServeFaultScenarios:
    def test_generation_is_deterministic(self):
        import dataclasses

        from repro.chaos.serve_faults import generate_serve_scenario

        a = [generate_serve_scenario(0, i) for i in range(20)]
        b = [generate_serve_scenario(0, i) for i in range(20)]
        assert ([dataclasses.asdict(s) for s in a]
                == [dataclasses.asdict(s) for s in b])
        # A different seed draws a different plan.
        c = [generate_serve_scenario(1, i) for i in range(20)]
        assert ([dataclasses.asdict(s) for s in a]
                != [dataclasses.asdict(s) for s in c])

    def test_mix_covers_every_kind(self):
        from repro.chaos.serve_faults import (KINDS,
                                              generate_serve_scenario)

        kinds = {generate_serve_scenario(0, i).kind for i in range(50)}
        assert kinds == {k for k, _ in KINDS}
