"""End-to-end tests for the ``repro serve`` job service.

Thread-mode workers keep most tests in-process and fast; one test each
covers real worker processes and the TCP transport.  The cache contract
under test: a warm submit returns the byte-identical stored record a
fresh execution would produce, and N identical concurrent submissions
execute exactly once (single-flight).
"""

import asyncio
import concurrent.futures
import json
import time

import pytest

from repro.harness.jobspec import JobSpec, code_version, run_spec_job
from repro.provenance import ProvenanceStore, RunRecord, run_id_for
from repro.serve import (
    CACHE_INFLIGHT,
    CACHE_MISS,
    JobService,
    ServeClient,
    ServeConnectionError,
    ServiceThread,
)
from repro.serve import protocol
from test_one_road import BAD_SPECS


def _spec(name: str, nvp: int = 2, yields: int = 20) -> JobSpec:
    return JobSpec(app="pingpong", nvp=nvp,
                   app_config={"yields_per_rank": yields, "name": name},
                   method="none", machine="generic-linux",
                   layout=(1, 1, 1), slot_size=1 << 24)


@pytest.fixture
def serve(tmp_path):
    """(service, client) over a thread-mode worker on a Unix socket."""
    service = JobService(ProvenanceStore(tmp_path / "store"),
                         workers=1, worker_mode="thread",
                         socket_path=tmp_path / "serve.sock")
    with ServiceThread(service):
        yield service, ServeClient(socket_path=tmp_path / "serve.sock",
                                   timeout=120.0)


class TestProtocol:
    def test_encode_decode_round_trip(self):
        msg = {"op": "submit", "spec": {"app": "hello"}, "wait": True}
        assert protocol.decode(protocol.encode(msg)) == msg

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"{nope")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]\n")

    def test_error_reply_shape(self):
        reply = protocol.error_reply("boom", run_id="ab")
        assert reply == {"ok": False, "error": "boom", "run_id": "ab"}


class TestServiceJobsFireNoHooks:
    def test_global_observer_sees_run_spec_but_no_service_job(self, serve):
        """What ``--provenance`` installs is a process-global result
        hook; a job the service executes in the same process (thread
        workers, or ``execute_spec`` called directly) must never reach
        it — a tenant's job is recorded by the service, once — while a
        ``run_spec_job`` in that process still does."""
        from repro.harness import jobspec as js
        from repro.serve.pool import execute_spec

        _, client = serve
        seen = []

        def observer(spec, job, result):
            seen.append(spec.app_config["name"])

        js.add_result_hook(observer)
        try:
            assert client.submit(_spec("tenant")).ok
            assert execute_spec(_spec("direct").to_dict())["error"] is None
            run_spec_job(_spec("mine"))
        finally:
            js.remove_result_hook(observer)
        assert seen == ["mine"]


class TestSubmit:
    def test_miss_then_hit_byte_identical(self, serve):
        service, client = serve
        spec = _spec("miss-hit")
        first = client.submit(spec)
        assert first.ok and first.cache == CACHE_MISS
        assert first.run_id == run_id_for(spec, code_version())
        second = client.submit(spec)
        assert second.ok and second.hit
        assert json.dumps(first.record, sort_keys=True) == \
            json.dumps(second.record, sort_keys=True)
        assert service.stats.executed == 1
        assert service.stats.hits == 1

    def test_hit_equals_fresh_local_run(self, serve):
        _, client = serve
        spec = _spec("vs-fresh")
        served = client.submit(spec).run_record()
        job, result = run_spec_job(spec, strict=False)
        fresh = RunRecord.from_run(spec, job, result)
        assert served.run_id == fresh.run_id
        assert served.timeline_sha256 == fresh.timeline_sha256
        assert served.counters == fresh.counters
        assert served.makespan_ns == fresh.makespan_ns
        assert served.events == fresh.events
        assert served.exit_values == fresh.exit_values

    def test_single_flight_executes_once(self, serve):
        service, client = serve
        spec = _spec("burst", yields=300)
        n = 5
        with concurrent.futures.ThreadPoolExecutor(n) as ex:
            replies = list(ex.map(lambda _: client.submit(spec), range(n)))
        assert all(r.ok for r in replies)
        assert service.stats.executed == 1
        payloads = {json.dumps(r.record, sort_keys=True) for r in replies}
        assert len(payloads) == 1
        assert sum(1 for r in replies if r.cache == CACHE_MISS) <= 1

    def test_distinct_specs_do_not_coalesce(self, serve):
        service, client = serve
        specs = [_spec(f"distinct-{i}") for i in range(3)]
        replies = [client.submit(s) for s in specs]
        assert {r.run_id for r in replies} == {
            run_id_for(s, code_version()) for s in specs}
        assert service.stats.executed == 3
        assert service.stats.coalesced == 0

    def test_result_lands_in_the_store(self, serve):
        service, client = serve
        reply = client.submit(_spec("persisted"))
        record = service.store.get(reply.run_id, touch=False)
        assert record.to_dict() == reply.record
        assert service.store.load_timeline(record) is not None


class TestAsyncSubmitAndStatus:
    def test_wait_false_then_await(self, serve):
        _, client = serve
        spec = _spec("fire-forget", yields=200)
        ticket = client.submit(spec, wait=False)
        assert ticket.ok and ticket.cache == CACHE_INFLIGHT
        done = client.await_result(ticket.run_id)
        assert done.ok and done.record is not None
        assert client.status(ticket.run_id) == "done"

    def test_status_unknown(self, serve):
        _, client = serve
        assert client.status("ff" * 32) == "unknown"

    def test_await_unknown_is_error(self, serve):
        _, client = serve
        reply = client.await_result("ee" * 32)
        assert not reply.ok and "unknown run id" in reply.error


class TestErrors:
    def test_unknown_field_is_invalid(self, serve):
        service, client = serve
        reply = client.submit({"app": "pingpong", "nvp": 2,
                               "bogus_field": 1})
        assert not reply.ok and "bad spec" in reply.error
        assert service.stats.invalid == 1

    def test_unknown_app_rejected_at_the_edge(self, serve):
        service, client = serve
        reply = client.submit({"app": "no-such-app", "nvp": 2})
        assert not reply.ok and "unknown app" in reply.error
        assert service.stats.executed == 0

    @pytest.mark.parametrize("bad", BAD_SPECS.values(), ids=list(BAD_SPECS))
    def test_unknown_name_is_invalid_before_it_is_keyed(self, serve, bad):
        """A spec that can never run is refused where the app name is
        checked: not keyed, not admitted, not leased, not executed."""
        service, client = serve
        keyed = []
        key = service.cache.key
        service.cache.key = lambda spec: keyed.append(spec) or key(spec)
        reply = client.submit({"app": "hello", "nvp": 2, **bad})
        assert not reply.ok and "bad spec" in reply.error
        stats = service.stats
        assert (stats.invalid, stats.executed, stats.errors) == (1, 0, 0)
        assert not keyed and service.inflight == 0
        assert not list(service.cache.store.root.rglob("*.lease"))

    @pytest.mark.parametrize("bad", [{"nvp": 2.0}, {"optimize": "2"},
                                     {"nvp": True}], ids=str)
    def test_a_mistyped_scalar_is_invalid_not_an_error(self, serve, bad):
        """Refused where the names are checked, with the spec's own
        wording: not leased, not run into a worker's ``TypeError``, and
        ``nvp=True`` not filed as a duplicate of ``nvp=1``."""
        service, client = serve
        (name, value), = bad.items()
        spec_d = {**JobSpec(app="hello", nvp=2).to_dict(), **bad}
        for _ in range(2):
            reply = client.submit(spec_d)
            assert not reply.ok
            assert reply.error == (f"bad spec: {name} must be int, got "
                                   f"{type(value).__name__} {value!r}")
        stats = client.stats()
        assert (stats["invalid"], stats["executed"], stats["errors"],
                stats["records"]) == (2, 0, 0, 0)

    def test_connection_error_is_typed(self, tmp_path):
        client = ServeClient(socket_path=tmp_path / "nowhere.sock")
        with pytest.raises(ServeConnectionError):
            client.ping()


class TestOps:
    def test_ping_and_stats(self, serve):
        _, client = serve
        assert client.ping()["code_version"] == code_version()
        client.submit(_spec("stats"))
        client.submit(_spec("stats"))
        stats = client.stats()
        assert stats["submissions"] == 2
        assert stats["executed"] == 1 and stats["hits"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["worker_mode"] == "thread"
        assert stats["records"] == 1

    def test_stats_op_carries_the_service_hit_count(self, serve):
        """A miss, a hit and two ``await`` hits: one hit/miss pair,
        counted per reply and reported once."""
        service, client = serve
        spec = _spec("counted")
        assert client.submit(spec).cache == CACHE_MISS
        run_id = client.submit(spec).run_id
        for _ in range(2):
            assert client.await_result(run_id).hit
        stats = client.stats()
        assert (stats["hits"], stats["misses"], stats["hit_rate"]) == \
            (3, 1, 0.75)
        assert (service.stats.hits, service.stats.misses) == (3, 1)

    def test_lease_polls_count_no_misses(self, tmp_path):
        """A submission that waits out a peer's lease and is answered
        from the peer's record is one miss, as its reply says."""
        service = JobService(ProvenanceStore(tmp_path / "store"),
                             socket_path=tmp_path / "serve.sock",
                             lease_poll_s=0.05)
        spec = _spec("leased")
        job, result = run_spec_job(spec, strict=False)
        record = RunRecord.from_run(spec, job, result)

        async def wait_out_a_peer():
            peer = service.store.acquire_lease(record.run_id)
            submitted = asyncio.ensure_future(service.submit(spec.to_dict()))
            await asyncio.sleep(0.5)
            service.store.put(record)
            peer.release()
            return (await submitted,
                    await service._dispatch({"op": protocol.OP_STATS}))

        reply, stats = asyncio.run(wait_out_a_peer())
        assert reply["ok"] and reply["cache"] == CACHE_MISS
        assert reply["record"] == record.to_dict()
        assert service.stats.lease_waits == 1 and service.stats.executed == 0
        assert (stats["stats"]["hits"], stats["stats"]["misses"],
                stats["stats"]["hit_rate"]) == (0, 1, 0.0)

    def test_unknown_op(self, serve):
        _, client = serve
        reply = client._request({"op": "frobnicate"})
        assert reply["ok"] is False
        assert "unknown op" in reply["error"]

    def test_shutdown_op_stops_the_service(self, tmp_path):
        service = JobService(ProvenanceStore(tmp_path / "store"),
                             workers=1, worker_mode="thread",
                             socket_path=tmp_path / "serve.sock")
        st = ServiceThread(service).start()
        client = ServeClient(socket_path=tmp_path / "serve.sock",
                             timeout=30.0)
        assert client.shutdown()["ok"]
        st._thread.join(timeout=30.0)
        assert not st._thread.is_alive()
        st.stop()                      # idempotent on a dead thread


class TestTransportsAndPool:
    def test_tcp_transport(self, tmp_path):
        service = JobService(ProvenanceStore(tmp_path / "store"),
                             workers=1, worker_mode="thread",
                             host="127.0.0.1", port=0)
        with ServiceThread(service):
            client = ServeClient(host="127.0.0.1", port=service.port,
                                 timeout=120.0)
            reply = client.submit(_spec("over-tcp"))
            assert reply.ok and reply.cache == CACHE_MISS
            assert client.submit(_spec("over-tcp")).hit

    def test_process_workers(self, tmp_path):
        service = JobService(ProvenanceStore(tmp_path / "store"),
                             workers=2, worker_mode="process",
                             socket_path=tmp_path / "serve.sock")
        with ServiceThread(service):
            client = ServeClient(socket_path=tmp_path / "serve.sock",
                                 timeout=120.0)
            spec = _spec("in-a-subprocess")
            first = client.submit(spec)
            assert first.ok, first.error
            assert first.cache == CACHE_MISS
            second = client.submit(spec)
            assert second.ok and second.hit
            assert json.dumps(first.record, sort_keys=True) == \
                json.dumps(second.record, sort_keys=True)

    def test_gc_janitor_runs_during_service(self, tmp_path):
        service = JobService(ProvenanceStore(tmp_path / "store"),
                             workers=1, worker_mode="thread",
                             socket_path=tmp_path / "serve.sock",
                             gc_every_s=0.02, gc_max_age_s=7 * 86400.0)
        with ServiceThread(service):
            client = ServeClient(socket_path=tmp_path / "serve.sock",
                                 timeout=120.0)
            for i in range(3):
                assert client.submit(_spec(f"janitored-{i}")).ok
            deadline = time.time() + 10.0
            while service.stats.gc_cycles < 1 and time.time() < deadline:
                time.sleep(0.01)
            stats = client.stats()
        assert service.stats.gc_cycles >= 1
        assert service.stats.gc_errors == 0
        assert stats["records"] == 3       # nothing in-flight evicted
