"""Tests for the Projections-style tracing subsystem (``repro.trace``)."""

import json

import pytest

from repro.charm.node import JobLayout
from repro.program.source import Program
from repro.trace import (
    TraceRecorder,
    chrome_trace,
    dumps_chrome_trace,
    render_timeline,
    utilization_profile,
    validate_chrome_trace,
    write_chrome_trace,
)

from conftest import make_hello, run_job


class TestRecorder:
    def test_span_and_instant_basics(self):
        r = TraceRecorder()
        r.span("work", "exec", 100, 50, pid=1, tid=2, args={"k": 1})
        r.instant("tick", "sched", 175, pid=1, tid=2)
        evs = r.events()
        assert len(evs) == 2 and len(r) == 2
        assert evs[0].ph == "X" and evs[0].end == 150
        assert evs[1].ph == "i" and evs[1].dur == 0
        assert r.categories() == {"exec", "sched"}
        assert r.end_ns() == 175

    def test_negative_duration_clamped(self):
        r = TraceRecorder()
        r.span("w", "exec", 10, -5, pid=0)
        assert r.events()[0].dur == 0

    def test_ring_bound_and_dropped_counter(self):
        r = TraceRecorder(capacity=4)
        for i in range(10):
            r.instant(f"e{i}", "x", i, pid=0)
        assert len(r) == 4
        assert r.dropped == 6
        # oldest events fall out, newest survive
        assert [e.name for e in r.events()] == ["e6", "e7", "e8", "e9"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_disabled_recorder_records_nothing(self):
        r = TraceRecorder()
        r.enabled = False
        r.span("w", "exec", 0, 1, pid=0)
        r.instant("i", "exec", 0, pid=0)
        r.counter("c", 0, pid=0, values={"n": 1})
        assert len(r) == 0 and r.dropped == 0

    def test_spans_filtering(self):
        r = TraceRecorder()
        r.span("a", "exec", 0, 1, pid=0)
        r.span("b", "mig", 1, 1, pid=0)
        r.instant("a", "exec", 2, pid=0)
        assert [e.name for e in r.spans()] == ["a", "b"]
        assert [e.name for e in r.spans(cat="exec")] == ["a"]
        assert [e.name for e in r.spans(name="b")] == ["b"]

    def test_pid_blocks_are_disjoint(self):
        r = TraceRecorder()
        a = r.alloc_pid_block(3)
        b = r.alloc_pid_block(2)
        c = r.alloc_pid_block(1)
        assert a == 0 and b == 3 and c == 5


class TestChromeExport:
    def make_recorder(self):
        r = TraceRecorder()
        r.name_process(0, "pe0")
        r.name_thread(0, 1, "vp1")
        r.span("work", "exec", 1500, 2000, pid=0, tid=1)
        r.instant("evt", "sched", 3000, pid=0, tid=1, args={"x": 2})
        return r

    def test_export_is_valid(self):
        obj = chrome_trace(self.make_recorder())
        assert validate_chrome_trace(obj) == []

    def test_metadata_and_units(self):
        obj = chrome_trace(self.make_recorder())
        evs = obj["traceEvents"]
        names = [(e["name"], e["ph"]) for e in evs]
        assert ("process_name", "M") in names
        assert ("thread_name", "M") in names
        span = next(e for e in evs if e.get("ph") == "X")
        # ns -> us: 1500 ns becomes 1.5 us, 2000 ns stays the exact int 2
        assert span["ts"] == 1.5 and span["dur"] == 2
        inst = next(e for e in evs if e.get("ph") == "i")
        assert inst["s"] == "t" and inst["args"] == {"x": 2}

    def test_dropped_count_exported(self):
        r = TraceRecorder(capacity=1)
        r.instant("a", "x", 0, pid=0)
        r.instant("b", "x", 1, pid=0)
        obj = chrome_trace(r)
        assert obj["otherData"]["droppedEvents"] == 1

    def test_dumps_is_deterministic(self):
        a = dumps_chrome_trace(self.make_recorder())
        b = dumps_chrome_trace(self.make_recorder())
        assert a == b

    def test_write_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.json")
        n = write_chrome_trace(self.make_recorder(), path)
        text = open(path).read()
        assert len(text) == n
        assert validate_chrome_trace(json.loads(text)) == []

    def test_validator_flags_bad_shapes(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []


class TestJobTracing:
    def traced_hello(self, **kw):
        rec = TraceRecorder()
        res = run_job(make_hello(), 4, layout=JobLayout.single(2),
                      trace=rec, **kw)
        return rec, res

    def test_exec_and_ctx_switch_spans(self):
        rec, res = self.traced_hello()
        assert rec.spans(cat="exec"), "rank execution spans missing"
        sw = rec.spans(cat="sched-overhead", name="ctx-switch")
        assert sw and all(s.args["method"] == "pieglobals" for s in sw)
        # the surcharge arg mirrors the Figure 6 per-method extra cost
        assert all("surcharge_ns" in s.args for s in sw)

    def test_startup_loader_and_priv_spans(self):
        rec, _ = self.traced_hello()
        names = {e.name for e in rec.events()}
        assert "ampi-init" in names
        assert any(n.startswith("dlopen:") or n.startswith("dlmopen:")
                   for n in names)
        assert "setup:pieglobals" in names
        assert "pie:pointer-scan" in names
        assert "pie:image-copy" in names

    @pytest.mark.parametrize("method", ["none", "tlsglobals", "pipglobals",
                                        "fsglobals", "pieglobals"])
    def test_loader_spans_lie_inside_their_setup_span(self, method):
        """The loader runs on the process's start-up clock: what it did
        during privatization set-up is stamped when it happened, not on
        a private clock that started at zero."""
        rec, _ = self.traced_hello(method=method)
        setup = {s.pid: s for s in rec.spans(name=f"setup:{method}")}
        loads = rec.spans(cat="loader")
        assert setup and loads
        assert {e.name.split(":")[0] for e in loads} <= {
            "dlopen", "dlmopen", "ctors"}
        for e in loads:
            assert setup[e.pid].ts <= e.ts and e.end <= setup[e.pid].end, e

    def test_collective_spans(self):
        rec, _ = self.traced_hello()
        colls = rec.spans(cat="coll")
        assert len(colls) >= 4   # one barrier phase per rank
        assert all(c.name == "coll:barrier" for c in colls)

    def test_result_carries_trace_handle(self):
        rec, res = self.traced_hello()
        assert res.trace is rec

    def test_untraced_result_has_no_trace(self):
        res = run_job(make_hello(), 2)
        assert res.trace is None

    def test_tracing_does_not_perturb_simulated_time(self):
        _, traced = self.traced_hello()
        plain = run_job(make_hello(), 4, layout=JobLayout.single(2))
        assert traced.makespan_ns == plain.makespan_ns
        assert traced.startup_ns == plain.startup_ns
        assert traced.rank_cpu_ns == plain.rank_cpu_ns

    def test_exported_job_trace_is_valid(self):
        rec, _ = self.traced_hello()
        assert validate_chrome_trace(chrome_trace(rec)) == []

    def test_message_events(self):
        p = Program("p2p")
        p.add_global("x", 0)

        @p.function()
        def main(ctx):
            if ctx.mpi.rank() == 0:
                ctx.mpi.send([1, 2, 3], dest=1, tag=7)
            else:
                ctx.g.x = ctx.mpi.recv(source=0, tag=7)
            ctx.mpi.barrier()
            return ctx.g.x

        rec = TraceRecorder()
        run_job(p.build(), 2, layout=JobLayout.single(2), trace=rec)
        sends = [e for e in rec.events()
                 if e.name == "send" and e.cat == "msg"]
        assert sends and sends[0].args["dst_vp"] == 1
        assert sends[0].args["tag"] == 7

    def test_migration_span(self):
        p = Program("mover")
        p.add_global("x", 0)

        @p.function()
        def main(ctx):
            if ctx.mpi.rank() == 0:
                ctx.malloc(4096, data=list(range(8)), tag="state")
                ctx.mpi.migrate_to(1)
            ctx.mpi.barrier()
            return ctx.mpi.my_pe()

        rec = TraceRecorder()
        # two OS processes, one PE each: a real cross-process Isomalloc move
        res = run_job(p.build(), 2, layout=JobLayout(1, 2, 1), trace=rec)
        migs = rec.spans(cat="mig")
        assert len(migs) == 1
        assert migs[0].args["src_pe"] == 0 and migs[0].args["dst_pe"] == 1
        assert migs[0].args["cross_process"] is True
        assert migs[0].args["nbytes"] > 0
        assert res.exit_values[0] == 1

    def test_shared_recorder_across_methods(self):
        """One recorder spanning several jobs (the `repro trace fig6`
        shape) keeps per-method ctx-switch labels distinct."""
        rec = TraceRecorder()
        for method in ("none", "tlsglobals", "pieglobals"):
            run_job(make_hello(), 2, method=method, trace=rec)
        labels = {s.args["method"]
                  for s in rec.spans(name="ctx-switch")}
        assert labels >= {"none", "tlsglobals", "pieglobals"}


class TestTimeline:
    def test_render_and_utilization(self):
        rec = TraceRecorder()
        run_job(make_hello(), 4, layout=JobLayout.single(2), trace=rec)
        text = render_timeline(rec)
        assert "timeline" in text and "utilization" in text
        assert "pe0" in text and "pe1" in text
        prof = utilization_profile(rec)
        assert len(prof) == 2
        for u in prof:
            assert 0 <= u.busy_ns and 0 <= u.idle_ns <= u.span_ns
            total = u.busy_ns + u.overhead_ns + u.idle_ns
            assert total == u.span_ns

    def test_empty_recorder_renders(self):
        assert "no execution spans" in render_timeline(TraceRecorder())


class TestResultExtensions:
    def test_summary_mentions_app_time_and_counters(self):
        res = run_job(make_hello(), 2)
        s = res.summary()
        assert "app=" in s
        assert "ULT_CTX_SWITCH" in s or "GLOBAL_WRITE" in s

    def test_to_dict_is_json_able(self):
        rec = TraceRecorder()
        res = run_job(make_hello(), 4, layout=JobLayout.single(2),
                      trace=rec)
        d = res.to_dict()
        text = json.dumps(d, sort_keys=True)
        back = json.loads(text)
        assert back["method"] == "pieglobals"
        assert back["nvp"] == 4
        assert back["makespan_ns"] == res.makespan_ns
        assert back["exit_values"]["0"] == 0
