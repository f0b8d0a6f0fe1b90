"""Outside-in span tracer for ``bench.py trace``.

Everything here lives in the benchmark's own files: layer entry points
of ``repro`` are wrapped at class (or module-attribute) level when
:meth:`Tracer.install` is called and restored by :meth:`Tracer.uninstall`;
no file under ``src/repro`` knows the tracer exists.

A span is ``(id, parent id, name, start ns, end ns, thread, job)``.
Spans nest on a per-OS-thread stack.  That is valid for the simulator
because baton-passing ULTs leave exactly one thread runnable, and for
the serve edge because every wrapped call there is synchronous (no
``await`` inside a span).  A span's *self time* is its duration minus
the part its child spans cover; per span name the tracer accumulates
self time, inclusive time and call count, and :meth:`Tracer.snapshot`
returns and resets those totals (the bench takes one snapshot per block).
Raw spans are kept only while :attr:`Tracer.keep` is true (one job per
run) and written out as Chrome trace-event JSON at exit.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

_now = time.perf_counter_ns

#: marks a function as one of our wrappers (leak detection)
_MARK = "__hostbench_wrapper__"

#: cap on raw spans retained for the Chrome trace of one run
MAX_RAW_SPANS = 40_000

#: the request a serve-edge span belongs to.  Set by client threads
#: before each submit and, on the server, by the ``protocol.decode``
#: wrapper from the decoded spec's argv salt — each connection handler
#: is its own asyncio task (own context), and tasks it creates inherit it.
_job_var: contextvars.ContextVar[Any] = contextvars.ContextVar(
    "hostbench_job", default=None)

MPI_P2P = ("send", "recv", "sendrecv", "isend", "irecv", "wait", "test",
           "waitall", "waitany", "testall", "probe", "iprobe")
MPI_COLL = ("barrier", "bcast", "reduce", "allreduce", "gather",
            "allgather", "scatter", "alltoall", "scan", "exscan",
            "reduce_scatter", "comm_dup", "comm_split")
MPI_LB = ("migrate", "migrate_to", "resize")
MPI_MISC = ("init", "initialized", "finalize", "rank", "size", "yield_",
            "my_pe", "num_pes", "wtime", "abort", "op_create", "checkpoint")


class _ThreadState:
    """One OS thread's span stack and totals (merged at snapshot)."""

    __slots__ = ("tid", "name", "stack", "totals", "reply_bytes", "client")

    def __init__(self, tid: int, name: str):
        self.tid = tid
        self.name = name
        #: open spans: [name, start_ns, child_ns, span_id]
        self.stack: list[list] = []
        #: span name -> [self_ns, inclusive_ns, calls]
        self.totals: dict[str, list[int]] = {}
        self.reply_bytes = 0
        self.client = False


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []
        #: job id for spans on threads with no request context (sim jobs)
        self.job: Any = None
        self.keep = False
        self.raw: list[tuple] = []
        #: closed (name, ns) intervals that are not stack spans
        self._intervals: list[tuple[str, int]] = []

    # -- per-thread state ---------------------------------------------------

    def state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            t = threading.current_thread()
            st = self._local.st = _ThreadState(len(self._states), t.name)
            self._states.append(st)
            return st

    def mark_client(self) -> None:
        """Declare the calling thread a load-generating client (its
        ``protocol.decode`` calls are replies; their bytes are counted)."""
        self.state().client = True

    @staticmethod
    def set_request(job: Any) -> None:
        _job_var.set(job)

    # -- spans --------------------------------------------------------------

    def _open(self, st: _ThreadState, name: str) -> list:
        frame = [name, 0, 0, next(self._ids)]
        st.stack.append(frame)
        frame[1] = _now()
        return frame

    def _close(self, st: _ThreadState, frame: list) -> None:
        end = _now()
        stack = st.stack
        stack.pop()
        name, start, child, sid = frame
        dur = end - start
        if stack:
            stack[-1][2] += dur
        tot = st.totals.get(name)
        if tot is None:
            st.totals[name] = [dur - child, dur, 1]
        else:
            tot[0] += dur - child
            tot[1] += dur
            tot[2] += 1
        if self.keep and len(self.raw) < MAX_RAW_SPANS:
            self.raw.append((sid, stack[-1][3] if stack else 0, name, start,
                             end, st.tid, _job_var.get() or self.job))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the bench driver around a call into a layer."""
        st = self.state()
        frame = self._open(st, name)
        try:
            yield
        finally:
            self._close(st, frame)

    def interval(self, name: str) -> Callable[[], None]:
        """Start a non-stack interval (spans an ``await``); the returned
        closer may be called from any thread."""
        start = _now()
        sid = next(self._ids)
        tid = self.state().tid
        job = _job_var.get() or self.job

        def close() -> None:
            end = _now()
            self._intervals.append((name, end - start))
            if self.keep and len(self.raw) < MAX_RAW_SPANS:
                self.raw.append((sid, 0, name, start, end, tid, job))

        return close

    def snapshot(self) -> dict[str, Any]:
        """Merge and reset every thread's totals.  Call only while the
        traced program is quiescent (between blocks)."""
        merged: dict[str, list[int]] = {}
        reply_bytes = 0
        for st in list(self._states):
            for name, tot in st.totals.items():
                m = merged.setdefault(name, [0, 0, 0])
                m[0] += tot[0]
                m[1] += tot[1]
                m[2] += tot[2]
            st.totals = {}
            reply_bytes += st.reply_bytes
            st.reply_bytes = 0
        intervals, self._intervals = self._intervals, []
        for name, ns in intervals:
            m = merged.setdefault(name, [0, 0, 0])
            m[0] += ns
            m[1] += ns
            m[2] += 1
        return {"totals": merged, "reply_bytes": reply_bytes}

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, orig: Callable, name: str) -> Callable:
        state, open_, close = self.state, self._open, self._close

        def wrapper(*args: Any, **kw: Any) -> Any:
            st = state()
            frame = open_(st, name)
            try:
                return orig(*args, **kw)
            finally:
                close(st, frame)

        setattr(wrapper, _MARK, True)
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]
               ) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def wrap(self, owner: Any, attrs: tuple[str, ...] | str, name: str) -> None:
        for attr in ((attrs,) if isinstance(attrs, str) else attrs):
            self._patch(owner, attr, lambda f: self._wrapper(f, name))

    @property
    def installed(self) -> int:
        return len(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def install(self, *, serve: bool) -> None:
        """Wrap the public entry points of each layer (import-time free:
        called only by ``bench.py trace`` after set-up)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in simulator_targets():
            self.wrap(owner, attr, name)
        if serve:
            self._install_serve()

    def _install_serve(self) -> None:
        from repro.serve import protocol
        from repro.serve.pool import WorkerPool

        for owner, attr, name in serve_targets():
            self.wrap(owner, attr, name)
        state = self.state

        def make_decode(orig: Callable) -> Callable:
            timed = self._wrapper(orig, "serve.decode")

            def decode(line: bytes) -> dict:
                msg = timed(line)
                st = state()
                if st.client:
                    st.reply_bytes += len(line)
                else:
                    spec = msg.get("spec")
                    if isinstance(spec, dict) and spec.get("argv"):
                        _job_var.set(spec["argv"][0])
                return msg
            setattr(decode, _MARK, True)
            return decode

        def make_submit(orig: Callable) -> Callable:
            interval = self.interval

            def submit(pool: Any, *args: Any, **kw: Any) -> Any:
                done = interval("serve.pool")
                fut = orig(pool, *args, **kw)
                fut.add_done_callback(lambda _f: done())
                return fut
            setattr(submit, _MARK, True)
            return submit

        self._patch(protocol, "decode", make_decode)
        self._patch(WorkerPool, "submit", make_submit)

    # -- output -------------------------------------------------------------

    def write_chrome_trace(self, path: str, label: str) -> None:
        used = {s[5] for s in self.raw}
        names = {st.tid: st.name for st in self._states if st.tid in used}
        base = min((s[3] for s in self.raw), default=0)
        events: list[dict[str, Any]] = [
            {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
             "args": {"name": tname}} for tid, tname in sorted(names.items())
        ]
        events.append({"ph": "M", "pid": 1, "name": "process_name",
                       "args": {"name": label}})
        for sid, parent, name, start, end, tid, job in self.raw:
            events.append({
                "ph": "X", "pid": 1, "tid": tid, "name": name,
                "cat": name.split(".", 1)[0],
                "ts": (start - base) / 1000.0, "dur": (end - start) / 1000.0,
                "args": {"id": sid, "parent": parent, "job": job},
            })
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def simulator_targets() -> list[tuple[Any, Any, str]]:
    """(owner, attribute(s), span name) for every simulator layer."""
    from repro.ampi.api import MpiHandle
    from repro.charm.migration import MigrationEngine
    from repro.charm.scheduler import JobScheduler
    from repro.elf.loader import DynamicLoader
    from repro.mem.isomalloc import Isomalloc
    from repro.net.network import Network
    from repro.net.reliable import ReliableTransport
    from repro.privatization.base import PrivatizationMethod
    from repro.program.context import GlobalsView
    from repro.provenance import store as store_mod
    from repro.threads.runqueue import RunQueue
    from repro.threads.ult import UserLevelThread

    def subclasses(cls: type) -> Iterator[type]:
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    targets: list[tuple[Any, Any, str]] = [
        (JobScheduler, "run", "sched.run"),
        (DynamicLoader, ("dlopen", "dlmopen"), "elf.loader"),
        (Isomalloc, "alloc", "mem.alloc"),
        (UserLevelThread, ("__init__", "start"), "threads.create"),
        (UserLevelThread, "switch_in", "threads.switch_in"),
        (UserLevelThread, "yield_", "threads.yield"),
        (UserLevelThread, "_main", "threads.body"),
        (RunQueue, ("push", "pop"), "runqueue"),
        (MpiHandle, MPI_P2P, "ampi.p2p"),
        (MpiHandle, MPI_COLL, "ampi.coll"),
        (MpiHandle, MPI_MISC, "ampi.misc"),
        (MpiHandle, MPI_LB, "lb"),
        (MigrationEngine, "migrate", "lb"),
        (Network, ("transfer_ns", "migration_ns"), "net"),
        (ReliableTransport, "send", "net"),
        (GlobalsView, ("read", "write", "charge_bulk"), "program.globals"),
        # ProvenanceStore.put calls the name it imported, so patch it there
        (store_mod, "compress_timeline", "trace.compress"),
    ]
    for cls in subclasses(PrivatizationMethod):
        if "setup_process" in cls.__dict__:
            targets.append((cls, "setup_process", "privatization.setup"))
    return targets


def serve_targets() -> list[tuple[Any, Any, str]]:
    """Plainly wrapped serve-edge calls (``protocol.decode`` and
    ``WorkerPool.submit`` get wrappers of their own)."""
    from repro.harness.jobspec import JobSpec
    from repro.provenance.store import ProvenanceStore, RunLease
    from repro.serve import protocol
    from repro.serve.cache import ResultCache

    return [
        (protocol, "encode", "serve.encode"),
        (JobSpec, "from_dict", "serve.spec"),
        (ResultCache, "key", "serve.spec"),
        (ResultCache, "get", "serve.cache_get"),
        (ResultCache, "put", "serve.put"),
        # busy time of the lease file operations, not acquire->release
        (ProvenanceStore, "acquire_lease", "serve.lease"),
        (RunLease, ("renew", "release"), "serve.lease"),
    ]


def leaked_wrappers() -> list[str]:
    """Wrapped targets still in place (must be empty outside a traced
    pass)."""
    from repro.serve import protocol
    from repro.serve.pool import WorkerPool

    special = [(protocol, "decode", ""), (WorkerPool, "submit", "")]
    leaked = []
    for owner, attrs, _ in simulator_targets() + serve_targets() + special:
        for attr in ((attrs,) if isinstance(attrs, str) else attrs):
            fn = owner.__dict__[attr]
            fn = getattr(fn, "__func__", fn)
            if getattr(fn, _MARK, False):
                leaked.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return leaked
