#!/usr/bin/env python3
"""The host-time benchmark: where do the *host* seconds go?

    python benchmarks/host/bench.py run        # 7 workloads, end-to-end
    python benchmarks/host/bench.py trace      # 7 workloads, per-layer
    python benchmarks/host/bench.py compare A B
    python benchmarks/host/bench.py selfcheck [--quick]

``run``/``trace`` with ``--workload NAME`` measure one workload in this
process and print one JSON object as the last line of stdout (the form
``BENCHMARK.json`` names); without it they launch one fresh process per
workload.  See ``README.md`` beside this file for the definitions.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()       # set-up time counts from here

import atexit

# Registered before anything imports multiprocessing, so it runs after
# multiprocessing's own exit handler (atexit is LIFO): the last thing
# this process does is end and reap every process it started.
atexit.register(lambda: reap_descendants())

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
WORK = HERE / ".work"

#: set-up is timed this many times per run (this process + fresh
#: children that only set up) and the median reported
SETUP_SAMPLES = 3
#: the fixed piece of work timed between blocks (about 18 ms on the
#: sandbox, half each): steps of a dependent pseudo-random walk over a
#: 16 MiB buffer, then one-byte round trips through a pipe
CALIB_WALK = 40_000
CALIB_PIPE = 12_000
#: a block's ``calib_ms`` is the mean of the calibrations before and after
#: it, each repeated for this share of the block's time; a set-up's is the
#: mean of ``SETUP_CALIBS`` right after it
CALIB_SHARE = 0.05
SETUP_CALIBS = 3
MAX_BLOCKS = 400

_now = time.perf_counter


def adopt_orphans() -> None:
    """Become the reaper of every descendant (``PR_SET_CHILD_SUBREAPER``)
    and turn SIGTERM into a normal exit.  A process whose parent dies —
    multiprocessing's resource tracker is one: it lives until its parent
    is gone — is then re-parented to this process rather than to init,
    so ``reap_descendants`` can wait for it."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass    # orphans go to init; direct children are still reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


def _descendants() -> list[int]:
    """Live and zombie descendants of this process, parents first."""
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            kids.setdefault(ppid, []).append(int(entry))
    out, frontier = [], [os.getpid()]
    while frontier:
        frontier = [k for p in frontier for k in kids.get(p, [])]
        out += frontier
    return out


def reap_descendants(grace_s: float = 2.0) -> None:
    """No process this one started, directly or not, outlives it: let
    the resource tracker end (it does once its pipe closes), give the
    rest ``grace_s`` to end on SIGTERM, kill what is left, wait for all."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except Exception:
            pass
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in _descendants():
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = _now() + grace_s
        while True:
            try:
                # after SIGKILL, block: nothing survives it
                flags = os.WNOHANG if sig == signal.SIGTERM else 0
                if os.waitpid(-1, flags)[0] == 0:
                    if _now() > deadline:
                        break
                    time.sleep(0.01)
            except ChildProcessError:
                return
            except OSError:
                break


def pin() -> tuple[set[int], int]:
    """Pin this process (and everything it spawns) to the lowest allowed
    CPU.  Baton-passing ULTs keep exactly one thread runnable; unpinned,
    the kernel puts the two sides of a handoff on different cores at
    random and the same job swings 3-4x between launches."""
    allowed = set(os.sched_getaffinity(0))
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    # the benchmark fixes its own configuration
    for var in ("REPRO_ULT_BACKEND", "REPRO_PROVENANCE"):
        os.environ.pop(var, None)
    return allowed, cpu


def import_program() -> float:
    """Put ``src`` on the path, import the program, and time a cold
    ``code_version()``.  Fails (non-zero exit, no result line) when the
    program is not there."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.harness.jobspec import code_version
    except ImportError as e:
        raise SystemExit(f"bench: cannot import the program from "
                         f"{ROOT / 'src'}: {e}")
    t0 = _now()
    code_version()
    return (_now() - t0) * 1e3


_calib: tuple[bytes, int, int] | None = None


def calibrate(reps: int = 1) -> float:
    """How fast the host is right now: mean ms of a fixed piece of work
    that, like the workloads, interprets bytecode, misses caches and
    crosses into the kernel.  The mean, not the fastest: a job sees the
    host's mix of fast and slow moments, and so must the number it is
    scaled by."""
    global _calib
    if _calib is None:      # made here, outside every timed window
        _calib = (bytes(range(256)) * (1 << 16), *os.pipe())
    buf, r, w = _calib
    mask = len(buf) - 1
    t0 = _now()
    for _ in range(reps):
        idx = x = 1
        for _ in range(CALIB_WALK):
            idx = (idx * 1103515245 + 12345) & mask
            x += buf[idx]
        for _ in range(CALIB_PIPE):
            os.write(w, b"x")
            os.read(r, 1)
    return (_now() - t0) * 1e3 / reps


def make_workload(name: str, seed: int, quick: bool):
    from workloads import WORKLOADS

    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # tempfile users (multiprocessing) stay inside the checkout too
    os.environ["TMPDIR"] = str(workdir)
    return WORKLOADS[name](seed, workdir, quick)


def cpu_ms(pids: list[int]) -> float:
    """CPU time of this process, its reaped children and live ``pids``."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += (ru.ru_utime + ru.ru_stime) * 1e3
    tick = os.sysconf("SC_CLK_TCK")
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
        except OSError:
            continue
        utime, stime = fields.split()[11:13]
        total += (int(utime) + int(stime)) * 1e3 / tick
    return total


class GcWatch:
    """``gc.callbacks`` hook: collector pause time inside timed jobs."""

    def __init__(self) -> None:
        self.muted = False
        self.pause_ns = 0
        self.gen2 = 0
        self._t = 0

    def __call__(self, phase: str, info: dict) -> None:
        if self.muted:
            return
        if phase == "start":
            self._t = time.perf_counter_ns()
        else:
            self.pause_ns += time.perf_counter_ns() - self._t
            self.gen2 += info["generation"] == 2

    def take(self) -> tuple[int, int]:
        out = self.pause_ns, self.gen2
        self.pause_ns = self.gen2 = 0
        return out


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------

def setup_only(args: argparse.Namespace) -> int:
    """Child mode: set up, report how long it took, tear down."""
    pin()
    import_program()
    wl = make_workload(args.workload, args.seed, args.quick)
    wl.setup()
    sample = setup_sample()
    wl.teardown()
    shutil.rmtree(wl.workdir, ignore_errors=True)
    print(json.dumps(sample))
    return 0


def setup_sample() -> dict[str, float]:
    """Called when set-up is done: how long it took, and the host's speed
    right after it."""
    wall_s = _now() - _T0
    return {"wall_s": wall_s, "calib_ms": calibrate(SETUP_CALIBS)}


def sample_setup(args: argparse.Namespace) -> list[dict[str, float]]:
    """Set-up samples of fresh children that only set up (none when quick)."""
    out = []
    cmd = [sys.executable, str(HERE / "bench.py"), "_setup", "--workload",
           args.workload, "--seed", str(args.seed)]
    for _ in range(0 if args.quick else SETUP_SAMPLES - 1):
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if p.returncode != 0:
            raise SystemExit(f"bench: set-up child failed:\n{p.stderr}")
        out.append(json.loads(p.stdout.splitlines()[-1]))
    return out


def run_blocks(wl: Any, budget_s: float, least: int, quick: bool,
               tracer: Any = None, before_block: Any = None,
               after_block: Any = None) -> list[dict]:
    """Whole blocks until ``budget_s`` is measured (at least ``least``),
    stopping at the block boundary closest to the budget.  The host's
    speed is timed between blocks, outside ``before_block`` ..
    ``after_block``."""
    import report

    out: list[dict] = []
    t0 = _now()
    # no calibration before the first block: with no block before it to
    # empty the caches it reads a fifth faster than the ones in between
    calib = None
    while len(out) < MAX_BLOCKS:
        if before_block is not None:
            before_block()
        b = wl.block(tracer)
        if after_block is not None:
            after_block(b)
        # for about CALIB_SHARE of the time the block took: a long block
        # averages over the host's moods and so must what it is scaled by
        after = calibrate(max(1, round(CALIB_SHARE * b["wall_s"] * 1e3
                                       / report.CALIB_REF_MS)))
        b["calib_ms"] = after if calib is None else (calib + after) / 2
        calib = after
        out.append(b)
        elapsed = _now() - t0
        if len(out) >= least and (
                quick or elapsed * (1 + 0.5 / len(out)) >= budget_s):
            break
    return out


def traced_pass(wl: Any, args: argparse.Namespace, allowed: set[int]
                ) -> tuple[list[dict], dict[str, float], Any]:
    """Install the wrappers, run the traced blocks (each carrying its own
    tracer snapshot, GC pauses and CPU time), restore, run the probes."""
    import probes
    import spans

    tracer = spans.Tracer()
    watch = wl.gcwatch = GcWatch()
    serve = wl.kind == "serve"
    stats0 = wl.stats() if serve else {}
    pids = wl.client.health().get("worker_pids", []) if serve else []
    cpu_mark = 0.0

    def before_block() -> None:
        nonlocal cpu_mark
        cpu_mark = cpu_ms(pids)
        watch.take()

    def after_block(b: dict) -> None:
        tracer.keep = False         # raw spans: the first traced block
        b["cpu_ms"] = cpu_ms(pids) - cpu_mark
        b["gc_pause_ns"], b["gc_gen2"] = watch.take()
        b["trace"] = tracer.snapshot()

    tracer.install(serve=serve)
    gc.callbacks.append(watch)
    tracer.keep = True
    try:
        traced = run_blocks(wl, 0.7 * args.seconds, 1 if args.quick else 2,
                            args.quick, tracer, before_block, after_block)
    finally:
        gc.callbacks.remove(watch)
        tracer.uninstall()
        wl.gcwatch = None

    extra: dict[str, float] = dict(probes.run_all(allowed))
    extra.update(wl.probes())
    if stats0:
        # service counters over the traced pass, per request
        s1 = wl.stats()
        subs = s1["submissions"] - stats0["submissions"]
        extra["serve.hit_ratio"] = (s1["hits"] - stats0["hits"]) / subs
        for key in ("executed", "coalesced", "shed", "lease_waits"):
            extra[f"serve.{key}"] = (s1[key] - stats0[key]) / subs
        extra["serve.retries"] = (s1["pool"]["retries"]
                                  - stats0["pool"]["retries"]) / subs
    return traced, extra, tracer


def measure(args: argparse.Namespace) -> int:
    import report
    import spans

    allowed, cpu = pin()
    code_version_ms = import_program()
    from repro.harness.jobspec import code_version

    trace = bool(args.trace)
    wl = make_workload(args.workload, args.seed, args.quick)
    wl.setup()
    setup_samples = [setup_sample()]

    traced, extra = [], {}
    if not trace:
        blocks = run_blocks(wl, args.seconds, 2, args.quick)
    else:
        # a short untraced reference pass, then the traced pass
        blocks = run_blocks(wl, 0.3 * args.seconds, 1 if args.quick else 2,
                            args.quick)
        ref_digest = wl.digest
        traced, extra, tracer = traced_pass(wl, args, allowed)
        if wl.digest != ref_digest:
            wl.fail("traced pass changed the simulated digest")
        extra["harness.code_version_ms"] = code_version_ms

    wl.finish()
    rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + wl.child_rss_kb()) / 1024.0
    leaked = spans.leaked_wrappers()
    if leaked:
        wl.fail(f"wrappers leaked: {leaked}")
    wl.teardown()
    if not trace:
        setup_samples += sample_setup(args)

    cv = code_version()
    utc = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    result: dict[str, Any] = {
        "schema": 1,
        "workload": wl.name,
        "mode": "trace" if trace else "run",
        "header": {
            "code_version": cv, "python": platform.python_version(),
            "nproc": os.cpu_count(), "pinned_cpu": cpu,
            "affinity_mask": sorted(allowed), "seed": args.seed,
            "seconds": args.seconds, "quick": args.quick, "utc": utc,
            "clients": wl.clients, "block_jobs": wl.block_jobs,
            "host": platform.platform(),
        },
        "inputs": wl.inputs(),
        "sim": {"digest": wl.digest},
        "blocks": blocks,
        "noisy": report.is_noisy(blocks + traced),
        "attempted": wl.attempted,
        "failed": wl.failed,
        "failures": wl.failures,
    }
    if trace:
        q = traced[report.quiet_block(traced)]
        jobs = len(q["samples_ms"])
        extra.update({
            "gc.pause_ms": q["gc_pause_ns"] / 1e6 / jobs,
            "gc.gen2_collections": q["gc_gen2"] / jobs,
            "host.cpu_ms_per_job": q["cpu_ms"] / jobs,
            "sim.quanta": q["quanta"] / jobs,
            "trace.overhead_ratio": report.job_ms(traced)
                                    / report.job_ms(blocks),
        })
        result["traced_blocks"] = [
            {k: v for k, v in b.items() if k != "trace"} for b in traced]
        result["per_layer"] = metrics = report.per_layer(wl.kind, q, extra)
    else:
        result["setup_samples"] = setup_samples
        result["wall_clock"] = report.wall_clock(blocks, setup_samples)
        result["end_to_end"] = metrics = report.end_to_end(
            blocks, setup_samples, rss_mb)
        result["fail_ratio"] = wl.failed / wl.attempted

    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise SystemExit(f"bench: non-finite metrics {bad}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if trace else ""
    out = Path(args.out) if args.out else (
        RESULTS / f"{utc}-{cv[:12]}-{wl.name}{suffix}.json")
    out.write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        stem = out.name.removesuffix(".json").removesuffix("-trace")
        tracer.write_chrome_trace(str(out.with_name(stem + ".trace.json")),
                                  wl.name)
    shutil.rmtree(wl.workdir, ignore_errors=True)

    report.print_metrics(result)
    print(f"result: {os.path.relpath(out)}")
    # the result line carries exactly the metrics BENCHMARK.json declares
    # (job_p99_ms is reported above and in the result file, but not gated)
    spec = report.declared()
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    print(json.dumps({"correct": wl.failed == 0, "attempted": wl.attempted,
                      "failed": wl.failed,
                      "metrics": {k: m for k, m in metrics.items()
                                  if k in names}}))
    return 0


# ---------------------------------------------------------------------------
# All workloads, one fresh process each
# ---------------------------------------------------------------------------

def child_cmd(args: argparse.Namespace, name: str, out: Path) -> list[str]:
    cmd = [sys.executable, str(HERE / "bench.py"), "run", "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    return cmd + (["--quick"] if args.quick else [])


def run_all(args: argparse.Namespace) -> int:
    """One fresh process per workload; a noisy run is re-run once."""
    import report

    names = [w["name"] for w in report.declared()["workloads"]]
    outdir = Path(args.out) if args.out else RESULTS / (
        datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        + ("-trace" if args.trace else "-run") + f"-seed{args.seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name in names:
        out = outdir / f"{name}{'-trace' if args.trace else ''}.json"
        for attempt in (1, 2):
            p = subprocess.run(child_cmd(args, name, out),
                               capture_output=True, text=True)
            if p.returncode != 0:
                sys.stdout.write(p.stdout)
                sys.stderr.write(p.stderr)
                raise SystemExit(f"bench: {name} exited {p.returncode}")
            result = json.loads(out.read_text())
            if not result["noisy"] or attempt == 2:
                break
            print(f"-- {name}: noisy host (median/min block calibration > "
                  f"{report.NOISY_CALIB_RATIO}); re-running once")
        if attempt == 2:
            result["rerun"] = True
            out.write_text(json.dumps(result, indent=1) + "\n")
        sys.stdout.write("\n".join(p.stdout.splitlines()[:-1]) + "\n")
        failed += result["failed"]
    print(f"\nresults: {os.path.relpath(outdir)}/   "
          f"(compare two such sets with `bench.py compare A B`)")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def selfcheck(args: argparse.Namespace) -> int:
    import report

    spec = report.declared()
    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    names = [w["name"] for w in spec["workloads"]]
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    check(2 <= len(names) <= 8, "2..8 workloads")
    check(1 <= len(e2e) <= 16, "1..16 end-to-end metrics")
    check(1 <= len(layer) <= 128, "1..128 per-layer metrics")
    for n in names + e2e + layer:
        check(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) is not None,
              f"bad name {n!r}")
    check(len(set(names + e2e + layer)) == len(names + e2e + layer),
          "a name is used twice")

    pin()
    import_program()
    import spans
    from workloads import WORKLOADS, record_bytes

    check(sorted(WORKLOADS) == sorted(names),
          "workloads in BENCHMARK.json != workloads in workloads.py")

    outdir = WORK / f"selfcheck-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    args.out = None
    for trace, declared_names, units in (
            (0, e2e, {m["name"]: m["unit"] for m in spec["end_to_end"]}),
            (1, layer, {m["name"]: m["unit"] for m in spec["per_layer"]})):
        args.trace = trace
        for name in names:
            out = outdir / f"{name}-{trace}.json"
            p = subprocess.run(child_cmd(args, name, out),
                               capture_output=True, text=True)
            if p.returncode != 0:
                problems.append(f"{name} trace={trace}: exit "
                                f"{p.returncode}: {p.stderr[-300:]}")
                continue
            last = json.loads(p.stdout.splitlines()[-1])
            check(set(last) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result line keys {sorted(last)}")
            got = last["metrics"]
            check(sorted(got) == sorted(declared_names),
                  f"{name} trace={trace}: emitted != declared: "
                  f"{sorted(set(got) ^ set(declared_names))}")
            for k, m in got.items():
                check(isinstance(m["value"], (int, float))
                      and math.isfinite(m["value"]), f"{name}: {k} not finite")
                check(m["unit"] == units.get(k), f"{name}: {k} unit "
                      f"{m['unit']!r} != declared {units.get(k)!r}")
                if not trace:
                    check(m["value"] > 0, f"{name}: {k} is not positive")
            check(last["correct"] and last["failed"] == 0
                  and last["attempted"] >= 1,
                  f"{name} trace={trace}: fail_ratio != 0: "
                  f"{json.loads(out.read_text())['failures']}")
            print(f"ok  {name:<13} trace={trace}  {len(got)} metrics, "
                  f"{last['attempted']} attempted")

    # the twin check must be able to fail: flip one argv salt
    from repro.harness.jobspec import JobSpec
    from repro.provenance.runner import record_run
    from repro.provenance.store import ProvenanceStore
    from workloads import SERVE_SHAPE

    def twin(salt: str, where: str) -> bytes:
        rec = record_run(JobSpec(**SERVE_SHAPE, argv=(salt,)),
                         ProvenanceStore(outdir / where)).record
        return record_bytes(rec.to_dict(), twin=True)

    check(twin("salt-a", "t1") == twin("salt-a", "t2"),
          "identical twins compare different")
    check(twin("salt-a", "t3") != twin("salt-b", "t4"),
          "a twin with a flipped argv salt compares identical")

    tracer = spans.Tracer()
    tracer.install(serve=True)
    check(len(spans.leaked_wrappers()) == tracer.installed,
          "leak detector does not see every installed wrapper")
    tracer.uninstall()
    check(spans.leaked_wrappers() == [], "wrappers leak after uninstall")

    shutil.rmtree(outdir, ignore_errors=True)
    for p in problems:
        print(f"PROBLEM: {p}")
    print(f"selfcheck: {'OK' if not problems else 'FAILED'}")
    return 1 if problems else 0


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd in ("run", "trace", "_setup"):
        p = sub.add_parser(cmd)
        p.add_argument("--workload")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=10.0)
        p.add_argument("--trace", type=int, choices=(0, 1),
                       default=int(cmd == "trace"))
        p.add_argument("--out", help="result file (or directory for all "
                                     "workloads)")
        p.add_argument("--quick", action="store_true",
                       help="2 small blocks, 1 warm-up (selfcheck only: "
                            "the numbers are not comparable)")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("selfcheck")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    adopt_orphans()
    if args.cmd == "compare":
        import report
        return 1 if report.compare(args.a, args.b) else 0
    if args.cmd == "selfcheck":
        return selfcheck(args)
    if args.cmd == "_setup":
        return setup_only(args)
    return measure(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
