"""Estimators, metric assembly, result tables and ``bench.py compare``."""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"

#: a run whose median/min block calibration exceeds this is "noisy": most
#: of its blocks ran on a host 25 % slower than its own best moment (calm
#: runs read 1.03-1.17: the walk part depends on what the block left cached)
NOISY_CALIB_RATIO = 1.25

#: unit of every per-layer metric, by name suffix
_UNITS = (("_ms", "ms"), ("_us", "us"), ("_ns", "ns"), ("_ratio", "ratio"),
          ("_bytes", "B"), (".ms", "ms"), ("_ms_per_job", "ms"))


def unit_of(name: str) -> str:
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def quantile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile (the value itself, never interpolated)."""
    s = sorted(samples)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def median(samples: list[float]) -> float:
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# End-to-end metrics (the untraced pass)
# ---------------------------------------------------------------------------

#: what the calibration work between blocks takes on the 2-vCPU sandbox
#: in its fast state; every timing is scaled to a host on which it takes
#: this long
CALIB_REF_MS = 18.0


def to_ref(calib_ms: float) -> float:
    """Factor that turns a time measured while the calibration work took
    ``calib_ms`` into the time at the reference host speed."""
    return CALIB_REF_MS / calib_ms


def job_ms(blocks: list[dict[str, Any]]) -> float:
    return median(median(b["samples_ms"]) * to_ref(b["calib_ms"])
                  for b in blocks)


def end_to_end(blocks: list[dict[str, Any]],
               setup_samples: list[dict[str, float]],
               peak_rss_mb: float) -> dict[str, dict[str, Any]]:
    """Speed-scaled medians: each block yields its own median / p90 /
    p99 / throughput, scaled by the calibration timed around it to the
    reference host speed; the reported value is the median over the
    blocks.  The shared host alternates between a fast and a 1.3-1.5x
    slower state that can last longer than a run, and the calibration
    work slows with the jobs (README, "Why speed-scaled medians")."""
    def time(fn):
        return median(fn(b) * to_ref(b["calib_ms"]) for b in blocks)

    def rate(fn):
        return median(fn(b) / to_ref(b["calib_ms"]) for b in blocks)

    return {
        "setup_s": {"value": median(s["wall_s"] * to_ref(s["calib_ms"])
                                    for s in setup_samples), "unit": "s"},
        "job_ms": {"value": job_ms(blocks), "unit": "ms"},
        "job_p90_ms": {"value": time(lambda b: quantile(b["samples_ms"], .90)),
                       "unit": "ms"},
        "job_p99_ms": {"value": time(lambda b: quantile(b["samples_ms"], .99)),
                       "unit": "ms"},
        "jobs_per_s": {"value": rate(lambda b: len(b["samples_ms"])
                                     / b["wall_s"]), "unit": "1/s"},
        "quanta_per_s": {"value": rate(lambda b: b["quanta"] / b["wall_s"]),
                         "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }


def wall_clock(blocks: list[dict[str, Any]],
               setup_samples: list[dict[str, float]]) -> dict[str, float]:
    """The same run as the clock read it, unscaled, for reference: the
    whole run's percentiles and the fastest block's median."""
    samples = [ms for b in blocks for ms in b["samples_ms"]]
    return {"jobs": len(samples), "p50_ms": quantile(samples, .5),
            "p90_ms": quantile(samples, .9),
            "fastest_block_ms": min(median(b["samples_ms"]) for b in blocks),
            "calib_ms": median(b["calib_ms"] for b in blocks),
            "setup_s": median(s["wall_s"] for s in setup_samples)}


def is_noisy(blocks: list[dict[str, Any]]) -> bool:
    calib = [b["calib_ms"] for b in blocks]
    return median(calib) / min(calib) > NOISY_CALIB_RATIO


def quiet_block(blocks: list[dict[str, Any]]) -> int:
    meds = [median(b["samples_ms"]) for b in blocks]
    return meds.index(min(meds))


# ---------------------------------------------------------------------------
# Per-layer metrics (the traced pass)
# ---------------------------------------------------------------------------

#: spans reported as inclusive time (metric stem == span name)
_INCLUSIVE = ("harness.build", "ampi.start", "sched.run", "provenance.record",
              "store.put", "trace.compress", "serve.pool")
#: metric stem -> span name, for spans reported as self time
_SELF = {name: name for name in (
    "privatization.setup", "elf.loader", "mem.alloc", "threads.create",
    "ampi.p2p", "ampi.coll", "ampi.misc", "program.globals", "serve.decode",
    "serve.encode", "serve.spec", "serve.cache_get", "serve.lease",
    "serve.put")}
#: the two residuals that are a span's own self time
_SELF.update({"sched.loop": "sched.run", "apps.compute": "threads.body"})
_CALLS = {
    "elf.dlopens": "elf.loader", "mem.allocs": "mem.alloc",
    "threads.switches": "threads.switch_in", "runqueue.ops": "runqueue",
    "ampi.p2p_calls": "ampi.p2p", "ampi.coll_calls": "ampi.coll",
    "net.transfers": "net", "program.global_accesses": "program.globals",
}

PER_LAYER_NAMES = sorted(
    [f"{stem}_ms" for stem in (*_INCLUSIVE, *_SELF)] + list(_CALLS) + [
        "harness.code_version_ms", "trace.timeline_bytes", "store.get_ms",
        "serve.ping_ms", "serve.exec_ms", "serve.pool_overhead_ms",
        "serve.edge_other_ms", "serve.reply_bytes", "serve.hit_ratio",
        "serve.executed", "serve.coalesced", "serve.shed", "serve.retries",
        "serve.lease_waits", "cli.help_ms", "cli.import_ms", "cli.interp_ms",
        "cli.main_ms", "cli.modules", "threads.handoff_ms",
        "threads.handoff_us", "runqueue.ms", "net.ms", "lb.ms",
        "lb.migrations", "ampi.msgs", "threads.raw_handoff_us",
        "threads.raw_handoff_unpinned_us", "threads.lifecycle_us",
        "runqueue.op_us", "gc.pause_ms", "gc.gen2_collections",
        "host.calib_ms", "host.cpu_ms_per_job", "sim.makespan_ns",
        "sim.quanta", "trace.overhead_ratio", "job.unattributed_ratio",
    ])


def per_layer(kind: str, block: dict[str, Any],
              extra: dict[str, float]) -> dict[str, dict[str, Any]]:
    """Per-layer table from the quiet traced block.

    ``block`` carries the tracer snapshot taken right after it; ms are
    the block's total divided by its job count, so the parts add up to
    that block's mean job wall time.  ``extra`` holds everything measured
    outside the tracer (probes, stats deltas, counters)."""
    totals = block["trace"]["totals"]
    jobs = len(block["samples_ms"])
    wall_ms = sum(block["samples_ms"]) / jobs

    def ms(span: str, k: int) -> float:
        return totals.get(span, (0, 0, 0))[k] / 1e6 / jobs

    out = {name: 0.0 for name in PER_LAYER_NAMES}
    for stem in _INCLUSIVE:
        out[f"{stem}_ms"] = ms(stem, 1)
    for stem, span in _SELF.items():
        out[f"{stem}_ms"] = ms(span, 0)
    for name, span in _CALLS.items():
        out[name] = totals.get(span, (0, 0, 0))[2] / jobs
    for stem in ("runqueue", "net", "lb"):
        out[f"{stem}.ms"] = ms(stem, 0)

    # handoff = time inside switch_in that no ULT was busy: the ULT-side
    # busy time is every body span minus the yield_ (parked) spans in it
    switch_ms = ms("threads.switch_in", 1)
    busy_ms = ms("threads.body", 1) - ms("threads.yield", 1)
    out["threads.handoff_ms"] = switch_ms - busy_ms
    if out["threads.switches"]:
        out["threads.handoff_us"] = (out["threads.handoff_ms"] * 1e3
                                     / out["threads.switches"])
    out["serve.reply_bytes"] = block["trace"]["reply_bytes"] / jobs
    out.update(extra)

    if kind == "sim":
        covered = sum(out[f"{s}_ms"] for s in
                      ("harness.build", "ampi.start", "sched.run",
                       "provenance.record", "store.put"))
        out["job.unattributed_ratio"] = 1.0 - covered / ms("job", 1)
    elif kind == "serve":
        out["serve.pool_overhead_ms"] = (
            out["serve.pool_ms"] - out["serve.exec_ms"]
            if out["serve.pool_ms"] else 0.0)
        spans = sum(out[f"serve.{s}_ms"] for s in
                    ("decode", "encode", "spec", "cache_get", "lease",
                     "pool", "put"))
        out["serve.edge_other_ms"] = wall_ms - spans
        # the residual closes the sum by definition; spans covering more
        # than the round trip (double counting) would show here
        out["job.unattributed_ratio"] = max(0.0, spans - wall_ms) / wall_ms
    else:
        covered = (out["cli.interp_ms"] + out["cli.import_ms"]
                   + out["cli.main_ms"])
        out["job.unattributed_ratio"] = 1.0 - covered / wall_ms
    out["host.calib_ms"] = block["calib_ms"]
    return {k: {"value": v, "unit": unit_of(k)} for k, v in out.items()}


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000:
        return f"{v:,.0f}"
    if abs(v) >= 10:
        return f"{v:.2f}"
    return f"{v:.4f}"


def print_metrics(result: dict[str, Any]) -> None:
    mode = result["mode"]
    metrics = result["end_to_end" if mode == "run" else "per_layer"]
    if mode == "trace":
        metrics = {k: m for k, m in metrics.items() if m["value"]}
    print(f"== {result['workload']} ({mode}, seed {result['header']['seed']},"
          f" {len(result['blocks'])} blocks x "
          f"{len(result['blocks'][0]['samples_ms'])} jobs"
          f"{', NOISY' if result['noisy'] else ''}) ==")
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {fmt(m['value']):>12} {m['unit']}")
    print(f"  {'fail_ratio':<{width}}  "
          f"{fmt(result['failed'] / result['attempted']):>12} ratio"
          f"   ({result['failed']} of {result['attempted']})")
    if mode == "run":
        w = result["wall_clock"]
        print(f"  as the clock read it: p50 {fmt(w['p50_ms'])} ms, p90 "
              f"{fmt(w['p90_ms'])} ms over {w['jobs']} jobs, fastest block "
              f"{fmt(w['fastest_block_ms'])} ms, set-up {fmt(w['setup_s'])} "
              f"s, calibration {fmt(w['calib_ms'])} ms (reference {CALIB_REF_MS})")
    for why in result["failures"]:
        print(f"  FAILED: {why}")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def declared() -> dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text())


def load(path: str) -> list[dict[str, Any]]:
    """Result JSONs at ``path``: one file, or every ``*.json`` result in
    a directory (several runs per workload give a spread)."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out = []
    for f in files:
        d = json.loads(f.read_text())
        if isinstance(d, dict) and d.get("schema") == 1:
            out.append(d)
    if not out:
        raise SystemExit(f"compare: no result JSON at {path}")
    return out


def _spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    """One row per (end-to-end metric, workload); exact-equality rows
    for counts and simulated digests.  Returns the number regressed."""
    a_runs, b_runs = load(path_a), load(path_b)
    spec = declared()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressed = 0
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<13} {'metric':<13} {'A (base)':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6} {'spread A/B':>11}  verdict")

    def runs_of(runs, wl, mode):
        return [r for r in runs if r["workload"] == wl and r["mode"] == mode]

    for wl in [w["name"] for w in spec["workloads"]]:
        ra, rb = runs_of(a_runs, wl, "run"), runs_of(b_runs, wl, "run")
        if not ra or not rb:
            continue
        # noisy runs are never evidence: judge on the quiet runs when at
        # least half of each side is quiet, else the rows are unresolved
        qa = [r for r in ra if not is_noisy(r["blocks"])]
        qb = [r for r in rb if not is_noisy(r["blocks"])]
        noisy = 2 * len(qa) < len(ra) or 2 * len(qb) < len(rb)
        if not noisy:
            dropped = len(ra) - len(qa) + len(rb) - len(qb)
            if dropped:
                print(f"{wl:<13} ({dropped} noisy run(s) left out)")
            ra, rb = qa, qb
        for name, m in bounds.items():
            va = [r["end_to_end"][name]["value"] for r in ra]
            vb = [r["end_to_end"][name]["value"] for r in rb]
            ma, mb = statistics.median(va), statistics.median(vb)
            lower = m["better"] == "lower"
            worse = (mb / ma - 1.0) if lower else (1.0 - mb / ma)
            sa, sb = _spread(va), _spread(vb)
            wide = any(s is not None and s > m["bound"] for s in (sa, sb))
            b_all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            if worse > m["bound"] and not (noisy or wide):
                verdict = "regressed"
                regressed += 1
            elif (noisy or wide) and not b_all_better:
                verdict = "unresolved" + (" (noisy)" if noisy else " (spread)")
            else:
                verdict = "ok"
            sp = "/".join("-" if s is None else f"{s:.3f}" for s in (sa, sb))
            sign = "+" if lower else "-"
            print(f"{wl:<13} {name:<13} {fmt(ma):>12} {fmt(mb):>12} "
                  f"{mb / ma:>7.3f} {sign}{m['bound']:<5.2f} {sp:>11}  "
                  f"{verdict}")
        fa = sum(r["failed"] for r in ra) / sum(r["attempted"] for r in ra)
        fb = sum(r["failed"] for r in rb) / sum(r["attempted"] for r in rb)
        verdict = "regressed" if fb > fa else "ok"
        regressed += fb > fa
        print(f"{wl:<13} {'fail_ratio':<13} {fmt(fa):>12} {fmt(fb):>12} "
              f"{'':>7} {'any':>6} {'':>11}  {verdict}")

    print("\nexact rows (simulated digests; per-layer counts of traced runs)")
    for wl in [w["name"] for w in spec["workloads"]]:
        for mode in ("run", "trace"):
            ra, rb = runs_of(a_runs, wl, mode), runs_of(b_runs, wl, mode)
            if not ra or not rb:
                continue
            da = {json.dumps(r["sim"], sort_keys=True) for r in ra}
            db = {json.dumps(r["sim"], sort_keys=True) for r in rb}
            same = da == db and len(da) == 1
            regressed += not same
            print(f"{wl:<13} {mode:<5} sim digest   "
                  f"{'equal' if same else 'DIFFERENT'}")
            if mode == "trace":
                for name, m in ra[0]["per_layer"].items():
                    if m["unit"] != "count":
                        continue
                    ca = {r["per_layer"][name]["value"] for r in ra}
                    cb = {r["per_layer"][name]["value"] for r in rb}
                    if ca != cb:
                        print(f"{wl:<13} trace {name:<24} "
                              f"{sorted(ca)} != {sorted(cb)}")
    print(f"\n{regressed} regressed")
    return regressed
