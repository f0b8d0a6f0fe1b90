"""CI smoke for the ``repro serve`` job service.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py

Starts a real ``repro serve`` subprocess (process workers, janitor on),
submits a mixed batch of the pinned-scenario corpus concurrently, then
submits the identical batch again and asserts the cache contract:

- pass 1 executes every spec (no prior store), all submissions succeed;
- pass 2 is 100% cache hits with the *same* run_ids and byte-identical
  records — nothing re-executed, nothing drifted;
- pass 3 repeats pass 2's request lines, which the server now answers
  from its hit memo (no decoding, keying or record read): again 100%
  hits, same run_ids, byte-identical records, and the ``stats`` op's
  ``submissions`` and ``hits`` each advance by exactly the corpus size;
- a burst of N identical submissions of a fresh spec coalesces onto
  exactly one execution (single-flight);
- the gc janitor cycled during serving without errors or evictions;
- **worker-kill drill**: SIGKILL one pool worker; the supervisor
  respawns a replacement and the service keeps executing new work;
- **server-restart drill**: SIGKILL the whole server and start a new
  one on the same store and socket; the persistent client reconnects
  transparently and the warm corpus is still 100% cache hits;
- the server shuts down cleanly on the ``shutdown`` op and exits 0.

Exits nonzero on the first violated expectation.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.harness.jobspec import JobSpec
from repro.provenance import DEFAULT_MANIFEST, load_manifest
from repro.serve import ServeClient, ServeConnectionError

BURST = 6


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def wait_ready(client: ServeClient, timeout_s: float = 60.0) -> None:
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        try:
            client.ping()
            return
        except ServeConnectionError:
            time.sleep(0.1)
    fail(f"server did not come up within {timeout_s}s")


def main() -> int:
    specs = [e.spec for _, e in
             sorted(load_manifest(DEFAULT_MANIFEST).items())]
    if not specs:
        fail(f"no pinned scenarios in {DEFAULT_MANIFEST}")
    print(f"corpus: {len(specs)} pinned specs")

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        sock = Path(tmp) / "serve.sock"

        def spawn_server() -> subprocess.Popen:
            return subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", str(sock),
                 "--store", str(Path(tmp) / "store"),
                 "--workers", "2", "--gc-every", "0.25",
                 "--max-age-days", "7"],
                env={**os.environ, "PYTHONPATH": "src"})

        server = spawn_server()
        client = ServeClient(socket_path=sock, timeout=300.0, retries=5)
        try:
            wait_ready(client)

            def batch(label: str):
                t0 = time.perf_counter()
                with concurrent.futures.ThreadPoolExecutor(4) as ex:
                    replies = list(ex.map(client.submit, specs))
                wall = time.perf_counter() - t0
                bad = [r.error for r in replies if not r.ok]
                if bad:
                    fail(f"{label} pass submissions failed: {bad}")
                print(f"{label}: {len(replies)} jobs in {wall:.3f}s "
                      f"({[r.cache for r in replies].count('hit')} hits)")
                return replies, wall

            def check_hits(label: str, replies) -> None:
                """100% hits, cold's run_ids, byte-identical records."""
                if not all(r.hit for r in replies):
                    fail(f"{label} pass not 100% hits: "
                         f"{[r.cache for r in replies]}")
                if [r.run_id for r in cold] != [r.run_id for r in replies]:
                    fail(f"{label} run_ids differ from cold run_ids")
                for c, w in zip(cold, replies):
                    if json.dumps(c.record, sort_keys=True) != \
                            json.dumps(w.record, sort_keys=True):
                        fail(f"{label}: record drifted for {c.run_id[:12]}")

            cold, cold_s = batch("cold")
            warm, warm_s = batch("warm")
            check_hits("warm", warm)
            print(f"warm/cold speedup: {cold_s / warm_s:.1f}x, "
                  f"run_ids identical, records byte-identical")

            # --- memo pass: every warm request line hit, so a repeat
            # is answered from the hit memo and counted as before.
            before = client.stats()
            memo, _ = batch("memo")
            after = client.stats()
            check_hits("memo", memo)
            for key in ("submissions", "hits"):
                if after[key] - before[key] != len(specs):
                    fail(f"memo pass moved {key} by "
                         f"{after[key] - before[key]}, expected {len(specs)}")
            print(f"memo pass: {len(specs)} submissions and hits counted, "
                  f"records byte-identical")

            burst_spec = JobSpec(
                app="pingpong", nvp=4,
                app_config={"yields_per_rank": 60, "name": "smoke-burst"},
                method="none", machine="generic-linux",
                layout=(1, 1, 1), slot_size=1 << 24)
            executed_before = client.stats()["executed"]
            with concurrent.futures.ThreadPoolExecutor(BURST) as ex:
                burst = list(ex.map(lambda _: client.submit(burst_spec),
                                    range(BURST)))
            delta = client.stats()["executed"] - executed_before
            if not all(r.ok for r in burst):
                fail(f"burst submissions failed: "
                     f"{[r.error for r in burst]}")
            if delta != 1:
                fail(f"single-flight broken: {BURST} identical "
                     f"submissions caused {delta} executions")
            print(f"single-flight: {BURST} identical submissions, "
                  f"1 execution "
                  f"({[r.cache for r in burst].count('coalesced')} "
                  f"coalesced)")

            stats = client.stats()
            if stats["gc_errors"]:
                fail(f"janitor errored {stats['gc_errors']} time(s)")
            if stats["records"] != len(specs) + 1:
                fail(f"store holds {stats['records']} records, expected "
                     f"{len(specs) + 1} (janitor evicted something?)")
            print(f"janitor: {stats['gc_cycles']} cycles, 0 errors, "
                  f"{stats['records']} records intact")

            # --- worker-kill drill: one worker dies, the supervisor
            # respawns it, the service keeps executing new work.
            health = client.health()
            pids = health.get("worker_pids") or []
            if not pids:
                fail(f"health reports no worker pids: {health}")
            os.kill(pids[0], signal.SIGKILL)
            drill_spec = JobSpec(
                app="pingpong", nvp=2,
                app_config={"yields_per_rank": 30,
                            "name": "smoke-worker-kill"},
                method="none", machine="generic-linux",
                layout=(1, 1, 1), slot_size=1 << 24)
            reply = client.submit(drill_spec)
            if not reply.ok:
                fail(f"submit after worker kill failed: {reply.error}")
            deadline = time.time() + 60
            alive = client.health()["workers_alive"]
            while alive < 2 and time.time() < deadline:
                time.sleep(0.2)
                alive = client.health()["workers_alive"]
            if alive < 2:
                fail(f"killed worker never respawned (alive={alive})")
            print(f"worker-kill drill: pid {pids[0]} killed, replacement "
                  f"respawned, new work executed")

            # --- server-restart drill: SIGKILL the whole server,
            # start a new one on the same store+socket; the persistent
            # client reconnects and the corpus is still 100% warm.
            server.kill()
            server.wait(timeout=60)
            server = spawn_server()
            wait_ready(client)
            rewarm, _ = batch("rewarm")
            check_hits("post-restart", rewarm)
            print("server-restart drill: SIGKILL + restart, client "
                  "reconnected, store intact, 100% hits")

            client.shutdown()
        finally:
            try:
                server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                server.kill()
                fail("server did not exit after shutdown op")
        if server.returncode != 0:
            fail(f"server exited {server.returncode}")
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
