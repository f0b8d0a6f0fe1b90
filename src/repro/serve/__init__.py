"""``repro serve`` — the multi-tenant job service on the provenance
cache.

Everything this repo runs is deterministic by contract, which makes
every job perfectly memoizable: the service keys submissions by
``sha256(spec.canonical + code_version)``, serves repeats straight from
the content-addressed :class:`~repro.provenance.ProvenanceStore`, and
coalesces identical *in-flight* submissions onto one execution
(single-flight).  Architecture: a real asyncio edge
(:class:`JobService`), a multiprocess :class:`WorkerPool` running each
job in simulated time, and a client (:class:`ServeClient`) speaking a
line-JSON protocol over a Unix socket or localhost TCP.

The service is built to *survive its own components dying*: worker
crashes are retried and repeat offenders quarantined (``poison-job``),
load past the queue watermark is shed (``busy``), a client's deadline
ends its own wait and nobody else's (``deadline-exceeded``),
``flock``'d file leases, which the kernel drops when their server dies,
make execution exactly-once across multiple servers on one store, and
clients retry idempotently with jittered backoff.  See
``docs/ARCHITECTURE.md`` §16 and §18.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.cache import ResultCache
    from repro.serve.client import (
        ServeClient,
        ServeConnectionError,
        SubmitReply,
    )
    from repro.serve.pool import (
        CHAOS_EXIT,
        PoolStats,
        WorkerPool,
        execute_spec,
    )
    from repro.serve.protocol import (
        CACHE_COALESCED,
        CACHE_HIT,
        CACHE_INFLIGHT,
        CACHE_MISS,
        MAX_LINE,
        REASON_BUSY,
        REASON_DEADLINE,
        REASON_DRAINING,
        REASON_POISON,
        REASON_POOL_DEAD,
        REASONS,
        RETRYABLE_REASONS,
        ProtocolError,
    )
    from repro.serve.server import (
        DEFAULT_SOCKET,
        JobService,
        ServeStats,
        ServiceThread,
    )

# A spawned worker imports ``repro.serve.pool`` to reach its entry
# point: the package must not pull the asyncio edge in behind it.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.serve.cache": ("ResultCache",),
    "repro.serve.client": ("ServeClient", "ServeConnectionError",
                           "SubmitReply"),
    "repro.serve.pool": ("CHAOS_EXIT", "PoolStats", "WorkerPool",
                         "execute_spec"),
    "repro.serve.protocol": ("CACHE_COALESCED", "CACHE_HIT",
                             "CACHE_INFLIGHT", "CACHE_MISS", "MAX_LINE",
                             "REASON_BUSY", "REASON_DEADLINE",
                             "REASON_DRAINING", "REASON_POISON",
                             "REASON_POOL_DEAD", "REASONS",
                             "RETRYABLE_REASONS", "ProtocolError"),
    "repro.serve.server": ("DEFAULT_SOCKET", "JobService", "ServeStats",
                           "ServiceThread"),
})
