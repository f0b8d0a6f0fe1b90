"""User-level threads (ULTs) and scheduling primitives.

Virtual MPI ranks run as ULTs, exactly as in AMPI: blocking communication
suspends the ULT and the processing element's scheduler switches to
another ready rank.  A generator body is stepped on the scheduler's own
stack; a plain-function body runs on a baton-passing OS thread — only one
ever runs at a time, handed off explicitly.  All *reported* time comes
from per-ULT simulated clocks.
"""

from repro.threads.ult import UserLevelThread, UltState, UltKilled
from repro.threads.runqueue import RunQueue
from repro.threads.backend import (
    PooledBackend,
    consume_orphan_count,
    get_backend,
    orphan_count,
)

__all__ = [
    "UserLevelThread",
    "UltState",
    "UltKilled",
    "RunQueue",
    "PooledBackend",
    "get_backend",
    "orphan_count",
    "consume_orphan_count",
]
