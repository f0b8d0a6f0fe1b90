"""User-level threads (ULTs) and scheduling primitives.

Virtual MPI ranks run as ULTs, exactly as in AMPI: blocking communication
suspends the ULT and the processing element's scheduler switches to
another ready rank.  A quantum is one ``step()``: a generator body is
resumed on the scheduler's own stack, a plain-function body on a pool
worker while the scheduler waits — only one thread ever runs at a time.
All *reported* time comes from per-ULT simulated clocks.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.ult import UserLevelThread, UltState, UltKilled
    from repro.threads.runqueue import RunQueue
    from repro.threads.backend import (
        PooledBackend,
        consume_orphan_count,
        get_backend,
        orphan_count,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.threads.ult": ("UserLevelThread", "UltState", "UltKilled"),
    "repro.threads.runqueue": ("RunQueue",),
    "repro.threads.backend": ("PooledBackend", "get_backend", "orphan_count",
                              "consume_orphan_count"),
})
