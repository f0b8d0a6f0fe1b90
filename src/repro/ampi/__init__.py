"""Adaptive MPI: the MPI interface over virtualized ranks.

The public entry point is :class:`~repro.ampi.runtime.AmpiJob`:

>>> from repro import ampi
>>> job = ampi.AmpiJob(source, nvp=8, method="pieglobals")
>>> result = job.run()

Inside program functions, ``ctx.mpi`` exposes an mpi4py-flavoured API
(lowercase object methods: ``send``/``recv``/``bcast``/``reduce``/...).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.ampi.datatypes import payload_nbytes, INT, DOUBLE, BYTE
    from repro.ampi.ops import (
        SUM, PROD, MAX, MIN, LAND, LOR, BAND, BOR, MAXLOC, MINLOC,
    )
    from repro.ampi.comm import ANY_SOURCE, ANY_TAG, Communicator
    from repro.ampi.requests import Request
    from repro.ampi.runtime import AmpiJob, JobResult
    from repro.ampi.checkpoint import Checkpoint

# A job loads the runtime and what it imports; checkpoints load when a
# collective or the buddy checkpointer first takes one.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.ampi.datatypes": ("payload_nbytes", "INT", "DOUBLE", "BYTE"),
    "repro.ampi.ops": ("SUM", "PROD", "MAX", "MIN", "LAND", "LOR", "BAND",
                       "BOR", "MAXLOC", "MINLOC"),
    "repro.ampi.comm": ("ANY_SOURCE", "ANY_TAG", "Communicator"),
    "repro.ampi.requests": ("Request",),
    "repro.ampi.runtime": ("AmpiJob", "JobResult"),
    "repro.ampi.checkpoint": ("Checkpoint",),
})
