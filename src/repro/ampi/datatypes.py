"""Datatypes and payload sizing.

Payloads are ordinary Python objects (numpy arrays for the fast path,
pickleable objects otherwise, mpi4py-style); the simulator only needs
their *simulated byte size* to price transfers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any


def loaded_numpy() -> Any:
    """The numpy module if this process has imported it, else None.

    The message path asks "is this payload an ndarray?" on every send.
    No object can be one in a process that never imported numpy, so the
    check reads ``sys.modules`` instead of importing numpy itself: jobs
    whose apps compute without it (hello, pingpong, startup) never load
    it, and the answer is the same either way.
    """
    return sys.modules.get("numpy")


@dataclass(frozen=True)
class Datatype:
    name: str
    extent: int

    def __mul__(self, count: int) -> int:
        return self.extent * count


INT = Datatype("MPI_INT", 4)
LONG = Datatype("MPI_LONG", 8)
FLOAT = Datatype("MPI_FLOAT", 4)
DOUBLE = Datatype("MPI_DOUBLE", 8)
BYTE = Datatype("MPI_BYTE", 1)
CHAR = Datatype("MPI_CHAR", 1)

_SCALAR_BYTES = 8


def payload_nbytes(obj: Any) -> int:
    """Simulated wire size of a payload object.

    numpy arrays report their true buffer size; containers sum their
    elements plus a small per-element envelope; scalars cost 8 bytes.
    """
    if obj is None:
        return 0
    np = sys.modules.get("numpy")   # loaded_numpy() inline: every send
    if np is not None and isinstance(obj, (np.ndarray, np.generic)):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float, complex)):
        return _SCALAR_BYTES
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 8 + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 8 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    # Unknown object: a conservative envelope.
    return 64
