"""Nonblocking-communication requests."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


class RequestKind(enum.Enum):
    SEND = "send"
    RECV = "recv"


@dataclass(slots=True)
class Status:
    """MPI_Status analogue filled in at completion."""

    source: int = -1
    tag: int = -1
    nbytes: int = 0


@dataclass(slots=True, eq=False)
class Request:
    """Handle for an in-flight isend/irecv (compared by identity: two
    receives with one signature are still two receives)."""

    kind: RequestKind
    vp: int                      #: owning rank (vp)
    comm_id: int
    src: int = -1                #: recv: requested source (comm rank)
    tag: int = -1
    completed: bool = False
    completion_time: int = 0     #: simulated ns at which it completed
    payload: Any = None          #: recv: delivered data
    status: Status | None = None  #: set at completion

    def complete(self, when: int, payload: Any = None,
                 source: int = -1, tag: int = -1, nbytes: int = 0) -> None:
        self.completed = True
        self.completion_time = when
        self.payload = payload
        self.status = Status(source, tag, nbytes)
