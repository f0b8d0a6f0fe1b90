"""Nonblocking-communication requests."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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
    """Handle for an in-flight isend/irecv, compared by identity.  A receive
    copies what it needs from the message it takes; a send is born
    complete; neither builds its :attr:`status` before it is read."""

    kind: RequestKind
    vp: int                      #: owning rank (vp)
    comm_id: int
    src: int = -1                #: recv: requested source (comm rank)
    tag: int = -1
    completed: bool = False
    completion_time: int = 0     #: simulated ns at which it completed
    payload: Any = None          #: recv: delivered data
    msg_src: int = -1            #: recv: the taken message's source rank,
    msg_tag: int = -1            #: tag
    msg_nbytes: int = 0          #: and size
    _status: Status | None = field(default=None, repr=False)

    @property
    def status(self) -> Status | None:
        """None until completion, then built once from ``msg_*``."""
        if self._status is None and self.completed:
            self._status = Status(self.msg_src, self.msg_tag, self.msg_nbytes)
        return self._status
