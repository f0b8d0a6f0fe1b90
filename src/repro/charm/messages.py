"""Messages and per-rank mailboxes with MPI matching semantics."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

ANY_SOURCE = -1
ANY_TAG = -1

_msg_seq = itertools.count()


@dataclass(slots=True)
class Message:
    """One in-flight or delivered point-to-point message."""

    src: int              #: sender rank (within the communicator)
    dst: int              #: receiver rank (within the communicator)
    tag: int
    comm_id: int
    payload: Any
    nbytes: int
    sent_at: int          #: sender's simulated send time
    arrival: int          #: earliest time the receiver can consume it
    seq: int = field(default_factory=lambda: next(_msg_seq))
    #: sender/receiver virtual ranks — stable across migration, used by
    #: the reliable transport's per-channel state and the message log
    src_vp: int = -1
    dst_vp: int = -1
    #: per-(src_vp, dst_vp) channel sequence number assigned by the
    #: reliable transport (-1 under the priced transport)
    chan_seq: int = -1
    #: destination endpoint resolved at send time (reliable transport
    #: only) — lets the sanitizer flag frames that land on a PE the
    #: receiver migrated away from before arrival
    dest_endpoint: Any = None

    def matches(self, src: int, tag: int, comm_id: int) -> bool:
        return (
            self.comm_id == comm_id
            and (src == ANY_SOURCE or self.src == src)
            and (tag == ANY_TAG or self.tag == tag)
        )


class Mailbox:
    """Unexpected-message queue for one rank.

    Messages are kept in send order per (source, tag, comm), which — since
    each sender's clock is monotone — preserves MPI's non-overtaking rule.
    """

    __slots__ = ("_messages",)

    def __init__(self) -> None:
        self._messages: list[Message] = []

    def deliver(self, msg: Message) -> None:
        self._messages.append(msg)

    def match(self, src: int, tag: int, comm_id: int) -> Message | None:
        """Remove and return the first matching message (None if absent)."""
        for i, m in enumerate(self._messages):
            if m.matches(src, tag, comm_id):
                return self._messages.pop(i)
        return None

    def peek(self, src: int, tag: int, comm_id: int) -> Message | None:
        """Non-destructive match (MPI_Probe / MPI_Iprobe)."""
        for m in self._messages:
            if m.matches(src, tag, comm_id):
                return m
        return None

    def __len__(self) -> int:
        return len(self._messages)

    def pending(self) -> list[Message]:
        return list(self._messages)
