"""Messages and per-rank mailboxes with MPI matching semantics."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

ANY_SOURCE = -1
ANY_TAG = -1

#: draws :attr:`Message.seq`: one count over every message, in creation
#: order (a C-level callable, so a send pays no Python call for it)
next_seq = itertools.count().__next__


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
    seq: int = field(default_factory=next_seq)
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
    """One rank's MPI endpoint: its unexpected-message queue, its posted
    receives, what it is blocked on, and its init/finalize marks.

    Both queues are scanned linearly in arrival/post order.  Messages
    are kept in send order per (source, tag, comm), which — since each
    sender's clock is monotone — preserves MPI's non-overtaking rule.
    A receive is anything with ``src``, ``tag`` and ``comm_id``
    (:class:`repro.ampi.requests.Request`); completing it, logging,
    tracing and waking the rank are the runtime's business.
    """

    __slots__ = ("_messages", "_receives", "awaiting", "probing",
                 "initialized", "finalized")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Back to pristine (crash recovery): queued messages, posted
        receives and wait/probe registrations all belong to the timeline
        the crash destroyed, and the rank replays from MPI_Init."""
        # Shared empty tuples until first use: start-up builds one
        # endpoint per rank, the lists come with the first message.
        self._messages: Any = ()
        self._receives: Any = ()
        #: the requests the rank is blocked on (MPI_Wait: one,
        #: MPI_Waitany: several) — completing any of them wakes it
        self.awaiting: tuple = ()
        #: the (src, tag, comm_id) signature a blocked MPI_Probe waits for
        self.probing: tuple[int, int, int] | None = None
        self.initialized = False
        self.finalized = False

    def deliver(self, msg: Message) -> tuple[Any, bool]:
        """An arriving message goes to the earliest-posted receive it
        matches, else onto the unexpected queue.  Returns ``(receive,
        wake)``: the receive it completes (None when queued) and whether
        the rank is blocked on exactly that — or on a probe this message
        answers, which is then cleared.  Here and in :meth:`post` the
        scan is :meth:`Message.matches` written out (once per message)."""
        src, tag, comm_id = msg.src, msg.tag, msg.comm_id
        receives = self._receives
        for i, req in enumerate(receives):
            if (req.comm_id == comm_id and (req.src == src or req.src == ANY_SOURCE)
                    and (req.tag == tag or req.tag == ANY_TAG)):
                del receives[i]
                for awaited in self.awaiting:
                    if awaited is req:
                        return req, True
                return req, False
        if self._messages:
            self._messages.append(msg)
        else:
            self._messages = [msg]
        probe = self.probing
        if probe is not None and msg.matches(*probe):
            self.probing = None
            return None, True
        return None, False

    def post(self, req: Any) -> Message | None:
        """A new receive takes the earliest-arrived unexpected message it
        matches (returned, removed); otherwise it is posted."""
        src, tag, comm_id = req.src, req.tag, req.comm_id
        messages = self._messages
        for i, m in enumerate(messages):
            if (m.comm_id == comm_id and (m.src == src or src == ANY_SOURCE)
                    and (m.tag == tag or tag == ANY_TAG)):
                return messages.pop(i)
        if self._receives:
            self._receives.append(req)
        else:
            self._receives = [req]
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

    def posted(self) -> list[Any]:
        return list(self._receives)
