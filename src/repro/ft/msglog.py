"""Sender-based message logging for local rollback recovery.

Global rollback (:class:`~repro.ft.recovery.RecoveryManager`) is simple
but wasteful: a single node death rewinds *every* rank to the last buddy
checkpoint.  The classic message-logging alternative — Charm++'s local
recovery protocol — rolls back only the ranks that actually died, and
re-executes them by *replaying* the messages they had received, while
survivors keep running.  For that to work the runtime must remember, on
the sender side, every payload sent since the last checkpoint, plus each
receiver's *determinants* (the order in which it consumed messages, so
wildcard receives replay identically).

:class:`MessageLogger` is that memory:

* ``log_send``      — retain a copy of each outgoing payload, keyed by
  the reliable transport's per-channel sequence number;
* ``on_consume``    — advance the receiver's per-channel consumption
  cursor and append/verify its determinant entry;
* ``log_collective``/``replay_collective`` — collective results are
  logged per ``(vp, comm, seq)`` at completion, so a recovering rank
  replays collectives that survivors already finished without a new
  rendezvous (which could never complete — survivors will not re-enter);
* ``replay_match``  — serve a recovering rank's posted receive from the
  log, in determinant order for wildcard sources;
* ``on_checkpoint`` — snapshot every cursor (channel send seqs, consume
  windows, determinant positions, collective sequence counters) and
  garbage-collect log entries the checkpoint made unreachable;
* ``rollback``      — rewind exactly the recovering ranks' cursors to
  the snapshot and discard their own post-checkpoint log entries (those
  re-sends regenerate during replay).

Logging requires ``transport="reliable"``: channel sequence numbers are
the identity that makes replay suppression and exactly-once delivery
work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.ampi.collectives import _copy_payload
from repro.charm.messages import ANY_TAG, Message
from repro.net.reliable import SeqWindow
from repro.perf.counters import CounterSet, EV_LOG_BYTES

if TYPE_CHECKING:  # pragma: no cover
    from repro.ampi.runtime import AmpiJob


@dataclass(slots=True)
class LoggedMessage:
    """One sender-side log entry (a payload copy plus matching metadata)."""

    src_vp: int
    dst_vp: int
    seq: int          #: channel sequence number (reliable transport)
    src: int          #: sender's communicator rank
    dst: int          #: receiver's communicator rank
    tag: int
    comm_id: int
    payload: Any
    nbytes: int


class _DetLog:
    """One receiver's determinant sequence ``(src_vp, chan_seq)``.

    Positions are absolute (stable across front-truncation GC):
    ``items[i - base]`` holds determinant ``i``; ``pos`` is the next
    position to consume.  Outside replay ``pos == end`` and consumption
    appends; during replay ``pos < end`` and consumption re-confirms the
    recorded order.
    """

    __slots__ = ("base", "items", "pos")

    def __init__(self) -> None:
        self.base = 0
        self.items: list[tuple[int, int]] = []
        self.pos = 0

    @property
    def end(self) -> int:
        return self.base + len(self.items)

    def at(self, pos: int) -> tuple[int, int]:
        return self.items[pos - self.base]

    def gc(self) -> None:
        """Drop determinants before the current position (checkpointed
        history is never replayed)."""
        del self.items[: self.pos - self.base]
        self.base = self.pos


@dataclass
class _CkptCursors:
    """Every replay cursor as of the last accepted checkpoint."""

    send_seqs: dict[tuple[int, int], int] = field(default_factory=dict)
    consumed: dict[tuple[int, int], tuple[int, frozenset]] = \
        field(default_factory=dict)
    det_pos: dict[int, int] = field(default_factory=dict)
    coll_seq: dict[tuple[int, int], int] = field(default_factory=dict)


class MessageLogger:
    """Owns the job's message/determinant/collective logs and cursors."""

    def __init__(self, counters: CounterSet):
        self.counters = counters
        #: (src_vp, dst_vp) -> {chan_seq: LoggedMessage}
        self._entries: dict[tuple[int, int], dict[int, LoggedMessage]] = {}
        #: (src_vp, dst_vp) -> consumed chan_seqs (receiver side)
        self._consumed: dict[tuple[int, int], SeqWindow] = {}
        self._determinants: dict[int, _DetLog] = {}
        #: (vp, comm cid, collective seq) -> (release_ns, result)
        self._coll_log: dict[tuple[int, int, int], tuple[int, Any]] = {}
        self._ckpt = _CkptCursors()
        #: ranks that have ever been locally rolled back; their receives
        #: consult the log first until its entries run dry
        self.replaying: set[int] = set()
        self.logged_msgs = 0
        self.logged_bytes = 0

    # -- recording (failure-free fast path) ------------------------------------------

    def log_send(self, msg: Message) -> None:
        """Retain ``msg`` after the transport assigned its ``chan_seq``."""
        key = (msg.src_vp, msg.dst_vp)
        chan = self._entries.get(key)
        if chan is None:
            chan = self._entries[key] = {}
        chan[msg.chan_seq] = LoggedMessage(
            src_vp=msg.src_vp, dst_vp=msg.dst_vp, seq=msg.chan_seq,
            src=msg.src, dst=msg.dst, tag=msg.tag, comm_id=msg.comm_id,
            payload=_copy_payload(msg.payload), nbytes=msg.nbytes,
        )
        self.logged_msgs += 1
        self.logged_bytes += msg.nbytes
        self.counters.incr(EV_LOG_BYTES, msg.nbytes)

    def on_consume(self, vp: int, src_vp: int, chan_seq: int) -> None:
        """A receive completed: record the determinant and mark the
        channel sequence number consumed."""
        if chan_seq < 0:
            return  # collective-internal or priced-transport delivery
        w = self._consumed.get((src_vp, vp))
        if w is None:
            w = self._consumed[(src_vp, vp)] = SeqWindow()
        w.add(chan_seq)
        d = self._determinants.get(vp)
        if d is None:
            d = self._determinants[vp] = _DetLog()
        if d.pos < d.end:
            d.pos += 1  # replay: the recorded determinant re-confirmed
        else:
            d.items.append((src_vp, chan_seq))
            d.pos = d.end

    def log_collective(self, vp: int, cid: int, seq: int, release_ns: int,
                       result: Any) -> None:
        self._coll_log[(vp, cid, seq)] = (release_ns, _copy_payload(result))

    def already_consumed(self, dst_vp: int, src_vp: int,
                         chan_seq: int) -> bool:
        """Has ``dst_vp`` already consumed this channel sequence number?

        The MPI match layer uses this to discard duplicate copies of a
        message that reached the rank twice during local recovery — once
        from the sender's re-execution through the transport and once
        from this log (a co-recovering sender's re-send is re-logged the
        moment it happens, so the replaying receiver can legitimately
        see both).  Whichever copy is consumed first wins; the window
        makes the other one inert instead of satisfying a later receive
        with stale data.
        """
        if chan_seq < 0:
            return False
        w = self._consumed.get((src_vp, dst_vp))
        return w is not None and chan_seq in w

    # -- replay ------------------------------------------------------------------------

    def is_replaying(self, vp: int) -> bool:
        return vp in self.replaying

    def replay_collective(self, vp: int, cid: int,
                          seq: int) -> tuple[int, Any] | None:
        """Logged ``(release_ns, result)`` of a collective this rank
        already completed in the lost timeline, or None."""
        hit = self._coll_log.get((vp, cid, seq))
        if hit is None:
            return None
        return hit[0], _copy_payload(hit[1])

    def replay_match(self, vp: int, source_vp: int | None, tag: int,
                     comm_id: int) -> Message | None:
        """Serve a posted receive of recovering rank ``vp`` from the log.

        ``source_vp`` is the sender's virtual rank, or None for
        MPI_ANY_SOURCE — which replays in recorded determinant order.
        Returns a Message built from the logged entry (not yet marked
        consumed: completion flows through the normal consume hook), or
        None when the log holds nothing for this receive (the matching
        send either never happened before the crash, or regenerates from
        a recovering sender's own re-execution).
        """
        if vp not in self.replaying:
            return None
        if source_vp is None:
            d = self._determinants.get(vp)
            if d is None or d.pos >= d.end:
                return None
            det_src, det_seq = d.at(d.pos)
            entry = self._entries.get((det_src, vp), {}).get(det_seq)
            if entry is None:
                return None  # sender also rolled back; will re-send
            if entry.comm_id != comm_id or \
                    (tag != ANY_TAG and entry.tag != tag):
                return None
            return self._to_message(entry)
        chan = self._entries.get((source_vp, vp))
        if not chan:
            return None
        w = self._consumed.get((source_vp, vp))
        for seq in sorted(chan):
            if w is not None and seq in w:
                continue
            entry = chan[seq]
            if entry.comm_id != comm_id:
                continue
            if tag == ANY_TAG or entry.tag == tag:
                return self._to_message(entry)
            # First unconsumed entry decides per (source, tag) order;
            # a tag mismatch just means this one replays via another
            # receive — keep scanning, like Mailbox.post does.
        return None

    @staticmethod
    def _to_message(entry: LoggedMessage) -> Message:
        return Message(
            src=entry.src, dst=entry.dst, tag=entry.tag,
            comm_id=entry.comm_id,
            payload=_copy_payload(entry.payload), nbytes=entry.nbytes,
            sent_at=0, arrival=0,
            src_vp=entry.src_vp, dst_vp=entry.dst_vp, chan_seq=entry.seq,
        )

    # -- checkpoint integration -----------------------------------------------------------

    def on_checkpoint(self, job: "AmpiJob") -> None:
        """Snapshot every cursor and GC entries the checkpoint obsoleted."""
        transport = job.reliable
        self._ckpt = _CkptCursors(
            send_seqs=(transport.seq_snapshot()
                       if transport is not None else {}),
            consumed={k: (w.low, frozenset(w.seen))
                      for k, w in self._consumed.items()},
            det_pos={vp: d.pos for vp, d in self._determinants.items()},
            coll_seq=dict(job.collectives._seq),
        )
        # A rollback never reaches below this checkpoint, so anything
        # its receiver consumed by now is dead weight.
        for key, chan in list(self._entries.items()):
            w = self._consumed.get(key)
            if w is None:
                continue
            for seq in [s for s in chan if s in w]:
                entry = chan.pop(seq)
                self.logged_msgs -= 1
                self.logged_bytes -= entry.nbytes
            if not chan:
                del self._entries[key]
        for d in self._determinants.values():
            d.gc()
        snap_seq = self._ckpt.coll_seq
        self._coll_log = {
            k: v for k, v in self._coll_log.items()
            if k[2] >= snap_seq.get((k[0], k[1]), 0)
        }

    def rollback(self, vps: set[int], job: "AmpiJob") -> None:
        """Rewind the recovering ranks ``vps`` to the last checkpoint."""
        snap = self._ckpt
        if job.reliable is not None:
            job.reliable.rewind(vps, snap.send_seqs)
        # The recovering ranks' own post-checkpoint sends regenerate
        # during replay; pre-checkpoint entries stay servable (logged
        # state is checkpointed with its sender, like Charm++'s
        # sender-side logs).
        for (src, dst), chan in list(self._entries.items()):
            if src in vps:
                cut = snap.send_seqs.get((src, dst), 0)
                for seq in [s for s in chan if s >= cut]:
                    entry = chan.pop(seq)
                    self.logged_msgs -= 1
                    self.logged_bytes -= entry.nbytes
                if not chan:
                    del self._entries[(src, dst)]
        for key, w in self._consumed.items():
            if key[1] in vps:
                low, seen = snap.consumed.get(key, (0, frozenset()))
                w.low = low
                w.seen = set(seen)
        for vp in vps:
            d = self._determinants.get(vp)
            if d is not None:
                d.pos = snap.det_pos.get(vp, d.base)
        engine_seq = job.collectives._seq
        for key in list(engine_seq):
            if key[0] in vps:
                engine_seq[key] = snap.coll_seq.get(key, 0)
        self.replaying |= set(vps)
