"""Reliable transport protocol over the cost-oracle :class:`Network`.

:class:`~repro.net.network.Network` prices a transfer; this module makes
delivery *survive faults*.  Every directed pair of virtual ranks is a
channel with its own sequence numbers; each transmission attempt is a
:class:`Frame` carrying a CRC32 header checksum; the receiver keeps a
dedup window per channel; lost or corrupt frames time out at the sender
and are retransmitted with exponential backoff — all on the simulated
clock, through :meth:`JobScheduler.add_timer
<repro.charm.scheduler.JobScheduler.add_timer>` timers.

Fault decisions come from the job's :class:`~repro.ft.plan.FaultInjector`
(one draw per *attempt*, not per MPI send), so a run is deterministic in
the plan seed: same seed, same drops, same retransmission schedule,
byte-identical timeline.  The payload itself is delivered exactly once,
bit-intact, and *in channel order* — a corrupt frame is discarded on
checksum mismatch and retransmitted, and a later frame that overtakes
the retransmission is held at the receiver until the gap fills
(:meth:`ReliableTransport._complete`), preserving MPI's non-overtaking
guarantee — so numerics always match a failure-free run and only
latency is lost.  This replaces the flat
:meth:`~repro.ft.plan.FaultInjector.message_penalty_ns` lump of the
``transport="priced"`` path, which stays available for back-compat.

Local rollback recovery rewinds channels through :meth:`snapshot
<ReliableTransport.seq_snapshot>`/:meth:`rewind
<ReliableTransport.rewind>`: recovering senders reuse their checkpointed
sequence numbers, so their replayed re-sends land below survivors' dedup
windows and are suppressed instead of double-delivered; per-channel
epochs squash retransmission timers that belong to the rolled-back
timeline.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import FaultUnrecoverableError
from repro.perf.counters import (
    CounterSet,
    EV_ACK,
    EV_CKSUM_FAIL,
    EV_DEDUP_DROP,
    EV_REORDER_HOLD,
    EV_RETRANS,
    EV_RTO_CANCEL,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.messages import Message
    from repro.charm.scheduler import JobScheduler
    from repro.ft.plan import FaultInjector
    from repro.trace.recorder import TraceRecorder

#: a sender gives up (and the job fails, structured) after this many
#: transmission attempts of one frame — only reachable with drop/corrupt
#: probabilities at or near 1.0
MAX_ATTEMPTS = 64

#: exponent cap for the retransmission backoff: rto * 2**min(attempt, cap)
BACKOFF_CAP = 4


def header_checksum(src_vp: int, dst_vp: int, seq: int, tag: int,
                    nbytes: int) -> int:
    """CRC32 over the deterministic wire encoding of a frame header."""
    return zlib.crc32(struct.pack("<qqqqq", src_vp, dst_vp, seq, tag,
                                  nbytes))


@dataclass(slots=True)
class Frame:
    """One transmission attempt of a channel sequence number."""

    src_vp: int
    dst_vp: int
    seq: int          #: channel sequence number (shared by all attempts)
    tag: int
    nbytes: int
    checksum: int     #: as transmitted — differs from the header CRC
                      #: when the fault plan corrupted this attempt
    attempt: int
    sent_at: int

    def checksum_ok(self) -> bool:
        return self.checksum == header_checksum(
            self.src_vp, self.dst_vp, self.seq, self.tag, self.nbytes
        )


class SeqWindow:
    """Receiver-side dedup window: the set of delivered sequence numbers,
    compressed as a low watermark plus a sparse set above it.  With
    in-order release (see :meth:`ReliableTransport._complete`) delivery
    is contiguous and the watermark does all the work; the sparse set
    survives for rewound channels, whose watermark restarts at 0."""

    __slots__ = ("low", "seen")

    def __init__(self) -> None:
        self.low = 0
        self.seen: set[int] = set()

    def __contains__(self, seq: int) -> bool:
        return seq < self.low or seq in self.seen

    def add(self, seq: int) -> None:
        self.seen.add(seq)
        while self.low in self.seen:
            self.seen.remove(self.low)
            self.low += 1

    def reset(self) -> None:
        self.low = 0
        self.seen.clear()


class ChannelState:
    """Per-(src_vp, dst_vp) protocol state."""

    __slots__ = ("next_seq", "window", "epoch", "deliver_next", "pending")

    def __init__(self) -> None:
        self.next_seq = 0        #: sender: next sequence number to assign
        self.window = SeqWindow()  #: receiver: delivered seqs (dedup)
        self.epoch = 0           #: bumped on rollback to squash timers
        self.deliver_next = 0    #: receiver: next seq releasable in order
        #: frames that arrived ahead of a retransmitted predecessor,
        #: held until the gap fills: seq -> (msg, arrival, deliver, pid)
        self.pending: dict[int, tuple[Any, int, Callable, int]] = {}


class ReliableTransport:
    """Executes the seq/ack/retransmit protocol for one job.

    The simulator's send path stays push-based: :meth:`send` runs the
    first attempt immediately and either invokes ``deliver(msg)`` (the
    job's delivery hook) with the final arrival time, or schedules a
    retransmission timer on the scheduler and delivers from the timer
    callback chain.  Acks are modelled as bookkeeping (counter + trace):
    the sender's window is large enough that it never blocks on one, so
    an ack's only protocol effect — cancelling the RTO — is folded into
    not scheduling it.
    """

    def __init__(self, scheduler: "JobScheduler", counters: CounterSet,
                 injector: "FaultInjector | None" = None,
                 rto_ns: int = 50_000,
                 trace: "TraceRecorder | None" = None):
        self.scheduler = scheduler
        self.counters = counters
        self.injector = injector
        self.rto_ns = max(1, int(rto_ns))
        self.trace = trace
        self._channels: dict[tuple[int, int], ChannelState] = {}

    def channel(self, src_vp: int, dst_vp: int) -> ChannelState:
        key = (src_vp, dst_vp)
        ch = self._channels.get(key)
        if ch is None:
            ch = self._channels[key] = ChannelState()
        return ch

    def rto(self, attempt: int) -> int:
        """Retransmission timeout before attempt ``attempt + 1``."""
        return self.rto_ns * (2 ** min(attempt, BACKOFF_CAP))

    # -- the protocol ---------------------------------------------------------------

    def send(self, msg: "Message", transfer_ns: int,
             deliver: Callable[["Message"], None],
             trace_pid: int = 0) -> bool:
        """Transmit ``msg`` (its ``src_vp``/``dst_vp``/``sent_at`` must be
        set); assigns ``msg.chan_seq``.

        Returns False when the channel sequence number was already
        delivered — a replayed re-send after local rollback — in which
        case ``deliver`` is never called (the receiver consumed the
        original before the crash).  Otherwise the frame is delivered
        now or after retransmissions, exactly once.
        """
        ch = self.channel(msg.src_vp, msg.dst_vp)
        seq = ch.next_seq
        ch.next_seq = seq + 1
        msg.chan_seq = seq
        if seq in ch.window:
            self.counters.incr(EV_DEDUP_DROP)
            if self.trace is not None:
                self.trace.instant(
                    "net:dedup-resend", "net", msg.sent_at, pid=trace_pid,
                    tid=msg.src_vp, args={"dst_vp": msg.dst_vp, "seq": seq},
                )
            return False
        self._attempt(ch, msg, transfer_ns, deliver, 0, msg.sent_at,
                      trace_pid)
        return True

    def _attempt(self, ch: ChannelState, msg: "Message", transfer_ns: int,
                 deliver: Callable[["Message"], None], attempt: int,
                 at_ns: int, trace_pid: int) -> None:
        if attempt >= MAX_ATTEMPTS:
            raise FaultUnrecoverableError(
                f"reliable transport gave up on channel "
                f"{msg.src_vp}->{msg.dst_vp} seq {msg.chan_seq} after "
                f"{attempt} attempts",
                reason="retrans-exhausted",
            )
        counters = self.counters
        tr = self.trace
        fault = (self.injector.draw_message_fault(
                     counters, tr, at_ns, trace_pid, msg.src_vp,
                     {"dst_vp": msg.dst_vp, "seq": msg.chan_seq,
                      "attempt": attempt})
                 if self.injector is not None else None)
        good_sum = header_checksum(msg.src_vp, msg.dst_vp, msg.chan_seq,
                                   msg.tag, msg.nbytes)
        frame = Frame(
            src_vp=msg.src_vp, dst_vp=msg.dst_vp, seq=msg.chan_seq,
            tag=msg.tag, nbytes=msg.nbytes,
            checksum=good_sum ^ 0xFFFFFFFF if fault == "corrupt"
            else good_sum,
            attempt=attempt, sent_at=at_ns,
        )

        if fault == "drop":
            self._schedule_retransmit(ch, msg, transfer_ns, deliver,
                                      attempt, at_ns, trace_pid)
            return
        if fault == "corrupt":
            # The frame traverses the wire but fails its checksum at the
            # receiver, which discards it silently; the sender's RTO
            # fires as if it were dropped.
            assert not frame.checksum_ok()
            counters.incr(EV_CKSUM_FAIL)
            if tr is not None:
                tr.instant(
                    "net:checksum-fail", "net", at_ns + transfer_ns,
                    pid=trace_pid, tid=msg.dst_vp,
                    args={"src_vp": msg.src_vp, "seq": msg.chan_seq},
                )
            self._schedule_retransmit(ch, msg, transfer_ns, deliver,
                                      attempt, at_ns, trace_pid)
            return
        if fault == "duplicate":
            # Two copies of the same good frame arrive; the second is
            # inside the dedup window by then and is dropped.
            counters.incr(EV_DEDUP_DROP)
            if tr is not None:
                tr.instant(
                    "net:dedup-drop", "net", at_ns + transfer_ns,
                    pid=trace_pid, tid=msg.dst_vp,
                    args={"src_vp": msg.src_vp, "seq": msg.chan_seq},
                )
        self._complete(ch, msg, at_ns + transfer_ns, deliver, trace_pid)

    def _schedule_retransmit(self, ch: ChannelState, msg: "Message",
                             transfer_ns: int,
                             deliver: Callable[["Message"], None],
                             attempt: int, at_ns: int,
                             trace_pid: int) -> None:
        epoch = ch.epoch
        fire_at = at_ns + self.rto(attempt)

        def retransmit() -> None:
            if ch.epoch != epoch:
                return  # channel rolled back; this timeline is gone
            self.counters.incr(EV_RETRANS)
            if self.trace is not None:
                self.trace.instant(
                    "net:retransmit", "net", fire_at, pid=trace_pid,
                    tid=msg.src_vp,
                    args={"dst_vp": msg.dst_vp, "seq": msg.chan_seq,
                          "attempt": attempt + 1},
                )
            self._attempt(ch, msg, transfer_ns, deliver, attempt + 1,
                          fire_at, trace_pid)

        self.scheduler.add_timer(fire_at, retransmit)

    def _complete(self, ch: ChannelState, msg: "Message", arrival: int,
                  deliver: Callable[["Message"], None],
                  trace_pid: int) -> None:
        """A good frame reached the receiver: ack it, then release it —
        and any frames queued behind it — in sequence order.

        The ack (counter + trace) belongs to the physical arrival, so
        the fault-draw accounting identity (draws == acks + drops +
        corrupts) holds regardless of reordering.  Delivery is gated on
        ``deliver_next``: a frame that overtook a retransmitted
        predecessor is *held* rather than delivered, because MPI
        guarantees non-overtaking per channel — an overtaking halo frame
        would match the wrong iteration's posted receive and silently
        corrupt numerics.  The gap always fills (the sender retries the
        missing seq until it lands or dies retrans-exhausted), at which
        point the contiguous run of held frames flushes with a monotone
        release clock.
        """
        self.counters.incr(EV_ACK)
        if self.trace is not None:
            self.trace.instant(
                "net:ack", "net", arrival, pid=trace_pid, tid=msg.dst_vp,
                args={"src_vp": msg.src_vp, "seq": msg.chan_seq},
            )
        if msg.chan_seq != ch.deliver_next:
            self.counters.incr(EV_REORDER_HOLD)
            if self.trace is not None:
                self.trace.instant(
                    "net:reorder-hold", "net", arrival, pid=trace_pid,
                    tid=msg.dst_vp,
                    args={"src_vp": msg.src_vp, "seq": msg.chan_seq,
                          "awaiting": ch.deliver_next},
                )
            ch.pending[msg.chan_seq] = (msg, arrival, deliver, trace_pid)
            return
        self._release(ch, msg, arrival, deliver)
        floor = arrival
        while ch.deliver_next in ch.pending:
            held, held_at, held_deliver, held_pid = ch.pending.pop(
                ch.deliver_next)
            floor = max(floor, held_at)
            if self.trace is not None:
                self.trace.instant(
                    "net:reorder-release", "net", floor, pid=held_pid,
                    tid=held.dst_vp,
                    args={"src_vp": held.src_vp, "seq": held.chan_seq},
                )
            self._release(ch, held, floor, held_deliver)

    def _release(self, ch: ChannelState, msg: "Message", arrival: int,
                 deliver: Callable[["Message"], None]) -> None:
        """Hand one frame to the job, in order.  The dedup window only
        records *released* seqs: a held-but-undelivered frame must not
        suppress its own replayed re-send after a rollback."""
        ch.window.add(msg.chan_seq)
        ch.deliver_next = msg.chan_seq + 1
        msg.arrival = arrival
        deliver(msg)

    # -- crash support ------------------------------------------------------------------

    def on_crash(self, dead_vps: set[int]) -> int:
        """Suppress pending RTO chains touching dead endpoints.

        Called by the recovery manager the moment a node crash is
        detected — *before* recoverability is even decided — so that
        retransmission timers aimed at (or armed by) a dead rank stop
        firing immediately instead of burning attempts, and fault draws,
        toward the :data:`MAX_ATTEMPTS` cap against an endpoint that no
        longer exists.  Without this, a caught-and-continued
        unrecoverable run can be re-classified as ``retrans-exhausted``
        by a stale timer chain, and recovery pricing depends on how many
        zombie retransmissions happened to fire first.

        Bumping the channel epoch is the cancellation mechanism (the
        same one :meth:`rewind` uses): the timer callbacks remain in the
        scheduler heap but become no-ops.  Fresh sends on the channel —
        e.g. a recovered rank replaying — capture the new epoch and
        retransmit normally.  Returns the number of channels squashed.
        """
        squashed = 0
        for (src, dst), ch in self._channels.items():
            if src in dead_vps or dst in dead_vps:
                ch.epoch += 1
                squashed += 1
        if squashed:
            self.counters.incr(EV_RTO_CANCEL, squashed)
        return squashed

    # -- local-rollback support -------------------------------------------------------

    def seq_snapshot(self) -> dict[tuple[int, int], int]:
        """Sender-side next_seq per channel (checkpoint state for the
        message log)."""
        return {key: ch.next_seq for key, ch in self._channels.items()}

    def rewind(self, vps: set[int],
               send_seqs: dict[tuple[int, int], int]) -> None:
        """Roll the channels of recovering ranks ``vps`` back.

        Channels *from* a recovering rank resume at their checkpointed
        sequence number, so replayed re-sends reuse the original seqs
        and survivors' dedup windows suppress them; frames of theirs
        held for reordering belong to the lost timeline and are dropped
        (the replay re-sends them).  Channels *to* a recovering rank
        clear their window (the receiver's mailbox was reset;
        re-deliveries during replay are legitimate) and restart their
        in-order cursor at the sender's post-rewind ``next_seq`` — the
        lowest seq that will actually arrive on the wire, whether the
        sender is a co-recovering rank replaying from its checkpointed
        cursor or a survivor continuing where it left off (the message
        log re-delivers anything older without touching the transport).
        Every touched channel's epoch is bumped, squashing in-flight
        retransmission timers from the lost timeline.
        """
        for (src, dst), ch in self._channels.items():
            if src in vps:
                ch.next_seq = send_seqs.get((src, dst), 0)
                ch.pending.clear()
                ch.epoch += 1
            if dst in vps:
                ch.window.reset()
                ch.pending.clear()
                ch.deliver_next = ch.next_seq
                ch.epoch += 1

    # -- global-rollback support --------------------------------------------------------

    def resync(self) -> None:
        """Resynchronize every channel after a *global* rollback.

        Global recovery flushes the scheduler outright, so every
        in-flight retransmission chain dies with its timers; the ranks
        then replay from their checkpoints and re-send with *fresh*
        sequence numbers (``next_seq`` is not checkpointed on this
        path).  A seq that was mid-retransmission at the crash will
        therefore never complete — without this hook it would pin
        ``deliver_next`` forever and every post-rollback frame on the
        channel would be held as "out of order".  Jump each receive
        cursor to the channel's send cursor, drop frames held for the
        dead timeline, and bump epochs as belt-and-braces against any
        surviving timer callback.
        """
        for ch in self._channels.values():
            ch.epoch += 1
            ch.pending.clear()
            ch.deliver_next = ch.next_seq
