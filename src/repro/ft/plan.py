"""Fault plans: *what* fails, *when*, decided before the job runs.

A :class:`FaultPlan` is immutable data — node crashes pinned to
simulated-ns instants plus per-message fault probabilities.  The plan
never consults a wall clock or a stateful generator, so two jobs built
from the same plan inject byte-for-byte identical fault sequences
(the determinism acceptance bar for this subsystem).

:class:`FaultInjector` is the small mutable cursor that walks a plan
during one job: it remembers which crashes already fired and numbers
the messages so each send's fault decision is
``CounterRng(seed, "msg").uniform(message_index)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError
from repro.ft.prng import CounterRng
from repro.perf.counters import (
    CounterSet,
    EV_FAULT,
    EV_MSG_FAULT_CORRUPT,
    EV_MSG_FAULT_DROP,
    EV_MSG_FAULT_DUP,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.recorder import TraceRecorder


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` dies at simulated instant ``at_ns``.

    The crash takes effect at the first scheduling decision at or after
    ``at_ns`` (the simulator's event granularity): every PE on the node
    fails and every rank resident there is lost.
    """

    at_ns: int
    node: int

    def __post_init__(self) -> None:
        if self.at_ns < 0:
            raise ReproError(f"crash time must be >= 0, got {self.at_ns}")
        if self.node < 0:
            raise ReproError(f"node index must be >= 0, got {self.node}")

    def to_dict(self) -> dict:
        return {"at_ns": self.at_ns, "node": self.node}

    @classmethod
    def from_dict(cls, d: dict) -> "NodeCrash":
        return cls(at_ns=d["at_ns"], node=d["node"])


@dataclass(frozen=True)
class MessageFaults:
    """Per-message fault probabilities for point-to-point traffic.

    How a fault is paid for depends on the job's transport:

    * ``transport="priced"`` does not model the repair protocol — each
      faulted send is charged a flat latency lump
      (:meth:`FaultInjector.message_penalty_ns`: ``retry_timeout_ns``
      plus a retransmission for drop/corrupt, one overhead for a
      discarded duplicate) on its one-and-only delivery;
    * ``transport="reliable"`` runs the real protocol
      (:mod:`repro.net.reliable`): one fault draw per transmission
      *attempt*, checksum rejection, dedup windows, and retransmission
      timers with ``retry_timeout_ns`` as the base RTO (exponential
      backoff) — no flat penalty is ever added on top.

    Either way the payload arrives intact exactly once, so faults cost
    latency but never change application data — numerics stay identical
    to a fault-free run.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    #: priced transport: detection + retransmission lump per lost or
    #: corrupt message; reliable transport: base retransmission timeout
    retry_timeout_ns: int = 50_000

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ReproError(f"{name} probability must be in [0,1], "
                                 f"got {p}")
        if self.drop + self.duplicate + self.corrupt > 1.0:
            raise ReproError("fault probabilities must sum to <= 1")
        if self.retry_timeout_ns < 0:
            raise ReproError("retry_timeout_ns must be >= 0")

    @property
    def any(self) -> bool:
        return (self.drop + self.duplicate + self.corrupt) > 0.0

    def to_dict(self) -> dict:
        return {"drop": self.drop, "duplicate": self.duplicate,
                "corrupt": self.corrupt,
                "retry_timeout_ns": self.retry_timeout_ns}

    @classmethod
    def from_dict(cls, d: dict) -> "MessageFaults":
        return cls(drop=d.get("drop", 0.0),
                   duplicate=d.get("duplicate", 0.0),
                   corrupt=d.get("corrupt", 0.0),
                   retry_timeout_ns=d.get("retry_timeout_ns", 50_000))


@dataclass(frozen=True)
class FaultPlan:
    """The complete, deterministic fault schedule for one job."""

    seed: int = 0
    node_crashes: tuple[NodeCrash, ...] = ()
    message_faults: MessageFaults | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ReproError("fault-plan seed must be non-negative")
        # Normalize: accept any iterable of crashes, store sorted tuple.
        crashes = tuple(sorted(self.node_crashes,
                               key=lambda c: (c.at_ns, c.node)))
        object.__setattr__(self, "node_crashes", crashes)

    @staticmethod
    def mid_app_window(startup_ns: int, app_ns: int) -> tuple[int, int]:
        """The ``window`` calibrated on a fault-free baseline run: the
        middle of its application phase, ``[startup + app/10, startup +
        8*app/10)``, never empty.  The fault sweep and the chaos
        scenarios both place their crashes here."""
        lo = startup_ns + app_ns // 10
        hi = startup_ns + (app_ns * 8) // 10
        return lo, max(hi, lo + 1)

    @classmethod
    def random_crashes(cls, seed: int, k: int, nodes: int,
                       window: tuple[int, int],
                       message_faults: MessageFaults | None = None,
                       ) -> "FaultPlan":
        """``k`` crashes of distinct nodes at seeded-random instants in
        ``[window[0], window[1])``.

        Deterministic in ``(seed, k, nodes, window)``; the first ``j``
        crashes of a ``k``-crash plan equal the ``j``-crash plan, so
        overhead sweeps over ``k`` nest naturally.
        """
        if k < 0:
            raise ReproError("crash count must be >= 0")
        if k > nodes:
            raise ReproError(f"cannot crash {k} distinct nodes out of "
                             f"{nodes}")
        lo, hi = window
        if not 0 <= lo < hi:
            raise ReproError(f"bad crash window {window!r}")
        rng = CounterRng(seed, "crash")
        crashes = []
        alive = list(range(nodes))
        for i in range(k):
            at = lo + rng.randrange(2 * i, hi - lo)
            node = alive.pop(rng.randrange(2 * i + 1, len(alive)))
            crashes.append(NodeCrash(at_ns=at, node=node))
        return cls(seed=seed, node_crashes=tuple(crashes),
                   message_faults=message_faults)

    def to_dict(self) -> dict:
        """JSON-able encoding; :meth:`from_dict` round-trips it, so any
        result row that embeds its plan is reproducible by itself."""
        return {
            "seed": self.seed,
            "node_crashes": [c.to_dict() for c in self.node_crashes],
            "message_faults": (self.message_faults.to_dict()
                               if self.message_faults is not None else None),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        mf = d.get("message_faults")
        return cls(
            seed=d.get("seed", 0),
            node_crashes=tuple(NodeCrash.from_dict(c)
                               for c in d.get("node_crashes", ())),
            message_faults=(MessageFaults.from_dict(mf)
                            if mf is not None else None),
        )


#: message fault kinds in draw order (drop | duplicate | corrupt)
MSG_FAULT_KINDS = ("drop", "duplicate", "corrupt")
_MSG_FAULT_EVENTS = dict(zip(MSG_FAULT_KINDS, (
    EV_MSG_FAULT_DROP, EV_MSG_FAULT_DUP, EV_MSG_FAULT_CORRUPT)))


@dataclass
class FaultInjector:
    """Mutable cursor executing a :class:`FaultPlan` during one job."""

    plan: FaultPlan
    _crash_idx: int = 0
    _msg_idx: int = field(default=0, repr=False)
    _msg_rng: CounterRng | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._msg_rng = CounterRng(self.plan.seed, "msg")

    # -- node crashes -----------------------------------------------------------

    def next_crash(self, now_ns: int) -> NodeCrash | None:
        """Pop the next crash due at or before ``now_ns``, if any."""
        crashes = self.plan.node_crashes
        if (self._crash_idx < len(crashes)
                and crashes[self._crash_idx].at_ns <= now_ns):
            crash = crashes[self._crash_idx]
            self._crash_idx += 1
            return crash
        return None

    @property
    def pending_crashes(self) -> int:
        return len(self.plan.node_crashes) - self._crash_idx

    # -- draw accounting --------------------------------------------------------

    @property
    def draws(self) -> int:
        """Message-fault decisions consumed so far.

        The determinism ledger: exactly one draw is spent per
        transmission *attempt* (``transport="reliable"``) or per send
        (``transport="priced"``), so after a run this reconciles with
        the transport counters — see
        :func:`repro.chaos.invariants.check_fault_draws`.
        """
        return self._msg_idx

    # -- message faults -----------------------------------------------------------

    def next_message_fault(self) -> str | None:
        """Fault kind for the next point-to-point send (or None).

        Decision ``i`` depends only on ``(seed, i)`` — the i-th send of
        a run is faulted identically in every replay.
        """
        mf = self.plan.message_faults
        if mf is None or not mf.any:
            return None
        i = self._msg_idx
        self._msg_idx += 1
        r = self._msg_rng.uniform(i)
        acc = 0.0
        for kind in MSG_FAULT_KINDS:
            acc += getattr(mf, kind)
            if r < acc:
                return kind
        return None

    def draw_message_fault(self, counters: CounterSet,
                           trace: "TraceRecorder | None", at_ns: int,
                           pid: int, tid: int,
                           args: dict[str, Any]) -> str | None:
        """:meth:`next_message_fault`, accounted for: a fault is counted
        (``EV_FAULT`` + its kind's counter) and leaves a
        ``fault:msg-<kind>`` instant on the sender's trace track.  Both
        transports draw through here."""
        fault = self.next_message_fault()
        if fault is not None:
            counters.incr(EV_FAULT)
            counters.incr(_MSG_FAULT_EVENTS[fault])
            if trace is not None:
                trace.instant(f"fault:msg-{fault}", "ft", at_ns,
                              pid=pid, tid=tid, args=args)
        return fault

    def message_penalty_ns(self, kind: str, transfer_ns: int,
                           msg_overhead_ns: int) -> int:
        """Extra latency the transport pays to repair fault ``kind``."""
        mf = self.plan.message_faults
        if kind in ("drop", "corrupt"):
            # Detected (timeout / checksum), then fully retransmitted.
            return mf.retry_timeout_ns + transfer_ns
        if kind == "duplicate":
            # Receiver identifies and discards the spurious copy.
            return msg_overhead_ns
        raise ReproError(f"unknown message fault kind {kind!r}")
