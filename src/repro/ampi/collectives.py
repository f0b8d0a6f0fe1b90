"""Collective communication engine.

Collectives are synchronizing rendezvous: each participating rank enters
with a contribution and blocks until the operation's completion rule
releases it.  Cost models are tree-based (``ceil(log2 n)`` steps at the
communicator's worst latency regime, plus payload serialization), which
is what makes overdecomposition + load balancing visible in end-to-end
application timing: a barrier releases at the *latest* arrival, so
imbalance is paid at every synchronization point.

Reductions run over the Charm-style PE spanning tree
(:mod:`repro.charm.reduction`), which is what surfaces the PIEglobals
empty-PE user-op error.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.charm.reduction import reduce_over_pes, tree_depth
from repro.errors import MpiError
from repro.ampi.comm import Communicator
from repro.ampi.datatypes import loaded_numpy, payload_nbytes
from repro.ampi.ops import Op
from repro.perf.counters import EV_REPLAYED

if TYPE_CHECKING:  # pragma: no cover
    from repro.ampi.runtime import AmpiJob
    from repro.charm.vrank import VirtualRank


def _copy_payload(obj: Any) -> Any:
    """Receiver-side buffer copy (each rank owns its result)."""
    np = loaded_numpy()
    if np is not None and isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, (int, float, complex, str, bytes, bool, type(None))):
        return obj
    return copy.deepcopy(obj)


@dataclass
class CollectiveState:
    kind: str
    comm: Communicator
    seq: int
    params: dict[str, Any] = field(default_factory=dict)
    arrivals: dict[int, tuple[int, Any]] = field(default_factory=dict)
    blocked: set[int] = field(default_factory=set)
    #: comm rank -> (release time, result); filled by the last arriver
    releases: dict[int, tuple[int, Any]] = field(default_factory=dict)


class CollectiveEngine:
    def __init__(self, job: "AmpiJob"):
        self.job = job
        self._states: dict[tuple[int, int], CollectiveState] = {}
        self._seq: dict[tuple[int, int], int] = {}
        self.completed = 0

    def reset(self) -> None:
        """Forget every in-flight collective and sequence number.

        Fault-recovery rollback: ranks replay from the checkpoint, so
        their collective call numbering restarts from zero; partially
        assembled rendezvous states are garbage from the lost timeline.
        ``completed`` is cumulative history and is kept.
        """
        self._states.clear()
        self._seq.clear()

    def purge_ranks(self, vps: set[int]) -> None:
        """Retract dead ranks from in-flight rendezvous (local recovery).

        Survivors' partial states stay live — the recovering ranks
        re-arrive during replay and complete them; only the lost
        timeline's arrivals must go.
        """
        for state in self._states.values():
            comm = state.comm
            for vp in vps:
                if vp in comm.group:
                    r = comm.rank_of_vp(vp)
                    state.arrivals.pop(r, None)
                    state.blocked.discard(r)

    # -- entry point -------------------------------------------------------------

    def enter(self, kind: str, rank: "VirtualRank",
              comm: Communicator | None = None, contribution: Any = None,
              **params: Any) -> Generator[str, None, Any]:
        """The one way into a collective; called from the rank's ULT,
        a generator that blocks as needed (delegate with ``yield from``).
        ``kind`` comes first so that the transport entry of a
        synchronising entry point is this method with its kind bound
        (:func:`repro.ampi.funcptr.pack_transport`); no communicator
        means MPI_COMM_WORLD."""
        if comm is None:
            comm = self.job.world
        my = comm.rank_of_vp(rank.vp)
        key = (rank.vp, comm.cid)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1

        ml = self.job.msglog
        if ml is not None and ml.is_replaying(rank.vp):
            # A recovering rank re-enters a collective that completed in
            # the lost timeline.  Survivors will never re-enter it, so a
            # fresh rendezvous could not complete — replay the logged
            # result at its recorded release time instead.
            hit = ml.replay_collective(rank.vp, comm.cid, seq)
            if hit is not None:
                release, result = hit
                t_arrive = rank.clock.now
                rank.clock.advance_to(release)
                self.job.counters.incr(EV_REPLAYED)
                self._trace_phase(rank, comm, kind, seq, t_arrive,
                                  rank.clock.now)
                return result

        skey = (comm.cid, seq)
        state = self._states.get(skey)
        if state is None:
            state = CollectiveState(kind=kind, comm=comm, seq=seq,
                                    params=dict(params))
            self._states[skey] = state
        elif state.kind != kind:
            raise MpiError(
                f"collective mismatch on {comm.name} (call #{seq}): "
                f"rank {my} called {kind} but others called {state.kind}"
            )
        elif params:
            for k, v in params.items():
                if k in ("root", "op") and state.params.get(k) is not v \
                        and state.params.get(k) != v:
                    raise MpiError(
                        f"{kind} on {comm.name}: inconsistent {k!r} across "
                        f"ranks ({state.params.get(k)!r} vs {v!r})"
                    )

        if my in state.arrivals:
            raise MpiError(
                f"rank {my} entered {kind} #{seq} on {comm.name} twice"
            )
        t_arrive = rank.clock.now
        state.arrivals[my] = (t_arrive, contribution)

        if len(state.arrivals) < comm.size:
            state.blocked.add(my)
            yield from self.job.scheduler.block_current(f"MPI_{kind}")
            # woken: releases has our slot now
            release, result = state.releases[my]
            clock = rank.clock            # SimClock.advance_to, inline
            if release > clock.now:
                clock.now = int(release)
            if self.job.trace is not None:
                self._trace_phase(rank, comm, kind, seq, t_arrive, release)
            return result

        # Last arriver completes the operation and wakes everyone.
        self._finish(state)
        self.completed += 1
        del self._states[skey]
        if ml is not None:
            # Log at completion for *every* participant: logging on each
            # rank's own release would miss ranks that die while blocked,
            # and exactly those need the result during replay.
            for r, (rel, res) in state.releases.items():
                ml.log_collective(comm.vp_of_rank(r), comm.cid, seq,
                                  rel, res)
        # one global-heap entry per PE, not per rank (threads/runqueue.py)
        sched = self.job.scheduler
        with sched.runq.batch():
            for r in state.blocked:
                vp = comm.vp_of_rank(r)
                release, _ = state.releases[r]
                sched.wake(self.job.rank_of(vp), release)
        release, result = state.releases[my]
        rank.clock.advance_to(release)
        self._trace_phase(rank, comm, kind, seq, t_arrive, release)
        return result

    def _trace_phase(self, rank: "VirtualRank", comm: Communicator,
                     kind: str, seq: int, t_arrive: int,
                     release: int) -> None:
        """One rank's arrival-to-release interval inside a collective."""
        tr = self.job.trace
        if tr is None:
            return
        tr.span(f"coll:{kind}", "coll", t_arrive,
                max(0, release - t_arrive),
                pid=self.job.trace_pid_of(rank.pe), tid=rank.vp,
                args={"comm": comm.name, "seq": seq})

    # -- completion rules -----------------------------------------------------------

    def _finish(self, state: CollectiveState) -> None:
        fn = getattr(self, f"_finish_{state.kind}", None)
        if fn is None:
            raise MpiError(f"unknown collective kind {state.kind!r}")
        fn(state)

    def _regime_latency(self, comm: Communicator) -> int:
        """Worst pairwise latency among the comm's current PE placement."""
        costs = self.job.costs
        nodes = set()
        procs = set()
        for vp in comm.group:
            pe = self.job.rank_of(vp).pe
            nodes.add(pe.node_index)
            procs.add(pe.process.index)
        if len(nodes) > 1:
            return costs.net_latency_inter_ns
        if len(procs) > 1:
            return costs.net_latency_intra_ns
        return 0

    def _step_ns(self, comm: Communicator, nbytes: int = 0) -> int:
        return self._stepper(comm)(nbytes)

    def _stepper(self, comm: Communicator) -> Callable[..., int]:
        """Price of one tree step on ``comm`` by payload bytes, with the
        regime scanned once: placement cannot change inside a completion
        rule, so a rule pricing a step per rank prices them all here."""
        costs = self.job.costs
        lat = self._regime_latency(comm)
        bw = (costs.net_bandwidth_inter_bpns if lat >= costs.net_latency_inter_ns
              else costs.net_bandwidth_intra_bpns)
        base = costs.collective_step_ns + lat

        def step(nbytes: int = 0) -> int:
            return base + (int(nbytes / bw) if nbytes else 0)
        return step

    @staticmethod
    def _max_arrival(state: CollectiveState) -> int:
        return max(t for t, _ in state.arrivals.values())

    def _finish_barrier(self, state: CollectiveState) -> None:
        depth = tree_depth(state.comm.size)
        release = self._max_arrival(state) + depth * self._step_ns(state.comm)
        state.releases = {r: (release, None) for r in state.arrivals}

    def _finish_bcast(self, state: CollectiveState) -> None:
        comm = state.comm
        root = state.params["root"]
        root_time, value = state.arrivals[root]
        nbytes = payload_nbytes(value)
        depth = tree_depth(comm.size)
        ready = root_time + depth * self._step_ns(comm, nbytes)
        state.releases = {}
        for r, (t, _) in state.arrivals.items():
            if r == root:
                state.releases[r] = (max(t, root_time), value)
            else:
                state.releases[r] = (max(t, ready), _copy_payload(value))

    def _reduce_result(self, state: CollectiveState) -> tuple[Any, int]:
        """Run the PE-tree reduction; returns (result, op applications)."""
        comm = state.comm
        op: Op = state.params["op"]
        contributions: dict[int, list[Any]] = {}
        # Deterministic: contributions in comm-rank order, grouped by the
        # *current* PE of each rank (this is where migration-created empty
        # PEs become interior tree nodes).
        for r in range(comm.size):
            t, v = state.arrivals[r]
            pe = self.job.rank_of(comm.vp_of_rank(r)).pe
            contributions.setdefault(pe.index, []).append(_copy_payload(v))
        result, ops = reduce_over_pes(
            self.job.pes, contributions,
            lambda pe, a, b: op.apply(pe, a, b),
        )
        return result, ops

    def _finish_reduce(self, state: CollectiveState) -> None:
        comm = state.comm
        root = state.params["root"]
        result, ops = self._reduce_result(state)
        nbytes = payload_nbytes(result)
        depth = tree_depth(len(self.job.pes))
        T = self._max_arrival(state)
        step = self._stepper(comm)
        root_release = (T + depth * step(nbytes)
                        + ops * self.job.costs.reduction_op_ns)
        leave = step()
        state.releases = {}
        for r, (t, _) in state.arrivals.items():
            if r == root:
                state.releases[r] = (root_release, result)
            else:
                # Non-roots contribute and leave.
                state.releases[r] = (t + leave, None)

    def _finish_allreduce(self, state: CollectiveState) -> None:
        comm = state.comm
        result, ops = self._reduce_result(state)
        nbytes = payload_nbytes(result)
        depth = tree_depth(len(self.job.pes))
        release = (self._max_arrival(state)
                   + 2 * depth * self._step_ns(comm, nbytes)
                   + ops * self.job.costs.reduction_op_ns)
        state.releases = {
            r: (release, _copy_payload(result)) for r in state.arrivals
        }

    def _finish_gather(self, state: CollectiveState) -> None:
        comm = state.comm
        root = state.params["root"]
        values = [state.arrivals[r][1] for r in range(comm.size)]
        total = sum(payload_nbytes(v) for v in values)
        depth = tree_depth(comm.size)
        T = self._max_arrival(state)
        step = self._step_ns(comm)
        root_release = T + depth * step + int(
            total / self.job.costs.net_bandwidth_inter_bpns
        )
        state.releases = {}
        for r, (t, _) in state.arrivals.items():
            if r == root:
                state.releases[r] = (root_release,
                                     [_copy_payload(v) for v in values])
            else:
                state.releases[r] = (t + step, None)

    def _finish_allgather(self, state: CollectiveState) -> None:
        comm = state.comm
        values = [state.arrivals[r][1] for r in range(comm.size)]
        total = sum(payload_nbytes(v) for v in values)
        depth = tree_depth(comm.size)
        release = self._max_arrival(state) + depth * self._step_ns(comm, total)
        state.releases = {
            r: (release, [_copy_payload(v) for v in values])
            for r in state.arrivals
        }

    def _finish_scatter(self, state: CollectiveState) -> None:
        comm = state.comm
        root = state.params["root"]
        root_time, seq = state.arrivals[root]
        if seq is None or len(seq) != comm.size:
            raise MpiError(
                f"scatter root must contribute exactly {comm.size} items"
            )
        depth = tree_depth(comm.size)
        step = self._stepper(comm)
        state.releases = {}
        for r, (t, _) in state.arrivals.items():
            chunk = seq[r]
            ready = root_time + depth * step(payload_nbytes(chunk))
            if r == root:
                state.releases[r] = (max(t, root_time), _copy_payload(chunk))
            else:
                state.releases[r] = (max(t, ready), _copy_payload(chunk))

    def _finish_alltoall(self, state: CollectiveState) -> None:
        comm = state.comm
        n = comm.size
        for r in range(n):
            seq = state.arrivals[r][1]
            if seq is None or len(seq) != n:
                raise MpiError(
                    f"alltoall rank {r} must contribute exactly {n} items"
                )
        total = sum(
            payload_nbytes(v) for r in range(n) for v in state.arrivals[r][1]
        )
        depth = tree_depth(n)
        release = self._max_arrival(state) + depth * self._step_ns(comm, total)
        state.releases = {}
        for r in range(n):
            t, _ = state.arrivals[r]
            received = [_copy_payload(state.arrivals[j][1][r]) for j in range(n)]
            state.releases[r] = (release, received)

    def _finish_comm_dup(self, state: CollectiveState) -> None:
        comm = state.comm
        dup = comm.derive(comm.group, f"{comm.name}+dup")
        depth = tree_depth(comm.size)
        release_base = self._max_arrival(state) + depth * self._step_ns(comm)
        state.releases = {r: (release_base, dup) for r in state.arrivals}

    def _finish_comm_split(self, state: CollectiveState) -> None:
        comm = state.comm
        by_color: dict[Any, list[tuple[int, int]]] = {}
        for r in range(comm.size):
            color, key = state.arrivals[r][1]
            if color is not None:
                by_color.setdefault(color, []).append((key, r))
        comms: dict[Any, Communicator] = {}
        for color, members in by_color.items():
            members.sort()
            group = tuple(comm.vp_of_rank(r) for _, r in members)
            comms[color] = comm.derive(group, f"{comm.name}/split{color}")
        depth = tree_depth(comm.size)
        release = self._max_arrival(state) + depth * self._step_ns(comm)
        state.releases = {}
        for r in range(comm.size):
            color, _ = state.arrivals[r][1]
            state.releases[r] = (release, comms.get(color))

    def _finish_lb_sync(self, state: CollectiveState) -> None:
        # Load balancing is runtime policy; the job fills state.releases.
        self.job._lb_finish(state)

    def _finish_resize(self, state: CollectiveState) -> None:
        self.job._resize_finish(state)

    def _finish_checkpoint(self, state: CollectiveState) -> None:
        from repro.ampi.checkpoint import Checkpoint

        comm = state.comm
        T = self._max_arrival(state)
        barrier = tree_depth(comm.size) * self._step_ns(comm)
        bc = self.job.buddy_ckpt
        if bc is not None:
            # Double in-memory scheme: snapshots replicate to buddy
            # processes over the network, no shared-FS traffic.  A
            # request arriving inside the configured interval coalesces
            # into the previous checkpoint (barrier only).
            if bc.due(T):
                extra = bc.take(self.job, T)
                self.job.checkpoints.append(bc.checkpoint)
            else:
                bc.coalesced += 1
                extra = 0
            release = T + barrier + extra
            state.releases = {r: (release, None) for r in state.arrivals}
            return

        ckpt = Checkpoint.capture(self.job)
        self.job.checkpoints.append(ckpt)
        # Every process streams its ranks' state to the shared FS.
        io_ns = self.job.costs.fs_write_ns(
            ckpt.nbytes, max(1, self.job.layout.total_processes)
        )
        release = T + barrier + io_ns
        state.releases = {r: (release, None) for r in state.arrivals}

    def _finish_exscan(self, state: CollectiveState) -> None:
        """Exclusive prefix reduction: rank 0 receives None."""
        self._finish_scan(state, inclusive=False)

    def _finish_reduce_scatter(self, state: CollectiveState) -> None:
        """Elementwise reduce of per-rank vectors; rank i keeps item i."""
        comm = state.comm
        op: Op = state.params["op"]
        n = comm.size
        for r in range(n):
            seq = state.arrivals[r][1]
            if seq is None or len(seq) != n:
                raise MpiError(
                    f"reduce_scatter rank {r} must contribute exactly "
                    f"{n} items"
                )
        depth = tree_depth(len(self.job.pes))
        T = self._max_arrival(state)
        total = sum(payload_nbytes(state.arrivals[r][1]) for r in range(n))
        release = T + depth * self._step_ns(comm, total // max(1, n))
        state.releases = {}
        ops_applied = 0
        for i in range(n):
            pe = self.job.rank_of(comm.vp_of_rank(i)).pe
            acc = _copy_payload(state.arrivals[0][1][i])
            for r in range(1, n):
                acc = op.apply(pe, acc, state.arrivals[r][1][i])
                ops_applied += 1
            state.releases[i] = (
                release + ops_applied * self.job.costs.reduction_op_ns,
                acc,
            )

    def _finish_scan(self, state: CollectiveState,
                     inclusive: bool = True) -> None:
        """Prefix reduction: rank r is released with the reduction over
        ranks 0..r (``inclusive``) or 0..r-1, once all of them arrived."""
        comm = state.comm
        op: Op = state.params["op"]
        depth = tree_depth(comm.size)
        step = self._step_ns(comm)
        state.releases = {}
        acc = None
        prefix_max_t = 0
        for r in range(comm.size):
            t, v = state.arrivals[r]
            prefix_max_t = max(prefix_max_t, t)
            out = None if inclusive or acc is None else _copy_payload(acc)
            pe = self.job.rank_of(comm.vp_of_rank(r)).pe
            acc = _copy_payload(v) if acc is None else op.apply(pe, acc, v)
            if inclusive:
                out = _copy_payload(acc)
            state.releases[r] = (prefix_max_t + depth * step, out)
