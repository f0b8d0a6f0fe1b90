"""Seeded scenario generation over the full job matrix.

A chaos campaign is a pure function of ``(campaign_seed, count)``: the
i-th scenario is drawn from ``CounterRng(campaign_seed, "scenario:i")``
and nothing else, so two machines running ``repro chaos run --seed 0
--count 200`` execute byte-identical scenario sequences.

Scenario generation is two-phase because crash instants must land
*inside* the application phase, whose extent depends on the workload:
:func:`generate_scenario` fixes everything except the crash instants (a
:class:`ChaosScenario` holds the fault-free twin spec plus the fault
*sketch*), and the engine materializes the :class:`~repro.ft.plan
.FaultPlan` from the scenario after running the fault-free baseline —
see :meth:`ChaosScenario.plan`.

The matrix honours the simulator's real constraints rather than
generating junk: crash scenarios use the restart-aware Jacobi-3D (the
only registered app that checkpoints), ``recovery="local"`` only rides
on ``transport="reliable"``, and non-checkpointable privatization
methods only meet crashes in the *hostile* bucket, where deterministic
unrecoverability is the expected — and invariant-checked — outcome.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Sequence

from repro.ampi.runtime import JobResult
from repro.ft.plan import FaultPlan, MessageFaults
from repro.ft.prng import CounterRng
from repro.harness.jobspec import JobSpec
from repro.privatization import get_method

#: scenario buckets, in draw order (see :func:`generate_scenario`)
KINDS = ("clean", "noise", "crash", "hostile")

#: methods for fault-free / wire-noise scenarios (no checkpoint needed)
SAFE_METHODS = ("pieglobals", "tlsglobals", "fsglobals", "pipglobals")

#: ... of which the buddy checkpointer can capture the ones whose ranks
#: can migrate (the method classes' own fact; draw order is SAFE_METHODS')
CHECKPOINTABLE_METHODS = tuple(
    m for m in SAFE_METHODS if get_method(m).supports_migration)

LB_STRATEGIES = ("greedy", "greedyrefine")


class _Draws:
    """A cursor over one scenario's CounterRng stream.

    Draw order is fixed by the generation code, and the stream is
    private to the scenario index, so adding scenarios never perturbs
    existing ones.
    """

    __slots__ = ("rng", "i")

    def __init__(self, rng: CounterRng):
        self.rng = rng
        self.i = 0

    def rand(self, n: int) -> int:
        v = self.rng.randrange(self.i, n)
        self.i += 1
        return v

    def pick(self, seq: Sequence[Any]) -> Any:
        return seq[self.rand(len(seq))]

    def chance(self, p: float) -> bool:
        v = self.rng.uniform(self.i)
        self.i += 1
        return v < p


@dataclass(frozen=True)
class ChaosScenario:
    """One generated scenario: a fault-free twin spec + a fault sketch."""

    index: int
    campaign_seed: int
    kind: str                     #: one of :data:`KINDS`
    base_spec: JobSpec            #: the fault-free twin (fault_plan=None)
    n_crashes: int
    message_faults: MessageFaults | None
    plan_seed: int
    #: cluster the crash instants into a tiny window so later crashes
    #: land inside an in-progress recovery (exercises the cascade path)
    cascade_window: bool = False

    @property
    def nodes(self) -> int:
        return self.base_spec.layout[0]

    @property
    def has_faults(self) -> bool:
        mf = self.message_faults
        return self.n_crashes > 0 or (mf is not None and mf.any)

    def crash_window(self, base: JobResult) -> tuple[int, int]:
        """Crash instants live in the middle of the application phase
        of the fault-free baseline (the fault sweep's calibration); a
        cascade scenario compresses the window so the crashes overlap
        one outage."""
        lo, hi = FaultPlan.mid_app_window(base.startup_ns, base.app_ns)
        if self.cascade_window:
            hi = lo + max(1, (hi - lo) // 16)
        return lo, hi

    def plan(self, base: JobResult) -> FaultPlan | None:
        """Materialize the fault plan against the calibrated window."""
        if not self.has_faults:
            return None
        if self.n_crashes == 0:
            return FaultPlan(seed=self.plan_seed,
                             message_faults=self.message_faults)
        return FaultPlan.random_crashes(
            self.plan_seed, self.n_crashes, self.nodes,
            self.crash_window(base), message_faults=self.message_faults,
        )

    def spec(self, plan: FaultPlan | None) -> JobSpec:
        """The faulted spec: the twin plus the materialized plan."""
        return dataclasses.replace(
            self.base_spec,
            fault_plan=plan.to_dict() if plan is not None else None,
        )

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "campaign_seed": self.campaign_seed,
            "kind": self.kind,
            "base_spec": self.base_spec.to_dict(),
            "n_crashes": self.n_crashes,
            "message_faults": (self.message_faults.to_dict()
                               if self.message_faults is not None else None),
            "plan_seed": self.plan_seed,
            "cascade_window": self.cascade_window,
        }

    def label(self) -> str:
        s = self.base_spec
        mf = self.message_faults
        noise = (f" drop={mf.drop} dup={mf.duplicate} corrupt={mf.corrupt}"
                 if mf is not None and mf.any else "")
        return (f"#{self.index} {self.kind}: {s.app} nvp={s.nvp} "
                f"{s.method} {s.transport}/{s.recovery} "
                f"nodes={s.layout[0]} crashes={self.n_crashes}"
                f"{'(cascade)' if self.cascade_window else ''}{noise}")


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _jacobi_config(d: _Draws, *, ckpt: bool, tls: bool) -> dict:
    return {
        "n": d.pick((8, 10, 12)),
        "iters": d.pick((6, 8)),
        "reduce_every": d.pick((2, 3)),
        "ckpt_period": d.pick((2, 3)) if ckpt else 0,
        "compute_ns_per_cell": d.pick((200.0, 500.0)),
        "tag_tls": tls,
    }


def _adcirc_config(d: _Draws) -> dict:
    return {
        "width": 6,
        "height": d.pick((12, 16)),
        "steps": d.pick((4, 6)),
        "reduce_every": 2,
    }


def _noise(d: _Draws, *, reliable: bool) -> MessageFaults:
    rates = (0.02, 0.05, 0.1, 0.2) if reliable else (0.02, 0.05, 0.1)
    drop = d.pick(rates) if d.chance(0.7) else 0.0
    dup = d.pick((0.02, 0.05)) if d.chance(0.4) else 0.0
    corrupt = d.pick((0.02, 0.05, 0.1)) if d.chance(0.5) else 0.0
    if drop + dup + corrupt == 0.0:
        drop = 0.05
    return MessageFaults(drop=drop, duplicate=dup, corrupt=corrupt,
                         retry_timeout_ns=d.pick((20_000, 50_000)))


def _transport_recovery(d: _Draws, *, crashes: bool) -> tuple[str, str]:
    """(transport, recovery) honouring the local-needs-reliable rule."""
    roll = d.rand(4)
    if roll == 0:
        return "priced", "global"
    if roll == 1 or not crashes:
        return "reliable", "global"
    return "reliable", "local"


def generate_scenario(campaign_seed: int, index: int) -> ChaosScenario:
    """The ``index``-th scenario of campaign ``campaign_seed``."""
    rng = CounterRng(campaign_seed, f"scenario:{index}")
    d = _Draws(rng)
    roll = d.rand(100)        # 10 clean | 25 noise | 45 crash | 20 hostile

    nodes = d.pick((2, 3, 4))
    pes = d.pick((1, 2))
    nvp = d.pick((4, 6, 8))
    lb = d.pick(LB_STRATEGIES)
    plan_seed = d.rand(1 << 30)

    if roll < 10:
        # -- clean: no faults at all; broadest app/method coverage ------
        kind = "clean"
        app = d.pick(("jacobi3d", "adcirc", "hello"))
        method = d.pick(SAFE_METHODS)
        transport, recovery = _transport_recovery(d, crashes=False)
        n_crashes, mf, cascade = 0, None, False
    elif roll < 35:
        # -- noise: wire faults only, on the apps with real p2p traffic -
        kind = "noise"
        app = d.pick(("jacobi3d", "jacobi3d", "adcirc"))
        method = d.pick(SAFE_METHODS)
        transport, recovery = _transport_recovery(d, crashes=False)
        n_crashes, cascade = 0, False
        mf = _noise(d, reliable=transport == "reliable")
    elif roll < 80:
        # -- crash: node crashes against the restart-aware solver -------
        kind = "crash"
        app = "jacobi3d"
        method = d.pick(CHECKPOINTABLE_METHODS)
        transport, recovery = _transport_recovery(d, crashes=True)
        n_crashes = 1 + d.rand(min(3, nodes))
        cascade = n_crashes >= 2 and d.chance(0.4)
        mf = (_noise(d, reliable=transport == "reliable")
              if d.chance(0.4) else None)
    else:
        # -- hostile: deterministic unrecoverability by construction ----
        kind = "hostile"
        app = "jacobi3d"
        transport, recovery = _transport_recovery(d, crashes=True)
        cascade = False
        mf = None
        hostile = d.rand(4)
        if hostile == 0:
            # One node: the crash takes every PE with it (no survivor).
            method = d.pick(CHECKPOINTABLE_METHODS)
            nodes, pes, n_crashes = 1, 2, 1
            transport, recovery = "priced", "global"
        elif hostile == 1:
            # Kill every node: the last crash leaves no survivor.
            method = d.pick(CHECKPOINTABLE_METHODS)
            n_crashes = nodes
            cascade = d.chance(0.5)
        elif hostile == 2:
            # Non-checkpointable method meets a crash: the baseline
            # checkpoint fails, structured and early.
            method = d.pick(tuple(m for m in SAFE_METHODS
                                  if m not in CHECKPOINTABLE_METHODS))
            n_crashes = 1
        else:
            # Total packet loss: the reliable sender exhausts its
            # retransmission budget (64 attempts) and gives up.
            method = d.pick(CHECKPOINTABLE_METHODS)
            transport, recovery = "reliable", "global"
            n_crashes = 0
            mf = MessageFaults(drop=1.0, retry_timeout_ns=20_000)

    if app == "jacobi3d":
        tls = method == "tlsglobals"
        # An app-driven checkpoint needs a method whose state the
        # checkpointer can capture; the hostile non-checkpointable bucket
        # fails at the *baseline* checkpoint (armed by the crash) instead.
        ckpt = (n_crashes > 0 and method in CHECKPOINTABLE_METHODS
                and d.chance(0.9))
        cfg = _jacobi_config(d, ckpt=ckpt, tls=tls)
    elif app == "adcirc":
        cfg = _adcirc_config(d)
    else:
        cfg = {}

    base_spec = JobSpec(
        app=app, nvp=max(nvp, nodes), app_config=cfg, method=method,
        machine="generic-linux", layout=(nodes, 1, pes), lb_strategy=lb,
        transport=transport, recovery=recovery, fault_plan=None,
    )
    return ChaosScenario(
        index=index, campaign_seed=campaign_seed, kind=kind,
        base_spec=base_spec, n_crashes=n_crashes, message_faults=mf,
        plan_seed=plan_seed, cascade_window=cascade,
    )


def generate_scenarios(campaign_seed: int,
                       count: int) -> list[ChaosScenario]:
    return [generate_scenario(campaign_seed, i) for i in range(count)]
