"""Tests for the deterministic fault-injection plan layer (repro.ft)."""

import pytest

from repro.errors import ReproError
from repro.ft import (
    CounterRng,
    FaultInjector,
    FaultPlan,
    MessageFaults,
    NodeCrash,
)
from repro.ft.plan import MSG_FAULT_KINDS
from repro.perf.counters import (
    CounterSet,
    EV_FAULT,
    EV_MSG_FAULT_CORRUPT,
    EV_MSG_FAULT_DROP,
    EV_MSG_FAULT_DUP,
)
from repro.trace import TraceRecorder


class TestCounterRng:
    def test_deterministic_across_instances(self):
        a = CounterRng(42, "msg")
        b = CounterRng(42, "msg")
        assert [a.u64(i) for i in range(10)] == [b.u64(i) for i in range(10)]

    def test_streams_are_independent(self):
        a = CounterRng(42, "msg")
        b = CounterRng(42, "crash")
        assert [a.u64(i) for i in range(4)] != [b.u64(i) for i in range(4)]

    def test_seeds_differ(self):
        assert CounterRng(1).u64(0) != CounterRng(2).u64(0)

    def test_counter_access_is_order_independent(self):
        rng = CounterRng(7, 3)
        forward = [rng.uniform(i) for i in range(5)]
        backward = [rng.uniform(i) for i in reversed(range(5))]
        assert forward == list(reversed(backward))

    def test_uniform_range(self):
        rng = CounterRng(99, "u")
        vals = [rng.uniform(i) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        # a sanity check that it is not degenerate
        assert 0.4 < sum(vals) / len(vals) < 0.6

    def test_randrange(self):
        rng = CounterRng(5)
        assert all(0 <= rng.randrange(i, 7) < 7 for i in range(100))
        with pytest.raises(ValueError):
            rng.randrange(0, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            CounterRng(-1)


class TestFaultPlan:
    def test_crashes_sorted(self):
        plan = FaultPlan(seed=1, node_crashes=(
            NodeCrash(at_ns=500, node=1), NodeCrash(at_ns=100, node=0),
        ))
        assert [c.at_ns for c in plan.node_crashes] == [100, 500]

    def test_validation(self):
        with pytest.raises(ReproError):
            NodeCrash(at_ns=-1, node=0)
        with pytest.raises(ReproError):
            NodeCrash(at_ns=0, node=-2)
        with pytest.raises(ReproError):
            MessageFaults(drop=1.5)
        with pytest.raises(ReproError):
            MessageFaults(drop=0.6, duplicate=0.6)
        with pytest.raises(ReproError):
            FaultPlan(seed=-3)

    def test_random_crashes_deterministic(self):
        a = FaultPlan.random_crashes(11, 3, 8, (1000, 50_000))
        b = FaultPlan.random_crashes(11, 3, 8, (1000, 50_000))
        assert a == b
        assert len(a.node_crashes) == 3

    def test_random_crashes_distinct_nodes_in_window(self):
        plan = FaultPlan.random_crashes(7, 4, 4, (10, 1000))
        nodes = [c.node for c in plan.node_crashes]
        assert sorted(nodes) == [0, 1, 2, 3]
        assert all(10 <= c.at_ns < 1000 for c in plan.node_crashes)

    def test_random_crashes_prefix_property(self):
        small = FaultPlan.random_crashes(5, 1, 6, (0, 10_000))
        big = FaultPlan.random_crashes(5, 3, 6, (0, 10_000))
        assert set(small.node_crashes) <= set(big.node_crashes)

    def test_random_crashes_validation(self):
        with pytest.raises(ReproError):
            FaultPlan.random_crashes(1, 5, 4, (0, 100))  # k > nodes
        with pytest.raises(ReproError):
            FaultPlan.random_crashes(1, 1, 4, (100, 100))  # empty window


class TestFaultInjector:
    def test_next_crash_pops_in_order(self):
        plan = FaultPlan(seed=0, node_crashes=(
            NodeCrash(at_ns=100, node=0), NodeCrash(at_ns=200, node=1),
        ))
        inj = FaultInjector(plan)
        assert inj.next_crash(50) is None
        assert inj.pending_crashes == 2
        assert inj.next_crash(150).node == 0
        assert inj.next_crash(150) is None
        assert inj.next_crash(10**9).node == 1
        assert inj.pending_crashes == 0

    def test_message_fault_sequence_is_reproducible(self):
        plan = FaultPlan(seed=9, message_faults=MessageFaults(
            drop=0.3, duplicate=0.2, corrupt=0.1))
        seq1 = [FaultInjector(plan).next_message_fault() for _ in range(1)]
        inj_a, inj_b = FaultInjector(plan), FaultInjector(plan)
        seq_a = [inj_a.next_message_fault() for _ in range(200)]
        seq_b = [inj_b.next_message_fault() for _ in range(200)]
        assert seq_a == seq_b
        assert seq_a[0] == seq1[0]
        kinds = {k for k in seq_a if k is not None}
        assert kinds == {"drop", "duplicate", "corrupt"}

    def test_accounted_draw_is_the_same_draw_counted_and_traced(self):
        """Both transports draw through ``draw_message_fault``: the same
        decisions as the bare draw, each fault counted once under
        ``EV_FAULT`` and once under its kind, and one trace instant."""
        plan = FaultPlan(seed=9, message_faults=MessageFaults(
            drop=0.3, duplicate=0.2, corrupt=0.1))
        bare = FaultInjector(plan)
        want = [bare.next_message_fault() for _ in range(200)]
        inj, counters, rec = FaultInjector(plan), CounterSet(), TraceRecorder()
        got = [inj.draw_message_fault(counters, rec, 10 * i, 3, 4, {"i": i})
               for i in range(200)]
        assert got == want and inj.draws == 200
        faults = [k for k in want if k is not None]
        assert counters[EV_FAULT] == len(faults)
        assert {k: counters[ev] for k, ev in (
            ("drop", EV_MSG_FAULT_DROP), ("duplicate", EV_MSG_FAULT_DUP),
            ("corrupt", EV_MSG_FAULT_CORRUPT))} == {
                k: faults.count(k) for k in MSG_FAULT_KINDS}
        assert [(e.name, e.ts, e.pid, e.tid, e.args) for e in rec.events()] \
            == [(f"fault:msg-{k}", 10 * i, 3, 4, {"i": i})
                for i, k in enumerate(want) if k is not None]
        # untraced: counted all the same
        quiet = CounterSet()
        inj = FaultInjector(plan)
        for _ in range(200):
            inj.draw_message_fault(quiet, None, 0, 0, 0, {})
        assert quiet == counters

    def test_no_message_faults_when_unconfigured(self):
        inj = FaultInjector(FaultPlan(seed=1))
        assert all(inj.next_message_fault() is None for _ in range(10))

    def test_message_penalty(self):
        mf = MessageFaults(drop=0.5, retry_timeout_ns=1000)
        inj = FaultInjector(FaultPlan(seed=1, message_faults=mf))
        assert inj.message_penalty_ns("drop", 300, 50) == 1300
        assert inj.message_penalty_ns("corrupt", 300, 50) == 1300
        assert inj.message_penalty_ns("duplicate", 300, 50) == 50
        with pytest.raises(ReproError):
            inj.message_penalty_ns("frobnicate", 1, 1)


class TestPlanSerialization:
    """to_dict/from_dict round-trips — the contract behind embedding a
    plan in every ``repro faults --json`` row."""

    def test_full_plan_round_trips(self):
        plan = FaultPlan(
            seed=42,
            node_crashes=(NodeCrash(at_ns=500, node=1),
                          NodeCrash(at_ns=100, node=0)),
            message_faults=MessageFaults(drop=0.1, duplicate=0.05,
                                         corrupt=0.01,
                                         retry_timeout_ns=9_000),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_round_trip_survives_json(self):
        import json

        plan = FaultPlan.random_crashes(
            7, 2, 4, (1_000, 2_000),
            message_faults=MessageFaults(drop=0.2))
        wire = json.dumps(plan.to_dict(), sort_keys=True)
        back = FaultPlan.from_dict(json.loads(wire))
        assert back == plan
        # The reconstructed plan injects the identical fault sequence.
        seq_a = [FaultInjector(plan).next_message_fault()
                 for _ in range(50)]
        seq_b = [FaultInjector(back).next_message_fault()
                 for _ in range(50)]
        assert seq_a == seq_b

    def test_empty_plan_round_trips(self):
        plan = FaultPlan(seed=0)
        d = plan.to_dict()
        assert d == {"seed": 0, "node_crashes": [],
                     "message_faults": None}
        assert FaultPlan.from_dict(d) == plan

    def test_from_dict_tolerates_missing_keys(self):
        assert FaultPlan.from_dict({}) == FaultPlan(seed=0)
