"""Tests for the function-pointer shim (paper Figure 4).

The defining property: with per-rank code/data copies (PIP/FS/PIE), each
rank's shim slots live in its *own* privatized data segment, but all of
them point at the *single* per-job runtime — the runtime itself is never
privatized.
"""

from inspect import Parameter, isgeneratorfunction, signature
from types import SimpleNamespace

import pytest

from repro.ampi.api import MpiHandle
from repro.ampi.funcptr import (
    AMPI_API_NAMES,
    ENTRY_POINTS,
    pack_transport,
    shim_compile_unit,
)
from repro.ampi.runtime import AmpiJob
from repro.charm.node import JobLayout
from repro.machine import TEST_MACHINE
from repro.privatization._util import SHIM_PREFIX
from repro.program.context import GlobalsView

from conftest import make_hello


class TestShimUnit:
    def test_one_slot_per_api_name(self):
        unit = shim_compile_unit()
        names = {v.name for v in unit.variables}
        assert names == {SHIM_PREFIX + n for n in AMPI_API_NAMES}

    def test_unpack_symbol_present(self):
        unit = shim_compile_unit()
        assert any(f.name == "AMPI_FuncPtr_Unpack" for f in unit.functions)

    def test_core_api_covered(self):
        for required in ("send", "recv", "barrier", "bcast", "reduce",
                         "migrate", "finalize"):
            assert required in AMPI_API_NAMES


class TestOneSurface:
    """The table, the handle, the shim unit and the transport are four
    views of one surface: an entry point cannot be added to one only."""

    def test_four_views_agree(self):
        names = {e.name for e in ENTRY_POINTS}
        assert len(names) == len(ENTRY_POINTS)
        public = {n for n in vars(MpiHandle)
                  if not n.startswith("_") and n != "via_shim"}
        assert public == names

        local = {e.name for e in ENTRY_POINTS if e.slot is None}
        assert local == {"my_pe"}
        slots = [e.slot for e in ENTRY_POINTS if e.slot is not None]
        assert tuple(slots) == AMPI_API_NAMES
        assert len(set(slots)) == len(slots)
        unit = shim_compile_unit()
        assert [v.name for v in unit.variables] == [
            SHIM_PREFIX + s for s in slots]
        job = AmpiJob(make_hello(), 2, method="pieglobals",
                      machine=TEST_MACHINE, slot_size=1 << 24)
        transport = pack_transport(job)
        assert set(transport) == set(slots)
        # what can block is what the runtime wrote as a generator
        assert {e.slot for e in ENTRY_POINTS if e.blocking} == {
            slot for slot, fn in transport.items()
            if isgeneratorfunction(fn)}

    def test_the_handle_hands_off_exactly_what_can_block(self):
        """Each method calls its entry once, with the rank first, and
        passes the result through ``_blocking`` (op ``"MPI_" + slot``)
        if and only if the table marks it ``blocking``."""
        handed: list = []

        class Spy(MpiHandle):
            __slots__ = ()

            def _blocking(self, op, gen):
                handed.append((op, gen))
                return ("handed", gen)

        rank = SimpleNamespace(vp=0, pe=SimpleNamespace(index=3))
        called: list = []

        def stub(slot):
            def entry(*args, **kw):
                called.append((slot, args[0]))
                return ("result", slot)
            return entry

        handle = Spy(rank, {s: stub(s) for s in AMPI_API_NAMES})
        for e in ENTRY_POINTS:
            handed.clear()
            called.clear()
            if e.name == "world":
                got = handle.world
            else:
                params = signature(getattr(MpiHandle, e.name)).parameters
                got = getattr(handle, e.name)(*(
                    object() for p in list(params.values())[1:]
                    if p.default is Parameter.empty))
            if e.slot is None:
                assert called == handed == [] and got == 3
                continue
            assert called == [(e.slot, rank)], e.name
            result = ("result", e.slot)
            if e.blocking:
                assert handed == [("MPI_" + e.slot, result)], e.name
                assert got == ("handed", result)
            else:
                assert handed == [], e.name
                assert got in (result, None), e.name
        # one dispatch path: the old repacking one and the per-access
        # charge hop are gone
        assert "_call" not in vars(MpiHandle)
        assert "_charge" not in vars(GlobalsView)

    def test_a_collective_slot_is_the_one_entry_with_its_kind_bound(self):
        job = AmpiJob(make_hello(), 2, method="pieglobals",
                      machine=TEST_MACHINE, slot_size=1 << 24)
        transport = pack_transport(job)
        for e in ENTRY_POINTS:
            if e.collective is not None:
                entry = transport[e.slot]
                assert entry.func == job.collectives.enter
                assert entry.args == (e.collective,)
                assert not entry.keywords
            elif e.slot is not None:
                assert transport[e.slot].__self__ is job
        # every kind the table binds has a completion rule
        for e in ENTRY_POINTS:
            if e.collective is not None:
                assert hasattr(job.collectives, "_finish_" + e.collective)


class TestTransport:
    def test_pack_binds_every_name(self):
        job = AmpiJob(make_hello(), 2, method="pieglobals",
                      machine=TEST_MACHINE, slot_size=1 << 24)
        transport = pack_transport(job)
        assert set(transport) == set(AMPI_API_NAMES)
        for fn in transport.values():
            assert callable(fn)

    def test_pack_rejects_incomplete_runtime(self):
        class Fake:
            pass

        with pytest.raises(AttributeError):
            pack_transport(Fake())


class TestShimWiring:
    @pytest.mark.parametrize("method", ["pipglobals", "fsglobals",
                                        "pieglobals"])
    def test_slots_privatized_but_runtime_shared(self, method):
        job = AmpiJob(make_hello(), 3, method=method, machine=TEST_MACHINE,
                      layout=JobLayout.single(1), slot_size=1 << 24)
        job.start()
        try:
            slot = SHIM_PREFIX + "send"
            views = [job.rank_of(vp).ctx.view for vp in range(3)]
            instances = [v.routes[slot].instance for v in views]
            # Per-rank copies: distinct data instances...
            assert len({id(i) for i in instances}) == 3
            # ...holding pointers to the one runtime's bound method.
            fns = [i.read(slot) for i in instances]
            assert all(f == fns[0] for f in fns)
            assert fns[0].__self__ is job
            # ...and a collective's slot holds the one engine's entry:
            # the same object in every rank's copy.
            entries = [i.read(SHIM_PREFIX + "barrier") for i in instances]
            assert all(e is entries[0] for e in entries)
            assert entries[0].func.__self__ is job.collectives
        finally:
            job.scheduler.shutdown()

    def test_shared_code_methods_skip_shim(self):
        job = AmpiJob(make_hello(), 2, method="tlsglobals",
                      machine=TEST_MACHINE, slot_size=1 << 24)
        assert not job.method.uses_funcptr_shim
        assert SHIM_PREFIX + "send" not in job.binary.image.data

    def test_shim_calls_actually_work_end_to_end(self):
        result = AmpiJob(make_hello(), 4, method="pipglobals",
                         machine=TEST_MACHINE, layout=JobLayout.single(1),
                         slot_size=1 << 24).run()
        assert sorted(result.exit_values.values()) == [0, 1, 2, 3]
