"""Tests for the experiment harness: tables, capability probes, drivers."""


from repro.apps.adcirc import AdcircConfig
from repro.apps.memhog import MemhogConfig, build_memhog_program
from repro.harness.capabilities import (
    correctness_program,
    probe_correctness,
    probe_migration,
    probe_portability,
    probe_smp,
)
from repro.harness.experiments import (
    adcirc_scaling_experiment,
    context_switch_experiment,
    migration_experiment,
    startup_experiment,
)
from repro.harness.tables import format_table
from repro.machine import TEST_MACHINE


class TestTables:
    def test_format_table_contains_cells(self):
        out = format_table(["A", "B"], [[1, "x"], [2.5, "y"]], title="T")
        assert "T" in out and "2.50" in out and "x" in out

    def test_alignment_by_width(self):
        out = format_table(["col"], [["short"], ["a-much-longer-cell"]])
        lines = [l for l in out.splitlines() if l.startswith("|")]
        assert len({len(l) for l in lines}) == 1

    def test_float_formatting(self):
        out = format_table(["x"], [[0.001234], [12345.6]])
        assert "0.00123" in out and "1.23e+04" in out


class TestCapabilityProbes:
    def test_correctness_program_has_all_var_classes(self):
        src = correctness_program()
        kinds = {(v.static, v.tls, v.const) for v in src.variables}
        assert (False, False, False) in kinds   # plain global
        assert (True, False, False) in kinds    # static
        assert (False, True, False) in kinds    # tls

    def test_probe_correctness_pieglobals(self):
        v = probe_correctness("pieglobals")
        assert v["global"] and v["static"] and v["tls"] and v["const"]

    def test_probe_correctness_swapglobals_hole(self):
        v = probe_correctness("swapglobals")
        assert v["global"] and not v["static"]

    def test_probe_smp(self):
        assert probe_smp("swapglobals") == "No"
        assert probe_smp("pipglobals") == "Limited w/o patched glibc"
        assert probe_smp("pieglobals") == "Yes"

    def test_probe_migration(self):
        assert probe_migration("pieglobals") == "Yes"
        assert probe_migration("pipglobals") == "No"
        assert probe_migration("mpc") == "Not implemented, but possible"

    def test_probe_portability_pie_excludes_macos(self):
        works = probe_portability("pieglobals")
        assert "macos-arm" not in works
        assert "bridges2" in works

    def test_probe_portability_manual_everywhere(self):
        works = probe_portability("manual")
        assert "macos-arm" in works and "bridges2" in works

    def test_probe_portability_swapglobals_legacy_only(self):
        works = probe_portability("swapglobals")
        assert works == ("legacy-linux-old-ld",)


class TestExperimentDrivers:
    def test_startup_experiment_rows(self):
        rows = startup_experiment(methods=("none", "pieglobals"),
                                  machine=TEST_MACHINE,
                                  code_bytes=64 * 1024)
        assert rows[0].method == "none" and rows[0].overhead_pct == 0.0
        assert rows[1].startup_ns >= rows[0].startup_ns

    def test_context_switch_experiment_measures(self):
        rows = context_switch_experiment(
            methods=("none", "tlsglobals"), yields_per_rank=200,
            machine=TEST_MACHINE)
        by = {r.method: r for r in rows}
        assert by["tlsglobals"].ns_per_switch > by["none"].ns_per_switch
        assert by["none"].switches >= 400

    def test_migration_experiment_pie_surcharge(self):
        rows = migration_experiment(heap_mbs=(2,), code_bytes=1 << 20,
                                    machine=TEST_MACHINE)
        tls = next(r for r in rows if r.method == "tlsglobals")
        pie = next(r for r in rows if r.method == "pieglobals")
        assert pie.bytes_moved > tls.bytes_moved

    def test_adcirc_sweep_hands_each_caller_its_own_lists(self):
        cfg = AdcircConfig(width=8, height=8, steps=4)
        first = adcirc_scaling_experiment((1,), (1, 2), cfg=cfg)
        second = adcirc_scaling_experiment((1,), (1, 2), cfg=cfg)
        assert first == second
        assert first[0] is not second[0] and first[1] is not second[1]
        first[0].clear()
        assert adcirc_scaling_experiment((1,), (1, 2), cfg=cfg) == second

    def test_memhog_program_allocates_requested_heap(self):
        from repro.ampi.runtime import AmpiJob
        from repro.charm.node import JobLayout

        src = build_memhog_program(MemhogConfig(heap_mb=2,
                                                code_bytes=1 << 20))
        job = AmpiJob(src, 2, method="tlsglobals", machine=TEST_MACHINE,
                      layout=JobLayout(1, 2, 1), slot_size=1 << 26)
        result = job.run()
        rec = next(m for m in result.migrations if m.cross_process)
        assert rec.nbytes >= 2 << 20
