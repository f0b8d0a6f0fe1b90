"""Tests for the ADCIRC-mini storm-surge workload."""

import numpy as np
import pytest

from repro.apps.adcirc import (
    ADCIRC_CODE_BYTES,
    N_COEFFICIENT_GLOBALS,
    AdcircConfig,
    _laplacian,
    _row_bounds,
    build_adcirc_program,
    run_adcirc,
)
from repro.charm.node import JobLayout
from repro.errors import ReproError
from repro.machine import TEST_MACHINE

SMALL = dict(width=16, height=32, steps=10, reduce_every=5)


class TestProgramShape:
    def test_hundreds_of_mutable_globals(self):
        src = build_adcirc_program(AdcircConfig(**SMALL))
        assert len(src.unsafe_vars()) >= N_COEFFICIENT_GLOBALS

    def test_fortran_with_14mb_code(self):
        src = build_adcirc_program(AdcircConfig(**SMALL))
        assert src.language == "fortran"
        assert src.code_bytes == ADCIRC_CODE_BYTES

    def test_static_present(self):
        src = build_adcirc_program(AdcircConfig(**SMALL))
        assert src.var("wet_count").static

    def test_row_bounds_cover(self):
        spans = [_row_bounds(32, 5, i) for i in range(5)]
        assert spans[0][0] == 0 and spans[-1][1] == 32

    def test_config_validation(self):
        with pytest.raises(ReproError):
            AdcircConfig(width=1)
        with pytest.raises(ReproError):
            AdcircConfig(steps=0)


class TestKernel:
    def test_laplacian_is_the_padded_sum_bit_for_bit(self):
        """The kernel accumulates in place; the ``np.pad`` formulation it
        replaced is the reference — same additions in the same order, so
        the bytes are equal, dry (zero) cells and side columns included."""
        def padded(eta):
            return (
                eta[:-2, :] + eta[2:, :]
                + np.pad(eta[1:-1, :-1], ((0, 0), (1, 0)))
                + np.pad(eta[1:-1, 1:], ((0, 0), (0, 1)))
                - 4.0 * eta[1:-1, :]
            )

        rng = np.random.default_rng(17)
        for rows, cols in ((3, 4), (18, 128), (6, 5), (34, 16)):
            for scale in (1.0, 1e-9, 1e6):
                eta = rng.random((rows, cols)) * scale
                eta[rng.random(eta.shape) < 0.3] = 0.0   # dry cells
                before = eta.copy()
                assert _laplacian(eta).tobytes() == padded(eta).tobytes()
                assert np.array_equal(eta, before)       # input untouched


class TestRuns:
    def run(self, nvp, **kw):
        cfg = AdcircConfig(**SMALL, **{k: v for k, v in kw.items()
                                       if k in AdcircConfig.__dataclass_fields__})
        return run_adcirc(
            cfg, nvp, machine=TEST_MACHINE,
            layout=kw.get("layout", JobLayout.single(2)),
            method=kw.get("method", "pieglobals"),
        )

    def test_all_ranks_agree_on_wet_count(self):
        r = self.run(4)
        assert len(set(r.exit_values.values())) == 1

    def test_storm_wets_the_domain(self):
        r = self.run(4)
        wet = next(iter(r.exit_values.values()))
        assert wet > 0

    def test_wet_count_independent_of_decomposition(self):
        w1 = next(iter(self.run(1).exit_values.values()))
        w4 = next(iter(self.run(4).exit_values.values()))
        assert w1 == w4

    def test_wet_count_independent_of_method(self):
        a = next(iter(self.run(4, method="pieglobals").exit_values.values()))
        b = next(iter(self.run(4, method="manual").exit_values.values()))
        assert a == b

    def test_lb_migrations_happen(self):
        cfg = AdcircConfig(width=16, height=64, steps=20, reduce_every=5,
                           lb_period=5)
        r = run_adcirc(cfg, 8, machine=TEST_MACHINE,
                       layout=JobLayout.single(2))
        assert len(r.lb_reports) >= 2

    def test_imbalance_measured(self):
        """Block placement + moving storm -> PEs see unequal loads."""
        cfg = AdcircConfig(width=16, height=64, steps=20, reduce_every=5)
        r = run_adcirc(cfg, 8, machine=TEST_MACHINE,
                       layout=JobLayout.single(4))
        busys = [p.busy_ns for p in r.pe_stats]
        assert max(busys) > min(busys)

    def test_l2_bytes_injected_from_machine(self):
        cfg = AdcircConfig(**SMALL)
        r = run_adcirc(cfg, 2, machine=TEST_MACHINE,
                       layout=JobLayout.single(2))
        assert r is not None  # ran with machine-adjusted config
