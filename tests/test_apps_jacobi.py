"""Tests for the Jacobi-3D workload."""

import dataclasses
import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from counted import JACOBI_1K, counting
from repro.apps import jacobi3d
from repro.apps.jacobi3d import (
    JacobiConfig,
    _block_bounds,
    build_jacobi_program,
    dims_create,
    run_jacobi,
)
from repro.charm.node import JobLayout
from repro.errors import ReproError
from repro.harness.jobspec import JobSpec, run_spec
from repro.machine import TEST_MACHINE


class TestDimsCreate:
    def test_products(self):
        for n in (1, 2, 4, 6, 8, 12, 16, 24):
            dims = dims_create(n)
            assert dims[0] * dims[1] * dims[2] == n

    def test_balanced(self):
        assert dims_create(8) == (2, 2, 2)
        assert dims_create(4) == (2, 2, 1)

    def test_prime(self):
        assert dims_create(7) == (7, 1, 1)


class TestBlockBounds:
    def test_covers_domain_exactly(self):
        n, parts = 17, 4
        spans = [_block_bounds(n, parts, i) for i in range(parts)]
        assert spans[0][0] == 0 and spans[-1][1] == n
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c

    def test_sizes_differ_by_at_most_one(self):
        spans = [_block_bounds(10, 3, i) for i in range(3)]
        sizes = [b - a for a, b in spans]
        assert max(sizes) - min(sizes) <= 1


class TestJacobiRuns:
    def run(self, nvp=8, method="pieglobals", **cfg_kw):
        cfg = JacobiConfig(n=12, iters=6, **cfg_kw)
        return run_jacobi(cfg, nvp, method=method, machine=TEST_MACHINE,
                          layout=JobLayout.single(4))

    def test_all_ranks_agree_on_residual(self):
        r = self.run()
        assert len(set(r.exit_values.values())) == 1

    def test_residual_positive_and_finite(self):
        r = self.run()
        resid = next(iter(r.exit_values.values()))
        assert 0 < resid < float("inf")

    def test_residual_decreases_with_more_iterations(self):
        short = run_jacobi(JacobiConfig(n=12, iters=4), 4,
                           machine=TEST_MACHINE)
        long = run_jacobi(JacobiConfig(n=12, iters=20), 4,
                          machine=TEST_MACHINE)
        assert (next(iter(long.exit_values.values()))
                < next(iter(short.exit_values.values())))

    def test_answer_independent_of_decomposition(self):
        r1 = run_jacobi(JacobiConfig(n=12, iters=5), 1,
                        machine=TEST_MACHINE, layout=JobLayout(1, 1, 1))
        r8 = run_jacobi(JacobiConfig(n=12, iters=5), 8,
                        machine=TEST_MACHINE, layout=JobLayout.single(4))
        assert next(iter(r1.exit_values.values())) == pytest.approx(
            next(iter(r8.exit_values.values())))

    @pytest.mark.parametrize("method", ["none", "tlsglobals", "pipglobals",
                                        "pieglobals"])
    def test_same_numerics_under_every_method(self, method):
        """The solver's *values* never depend on the privatization method
        (only rank-identity state does, and Jacobi keeps that local)."""
        r = self.run(method=method)
        baseline = self.run(method="manual")
        assert next(iter(r.exit_values.values())) == pytest.approx(
            next(iter(baseline.exit_values.values())))

    def test_code_segment_is_3mb(self):
        src = build_jacobi_program(JacobiConfig())
        assert src.code_bytes == 3 * 1024 * 1024

    def test_lb_period_runs_migrations_sync(self):
        r = self.run(nvp=8, lb_period=2)
        assert len(r.lb_reports) >= 1

    def test_config_validation(self):
        with pytest.raises(ReproError):
            JacobiConfig(n=1)
        with pytest.raises(ReproError):
            JacobiConfig(iters=0)

    def test_tag_tls_places_inner_loop_vars_in_tls(self):
        src = build_jacobi_program(JacobiConfig(tag_tls=True))
        assert src.var("omega").tls and src.var("inv6").tls
        src2 = build_jacobi_program(JacobiConfig())
        assert not src2.var("omega").tls


class TestGridFinerThanTheDomain:
    """A grid with more ranks than cells along an axis would leave a rank
    an empty block: refused before any rank runs, naming ``n`` and the
    grid (numpy's "zero-size array to reduction operation" before)."""

    @pytest.mark.parametrize("nvp, n, grid", [(27, 2, "3x3x3"),
                                              (64, 3, "4x4x4")])
    def test_refused_before_a_rank_runs(self, nvp, n, grid):
        spec = JobSpec(app="jacobi3d", nvp=nvp,
                       app_config={"n": n, "iters": 2})
        # a copy_with machine has no preset name: run_app's direct path
        custom = TEST_MACHINE.copy_with(cores_per_node=99)
        for run in (spec.validate, lambda: run_spec(spec),
                    lambda: run_jacobi(JacobiConfig(n=n, iters=2), nvp,
                                       machine=custom)):
            with pytest.raises(ReproError) as err:
                run()
            assert f"n={n}" in str(err.value) and grid in str(err.value)

    def test_one_cell_per_rank_runs(self):
        r = run_spec(JobSpec(app="jacobi3d", nvp=27,
                             app_config={"n": 3, "iters": 2}))
        assert len(set(r.exit_values.values())) == 1


# -- the sweep and the halo faces against the slice formula ------------------


def slice_relax(u, om, inv6):
    """The sweep as slices of ``u``: the formula the per-shape gather
    replaced, kept as the oracle."""
    stencil = (
        u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1]
        + u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1]
        + u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:]
    )
    interior = u[1:-1, 1:-1, 1:-1]
    updated = (1.0 - om) * interior + (om * inv6) * stencil
    resid = float(np.max(np.abs(updated - interior)))
    out = u.copy()
    out[1:-1, 1:-1, 1:-1] = updated
    return out, resid


def slice_exchange(u, coords, dims):
    """The slice version's halo exchange of ``u`` on a grid: the posted
    receives ``(source, tag)``, the sends ``(dest, tag, payload)`` and,
    per receive, the ghost plane it fills, in call order."""
    posted, sent, ghosts = [], [], []
    for axis in (0, 1, 2):
        for direction in (-1, +1):
            nc = list(coords)
            nc[axis] += direction
            if not 0 <= nc[axis] < dims[axis]:
                continue
            nbr = (nc[0] * dims[1] + nc[1]) * dims[2] + nc[2]
            face = [slice(1, -1)] * 3
            face[axis] = 1 if direction < 0 else u.shape[axis] - 2
            ghost = [slice(1, -1)] * 3
            ghost[axis] = 0 if direction < 0 else u.shape[axis] - 1
            posted.append((nbr, 10 + axis * 2 + (direction < 0)))
            sent.append((nbr, 10 + axis * 2 + (direction > 0),
                         u[tuple(face)].copy()))
            ghosts.append(tuple(ghost))
    return posted, sent, ghosts


class StubRank:
    """What ``relax`` and ``exchange_halos`` use of a rank's context:
    the two globals, the charges, and an MPI whose ``wait`` hands back a
    distinct plane per receive."""

    def __init__(self, omega, ghost_shapes=()):
        self.g = SimpleNamespace(omega=omega, inv6=1.0 / 6.0)
        self.mpi = self
        self.ghost_shapes = ghost_shapes
        self.charged, self.posted, self.sent = [], [], []

    def compute(self, ns):
        self.charged.append(ns)

    def charge_accesses(self, counts):
        self.charged.append(counts)

    def irecv(self, source, tag, comm):
        self.posted.append((source, tag))
        return len(self.posted) - 1

    def isend(self, data, dest, tag, comm):
        self.sent.append((dest, tag, data))

    def wait(self, req):
        yield from ()
        return self.incoming(req)

    def incoming(self, req):
        rows, cols = self.ghost_shapes[req]
        return np.arange(64.0).reshape(8, 8)[:rows, :cols] - req


@functools.lru_cache(maxsize=None)
def functions(omega=0.8):
    src = build_jacobi_program(JacobiConfig(omega=omega))
    return {f.name: f.fn for f in src.functions}


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


#: block shapes (ghost rim included) of two benchmark jobs:
#: ``jacobi_1k`` (16^3 over 16x8x8) and ``serve_cold`` (12^3 over 2x2x2)
JACOBI_1K_BLOCK, SERVE_COLD_BLOCK = (3, 4, 4), (8, 8, 8)

SHAPES = st.one_of(st.sampled_from([(3, 3, 3), JACOBI_1K_BLOCK,
                                    SERVE_COLD_BLOCK]),
                   st.tuples(*[st.integers(3, 9)] * 3))


def laid_out(u, layout):
    """``u``'s values in a C-ordered, Fortran-ordered or strided array."""
    if layout == "fortran":
        return np.asfortranarray(u)
    if layout == "strided":
        wide = np.zeros((u.shape[0] * 2,) + u.shape[1:])
        wide[::2] = u
        return wide[::2]
    return u


@st.composite
def blocks(draw):
    """A block of mixed signs, magnitudes between 10**lo and 10**hi
    (-300 <= lo <= hi < 300) and a share of ±0.0, C-ordered or not."""
    shape = draw(SHAPES)
    lo, hi = sorted(draw(st.lists(st.integers(-300, 299), min_size=2,
                                  max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = shape[0] * shape[1] * shape[2]
    u = (rng.choice([-1.0, 1.0], size) * rng.uniform(1.0, 10.0, size)
         * 10.0 ** rng.integers(lo, hi, size, endpoint=True))
    zeros = rng.random(size) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    u[zeros] = np.copysign(0.0, u[zeros])
    return laid_out(u.reshape(shape),
                    draw(st.sampled_from(["C", "fortran", "strided"])))


class TestSweepAgainstSlices:
    """The gathered sweep leaves the slice formula's bits: ``u``, the
    residual (``-0.0`` included) and the charges; the halo faces send the
    same payloads and fill the same ghost planes."""

    @settings(max_examples=300, deadline=None)
    @given(u=blocks(), omega=st.sampled_from([0.8, 1.0, 0.5, 1.9]))
    # six -0.0 neighbours: -0.0 (a reduction from +0.0 gives +0.0)
    @example(u=np.full((3, 3, 3), -0.0), omega=0.8)
    @example(u=np.full(SERVE_COLD_BLOCK, -0.0), omega=1.0)
    @example(u=np.asfortranarray(np.arange(48.0).reshape(JACOBI_1K_BLOCK)),
             omega=0.8)
    def test_relax_is_bitwise_the_slice_formula(self, u, omega):
        before = u.copy()
        rank = StubRank(omega)
        out, resid = functions(omega)["relax"](rank, u)
        want, want_resid = slice_relax(u, omega, 1.0 / 6.0)
        assert np.array_equal(bits(out), bits(want))
        assert out.shape == want.shape and out.flags.c_contiguous
        assert bits(np.float64(resid)) == bits(np.float64(want_resid))
        assert np.array_equal(bits(u), bits(before))
        cells = (u.shape[0] - 2) * (u.shape[1] - 2) * (u.shape[2] - 2)
        assert rank.charged == [cells * 2.0, {"omega": cells, "inv6": cells}]

    @settings(max_examples=100, deadline=None)
    @given(u=blocks(), data=st.data())
    def test_faces_are_the_slice_versions(self, u, data):
        dims = data.draw(st.sampled_from([(3, 3, 3), (2, 3, 4), (1, 1, 2),
                                          (16, 8, 8)]))
        coords = tuple(data.draw(st.integers(0, d - 1)) for d in dims)
        posted, sent, ghosts = slice_exchange(u, coords, dims)
        want = u.copy()
        rank = StubRank(0.8, [want[g].shape for g in ghosts])
        for req, ghost in enumerate(ghosts):
            want[ghost] = rank.incoming(req)
        for _ in functions()["exchange_halos"](rank, u, coords, dims, None):
            pass
        assert rank.posted == posted
        assert [(d, t) for d, t, _ in rank.sent] == [(d, t) for d, t, _ in sent]
        for (_, _, got), (_, _, face) in zip(rank.sent, sent):
            assert (got.shape, got.dtype, got.tobytes()) \
                == (face.shape, face.dtype, face.tobytes())
        assert np.array_equal(bits(u), bits(want))

    def test_every_face_of_an_inner_rank_is_sent(self):
        u = np.arange(512.0).reshape(SERVE_COLD_BLOCK)
        rank = StubRank(0.8, [(6, 6)] * 6)
        for _ in functions()["exchange_halos"](rank, u, (1, 1, 1),
                                               (3, 3, 3), None):
            pass
        assert sorted(t for _, t, _ in rank.sent) == list(range(10, 16))
        assert len({d for d, _, _ in rank.sent}) == 6


def block_shapes(spec):
    """The distinct block shapes (ghost rim included) a Jacobi spec's
    ranks hold."""
    n = spec.app_config["n"]
    dims = dims_create(spec.nvp)
    return {tuple(hi - lo + 2 for lo, hi in (
        _block_bounds(n, parts, c) for parts, c in zip(dims, coords)))
        for coords in np.ndindex(*dims)}


class TestSweepPlans:
    def test_a_job_builds_one_plan_per_block_shape(self, monkeypatch):
        """Exact, counted: the plans one ``jacobi_1k`` job builds in a
        fresh process equal its distinct block shapes; a second job
        builds none."""
        monkeypatch.setattr(jacobi3d, "_PLANS", {})
        built = []
        for _ in range(2):
            with counting((jacobi3d, "_sweep_plan")) as calls:
                run_spec(JACOBI_1K)
            built.append(len(calls))
        assert block_shapes(JACOBI_1K) == {JACOBI_1K_BLOCK}
        assert built == [len(block_shapes(JACOBI_1K)), 0]

    def test_uneven_blocks_build_one_plan_each(self, monkeypatch):
        monkeypatch.setattr(jacobi3d, "_PLANS", {})
        spec = dataclasses.replace(JACOBI_1K, nvp=12,
                                   app_config={"n": 7, "iters": 2})
        with counting((jacobi3d, "_sweep_plan")) as calls:
            run_spec(spec)
        assert sorted(shape for shape, in calls) \
            == sorted(block_shapes(spec))
        assert set(jacobi3d._PLANS) == block_shapes(spec)
