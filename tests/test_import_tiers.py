"""The import-tier contract: a ``repro`` command imports the tier it
executes and nothing above it (README, "Start-up and import tiers").

Each tier is checked in a fresh interpreter, on ``sys.modules`` — a set,
not a time, so the gate does not depend on how fast the machine is.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.ampi import ops
from repro.ampi.collectives import _copy_payload
from repro.ampi.datatypes import payload_nbytes

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_fresh(code: str) -> str:
    """The stdout of a fresh interpreter that ran ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_PROVENANCE", None)   # would turn auto-recording on
    p = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    return p.stdout


def modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after it ran ``code``."""
    out = run_fresh(
        code + "\nimport sys, json; print(json.dumps(sorted(sys.modules)))")
    return set(json.loads(out.splitlines()[-1]))


def loaded(modules: set[str], *prefixes: str) -> list[str]:
    """The modules at or under any of ``prefixes`` (dotted names)."""
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))


def source_lines(modules: set[str]) -> int:
    """Total source lines of the ``repro`` modules among ``modules``:
    what a run compiles when it cannot read cached bytecode."""
    total = 0
    for name in loaded(modules, "repro"):
        path = os.path.join(SRC, *name.split("."))
        if os.path.isdir(path):
            path = os.path.join(path, "__init__")
        with open(path + ".py") as f:
            total += sum(1 for _ in f)
    return total


#: the method modules under ``repro.privatization``
METHOD_MODULES = ("none_", "manual", "swapglobals", "tlsglobals", "mpc",
                  "pipglobals", "fsglobals", "pieglobals")


#: tiers above the parser: nothing here may load to print ``--help``
ABOVE_PARSER = ("numpy", "repro.ampi", "repro.provenance", "repro.serve",
                "repro.chaos", "repro.analyze", "repro.sanitize",
                "repro.harness.experiments")
#: what a micro job (hello/pingpong/startup) additionally leaves alone
ABOVE_MICRO_JOB = ("numpy", "repro.provenance", "repro.serve", "repro.chaos",
                   "repro.analyze", "repro.sanitize",
                   "repro.harness.experiments", "repro.harness.capabilities",
                   "repro.apps.jacobi3d", "repro.apps.adcirc",
                   "repro.apps.memhog", "repro.perf.icache", "repro.ft",
                   "repro.net.reliable", "repro.trace.export",
                   "repro.trace.stream", "repro.trace.timeline")


class TestTiers:
    def test_parser_tier(self):
        mods = modules_after("import repro.cli; repro.cli.build_parser()")
        assert loaded(mods, *ABOVE_PARSER) == []
        # the whole tier: the package, its lazy-export helper, the CLI
        # (command table + five family modules) and the table formatter
        # with the experiment catalogue
        assert len(loaded(mods, "repro")) <= 10

    def test_hello_tier(self):
        mods = modules_after(
            "import repro.cli; assert repro.cli.main(['hello']) == 0")
        assert loaded(mods, *ABOVE_MICRO_JOB) == []
        assert "repro.ampi.runtime" in mods and "repro.apps.micro" in mods
        # Every CLI run compiles this closure from source when bytecode
        # is not written (PYTHONDONTWRITEBYTECODE=1), so its size is the
        # counted proxy for ``cli_hello``.  It was 76 modules and 11 381
        # lines while every simulator package imported its whole subtree
        # and the registry imported all nine method modules.
        assert len(loaded(mods, "repro")) <= 65
        assert source_lines(mods) <= 9_900
        assert loaded(mods, *(f"repro.privatization.{m}"
                              for m in METHOD_MODULES)) \
            == ["repro.privatization.none_"]
        assert loaded(mods, "repro.ampi.checkpoint", "repro.trace",
                      "logging", "hashlib") == []

    def test_a_job_loads_only_its_own_method(self):
        """``hello --method M`` loads M's home module and no other method
        module (mpc's home imports tlsglobals', the class it extends).
        A method ``hello`` refuses is built with ``build_job`` on a spec
        it accepts.  One interpreter; the method modules are dropped from
        ``sys.modules`` before each name."""
        out = run_fresh(
            "import contextlib, io, json, sys\n"
            "from repro.cli import main\n"
            "from repro.harness.jobspec import JobSpec, build_job\n"
            "from repro.privatization.registry import method_names\n"
            "refused = {\n"
            "    'mpc': dict(app='hello', machine='stampede2-icx'),\n"
            "    'swapglobals': dict(app='hello', layout=(1, 1, 1),\n"
            "                        machine='legacy-linux-old-ld'),\n"
            "    'photran': dict(app='adcirc')}\n"
            f"homes = {['repro.privatization.' + m for m in METHOD_MODULES]}\n"
            "got = {}\n"
            "for name in method_names():\n"
            "    for home in homes:\n"
            "        sys.modules.pop(home, None)\n"
            "    if name in refused:\n"
            "        build_job(JobSpec(nvp=2, method=name, **refused[name]))\n"
            "    else:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            assert main(['hello', '--method', name]) == 0\n"
            "    got[name] = sorted(h for h in homes if h in sys.modules)\n"
            "print(json.dumps(got))\n")
        from repro.privatization.registry import METHODS

        got = json.loads(out.splitlines()[-1])
        assert sorted(got) == sorted(METHODS)
        for name, (home, _, _) in METHODS.items():
            expect = {home, "tlsglobals"} if home == "mpc" else {home}
            assert got[name] == sorted(f"repro.privatization.{m}"
                                       for m in expect), name

    def test_numeric_app_resolves_numpy(self):
        mods = modules_after(
            "from repro.harness import JobSpec\n"
            "import sys; assert 'numpy' not in sys.modules\n"
            "JobSpec(app='jacobi3d', nvp=8).build_source()")
        assert "numpy" in mods and "repro.apps.jacobi3d" in mods
        assert loaded(mods, "repro.apps.adcirc", "repro.apps.memhog") == []


class TestMethodRegistry:
    def test_names_without_loading_a_method(self):
        out = run_fresh(
            "import json, sys\n"
            "from repro.privatization.registry import get_method, "
            "method_names\n"
            "try:\n"
            "    get_method('magicglobals')\n"
            "except Exception as e:\n"
            "    error = str(e)\n"
            "print(json.dumps([method_names(), error, sorted(sys.modules)]))")
        names, error, mods = json.loads(out.splitlines()[-1])
        assert len(names) == 13
        assert error.endswith("known: " + ", ".join(names))
        assert loaded(set(mods), *(f"repro.privatization.{m}"
                                   for m in METHOD_MODULES)) == []

    def test_first_resolution_from_threads(self):
        """Eight threads resolving one name for the first time (a
        thread-mode ``repro serve`` does this) each get a fresh instance
        of the one class its module defined; the module is found and
        executed once, also counting a later resolution."""
        out = run_fresh(
            "import json, sys, threading\n"
            "from repro.privatization.registry import get_method\n"
            "HOME = 'repro.privatization.pieglobals'\n"
            "finds = []\n"
            "class CountFinds:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == HOME:\n"
            "            finds.append(name)\n"
            "sys.meta_path.insert(0, CountFinds())\n"
            "sys.setswitchinterval(1e-6)\n"
            "start = threading.Barrier(8)\n"
            "got, errors = [], []\n"
            "def resolve():\n"
            "    start.wait()\n"
            "    try:\n"
            "        got.append(get_method('pieglobals'))\n"
            "    except Exception as e:\n"
            "        errors.append(repr(e))\n"
            "threads = [threading.Thread(target=resolve) for _ in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(timeout=60)\n"
            "assert not any(t.is_alive() for t in threads)\n"
            "got.append(get_method('pieglobals'))\n"
            "cls = sys.modules[HOME].PieGlobals\n"
            "print(json.dumps([errors, len(finds), len({id(m) for m in got}),\n"
            "                  all(type(m) is cls for m in got)]))")
        assert json.loads(out.splitlines()[-1]) == [[], 1, 9, True]


LAZY_PACKAGES = ("repro", "repro.harness", "repro.apps", "repro.perf",
                 "repro.net", "repro.trace", "repro.ampi", "repro.charm",
                 "repro.charm.lb", "repro.elf", "repro.mem", "repro.program",
                 "repro.threads", "repro.fs", "repro.privatization")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyPackageSurface:
    def test_every_public_name_resolves(self, package):
        pkg = importlib.import_module(package)
        listing = dir(pkg)
        for name in pkg.__all__:
            assert name in listing
            assert getattr(pkg, name) is not None
        star: dict = {}
        exec(f"from {package} import *", star)
        assert set(pkg.__all__) <= set(star)

    def test_type_checking_block_names_the_map(self, package):
        """A public name is written twice, never three times: in the
        ``lazy_exports`` map (which is ``__all__``) and in the
        ``TYPE_CHECKING`` import that type checkers read."""
        import ast

        pkg = importlib.import_module(package)
        (block,) = (node for node in ast.parse(
            open(pkg.__file__).read()).body
            if isinstance(node, ast.If)
            and ast.unparse(node.test) == "TYPE_CHECKING")
        declared = {alias.asname or alias.name: imp.module
                    for imp in block.body for alias in imp.names}
        assert sorted(declared) == sorted(pkg.__all__)
        for name, home in declared.items():
            assert getattr(importlib.import_module(home), name) \
                is getattr(pkg, name)

    def test_unknown_attribute_raises(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            pkg.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})


def test_cache_geometry_importable_from_both_homes():
    from repro.perf.costs import CacheGeometry
    from repro.perf.icache import CacheGeometry as via_icache
    from repro.perf.icache import SetAssociativeCache

    assert via_icache is CacheGeometry
    assert SetAssociativeCache(CacheGeometry(4096, 2, 64)).accesses == 0


# ---------------------------------------------------------------------------
# Equivalence: the sys.modules-routed ndarray checks against the direct-np
# formulations they replaced, with numpy loaded.
# ---------------------------------------------------------------------------

def ref_payload_nbytes(obj):
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, np.generic):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float, complex)):
        return 8
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 8 + sum(ref_payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 8 + sum(ref_payload_nbytes(k) + ref_payload_nbytes(v)
                       for k, v in obj.items())
    return 64


def ref_copy_payload(obj):
    import copy

    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, (int, float, complex, str, bytes, bool, type(None))):
        return obj
    return copy.deepcopy(obj)


def ref_elementwise(np_fn, py_fn):
    def fn(a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np_fn(a, b)
        return py_fn(a, b)
    return fn


REF_OPS = {
    ops.SUM: ref_elementwise(np.add, lambda a, b: a + b),
    ops.PROD: ref_elementwise(np.multiply, lambda a, b: a * b),
    ops.MAX: ref_elementwise(np.maximum, max),
    ops.MIN: ref_elementwise(np.minimum, min),
    ops.LAND: ref_elementwise(np.logical_and,
                              lambda a, b: bool(a) and bool(b)),
    ops.LOR: ref_elementwise(np.logical_or, lambda a, b: bool(a) or bool(b)),
    ops.BAND: ref_elementwise(np.bitwise_and, lambda a, b: a & b),
    ops.BOR: ref_elementwise(np.bitwise_or, lambda a, b: a | b),
}


def same(x, y) -> bool:
    """Exactly equal, including container and dtype identity."""
    if type(x) is not type(y):
        return False
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(map(same, x, y))
    if isinstance(x, dict):
        return list(x) == list(y) and all(same(x[k], y[k]) for k in x)
    return x == y


def outcome(fn, *args):
    try:
        with np.errstate(all="ignore"):    # int64 products may wrap
            return ("ok", fn(*args))
    except Exception as e:     # both sides must fail the same way
        return ("raised", type(e))


def same_outcome(a, b) -> bool:
    return a[0] == b[0] and (same(a[1], b[1]) if a[0] == "ok"
                             else a[1] is b[1])


numbers = st.one_of(
    st.booleans(),
    st.integers(-2**40, 2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
np_scalars = st.one_of(
    st.integers(-2**40, 2**40).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float64),
    st.booleans().map(np.bool_),
)
shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)
arrays = st.one_of(
    hnp.arrays(np.int64, shapes, elements=st.integers(-2**40, 2**40)),
    hnp.arrays(np.float64, shapes, elements=st.floats(
        allow_nan=False, allow_infinity=False, width=32)),
    hnp.arrays(np.bool_, shapes),
)
leaves = st.one_of(st.none(), numbers, np_scalars, arrays,
                   st.text(max_size=5), st.binary(max_size=5))
payloads = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
        st.frozensets(st.integers(0, 9), max_size=3),
    ),
    max_leaves=8,
)
operands = st.one_of(numbers, np_scalars, arrays)


class TestNumpyRoutingEquivalence:
    @given(payloads)
    def test_payload_nbytes(self, obj):
        assert payload_nbytes(obj) == ref_payload_nbytes(obj)

    @given(payloads)
    def test_copy_payload(self, obj):
        got = _copy_payload(obj)
        assert same(got, ref_copy_payload(obj))
        if isinstance(obj, np.ndarray):
            assert got is not obj

    @pytest.mark.parametrize("op", list(REF_OPS), ids=lambda op: op.name)
    @given(a=operands, b=operands)
    def test_builtin_ops(self, op, a, b):
        assert same_outcome(outcome(op.apply, None, a, b),
                            outcome(REF_OPS[op], a, b))
