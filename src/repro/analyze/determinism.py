"""Determinism lint (rule family 4): sources of host nondeterminism.

The simulator's contract — byte-identical timelines for identical specs,
enforced by the pinned-scenario CI gate, chaos replay, and the serve
result cache — only holds if nothing on a simulated-time path consults
the host: wall clocks, unseeded RNGs, set iteration order, or ``id()``
values.  This scan finds exactly those four shapes, in program function
bodies (via ``repro check``) and over the simulator's own sources
(via the ``repro check self`` self-lint).

Codes
-----
``det-wallclock``        reading the host clock (``time.*``, ``datetime.now``,
                         ``st_mtime``, ``time.sleep``)
``det-unseeded-random``  module-level ``random``/``np.random`` calls, or
                         constructing an RNG with no seed
``det-set-iteration``    iterating a set (or set expression) where order
                         escapes — wrapping in ``sorted()`` is the fix
``det-id-key``           using ``id(...)`` as a mapping/set key

Suppression (self-lint only): a ``# repro: allow(<code>) <reason>``
pragma on the offending line or the line above.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

_TIME_FUNCS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "sleep",
})
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
_MTIME_ATTRS = frozenset({"st_mtime", "st_mtime_ns", "st_atime",
                          "st_atime_ns", "st_ctime", "st_ctime_ns"})
#: module-level functions of the global (unseeded) ``random`` RNG
_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "randbytes", "uniform", "gauss",
    "normalvariate", "choice", "choices", "sample", "shuffle",
    "betavariate", "expovariate", "triangular", "getrandbits",
})
#: order-insensitive consumers: iterating a set inside these is fine
_ORDER_FREE = frozenset({"sorted", "min", "max", "sum", "len", "any",
                         "all", "set", "frozenset"})

PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


@dataclass(frozen=True)
class DetEvent:
    code: str
    line: int
    detail: str


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``np.random`` etc.)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return ""


class DeterminismScan(ast.NodeVisitor):
    """Collects :class:`DetEvent` records from one AST."""

    def __init__(self) -> None:
        self.events: list[DetEvent] = []
        self._order_free: set[int] = set()

    def scan(self, tree: ast.AST) -> list[DetEvent]:
        self.visit(tree)
        self.events.sort(key=lambda e: (e.line, e.code, e.detail))
        return self.events

    def _emit(self, code: str, line: int, detail: str) -> None:
        self.events.append(DetEvent(code, line, detail))

    # -- wall clock / RNG ----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        head, _, tail = name.rpartition(".")
        if head == "time" and tail in _TIME_FUNCS:
            self._emit("det-wallclock", node.lineno, f"{name}()")
        elif tail in _DATETIME_FUNCS and head.split(".")[-1] in (
                "datetime", "date"):
            self._emit("det-wallclock", node.lineno, f"{name}()")
        elif tail in _RANDOM_FUNCS and head.split(".")[-1] == "random":
            self._emit("det-unseeded-random", node.lineno, f"{name}()")
        elif tail == "Random" and head.split(".")[-1] in ("random", "") \
                and head and not node.args and not node.keywords:
            self._emit("det-unseeded-random", node.lineno,
                       f"{name}() without a seed")
        elif tail == "default_rng" and not node.args and not node.keywords:
            self._emit("det-unseeded-random", node.lineno,
                       f"{name}() without a seed")
        if isinstance(node.func, ast.Name) and node.func.id in _ORDER_FREE:
            for arg in node.args:
                self._order_free.add(id(arg))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _MTIME_ATTRS:
            self._emit("det-wallclock", node.lineno,
                       f"filesystem timestamp .{node.attr}")
        self.generic_visit(node)

    # -- set iteration -------------------------------------------------------

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (DeterminismScan._is_set_expr(node.left)
                    or DeterminismScan._is_set_expr(node.right))
        return False

    def _check_iter(self, owner: ast.AST, it: ast.AST) -> None:
        if id(owner) in self._order_free:
            return
        if self._is_set_expr(it):
            self._emit("det-set-iteration", it.lineno,
                       "iteration over a set expression; wrap in sorted()")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_iter(node, gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- id()-keyed maps -----------------------------------------------------

    @staticmethod
    def _contains_id_call(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Name) \
                    and sub.func.id == "id":
                return True
        return False

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._contains_id_call(node.slice):
            self._emit("det-id-key", node.lineno,
                       "id() used as a mapping key")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None and self._contains_id_call(key):
                self._emit("det-id-key", key.lineno,
                           "id() used as a dict-literal key")
        self.generic_visit(node)


def scan_tree(tree: ast.AST) -> list[DetEvent]:
    return DeterminismScan().scan(tree)


def pragma_lines(source_lines: list[str]) -> dict[int, set[str]]:
    """1-based line -> finding codes allowed on it (or the next line)."""
    out: dict[int, set[str]] = {}
    for i, text in enumerate(source_lines, start=1):
        m = PRAGMA_RE.search(text)
        if not m:
            continue
        codes = {c.strip() for c in m.group(1).split(",")}
        out.setdefault(i, set()).update(codes)
        out.setdefault(i + 1, set()).update(codes)
    return out
