"""AST extraction over :class:`ProgramSource` function bodies.

Program functions are real Python callables, so the analyzer recovers
each body with :func:`inspect.getsource`, parses it, and extracts a
:class:`FunctionSummary`: every global access (``ctx.g.NAME`` and its
aliases), every MPI facade call with its guard context, inter-function
calls (``ctx.call``), and a rank-dependence taint for each of them.

Taint is the analysis' notion of *rank-varying*: a value derived from
``mpi.rank()``, ``mpi.my_pe()``, or ``ctx.vp``.  Collective results and
``mpi.size()`` are rank-uniform by definition.  The driver propagates
taint interprocedurally through the ``ctx.call`` graph (argument taint
vectors and return-taint summaries, iterated to a fixpoint) so that a
rank-divergent guard around a helper flags the collective *inside* the
helper.
"""

from __future__ import annotations

import ast
import inspect
import operator
import textwrap
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.ampi.funcptr import ENTRY_POINTS
from repro.mem.segments import FuncDef
from repro.program.source import ProgramSource

# The analyzer's classes of MPI facade operations, read off the one
# table of entry points (:data:`repro.ampi.funcptr.ENTRY_POINTS`).
#: operations every rank must enter (deadlock if divergent)
COLLECTIVE_OPS = frozenset(e.name for e in ENTRY_POINTS if e.sync)
SEND_OPS = frozenset(e.name for e in ENTRY_POINTS if e.role == "send")
RECV_OPS = frozenset(e.name for e in ENTRY_POINTS if e.role == "recv")
WAIT_OPS = frozenset(e.name for e in ENTRY_POINTS if e.role == "wait")
#: taint seeds: per-rank identity
RANK_OPS = frozenset(e.name for e in ENTRY_POINTS if e.result == "rank")
#: rank-uniform results no matter the arguments
UNIFORM_OPS = frozenset(
    e.name for e in ENTRY_POINTS if e.result == "uniform")


@dataclass(frozen=True)
class GlobalRead:
    name: str
    line: int
    func: str


@dataclass(frozen=True)
class GlobalWrite:
    name: str
    line: int
    func: str
    tainted: bool          #: value derives from the rank
    self_ref: bool         #: read-modify-write of the same global
    in_loop: bool


@dataclass(frozen=True)
class MpiCall:
    op: str
    line: int
    func: str
    guard_tainted: bool    #: under a rank-dependent branch/loop
    guarded: bool          #: under any branch at all
    tag: int | None        #: constant tag, if statically known
    has_tag: bool          #: a tag argument was supplied
    bound: str | None      #: local name the result was bound to
    standalone: bool       #: bare expression statement (result dropped)
    in_container: bool     #: result flows into a container/composite expr


@dataclass(frozen=True)
class CallSite:
    callee: str
    line: int
    func: str
    arg_taints: tuple[bool, ...]
    guard_tainted: bool


@dataclass
class FunctionSummary:
    """Everything one scan of one function body produced."""

    name: str
    src_file: str | None
    reads: list[GlobalRead] = field(default_factory=list)
    writes: list[GlobalWrite] = field(default_factory=list)
    mpi: list[MpiCall] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    #: writes to the defining module's globals (``global`` stmt + store)
    module_writes: list[tuple[str, int]] = field(default_factory=list)
    #: the execution context leaking into storage that outlives the call
    ctx_escapes: list[tuple[int, str]] = field(default_factory=list)
    #: names loaded anywhere in the body: name -> lines
    name_loads: dict[str, list[int]] = field(default_factory=dict)
    returns_tainted: bool = False


@dataclass
class FunctionAst:
    """A parsed function body, aligned to its host source file."""

    fdef: FuncDef
    tree: ast.FunctionDef
    src_file: str | None
    ctx_param: str | None
    #: build-time configuration constants captured by the closure
    const_env: dict[str, Any] = field(default_factory=dict)


class SourceUnavailable(Exception):
    """The callable's Python source cannot be recovered."""


def parse_function(fdef: FuncDef) -> FunctionAst:
    """Recover and parse one function body, line-aligned to its file."""
    fn = fdef.fn
    if fn is None:
        raise SourceUnavailable(f"{fdef.name}: no body")
    fn = inspect.unwrap(fn)
    try:
        lines, start = inspect.getsourcelines(fn)
    except (OSError, TypeError) as e:
        raise SourceUnavailable(f"{fdef.name}: {e}") from e
    src = textwrap.dedent("".join(lines))
    try:
        module = ast.parse(src)
    except SyntaxError as e:  # pragma: no cover - getsource gave us junk
        raise SourceUnavailable(f"{fdef.name}: {e}") from e
    node = next(
        (n for n in module.body
         if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))),
        None,
    )
    if node is None or isinstance(node, ast.AsyncFunctionDef):
        raise SourceUnavailable(f"{fdef.name}: not a plain function")
    ast.increment_lineno(node, start - 1)
    args = node.args.args
    ctx_param = args[0].arg if args else None
    src_file = fdef.src_file or getattr(fn, "__code__", None) and \
        fn.__code__.co_filename
    return FunctionAst(fdef=fdef, tree=node, src_file=src_file,
                       ctx_param=ctx_param,
                       const_env=_closure_consts(fn))


_CONST_SCALARS = (int, float, str, bytes, bool, type(None))


def _closure_consts(fn: Callable) -> dict[str, Any]:
    """Scalar closure cells: the app builders' build-time configuration.

    Program bodies are parameterized by closing over config values
    (``ckpt_period = cfg.ckpt_period`` in the builder); folding those
    into the scan lets it skip statically-dead branches — exactly how
    ``#ifdef``-style feature gates behave in compiled code.
    """
    code = getattr(fn, "__code__", None)
    closure = getattr(fn, "__closure__", None)
    if code is None or not closure:
        return {}
    out: dict[str, Any] = {}
    for name, cell in zip(code.co_freevars, closure):
        try:
            value = cell.cell_contents
        except ValueError:
            continue
        if isinstance(value, _CONST_SCALARS):
            out[name] = value
    return out


# ---------------------------------------------------------------------------
# Body scanning
# ---------------------------------------------------------------------------

class _BodyScan(ast.NodeVisitor):
    """One intraprocedural pass: aliases, taint, accesses, guards.

    The scan runs twice over the body (``collect=False`` then ``True``)
    so taint introduced late in a loop body reaches uses earlier in it.
    """

    def __init__(self, fast: FunctionAst, tainted_params: frozenset[int]):
        self.fast = fast
        self.fname = fast.fdef.name
        self.ctx_aliases: set[str] = set()
        if fast.ctx_param:
            self.ctx_aliases.add(fast.ctx_param)
        self.g_aliases: set[str] = set()
        self.mpi_aliases: set[str] = set()
        self.tainted: set[str] = set()
        params = fast.tree.args.args[1:]
        for i in tainted_params:
            if i < len(params):
                self.tainted.add(params[i].arg)
        self._guards: list[bool] = []
        self._loops = 0
        self._globals: set[str] = set()
        self.const_env: dict[str, Any] = dict(fast.const_env)
        self.collect = False
        self.out = FunctionSummary(name=self.fname,
                                   src_file=fast.src_file)

    def run(self) -> FunctionSummary:
        for self.collect in (False, True):
            self._guards.clear()
            self._loops = 0
            for stmt in self.fast.tree.body:
                self.visit(stmt)
        return self.out

    # -- expression classification ------------------------------------------

    def _is_ctx(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in self.ctx_aliases

    def _is_g(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name) and node.id in self.g_aliases:
            return True
        return (isinstance(node, ast.Attribute) and node.attr == "g"
                and self._is_ctx(node.value))

    def _is_mpi(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name) and node.id in self.mpi_aliases:
            return True
        return (isinstance(node, ast.Attribute) and node.attr == "mpi"
                and self._is_ctx(node.value))

    def _global_name(self, node: ast.AST) -> str | None:
        """``ctx.g.NAME`` / ``g.NAME`` / ``ctx.g["NAME"]`` -> NAME."""
        if isinstance(node, ast.Attribute) and self._is_g(node.value):
            return node.attr
        if isinstance(node, ast.Subscript) and self._is_g(node.value):
            sl = node.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                return sl.value
        return None

    def _mpi_op(self, node: ast.AST) -> str | None:
        """``mpi.OP(...)`` / ``ctx.mpi.OP(...)`` -> OP."""
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and self._is_mpi(node.func.value)):
            return node.func.attr
        return None

    def _ctx_method(self, node: ast.AST, method: str) -> ast.Call | None:
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == method
                and self._is_ctx(node.func.value)):
            return node
        return None

    def _tainted(self, node: ast.AST | None) -> bool:
        """Does this expression derive from the executing rank?"""
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Attribute):
            if node.attr == "vp" and self._is_ctx(node.value):
                return True
            return self._tainted(node.value)
        if isinstance(node, ast.Call):
            op = self._mpi_op(node)
            if op in RANK_OPS:
                return True
            if op in UNIFORM_OPS:
                return False
            call = self._ctx_method(node, "call")
            if call is not None and call.args:
                first = call.args[0]
                callee = (first.value
                          if isinstance(first, ast.Constant) else None)
                arg_t = any(self._tainted(a) for a in call.args[1:])
                if isinstance(callee, str):
                    return arg_t or self._returns_tainted(callee)
                return True  # indirect callee: be conservative
            return any(self._tainted(c) for c in ast.iter_child_nodes(node))
        return any(self._tainted(c) for c in ast.iter_child_nodes(node))

    def _returns_tainted(self, callee: str) -> bool:
        return callee in self.returns_taint_table

    # -- build-time constant folding ----------------------------------------

    _CMP = {ast.Eq: operator.eq, ast.NotEq: operator.ne,
            ast.Lt: operator.lt, ast.LtE: operator.le,
            ast.Gt: operator.gt, ast.GtE: operator.ge}
    _BIN = {ast.Add: operator.add, ast.Sub: operator.sub,
            ast.Mult: operator.mul, ast.Mod: operator.mod,
            ast.FloorDiv: operator.floordiv, ast.Div: operator.truediv}

    def _const_value(self, node: ast.AST) -> tuple[bool, Any]:
        """``(known, value)`` for build-time-constant expressions.

        Resolves names through the closure constants (the app builders'
        config) and propagated locals, so ``if ckpt_period:`` with
        checkpointing compiled out is recognized as a dead branch.
        """
        if isinstance(node, ast.Constant):
            return True, node.value
        if isinstance(node, ast.Name):
            if node.id in self.const_env:
                return True, self.const_env[node.id]
            return False, None
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            known, v = self._const_value(node.operand)
            return (True, not v) if known else (False, None)
        if isinstance(node, ast.BoolOp):
            stop = isinstance(node.op, ast.And)  # short-circuit value
            last: tuple[bool, Any] = (False, None)
            for sub in node.values:
                known, v = last = self._const_value(sub)
                if not known:
                    return False, None
                if bool(v) is not stop:
                    return True, v
            return last
        if isinstance(node, ast.IfExp):
            known, v = self._const_value(node.test)
            if known:
                return self._const_value(node.body if v else node.orelse)
            return False, None
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            op = self._CMP.get(type(node.ops[0]))
            k1, v1 = self._const_value(node.left)
            k2, v2 = self._const_value(node.comparators[0])
            if op is not None and k1 and k2:
                try:
                    return True, op(v1, v2)
                except TypeError:
                    return False, None
        if isinstance(node, ast.BinOp):
            op = self._BIN.get(type(node.op))
            k1, v1 = self._const_value(node.left)
            k2, v2 = self._const_value(node.right)
            if op is not None and k1 and k2:
                try:
                    return True, op(v1, v2)
                except (TypeError, ZeroDivisionError):
                    return False, None
        return False, None

    #: set by the driver before scanning: callees whose return value is
    #: rank-dependent even for uniform arguments
    returns_taint_table: frozenset[str] = frozenset()

    # -- recording -----------------------------------------------------------

    def _read(self, name: str, line: int) -> None:
        if self.collect:
            self.out.reads.append(GlobalRead(name, line, self.fname))

    def _write(self, name: str, line: int, value: ast.AST | None,
               tainted: bool | None = None) -> None:
        if not self.collect:
            return
        t = self._tainted(value) if tainted is None else tainted
        self_ref = False
        if value is not None:
            self_ref = any(
                self._global_name(sub) == name for sub in ast.walk(value)
            )
        self.out.writes.append(GlobalWrite(
            name, line, self.fname, tainted=t, self_ref=self_ref,
            in_loop=self._loops > 0,
        ))

    def _escape(self, line: int, detail: str) -> None:
        if self.collect:
            self.out.ctx_escapes.append((line, detail))

    def _check_ctx_escape(self, value: ast.AST, line: int,
                          into: str) -> None:
        if self._is_ctx(value):
            self._escape(line, f"ctx stored into {into}")
        elif isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            if any(self._is_ctx(el) for el in value.elts):
                self._escape(line, f"ctx placed in a container ({into})")
        elif isinstance(value, ast.Dict):
            if any(v is not None and self._is_ctx(v)
                   for v in list(value.keys) + list(value.values)):
                self._escape(line, f"ctx placed in a dict ({into})")

    # -- visitors -------------------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if self.collect and isinstance(node.ctx, ast.Load):
            self.out.name_loads.setdefault(node.id, []).append(node.lineno)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        gname = self._global_name(node)
        if gname is not None and isinstance(node.ctx, ast.Load):
            self._read(gname, node.lineno)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        gname = self._global_name(node)
        if gname is not None and isinstance(node.ctx, ast.Load):
            self._read(gname, node.lineno)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self._globals.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        value_taint = self._tainted(node.value)
        for target in node.targets:
            self._assign_target(target, node.value, value_taint, node.lineno)

    def _assign_target(self, target: ast.AST, value: ast.AST | None,
                       value_taint: bool, line: int) -> None:
        gname = self._global_name(target)
        if gname is not None:
            self._write(gname, line, value, tainted=value_taint)
            if value is not None:
                self._check_ctx_escape(value, line, f"global {gname!r}")
            return
        if isinstance(target, ast.Name):
            # Alias registration and taint bookkeeping.
            if value is not None:
                if self._is_ctx(value):
                    self.ctx_aliases.add(target.id)
                elif self._is_g(value):
                    self.g_aliases.add(target.id)
                elif self._is_mpi(value):
                    self.mpi_aliases.add(target.id)
            if value_taint:
                self.tainted.add(target.id)
            known, val = (self._const_value(value)
                          if value is not None else (False, None))
            if known and isinstance(val, _CONST_SCALARS):
                self.const_env[target.id] = val
            else:
                self.const_env.pop(target.id, None)
            if target.id in self._globals and self.collect:
                self.out.module_writes.append((target.id, line))
            self._bind_request(target.id, value, line)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elems = target.elts
            if isinstance(value, (ast.Tuple, ast.List)) \
                    and len(value.elts) == len(elems):
                for el, v in zip(elems, value.elts):
                    self._assign_target(el, v, self._tainted(v), line)
            else:
                for el in elems:
                    self._assign_target(el, None, value_taint, line)
            return
        if isinstance(target, ast.Subscript) and value is not None:
            self._check_ctx_escape(value, line, "a container slot")
        self.visit(target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        gname = self._global_name(node.target)
        if gname is not None:
            self._read(gname, node.lineno)
            if self.collect:
                self.out.writes.append(GlobalWrite(
                    gname, node.lineno, self.fname,
                    tainted=self._tainted(node.value), self_ref=True,
                    in_loop=self._loops > 0,
                ))
            return
        if isinstance(node.target, ast.Name):
            if self._tainted(node.value):
                self.tainted.add(node.target.id)
            self.const_env.pop(node.target.id, None)
            if node.target.id in self._globals and self.collect:
                self.out.module_writes.append((node.target.id, node.lineno))

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self._assign_target(node.target, node.value,
                                self._tainted(node.value), node.lineno)

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        known, val = self._const_value(node.test)
        if known:
            # Build-time-constant guard: only the live branch exists,
            # and it is uniform across ranks (no divergence guard).
            for stmt in (node.body if val else node.orelse):
                self.visit(stmt)
            return
        self._guards.append(self._tainted(node.test))
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        self._guards.pop()

    def visit_IfExp(self, node: ast.IfExp) -> None:
        self.visit(node.test)
        known, val = self._const_value(node.test)
        if known:
            self.visit(node.body if val else node.orelse)
            return
        self._guards.append(self._tainted(node.test))
        self.visit(node.body)
        self.visit(node.orelse)
        self._guards.pop()

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._guards.append(self._tainted(node.test))
        self._loops += 1
        for stmt in node.body:
            self.visit(stmt)
        self._loops -= 1
        self._guards.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        iter_taint = self._tainted(node.iter)
        self._assign_target(node.target, None, iter_taint, node.lineno)
        # A rank-dependent trip count diverges exactly like a branch.
        self._guards.append(iter_taint)
        self._loops += 1
        for stmt in node.body:
            self.visit(stmt)
        self._loops -= 1
        self._guards.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self.visit(node.value)
            if self._tainted(node.value):
                self.out.returns_tainted = True
            if self.collect:
                if self._is_ctx(node.value):
                    self._escape(node.lineno, "ctx returned to the caller")
                else:
                    self._check_ctx_escape(node.value, node.lineno,
                                           "the return value")

    def visit_Expr(self, node: ast.Expr) -> None:
        # ``yield from mpi.barrier()`` is the call, in generator form
        call = (node.value.value if isinstance(node.value, ast.YieldFrom)
                else node.value)
        op = self._mpi_op(call)
        if op is not None:
            self._record_mpi(call, op, bound=None, standalone=True)  # type: ignore[arg-type]
            assert isinstance(call, ast.Call)
            for arg in call.args:
                self.visit(arg)
            for kw in call.keywords:
                self.visit(kw.value)
            return
        self.visit(node.value)

    def visit_Call(self, node: ast.Call) -> None:
        op = self._mpi_op(node)
        if op is not None:
            self._record_mpi(node, op, bound=None, standalone=False)
        call = self._ctx_method(node, "call")
        if call is not None and call.args:
            first = call.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                if self.collect:
                    self.out.calls.append(CallSite(
                        callee=first.value, line=node.lineno,
                        func=self.fname,
                        arg_taints=tuple(self._tainted(a)
                                         for a in call.args[1:]),
                        guard_tainted=any(self._guards),
                    ))
        charge = self._ctx_method(node, "charge_accesses")
        if charge is not None and charge.args:
            d = charge.args[0]
            if isinstance(d, ast.Dict):
                for k in d.keys:
                    if isinstance(k, ast.Constant) \
                            and isinstance(k.value, str):
                        self._read(k.value, node.lineno)
        for arg in node.args:
            if self._is_ctx(arg):
                # ctx passed to a plain helper is fine (stack lifetime);
                # only *storage* escapes are flagged elsewhere.
                continue
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)
        self.visit(node.func)

    def _record_mpi(self, node: ast.Call, op: str, *,
                    bound: str | None, standalone: bool) -> None:
        if not self.collect:
            return
        tag, has_tag = self._tag_of(node, op)
        self.out.mpi.append(MpiCall(
            op=op, line=node.lineno, func=self.fname,
            guard_tainted=any(self._guards), guarded=bool(self._guards),
            tag=tag, has_tag=has_tag, bound=bound, standalone=standalone,
            in_container=False,
        ))

    @staticmethod
    def _tag_of(node: ast.Call, op: str) -> tuple[int | None, bool]:
        """The constant message tag of a send/recv call, if present."""
        tag_pos = {"send": 2, "isend": 2, "recv": 1, "irecv": 1}.get(op)
        if tag_pos is None:
            return None, False
        expr: ast.AST | None = None
        for kw in node.keywords:
            if kw.arg == "tag":
                expr = kw.value
        if expr is None and len(node.args) > tag_pos:
            expr = node.args[tag_pos]
        if expr is None:
            return None, False
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            return expr.value, True
        return None, True  # dynamic tag: matches anything

    def _bind_request(self, name: str, value: ast.AST | None,
                      line: int) -> None:
        """``x = mpi.irecv(...)`` — remember the bound request name."""
        if value is None or not self.collect:
            return
        op = self._mpi_op(value)
        if op in ("isend", "irecv"):
            assert isinstance(value, ast.Call)
            tag, has_tag = self._tag_of(value, op)
            # Replace the unbound record visit_Call just appended.
            for i in range(len(self.out.mpi) - 1, -1, -1):
                m = self.out.mpi[i]
                if m.line == line and m.op == op and m.bound is None:
                    self.out.mpi[i] = MpiCall(
                        op=op, line=line, func=self.fname,
                        guard_tainted=m.guard_tainted, guarded=m.guarded,
                        tag=tag, has_tag=has_tag, bound=name,
                        standalone=False, in_container=False,
                    )
                    break

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested helper: scan its body with the same machinery (no ctx
        # param of its own, so only det/module-global issues can arise).
        for stmt in node.body:
            self.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)


# ---------------------------------------------------------------------------
# Whole-program model
# ---------------------------------------------------------------------------

@dataclass
class ProgramModel:
    """Parsed + scanned view of one :class:`ProgramSource`."""

    source: ProgramSource
    functions: dict[str, FunctionAst]
    summaries: dict[str, FunctionSummary]
    #: functions whose bodies could not be recovered
    unscanned: list[str]
    #: functions that (transitively) execute a collective
    has_collective: frozenset[str]

    def all_reads(self) -> Iterator[GlobalRead]:
        for s in self.summaries.values():
            yield from s.reads

    def all_writes(self) -> Iterator[GlobalWrite]:
        for s in self.summaries.values():
            yield from s.writes

    def accessed_globals(self) -> set[str]:
        names = {r.name for r in self.all_reads()}
        names.update(w.name for w in self.all_writes())
        return names


def build_model(source: ProgramSource) -> ProgramModel:
    """Parse and scan every function; fixpoint the return-taint table."""
    functions: dict[str, FunctionAst] = {}
    unscanned: list[str] = []
    for fdef in source.functions:
        try:
            functions[fdef.name] = parse_function(fdef)
        except SourceUnavailable:
            unscanned.append(fdef.name)

    # Three full passes: pass 1 has no interprocedural facts, pass 2
    # sees pass 1's return-taint and callsite-argument taints, pass 3
    # covers taint flowing through one further level of helpers.  The
    # programs this simulator builds have call graphs two or three deep,
    # so a fixed small bound is both deterministic and sufficient.
    returns_tainted: set[str] = set()
    summaries: dict[str, FunctionSummary] = {}
    for _ in range(3):
        prev = summaries
        summaries = {}
        for name, fast in functions.items():
            scan = _BodyScan(fast, _param_taints(name, prev))
            scan.returns_taint_table = frozenset(returns_tainted)
            summaries[name] = scan.run()
        returns_tainted = {n for n, s in summaries.items()
                           if s.returns_tainted}

    has_coll = _transitive_collectives(summaries)
    return ProgramModel(source=source, functions=functions,
                        summaries=summaries, unscanned=sorted(unscanned),
                        has_collective=has_coll)


def _param_taints(name: str,
                  prev: dict[str, FunctionSummary]) -> frozenset[int]:
    """Indices of ``name``'s params called with tainted args anywhere."""
    out: set[int] = set()
    for s in prev.values():
        for c in s.calls:
            if c.callee == name:
                out.update(i for i, t in enumerate(c.arg_taints) if t)
    return frozenset(out)


def _transitive_collectives(
        summaries: dict[str, FunctionSummary]) -> frozenset[str]:
    direct = {n for n, s in summaries.items()
              if any(m.op in COLLECTIVE_OPS for m in s.mpi)}
    changed = True
    while changed:
        changed = False
        for n, s in summaries.items():
            if n in direct:
                continue
            if any(c.callee in direct for c in s.calls):
                direct.add(n)
                changed = True
    return frozenset(direct)


# ---------------------------------------------------------------------------
# Closure inspection (host-object level, not AST)
# ---------------------------------------------------------------------------

_SAFE_SCALARS = (int, float, complex, str, bytes, bool, type(None),
                 frozenset)


def mutable_closure_cells(fn: Callable[..., Any],
                          _depth: int = 0) -> list[tuple[str, str]]:
    """(free variable name, type name) for captured mutable state.

    Frozen dataclasses, scalars, tuples of safe values, and functions
    (recursed one level) are migration-safe; lists/dicts/sets/arrays and
    thawed dataclass instances are not — they live outside the rank's
    privatized segments and heap, so a migrated or restored rank would
    silently share (or lose) them.
    """
    fn = inspect.unwrap(fn)
    closure = getattr(fn, "__closure__", None)
    code = getattr(fn, "__code__", None)
    if not closure or code is None:
        return []
    out: list[tuple[str, str]] = []
    for name, cell in zip(code.co_freevars, closure):
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell (recursive def)
            continue
        if _is_mutable_value(value):
            out.append((name, type(value).__name__))
        elif callable(value) and _depth < 1 \
                and getattr(value, "__closure__", None):
            for sub, tname in mutable_closure_cells(value, _depth + 1):
                out.append((f"{name}.{sub}", tname))
    return out


def _is_mutable_value(value: Any, _depth: int = 0) -> bool:
    if isinstance(value, _SAFE_SCALARS):
        return False
    if isinstance(value, tuple):
        if _depth > 3:
            return False
        return any(_is_mutable_value(v, _depth + 1) for v in value)
    if isinstance(value, (list, dict, set, bytearray)):
        return True
    if type(value).__name__ == "ndarray":
        return True
    import dataclasses

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        params = getattr(type(value), "__dataclass_params__", None)
        return not (params is not None and params.frozen)
    return False
