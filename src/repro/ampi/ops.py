"""Reduction operators, built-in and user-defined.

User-defined ops are where PIEglobals needs special handling: the op is
registered with a *function pointer* which, with per-rank code copies, is
a different address on every rank.  ``MPI_Op_create`` therefore stores
the offset from the creating rank's code base, and every application
rebases the offset against a rank resident on the applying PE
(Section 3.3).  Builtins are address-free and unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.ampi.datatypes import loaded_numpy
from repro.errors import MpiError

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.node import Pe


class Op:
    """Base reduction operator."""

    commutative: bool = True
    name: str = "op"

    def apply(self, pe: "Pe", a: Any, b: Any) -> Any:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Op {self.name}>"


class BuiltinOp(Op):
    def __init__(self, name: str, fn: Callable[[Any, Any], Any],
                 commutative: bool = True):
        self.name = name
        self._fn = fn
        self.commutative = commutative

    def apply(self, pe: "Pe", a: Any, b: Any) -> Any:
        return self._fn(a, b)


def _elementwise(ufunc: str, py_fn):
    """``numpy.<ufunc>`` when either operand is an ndarray, else ``py_fn``."""
    def fn(a, b):
        np = loaded_numpy()
        if np is not None and (isinstance(a, np.ndarray)
                               or isinstance(b, np.ndarray)):
            return getattr(np, ufunc)(a, b)
        return py_fn(a, b)
    return fn


SUM = BuiltinOp("MPI_SUM", _elementwise("add", lambda a, b: a + b))
PROD = BuiltinOp("MPI_PROD", _elementwise("multiply", lambda a, b: a * b))
MAX = BuiltinOp("MPI_MAX", _elementwise("maximum", max))
MIN = BuiltinOp("MPI_MIN", _elementwise("minimum", min))
LAND = BuiltinOp("MPI_LAND", _elementwise("logical_and",
                                          lambda a, b: bool(a) and bool(b)))
LOR = BuiltinOp("MPI_LOR", _elementwise("logical_or",
                                        lambda a, b: bool(a) or bool(b)))
BAND = BuiltinOp("MPI_BAND", _elementwise("bitwise_and", lambda a, b: a & b))
BOR = BuiltinOp("MPI_BOR", _elementwise("bitwise_or", lambda a, b: a | b))
#: (value, location) pairs
MAXLOC = BuiltinOp("MPI_MAXLOC", lambda a, b: max(a, b))
MINLOC = BuiltinOp("MPI_MINLOC", lambda a, b: min(a, b))


@dataclass
class UserOp(Op):
    """A user-defined operator created via ``op_create``.

    Exactly one of ``fn_addr`` (methods with shared code) or
    ``fn_offset`` (PIEglobals-style per-rank code copies, rebased through
    ``rebase``) is used.
    """

    name: str
    commutative: bool
    fn_addr: int | None = None
    fn_offset: int | None = None
    #: ``rebase(pe, offset) -> address`` — provided by the privatization
    #: method; raises ReductionOffsetError on an empty PE.
    rebase: Callable[["Pe", int], int] | None = None
    #: ``invoke(pe, addr, a, b) -> value`` — provided by the runtime: runs
    #: the function at ``addr`` in the context of a rank resident on ``pe``.
    invoke: Callable[["Pe", int, Any, Any], Any] | None = None

    def apply(self, pe: "Pe", a: Any, b: Any) -> Any:
        if self.invoke is None:
            raise MpiError(f"user op {self.name!r} is not bound to a runtime")
        if self.fn_offset is not None:
            if self.rebase is None:
                raise MpiError(
                    f"user op {self.name!r} stores an offset but has no "
                    "rebase hook"
                )
            addr = self.rebase(pe, self.fn_offset)
        elif self.fn_addr is not None:
            addr = self.fn_addr
        else:
            raise MpiError(f"user op {self.name!r} has no function")
        return self.invoke(pe, addr, a, b)
