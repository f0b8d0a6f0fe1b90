"""Static analysis over program sources (the source phase of
``repro check``).

An interprocedural AST analyzer over :class:`ProgramSource` function
bodies: it recovers each body's Python source, builds a whole-program
model (global accesses, rank-dependence taint, MPI call shapes, the
``ctx.call`` graph), and checks four rule families:

1. **Privatization surface** (``pv-*``) — observed global access
   classes vs. declared ``VarDef`` flags, plus the cheapest method that
   covers the inferred surface.
2. **Migration/checkpoint safety** (``mig-*``) — state living outside
   the privatized segments: mutable closures, host module globals, the
   execution context escaping the call.
3. **Communication shape** (``comm-*``) — divergent collectives, tag
   mismatches, symmetric recv deadlocks, never-completed requests.
4. **Determinism** (``det-*``) — host nondeterminism (wall clock,
   unseeded RNG, set iteration order, ``id()`` keys), applied both to
   program bodies and — as the ``repro check self`` self-lint — to
   the simulator's own sources.
"""

from repro.analyze.driver import (
    AnalysisReport,
    analyze_source,
    cost_order,
    method_sufficient,
    predict_min_method,
)
from repro.analyze.model import (
    ProgramModel,
    SourceUnavailable,
    build_model,
    mutable_closure_cells,
)
from repro.analyze.rules import classify_globals, inferred_unsafe
from repro.analyze.selflint import lint_file, lint_paths, lint_tree

__all__ = [
    "AnalysisReport",
    "ProgramModel",
    "SourceUnavailable",
    "analyze_source",
    "build_model",
    "classify_globals",
    "cost_order",
    "inferred_unsafe",
    "lint_file",
    "lint_paths",
    "lint_tree",
    "method_sufficient",
    "mutable_closure_cells",
    "predict_min_method",
]
