"""Counted, not timed: the one home of the suite's structural counts.

A structural guard states a design rule as an exact count, so it holds
on any host.  Every guard counts through :func:`python_calls`
(``sys.setprofile``), :func:`profiled_calls` (cProfile) or
:func:`counting` (a wrapped attribute); the profilers run with the
collector paused (:func:`paused_gc`).  The benchmark shapes the guards are named
after are defined here once; ``test_ampi_send_path`` checks them
against ``benchmarks/host``.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import sys
import zlib
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.harness.jobspec import JobSpec
from repro.provenance.record import RunRecord
from repro.trace import stream

# -- the host benchmark's shapes ---------------------------------------------

#: ``jacobi_1k``: 1 024 ranks, halo p2p and an allreduce
JACOBI_1K = JobSpec(app="jacobi3d", nvp=1024,
                    app_config={"n": 16, "iters": 1, "reduce_every": 1},
                    method="pieglobals", machine="generic-linux",
                    layout=(2, 2, 4))

#: ``switch_storm``: 64 ranks x 200 yields on one PE, 12 864 quanta
SWITCH_STORM = JobSpec(app="pingpong", nvp=64,
                       app_config={"yields_per_rank": 200}, method="none",
                       machine="generic-linux", layout=(1, 1, 1),
                       slot_size=1 << 26)

#: ``method_sweep``: the start-up app at 256 ranks under each method
METHOD_SWEEP = [JobSpec(app="startup", nvp=256, method=m, machine="bridges2",
                        # PIP: at most 12 namespaces, so one rank per process
                        layout=(1, 32, 1) if m == "pipglobals" else (1, 2, 4))
                for m in ("none", "tlsglobals", "pipglobals", "fsglobals",
                          "pieglobals")]


# -- counting ----------------------------------------------------------------


@contextmanager
def paused_gc() -> Iterator[None]:
    """No garbage collection while open (hypothesis's Python
    ``gc.callbacks`` hook would add calls wherever one fell); the state
    found on entry is put back on exit."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass
class Calls:
    """The Python ``call`` events of one profiled call: per code object,
    and per entry its calls from outside every entry and the events
    inside those calls."""

    called: Counter
    entered: dict[str, int]
    inside: dict[str, int]
    result: Any

    @property
    def total(self) -> int:
        return sum(self.called.values())

    def per_call(self, name: str) -> float:
        return self.inside[name] / self.entered[name]


def python_calls(fn: Callable[[], Any],
                 entries: dict[str, Callable] | None = None) -> Calls:
    """Call ``fn()`` under ``sys.setprofile`` with the collector paused.
    An entry is a Python function; a call of one from inside another
    counts for the outer one only."""
    entries = entries or {}
    names = {f.__code__: name for name, f in entries.items()}
    entered = dict.fromkeys(entries, 0)
    inside = dict.fromkeys(entries, 0)
    called: Counter = Counter()
    open_: list = []

    def profile(frame, event, arg):
        if event == "call":
            called[frame.f_code] += 1
            if open_:
                inside[open_[-1][0]] += 1
            else:
                name = names.get(frame.f_code)
                if name is not None:
                    entered[name] += 1
                    open_.append((name, frame))
        elif event == "return" and open_ and open_[-1][1] is frame:
            open_.pop()

    with paused_gc():
        sys.setprofile(profile)
        try:
            result = fn()
        finally:
            sys.setprofile(None)
    return Calls(called, entered, inside, result)


def profiled_calls(fn: Callable[[], Any]) -> int:
    """cProfile's call total of ``fn()``, with the collector paused."""
    profile = cProfile.Profile()
    with paused_gc():
        profile.runcall(fn)
    return pstats.Stats(profile).total_calls


@contextmanager
def counting(*seams: tuple[Any, str], only: Callable[..., bool] | None = None,
             where: Callable[..., Any] | None = None,
             aliases: bool = False) -> Iterator[list]:
    """While open, each ``(owner, name)`` seam is a wrapper that appends
    one entry per call to the yielded list: ``where(*args)``, or the
    arguments, for each call ``only(*args)`` accepts.  A ``classmethod``
    is wrapped as one.  With ``aliases``, every name a ``repro`` module
    holds the same object by is swapped too.  Everything is put back on
    exit."""
    calls: list = []
    saved: list[tuple[Any, str, Any]] = []

    def wrap(fn):
        def counted(*args, **kwargs):
            if only is None or only(*args):
                calls.append(args if where is None else where(*args))
            return fn(*args, **kwargs)
        return counted

    try:
        for owner, name in seams:
            original = vars(owner)[name]
            holders = [(owner, name)]
            if aliases:
                holders += [(module, attr)
                            for mod_name, module in list(sys.modules.items())
                            if mod_name.partition(".")[0] == "repro"
                            and module is not owner
                            for attr, value in list(vars(module).items())
                            if value is original]
            if isinstance(original, classmethod):
                wrapper: Any = classmethod(wrap(original.__func__))
            else:
                wrapper = wrap(original)
            for holder, attr in holders:
                saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        yield calls
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


# -- filing a run ------------------------------------------------------------


def carries_a_record(encoder: Any, obj: Any, *rest: Any) -> bool:
    """Whether a JSON encode is of a record's dict, or of a message
    holding one as a plain dict."""
    return isinstance(obj, dict) and (
        "timeline_sha256" in obj or isinstance(obj.get("record"), dict))


@contextmanager
def filing(where: Callable[..., Any] | None = None
           ) -> Iterator[dict[str, list]]:
    """While open, the calls that file a run, by row: ``timeline`` (the
    canonical timeline encoder, under every name a ``repro`` module
    holds it by), ``zlib`` (``zlib.compress``), ``record_json`` (a JSON
    encode of a record, :func:`carries_a_record`), ``pure_python``
    (json's pure-Python encoder being built, as for ``indent``) and
    ``RunRecord``'s ``from_dict`` and ``to_dict``.  ``where`` as for
    :func:`counting`."""
    rows = {"timeline": ([(stream, "encode_timeline")], None, True),
            "zlib": ([(zlib, "compress")], None, False),
            "record_json": ([(json.JSONEncoder, "iterencode")],
                            carries_a_record, False),
            "pure_python": ([(json.encoder, "_make_iterencode")], None,
                            False),
            "from_dict": ([(RunRecord, "from_dict")], None, False),
            "to_dict": ([(RunRecord, "to_dict")], None, False)}
    with ExitStack() as stack:
        yield {name: stack.enter_context(counting(
                   *seams, only=only, where=where, aliases=aliases))
               for name, (seams, only, aliases) in rows.items()}
