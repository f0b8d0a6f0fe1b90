"""repro.trace — Projections-style tracing for the simulator.

Attach a :class:`TraceRecorder` to a job (``AmpiJob(..., trace=True)`` or
``trace=recorder``) and every layer the paper's techniques touch emits
spans and instant events stamped with simulated nanoseconds: ULT
dispatch and context-switch surcharges (scheduler), sends and collective
phases (AMPI), migrations (migration engine / LB), ``dlopen``/``dlmopen``
and static constructors (dynamic loader), and per-method privatization
setup work (GOT build, pointer scans, TLS composition).

Export with :func:`write_chrome_trace` and open the file in Perfetto or
``about:tracing``, or render a terminal view with :func:`render_timeline`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.export import (
        chrome_trace,
        dumps_chrome_trace,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from repro.trace.recorder import PE_TID, TraceEvent, TraceRecorder
    from repro.trace.stream import (
        TimelineEvent,
        compress_timeline,
        decompress_timeline,
        timeline_events,
        timeline_sha,
    )
    from repro.trace.timeline import (
        PeUtilization,
        render_timeline,
        utilization_profile,
    )

# A job loads the recorder when tracing is on (the scheduler, loader and
# migration engine name its type only for annotations); exporters, the
# timeline codec and the text renderer load when a trace is actually
# written, hashed or rendered.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.trace.export": ("chrome_trace", "dumps_chrome_trace",
                           "validate_chrome_trace", "write_chrome_trace"),
    "repro.trace.recorder": ("PE_TID", "TraceEvent", "TraceRecorder"),
    "repro.trace.stream": ("TimelineEvent", "compress_timeline",
                           "decompress_timeline", "timeline_events",
                           "timeline_sha"),
    "repro.trace.timeline": ("PeUtilization", "render_timeline",
                             "utilization_profile"),
})
