"""``repro.trace`` — end-to-end span tracing for the host/SSD stack.

Public surface:

* :class:`Tracer` / :class:`NullTracer` / :data:`NULL_TRACER` — the span
  recorder (see :mod:`repro.trace.tracer` for the design constraints);
* :func:`write_chrome_trace` / :func:`validate_trace_file` — Chrome
  ``trace_event`` export, loadable in Perfetto;
* :func:`summarize` and the table renderers — derived metrics.

A run is traced when its config sets ``trace``, or when it is built
inside ``repro.system.observe(trace=True)``: experiments build their own
:class:`~repro.system.system.KvSystem` instances internally, so
``repro run <exp> --trace`` opens that scope and exports the tracers of
the systems it collected as one merged timeline.
"""

from __future__ import annotations

from repro.common.scope import clear_scope
from repro.trace.export import (
    trace_document,
    trace_events,
    validate_trace,
    validate_trace_file,
    write_chrome_trace,
)
from repro.trace.metrics import (
    TraceSummary,
    component_table,
    histogram_rows,
    phase_table,
    queue_split_table,
    summarize,
)
from repro.trace.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    StageStat,
    TraceConfig,
    Tracer,
)

__all__ = [
    "NULL_SPAN", "NULL_TRACER", "NullTracer", "Span", "StageStat",
    "TraceConfig", "Tracer", "TraceSummary",
    "trace_document", "trace_events", "validate_trace",
    "validate_trace_file", "write_chrome_trace",
    "summarize", "component_table", "phase_table", "queue_split_table",
    "histogram_rows",
    "clear_runs",
]

# Kept by name: benchmark drivers import it to drop finished runs.
clear_runs = clear_scope
