"""repro.obs -- tracing, structured events and plan provenance.

One observability layer for the whole planning stack:

* :mod:`~repro.obs.trace` -- hierarchical spans with a contextvar trace
  context that survives thread pools, process pools and the HTTP wire
  (``X-Repro-Trace-Id``), so one trace id follows a plan request from
  client to daemon to planner to kernel to store.
* :mod:`~repro.obs.events` -- a bounded, lock-cheap structured event
  log (ring buffer + optional JSONL sink) for plan / cache / flight /
  drift / admission events.
* :mod:`~repro.obs.export` -- Chrome trace-event JSON (Perfetto /
  ``chrome://tracing`` loadable) from recorded spans or a fleet
  simulation timeline, plus the ASCII viewer behind ``repro trace
  view``.
* :mod:`~repro.obs.provenance` -- the per-frontier provenance record
  (cache source per stage, kernel, wall times, store paths) surfaced as
  ``PlanReport.provenance`` and persisted beside the plan store's
  artifacts.

Tracing is **off by default** and the disabled path is a single module
flag check, so production planning pays (benchmarked) sub-percent
overhead; see ``benchmarks/bench_obs.py`` and ``docs/observability.md``.
"""

from .events import EventLog
from .export import (
    fleet_timeline_to_chrome,
    format_trace,
    load_chrome_trace,
    save_chrome_trace,
    spans_to_chrome,
)
from .provenance import ProvenanceBuilder, provenance_path
from .trace import (
    Span,
    TraceRecorder,
    current_span,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    ensure_trace_id,
    new_trace_id,
    set_trace_id,
    span,
    tracing_enabled,
    wrap_context,
)

__all__ = [
    "EventLog",
    "ProvenanceBuilder",
    "Span",
    "TraceRecorder",
    "current_span",
    "current_trace_id",
    "disable_tracing",
    "enable_tracing",
    "ensure_trace_id",
    "fleet_timeline_to_chrome",
    "format_trace",
    "load_chrome_trace",
    "new_trace_id",
    "provenance_path",
    "save_chrome_trace",
    "set_trace_id",
    "span",
    "spans_to_chrome",
    "tracing_enabled",
    "wrap_context",
]
