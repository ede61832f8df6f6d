"""Hierarchical spans with a propagating trace context.

Two orthogonal pieces live here, and keeping them orthogonal is the
design:

* The **trace context** -- a :mod:`contextvars` variable holding the
  current trace id and the innermost open span.  It is *always* live
  (cheap: one contextvar read), so the daemon's structured events and
  access log carry trace ids even when nobody is recording spans.
  :func:`set_trace_id` / :func:`ensure_trace_id` manage the id;
  :func:`current_trace_id` reads it.
* **Span recording** -- off by default.  :func:`span` is the
  instrumentation primitive; while recording is disabled it returns a
  shared no-op context manager after a single module-flag check, which
  is what keeps the optimizer hot path within its <= 2% disabled-mode
  overhead contract (``benchmarks/bench_obs.py`` enforces it).
  :func:`enable_tracing` installs a :class:`TraceRecorder` that
  collects finished :class:`Span` records for export
  (:mod:`~repro.obs.export`).

Propagation rules:

* Same thread: nesting is automatic (the contextvar holds the parent).
* Thread pools: submit through :func:`wrap_context` (the drift
  controller's re-plan thread does), which snapshots the caller's
  context into the worker.
* Process pools: contextvars cannot cross processes -- pass
  :func:`current_trace_id` explicitly and :func:`set_trace_id` it in
  the child (``Planner._sweep_processes`` does).
* HTTP: the ``X-Repro-Trace-Id`` header, written by ``ServiceClient``
  and adopted/echoed by ``PlanningDaemon``.

Instrumentation placement is deliberate: spans mark *stage boundaries*
(a plan, a crawl, a flight, an RPC), never inner crawl loops, so exact
frontiers stay bit-identical with tracing enabled and the enabled-mode
cost stays a handful of records per plan.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Module-level recording switch.  Read directly (one global load) on
#: the hot path; mutate only through enable_tracing / disable_tracing.
_enabled = False
_recorder: Optional["TraceRecorder"] = None

#: (trace_id, innermost open Span or None); ``None`` = no trace yet.
_CTX: "contextvars.ContextVar[Optional[Tuple[str, Optional[Span]]]]" = \
    contextvars.ContextVar("repro_trace", default=None)

_ids_lock = threading.Lock()
_ids_counter = 0


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (random, collision-negligible)."""
    return os.urandom(8).hex()


def _new_span_id() -> str:
    global _ids_counter
    with _ids_lock:
        _ids_counter += 1
        return f"s{_ids_counter:x}"


def current_trace_id() -> Optional[str]:
    """The trace id bound to this context, or ``None``."""
    ctx = _CTX.get()
    return ctx[0] if ctx is not None else None


def current_span() -> Optional["Span"]:
    """The innermost open span in this context, or ``None``."""
    ctx = _CTX.get()
    return ctx[1] if ctx is not None else None


def set_trace_id(trace_id: str) -> None:
    """Bind ``trace_id`` to this context (spans started here join it).

    Works with recording disabled -- trace-id propagation (events,
    access logs, HTTP headers) is independent of span collection.
    """
    _CTX.set((str(trace_id), None))


def ensure_trace_id() -> str:
    """The context's trace id, creating and binding one if absent."""
    ctx = _CTX.get()
    if ctx is not None:
        return ctx[0]
    trace_id = new_trace_id()
    _CTX.set((trace_id, None))
    return trace_id


@dataclass
class Span:
    """One finished (or open) span record."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_s: float  # wall-clock epoch seconds
    duration_s: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)
    thread: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
            "thread": self.thread,
        }


class TraceRecorder:
    """Collects finished spans (thread-safe, bounded)."""

    def __init__(self, maxlen: int = 10000) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self.maxlen = maxlen
        self.dropped = 0

    def record(self, span_: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.maxlen:
                self.dropped += 1
                return
            self._spans.append(span_)

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def for_trace(self, trace_id: str) -> List[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]


def tracing_enabled() -> bool:
    return _enabled


def enable_tracing(recorder: Optional[TraceRecorder] = None
                   ) -> TraceRecorder:
    """Turn span recording on; returns the active recorder."""
    global _enabled, _recorder
    _recorder = recorder if recorder is not None else TraceRecorder()
    _enabled = True
    return _recorder


def disable_tracing() -> None:
    """Turn span recording off (trace-id propagation keeps working)."""
    global _enabled, _recorder
    _enabled = False
    _recorder = None


def get_recorder() -> Optional[TraceRecorder]:
    return _recorder


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NOOP = _NoopSpan()


class _ActiveSpan:
    """Context manager recording one span and pushing the context."""

    __slots__ = ("span", "_token", "_started")

    def __init__(self, name: str, attrs: Dict[str, object]) -> None:
        ctx = _CTX.get()
        if ctx is None:
            trace_id, parent = new_trace_id(), None
        else:
            trace_id, parent = ctx
        self.span = Span(
            name=name,
            trace_id=trace_id,
            span_id=_new_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            start_s=time.time(),
            attrs=attrs,
            thread=threading.current_thread().name,
        )
        self._token = None
        self._started = 0.0

    def __enter__(self) -> Span:
        self._token = _CTX.set((self.span.trace_id, self.span))
        self._started = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.duration_s = time.perf_counter() - self._started
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _CTX.reset(self._token)
        recorder = _recorder
        if recorder is not None:
            recorder.record(self.span)
        return False


def span(name: str, **attrs):
    """``with span("optimize.crawl", exactness="fast"): ...``

    Disabled (the default): returns a shared no-op context manager --
    one global check, zero allocation.  Enabled: records a
    :class:`Span` under the current trace context.
    """
    if not _enabled:
        return _NOOP
    return _ActiveSpan(name, attrs)


def add_span(name: str, start_s: float, duration_s: float, **attrs
             ) -> Optional[Span]:
    """Record an already-measured interval as a child of the current span.

    Used to *rebase* existing aggregate timings (the frontier crawl's
    ``stats["timings"]``) onto the span tree without instrumenting the
    loops that produced them.  No-op while recording is disabled.
    """
    if not _enabled:
        return None
    ctx = _CTX.get()
    if ctx is None:
        trace_id, parent = new_trace_id(), None
    else:
        trace_id, parent = ctx
    record = Span(
        name=name,
        trace_id=trace_id,
        span_id=_new_span_id(),
        parent_id=parent.span_id if parent is not None else None,
        start_s=start_s,
        duration_s=duration_s,
        attrs=attrs,
        thread=threading.current_thread().name,
    )
    recorder = _recorder
    if recorder is not None:
        recorder.record(record)
    return record


#: The crawl timing aggregates that become synthetic child spans.
_STAGE_KEYS = ("event_times_s", "instance_build_s", "maxflow_s",
               "schedule_s")


def add_stage_spans(timings: Optional[dict],
                    start_s: Optional[float] = None) -> None:
    """Rebase a crawl's ``timings`` dict onto synthetic child spans.

    Each aggregate (event passes, instance builds, max-flow solves,
    schedule assembly) becomes one span laid out back-to-back from
    ``start_s`` (default: the enclosing span's start) -- aggregate
    layout, not per-step truth, which is exactly what the timings dict
    already was.  No-op while recording is disabled.
    """
    if not _enabled or not timings:
        return
    if start_s is None:
        parent = current_span()
        start_s = parent.start_s if parent is not None else time.time()
    offset = start_s
    for key in _STAGE_KEYS:
        seconds = timings.get(key)
        if not seconds:
            continue
        add_span("optimize." + key[:-2], offset, seconds,
                 kernel=timings.get("kernel"))
        offset += seconds


def traced(name: Optional[str] = None, **attrs) -> Callable:
    """Decorator form of :func:`span` (span name defaults to the
    function's qualified name)."""

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return fn(*args, **kwargs)
            with _ActiveSpan(span_name, dict(attrs)):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def wrap_context(fn: Callable) -> Callable:
    """Bind the caller's context (trace id, open span) into ``fn``.

    For handing work to a thread pool: ``pool.submit(wrap_context(run),
    ...)`` makes spans opened inside the worker children of the
    caller's span instead of orphan roots.
    """
    ctx = contextvars.copy_context()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return ctx.run(fn, *args, **kwargs)

    return wrapper
