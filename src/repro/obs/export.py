"""Chrome trace-event export and the ASCII trace viewer.

One viewer for everything: recorded span trees (``repro plan --trace
out.json``), fleet simulation timelines (``repro fleet --trace-out``)
and daemon event rings all export to the Chrome trace-event JSON
format, loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.

The emitted document is the standard ``{"traceEvents": [...]}`` object
form.  Spans become ``"X"`` (complete) events with microsecond ``ts`` /
``dur``; point-in-time records (structured events, fleet re-plans, cap
changes, drift wakes) become ``"i"`` (instant) events.  Span attributes
and the trace id ride in ``args`` so they are searchable in the viewer.

:func:`format_trace` is the terminal fallback (``repro trace view``):
an indented ASCII tree with durations, built from the same JSON file,
for when no browser is at hand.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Iterable, List, Sequence, Union

from .trace import Span

#: Chrome trace timestamps are integer-ish microseconds.
_US = 1_000_000.0


def _chrome_document(marks: Iterable[tuple]) -> dict:
    """The trace document of ``(track, name, cat, ts_s, dur_s, args)`` marks.

    The one place the trace-event shapes live: a mark with a duration
    becomes an ``"X"`` (complete) event, one with ``dur_s=None`` an
    ``"i"`` (instant) event; times turn into microseconds and ``None``
    args are dropped.  Each track gets a small stable integer tid, in
    first-seen order, named by a ``thread_name`` metadata event.
    """
    tids: Dict[str, int] = {}
    trace_events: List[dict] = []
    for track, name, cat, ts_s, dur_s, args in marks:
        event = {"name": name, "ph": "i" if dur_s is None else "X",
                 "ts": ts_s * _US}
        if dur_s is not None:
            event["dur"] = max(dur_s, 0.0) * _US
        event.update(pid=1, tid=tids.setdefault(track, len(tids) + 1),
                     cat=cat)
        if dur_s is None:
            event["s"] = "t"
        event["args"] = {k: v for k, v in args.items() if v is not None}
        trace_events.append(event)
    metadata = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
         "args": {"name": name}}
        for name, tid in tids.items()
    ]
    return {"traceEvents": metadata + trace_events,
            "displayTimeUnit": "ms"}


def spans_to_chrome(spans: Sequence[Span], events: Iterable[dict] = ()
                    ) -> dict:
    """Spans (+ optional structured events) as a Chrome trace document.

    Accepts :class:`~repro.obs.trace.Span` objects or their
    ``to_dict()`` form, so traces round-trip through JSON.
    """
    def marks():
        for span_ in spans:
            record = span_.to_dict() if isinstance(span_, Span) \
                else dict(span_)
            args = dict(record.get("attrs") or {})
            args["trace_id"] = record.get("trace_id")
            if record.get("span_id"):
                args["span_id"] = record["span_id"]
            if record.get("parent_id"):
                args["parent_id"] = record["parent_id"]
            yield (record.get("thread") or "main", record["name"], "span",
                   record["start_s"], record.get("duration_s", 0.0), args)
        for event in events:
            event = dict(event)
            ts = float(event.pop("ts", 0.0))
            yield ("events", event.pop("kind", "event"), "event", ts, None,
                   event)

    return _chrome_document(marks())


def fleet_timeline_to_chrome(timeline: Sequence[dict]) -> dict:
    """A :class:`FleetSimulator` timeline as a Chrome trace document.

    Timeline entries are the dicts the simulator appends when run with
    ``record_timeline=True``: ``{"kind": "job", "job": ..., "start_s":
    ..., "end_s": ...}`` become per-job ``"X"`` tracks; everything else
    (re-plans, cap changes, drift wakes, straggler onsets) becomes an
    ``"i"`` instant on a shared control track.
    """
    def marks():
        for entry in timeline:
            entry = dict(entry)
            kind = entry.pop("kind", "event")
            if kind == "job":
                start_s = float(entry.pop("start_s", 0.0))
                end_s = float(entry.pop("end_s", start_s))
                job = str(entry.pop("job", "job"))
                yield (f"job:{job}", job, "job", start_s, end_s - start_s,
                       entry)
            else:
                ts = float(entry.pop("t_s", entry.pop("ts", 0.0)))
                yield ("fleet", kind, "fleet", ts, None, entry)

    return _chrome_document(marks())


def save_chrome_trace(target: Union[str, IO[str]], spans: Sequence[Span],
                      events: Iterable[dict] = ()) -> dict:
    """Write :func:`spans_to_chrome` output to a path or an open text
    file; returns it."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fp:
            return save_chrome_trace(fp, spans, events)
    document = spans_to_chrome(spans, events)
    json.dump(document, target, indent=2, sort_keys=True, default=str)
    target.write("\n")
    return document


def load_chrome_trace(source: Union[str, IO[str]]) -> dict:
    """Read a Chrome trace document written by this module (or anyone)
    from a path or an open text file."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fp:
            return load_chrome_trace(fp)
    document = json.load(source)
    if isinstance(document, list):  # array form is also legal
        document = {"traceEvents": document}
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("not a Chrome trace-event document")
    return document


def _fmt_dur(duration_us: float) -> str:
    if duration_us >= 1e6:
        return f"{duration_us / 1e6:.3f}s"
    if duration_us >= 1e3:
        return f"{duration_us / 1e3:.2f}ms"
    return f"{duration_us:.0f}us"


def format_trace(document: dict, width: int = 72) -> str:
    """ASCII tree summary of a Chrome trace document.

    Nesting is reconstructed per track by timestamp containment (a
    span is a child of the nearest span that encloses it), which holds
    for traces produced by :mod:`repro.obs.trace` since children open
    and close inside their parent.
    """
    complete = [e for e in document.get("traceEvents", [])
                if e.get("ph") == "X"]
    instants = [e for e in document.get("traceEvents", [])
                if e.get("ph") == "i"]
    names = {}
    for e in document.get("traceEvents", []):
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            names[e.get("tid")] = e.get("args", {}).get("name", "")
    if not complete and not instants:
        return "(empty trace)"

    lines: List[str] = []
    base_ts = min(float(e.get("ts", 0.0))
                  for e in complete + instants)
    by_tid: Dict[object, List[dict]] = {}
    for e in complete:
        by_tid.setdefault(e.get("tid"), []).append(e)

    for tid in sorted(by_tid, key=lambda t: str(t)):
        track = sorted(by_tid[tid],
                       key=lambda e: (float(e.get("ts", 0.0)),
                                      -float(e.get("dur", 0.0))))
        label = names.get(tid) or f"tid {tid}"
        lines.append(f"[{label}]")
        stack: List[dict] = []  # enclosing spans, outermost first
        for e in track:
            ts = float(e.get("ts", 0.0))
            end = ts + float(e.get("dur", 0.0))
            while stack:
                top = stack[-1]
                top_end = (float(top.get("ts", 0.0))
                           + float(top.get("dur", 0.0)))
                # epsilon: children of zero-jitter aggregates abut
                if ts < top_end - 1e-3:
                    break
                stack.pop()
            depth = len(stack)
            offset = _fmt_dur(ts - base_ts)
            name = str(e.get("name", "?"))
            dur = _fmt_dur(float(e.get("dur", 0.0)))
            pad = "  " * depth
            head = f"  {pad}{name}"
            tail = f"{dur}  @+{offset}"
            gap = max(width - len(head) - len(tail), 2)
            lines.append(head + " " * gap + tail)
            stack.append(e)
            _ = end
        lines.append("")

    if instants:
        lines.append("[instants]")
        for e in sorted(instants, key=lambda e: float(e.get("ts", 0.0))):
            offset = _fmt_dur(float(e.get("ts", 0.0)) - base_ts)
            args = e.get("args") or {}
            detail = " ".join(f"{k}={args[k]}" for k in sorted(args)
                              if k not in ("trace_id",))
            lines.append(f"  @+{offset}  {e.get('name', '?')}"
                         + (f"  {detail}" if detail else ""))
        lines.append("")

    trace_ids = sorted({
        str((e.get("args") or {}).get("trace_id"))
        for e in complete + instants
        if (e.get("args") or {}).get("trace_id") is not None
    })
    if trace_ids:
        lines.append("trace ids: " + ", ".join(trace_ids))
    return "\n".join(lines).rstrip()
