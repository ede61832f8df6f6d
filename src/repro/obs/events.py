"""Bounded, lock-cheap structured event log (ring buffer + JSONL sink).

The daemon (and anything else) emits one small dict per notable event
-- a plan served, a flight coalesced, a drift re-plan, an admission
rejection, an RPC completing -- stamped with a monotone sequence
number, a wall-clock timestamp and the context's trace id
(:func:`~repro.obs.trace.current_trace_id`), so events and spans join
on the same id.

Storage is a ``deque(maxlen=...)`` under one lock: emission is O(1),
never blocks on I/O unless a JSONL sink is attached, and old events
fall off the back instead of growing memory.  The daemon exposes the
ring as the ``recent_events`` RPC (tenant-scoped: an event tagged with
a ``tenant`` field is visible only to that tenant; untagged events are
infrastructure-global) and tees to a file via ``repro serve
--log-jsonl PATH``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import IO, List, Optional

from .trace import current_trace_id

#: Default ring capacity: enough for a busy daemon's recent history,
#: bounded regardless of uptime.
DEFAULT_MAXLEN = 2048


class EventLog:
    """Append-only bounded event ring with an optional JSONL sink."""

    def __init__(self, maxlen: int = DEFAULT_MAXLEN,
                 jsonl_path: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self._ring: "deque[dict]" = deque(maxlen=maxlen)
        self._seq = 0
        self._jsonl_path = jsonl_path
        self._jsonl_fp: Optional[IO[str]] = None

    @property
    def jsonl_path(self) -> Optional[str]:
        return self._jsonl_path

    def emit(self, kind: str, **fields) -> dict:
        """Record one event; returns the stamped record.

        ``trace_id`` is read from the ambient trace context unless the
        caller passes one explicitly; ``None`` fields are dropped so
        records stay dense.
        """
        event = {"kind": kind, "ts": time.time()}
        trace_id = fields.pop("trace_id", None) or current_trace_id()
        if trace_id is not None:
            event["trace_id"] = trace_id
        for name, value in fields.items():
            if value is not None:
                event[name] = value
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            self._ring.append(event)
            if self._jsonl_path is not None:
                self._write_jsonl(event)
        return event

    def _write_jsonl(self, event: dict) -> None:
        """Append one line to the sink (lock held; failures disable it).

        A full disk or a deleted directory must degrade the sink, not
        the daemon: on any OSError the sink is dropped and the ring
        keeps working.
        """
        try:
            if self._jsonl_fp is None:
                self._jsonl_fp = open(self._jsonl_path, "a",
                                      encoding="utf-8")
            self._jsonl_fp.write(
                json.dumps(event, sort_keys=True, default=str) + "\n")
            self._jsonl_fp.flush()
        except OSError:
            self._jsonl_path = None
            self._jsonl_fp = None

    def recent(self, limit: int = 100, kind: Optional[str] = None,
               tenant: Optional[str] = None) -> List[dict]:
        """Newest-last slice of the ring.

        ``kind`` filters by event kind.  ``tenant`` applies the
        visibility rule: events tagged with a ``tenant`` field are
        returned only when it matches; untagged events always are.
        ``tenant=None`` (in-process diagnostics) sees everything.
        """
        with self._lock:
            events = list(self._ring)
        if kind is not None:
            events = [e for e in events if e.get("kind") == kind]
        if tenant is not None:
            events = [e for e in events
                      if e.get("tenant") in (None, tenant)]
        if limit is not None and limit >= 0:
            events = events[-limit:]
        return events

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def close(self) -> None:
        with self._lock:
            if self._jsonl_fp is not None:
                try:
                    self._jsonl_fp.close()
                except OSError:
                    pass
                self._jsonl_fp = None
