"""Service observability: counters, gauges and latency histograms.

The daemon answers two audiences with one registry:

* machines scrape ``GET /metrics`` -- a Prometheus-style text
  exposition (``# TYPE`` headers, ``{label="value"}`` series, histogram
  ``_bucket``/``_sum``/``_count`` triplets) that standard collectors
  ingest without adapters;
* the ``stats`` RPC returns :meth:`MetricsRegistry.snapshot`, the same
  numbers as nested dicts plus derived ratios (cache hit-rate,
  coalescing ratio) that would be rules on the scrape side.

Everything is stdlib: a registry is a dict of metric families behind
one lock.  Mutation is O(1) per event, rendering walks the families --
cheap enough to run on every scrape.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping, Optional, Tuple

#: Upper bounds (seconds) of the request-latency histogram buckets.  The
#: ladder spans instant cache hits (<1 ms) through cold frontier crawls
#: (tens of seconds); the implicit ``+Inf`` bucket catches the rest.
DEFAULT_LATENCY_BUCKETS_S = (
    0.001, 0.005, 0.025, 0.1, 0.25, 1.0, 5.0, 15.0, 60.0,
)

#: The canonical label-set encoding: a sorted tuple of (name, value)
#: pairs, hashable and order-independent.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus exposition-format label-value escaping.

    The format reserves exactly three characters inside quoted label
    values: backslash, double quote and newline (the last becomes the
    two-character sequence ``\\n``).  Without this, a tenant named
    ``evil"}`` splits the series line and the whole scrape fails to
    parse.
    """
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _render_labels(key: LabelKey, extra: Iterable[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label_value(value)}"'
                    for name, value in pairs)
    return "{" + body + "}"


def _fmt(value: float) -> str:
    """Exposition-format number: integers bare, floats via repr."""
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Histogram:
    """One cumulative histogram series (fixed bucket upper bounds)."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        slot = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                slot = i
                break
        self.counts[slot] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> Iterable[Tuple[str, int]]:
        """(le-label, cumulative count) pairs, ``+Inf`` last."""
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            yield _fmt(bound), running
        yield "+Inf", running + self.counts[-1]

    def quantile(self, q: float) -> float:
        """Histogram-estimated quantile (bucket upper bound; Inf-safe).

        Coarse by construction -- good enough for the benchmark's p50 /
        p95 summary without retaining raw samples.
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            if running >= target:
                return bound
        return float("inf")


class MetricsRegistry:
    """Thread-safe counter/gauge/histogram registry with labels."""

    def __init__(
        self,
        latency_buckets_s: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> None:
        self._lock = threading.Lock()
        self._latency_buckets = tuple(latency_buckets_s)
        self._counters: Dict[str, Dict[LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[LabelKey, Histogram]] = {}
        self._help: Dict[str, str] = {}

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` line to a metric family."""
        with self._lock:
            self._help[name] = help_text

    # -- mutation ------------------------------------------------------------
    def inc(self, name: str, labels: Optional[Mapping[str, str]] = None,
            value: float = 1) -> None:
        key = _label_key(labels)
        with self._lock:
            family = self._counters.setdefault(name, {})
            family[key] = family.get(key, 0) + value

    def set_gauge(self, name: str, value: float,
                  labels: Optional[Mapping[str, str]] = None) -> None:
        with self._lock:
            self._gauges.setdefault(name, {})[_label_key(labels)] = value

    def observe(self, name: str, value: float,
                labels: Optional[Mapping[str, str]] = None) -> None:
        key = _label_key(labels)
        with self._lock:
            family = self._histograms.setdefault(name, {})
            series = family.get(key)
            if series is None:
                series = family[key] = Histogram(self._latency_buckets)
            series.observe(value)

    # -- reading -------------------------------------------------------------
    def counter_value(self, name: str,
                      labels: Optional[Mapping[str, str]] = None) -> float:
        with self._lock:
            return self._counters.get(name, {}).get(_label_key(labels), 0)

    def snapshot(self) -> dict:
        """Nested-dict view of every family (the ``stats`` RPC body)."""
        def unpack(family: Dict[LabelKey, float]) -> dict:
            return {
                (",".join(f"{k}={v}" for k, v in key) or "_total"): value
                for key, value in sorted(family.items())
            }

        with self._lock:
            return {
                "counters": {name: unpack(family)
                             for name, family in sorted(self._counters.items())},
                "gauges": {name: unpack(family)
                           for name, family in sorted(self._gauges.items())},
                "histograms": {
                    name: {
                        (",".join(f"{k}={v}" for k, v in key) or "_total"): {
                            "count": h.count,
                            "sum": h.total,
                            "p50_s": h.quantile(0.50),
                            "p95_s": h.quantile(0.95),
                        }
                        for key, h in sorted(family.items())
                    }
                    for name, family in sorted(self._histograms.items())
                },
            }

    def render(self, extra_lines: Iterable[str] = ()) -> str:
        """The ``/metrics`` exposition text (Prometheus-ish).

        ``extra_lines`` lets the daemon append families computed at
        scrape time (planner work counters, cache hit-rate) without
        registering them as live series.
        """
        lines = []
        with self._lock:
            for name, family in sorted(self._counters.items()):
                if name in self._help:
                    lines.append(f"# HELP {name} {self._help[name]}")
                lines.append(f"# TYPE {name} counter")
                for key, value in sorted(family.items()):
                    lines.append(f"{name}{_render_labels(key)} {_fmt(value)}")
            for name, family in sorted(self._gauges.items()):
                if name in self._help:
                    lines.append(f"# HELP {name} {self._help[name]}")
                lines.append(f"# TYPE {name} gauge")
                for key, value in sorted(family.items()):
                    lines.append(f"{name}{_render_labels(key)} {_fmt(value)}")
            for name, family in sorted(self._histograms.items()):
                if name in self._help:
                    lines.append(f"# HELP {name} {self._help[name]}")
                lines.append(f"# TYPE {name} histogram")
                for key, h in sorted(family.items()):
                    for le, cum in h.cumulative():
                        lines.append(
                            f"{name}_bucket"
                            f"{_render_labels(key, [('le', le)])} {cum}"
                        )
                    lines.append(
                        f"{name}_sum{_render_labels(key)} {_fmt(h.total)}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(key)} {h.count}"
                    )
        lines.extend(extra_lines)
        return "\n".join(lines) + "\n"
