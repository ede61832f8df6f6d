"""Per-frontier provenance: where did this plan actually come from?

A provenance record answers, for one planned frontier, the questions a
cache-heavy pipeline otherwise makes unanswerable: which stages were
computed versus served from memory or disk, under which content keys,
by which kernel at which exactness, how long each computed stage took,
and where the artifacts live on disk.

The :class:`ProvenanceBuilder` is installed by ``Planner.plan`` for
the duration of one plan; the planner's memoization layer calls
:meth:`~ProvenanceBuilder.note` as each stage resolves.  The finished
record is returned as ``PlanReport.provenance`` (diagnostics-only: it
never enters plan equality or the wire format) and, when a
``PlanStore`` is attached, persisted beside the store's artifacts
under ``<root>/provenance/<frontier-digest>.json``.

Stage ``source`` values:

``built``
    computed in this process during this plan,
``memory``
    served from the in-process memo,
``disk``
    loaded from the plan store (some earlier process paid for it).
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

#: Bump when the record layout changes incompatibly.
PROVENANCE_FORMAT = 1


def provenance_path(root: str, digest: str) -> str:
    """Where a frontier's provenance record lives under a store root."""
    return os.path.join(root, "provenance", f"{digest}.json")


class ProvenanceBuilder:
    """Accumulates one plan's provenance as its stages resolve.

    Not thread-safe by design: one builder belongs to one plan on one
    thread (the planner keeps it in a ``threading.local``); sweep
    workers each install their own.
    """

    def __init__(self, spec) -> None:
        self.spec = spec
        self.started_s = time.time()
        self._t0 = time.perf_counter()
        #: namespace -> {"source": ..., "seconds": ..., "key": ...}
        self.stages: Dict[str, dict] = {}
        self.digests: Dict[str, str] = {}
        self.paths: Dict[str, str] = {}
        self.profile_source: Optional[str] = None

    def note(self, namespace: str, source: str,
             seconds: Optional[float] = None,
             digest: Optional[str] = None) -> None:
        """Record how ``namespace`` (partition/profile/...) resolved.

        First call per namespace wins: a stage resolved from disk and
        then re-read from the memo later in the same plan stays
        ``disk`` -- the interesting fact is where it *originally* came
        from within this plan.
        """
        if namespace in self.stages:
            return
        entry: Dict[str, object] = {"source": source}
        if seconds is not None:
            entry["seconds"] = round(seconds, 6)
        if digest is not None:
            entry["key"] = digest
            self.digests[namespace] = digest
        self.stages[namespace] = entry

    def note_path(self, namespace: str, path: str) -> None:
        self.paths[namespace] = path

    def finish(self, *, strategy: Optional[str] = None,
               exactness: Optional[str] = None,
               kernel: Optional[str] = None,
               trace_id: Optional[str] = None,
               store_root: Optional[str] = None,
               extra: Optional[dict] = None) -> dict:
        """Seal the record; returns a plain JSON-safe dict."""
        spec = self.spec
        if hasattr(spec, "to_dict"):
            spec_dict = spec.to_dict()
        elif hasattr(spec, "__dict__"):
            spec_dict = dict(vars(spec))
        else:
            spec_dict = {"spec": str(spec)}
        record: Dict[str, object] = {
            "format": PROVENANCE_FORMAT,
            "created_s": self.started_s,
            "wall_s": round(time.perf_counter() - self._t0, 6),
            "spec": spec_dict,
            "stages": self.stages,
            "digests": dict(self.digests),
        }
        if strategy is not None:
            record["strategy"] = strategy
        if exactness is not None:
            record["exactness"] = exactness
        if kernel is not None:
            record["kernel"] = kernel
        if trace_id is not None:
            record["trace_id"] = trace_id
        if store_root is not None:
            record["store_root"] = store_root
        if self.paths:
            record["paths"] = dict(self.paths)
        if self.profile_source is not None:
            record["profile_source"] = self.profile_source
        if extra:
            record.update(extra)
        return record
