"""Benchmark-side tracing: spans recorded from outside the program.

Every layer is measured by wrapping a public function of a ``repro``
module on the attribute where its caller looks it up (for example
``repro.core.optimizer.characterize_frontier``, which the optimizer
calls, or ``repro.api.planner.execute_frequency_plan``, which the
planner calls).  A wrapper records one span -- id, parent, layer, start,
end, request id -- into a list kept in memory; the list is written out
when the run ends.  :func:`uninstall` puts every original back, so an
untraced run after a traced one sees the program exactly as shipped.

Spans are recorded only while a request id that the tracer counts as
measured is bound to the calling thread (:meth:`Tracer.request`, or the
RPC envelope id inside the daemon), so set-up and warm-up work never
leaks into the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self, measured_prefix: str = "") -> None:
        #: (span id, parent id, layer, start, end, request id)
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.prefix = measured_prefix
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def measured(self, rid) -> bool:
        return rid is not None and str(rid).startswith(self.prefix)

    def current(self):
        return getattr(self._local, "rid", None)

    @contextlib.contextmanager
    def request(self, rid):
        """Bind a request id to this thread for the duration."""
        previous = getattr(self._local, "rid", None)
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = previous

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.measured(self.current()):
            with self._lock:
                self.counts[name] += amount

    def span(self, layer: str, fn, args, kwargs):
        """Run ``fn`` as one span of ``layer``; returns (result, seconds)."""
        local = self._local
        rid = getattr(local, "rid", None)
        if not self.measured(rid):
            return fn(*args, **kwargs), None
        stack = local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs), perf_counter() - start
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, layer, start, end, rid))

    def dump(self, path: str) -> None:
        """Write every span (JSON lines) and the counters (last line)."""
        with open(path, "w", encoding="utf-8") as fp:
            for sid, parent, layer, start, end, rid in self.spans:
                fp.write(json.dumps([sid, parent, layer, start, end, rid]))
                fp.write("\n")
            fp.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def load_dump(path: str):
    """Inverse of :meth:`Tracer.dump`: (spans, counts)."""
    spans, counts = [], {}
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            row = json.loads(line)
            if isinstance(row, dict):
                counts = row["counts"]
            else:
                spans.append(tuple(row))
    return spans, counts


# ---------------------------------------------------------------------------
# Result hooks: counts taken from what a wrapped call returned
# ---------------------------------------------------------------------------


def _frontier_shape(tracer, frontier, seconds):
    tracer.count("frontier.steps", frontier.steps)
    tracer.count("frontier.points", len(frontier.points))


def _store_source(tracer, result, seconds):
    name = {"memory": "store.memory_hits", "disk": "store.disk_hits"}
    tracer.count(name.get(result[1], "store.misses"))


def _warm_reuse(tracer, mask, seconds):
    tracer.count("maxflow.warm_attempts")
    if mask is not None:
        tracer.count("maxflow.warm_hits")


def _flight_role(tracer, result, seconds):
    role = result[1]
    tracer.count("coalesce." + role + "s")
    if role == "follower":
        tracer.count("coalesce.wait_s", seconds)


def _rpc_status(tracer, result, seconds):
    if result[0] == 429:
        tracer.count("admission.rejected")


def planner_counts(delta: dict) -> dict:
    """Per-layer counts of a ``Planner.stats`` delta (work done)."""
    return {
        "planner.builds": sum(delta.values()),
        "planner.profile_builds":
            delta.get("profile", 0) + delta.get("stage_profile", 0),
        "planner.frontier_builds": delta.get("frontier", 0),
    }


# (module, attribute path, layer, result hook).  An attribute path with
# a dot patches a class attribute (a method) of that module.
TARGETS = [
    # the planning stages, looked up by the planner
    ("repro.api.planner", "build_model", "models", None),
    ("repro.api.planner", "partition_model", "partition", None),
    ("repro.api.planner", "profile_pipeline", "profiler", None),
    ("repro.api.planner", "profile_stage_measurements", "profiler", None),
    ("repro.api.planner", "build_pipeline_dag", "pipeline", None),
    ("repro.api.planner", "schedule_1f1b", "pipeline", None),
    ("repro.api.planner", "execute_frequency_plan", "sim", None),
    ("repro.api.planner", "max_frequency_plan", "sim", None),
    ("repro.api.planner", "min_energy_plan", "sim", None),
    ("repro.api.planner", "stable_key", "store.hash", None),
    ("repro.api.planner", "Planner.plan", "planner", None),
    # the frontier crawl and its kernels
    ("repro.core.optimizer", "characterize_frontier", "frontier",
     _frontier_shape),
    ("repro.core.frontier", "next_schedule_flat", "nextschedule", None),
    ("repro.core.frontier", "next_schedule_fast", "nextschedule", None),
    ("repro.graph.compiled", "CompiledDag.forward_pass", "compiled", None),
    ("repro.graph.compiled", "CompiledDag.critical_pass", "compiled", None),
    ("repro.graph.compiled", "CompiledDag.forward_pass_incremental",
     "compiled", None),
    ("repro.core.nextschedule", "solve_bounded_arrays", "lowerbounds.solve",
     None),
    ("repro.core.nextschedule", "contract_series_parallel",
     "lowerbounds.contract", None),
    ("repro.graph.maxflow", "FlowArena.max_flow", "maxflow", None),
    ("repro.graph.maxflow", "WarmCutCache.try_reuse", "maxflow.warm",
     _warm_reuse),
    # the persistent plan store
    ("repro.core.store", "stable_key", "store.hash", None),
    ("repro.core.store", "payload_from_dict", "store.decode", None),
    ("repro.core.store", "payload_to_dict", "store.encode", None),
    ("repro.core.store", "PlanStore.get", "store.get", None),
    ("repro.core.store", "PlanStore.get_with_source", "store.get",
     _store_source),
    ("repro.core.store", "PlanStore.put", "store.put", None),
    # the service: wire, daemon, admission, coalescing, client
    ("repro.service.daemon", "spec_from_wire", "wire.spec", None),
    ("repro.service.daemon", "report_to_wire", "wire.encode", None),
    ("repro.service.daemon", "stable_key", "store.hash", None),
    ("repro.service.daemon", "stack_flight_key", "coalesce.key", None),
    ("repro.service.daemon", "PlanningDaemon.handle_rpc", "daemon.rpc",
     _rpc_status),
    ("repro.service.coalesce", "stable_key", "store.hash", None),
    ("repro.service.coalesce", "SingleFlight.do", "coalesce.flight",
     _flight_role),
    ("repro.service.client", "report_from_wire", "wire.decode", None),
    ("repro.service.wire", "report_from_wire", "wire.decode", None),
    ("repro.service.client", "ServiceClient.call", "client.call", None),
]

#: Strategies whose ``plan`` method is wrapped as the strategies layer.
STRATEGIES = ("perseus", "zeus-global", "envpipe")


def _wrap(tracer: Tracer, layer: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result, seconds = tracer.span(layer, fn, args, kwargs)
        if hook is not None and seconds is not None:
            hook(tracer, result, seconds)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _wrap_rpc(tracer: Tracer, layer: str, fn, hook):
    """``handle_rpc`` opens a request: its envelope id becomes the
    request id of every span below it on the handler thread."""
    inner = _wrap(tracer, layer, fn, hook)

    @functools.wraps(fn)
    def handle_rpc(self, envelope, *args, **kwargs):
        rid = envelope.get("id") if isinstance(envelope, dict) else None
        with tracer.request(rid):
            return inner(self, envelope, *args, **kwargs)

    handle_rpc.__perfbench_original__ = fn
    return handle_rpc


class _TimedAdmission:
    """Context manager timing ``AdmissionController.admit``'s entry."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self._tracer = tracer
        self._inner = inner

    def __enter__(self):
        return self._tracer.span("admission", self._inner.__enter__, (), {})[0]

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


def _wrap_admit(tracer: Tracer, fn):
    @functools.wraps(fn)
    def admit(self, tenant):
        return _TimedAdmission(tracer, fn(self, tenant))

    admit.__perfbench_original__ = fn
    return admit


def _owner(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def targets(loaded_only: bool = False):
    """(owner, attribute, layer, hook) of every attribute :func:`install`
    patches; ``loaded_only`` skips modules not imported yet."""
    for module_name, path, layer, hook in TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            if loaded_only:
                continue
            module = importlib.import_module(module_name)
        owner, name = _owner(module, path)
        yield owner, name, layer, hook
    admission = sys.modules.get("repro.service.admission")
    if admission is not None or not loaded_only:
        admission = importlib.import_module("repro.service.admission")
        yield admission.AdmissionController, "admit", "admission", None
    strategies = sys.modules.get("repro.api.strategies")
    if strategies is not None:
        classes = {type(strategies.get_strategy(name)) for name in STRATEGIES}
        for cls in sorted(classes, key=lambda c: c.__name__):
            yield cls, "plan", "strategies", None


def install(tracer: Tracer, loaded_only: bool = False) -> list:
    """Patch every target (``loaded_only``: only in modules already
    imported, so tracing never changes which modules a process loads);
    returns the (owner, attribute, original) list :func:`uninstall`
    restores."""
    patched = []
    for owner, name, layer, hook in targets(loaded_only):
        original = owner.__dict__[name]
        if name == "admit":
            wrapper = _wrap_admit(tracer, original)
        elif name == "handle_rpc":
            wrapper = _wrap_rpc(tracer, layer, original, hook)
        else:
            wrapper = _wrap(tracer, layer, original, hook)
        patched.append((owner, name, original))
        setattr(owner, name, wrapper)
    return patched


def uninstall(patched: list) -> None:
    """Restore every original attribute (reverse patch order)."""
    for owner, name, original in reversed(patched):
        setattr(owner, name, original)
    patched.clear()


def unpatched_targets() -> list:
    """Target attributes that still hold a benchmark wrapper (empty when
    everything was restored); only imported modules are inspected."""
    return [f"{owner.__name__}.{name}"
            for owner, name, _, _ in targets(loaded_only=True)
            if hasattr(owner.__dict__[name], "__perfbench_original__")]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def layer_totals(spans) -> dict:
    """Per layer: busy seconds, calls and self seconds.

    Only the outermost span of a layer counts (a layer re-entering
    itself is one piece of work).  Self time is a span's duration minus
    the durations of its direct children, which never overlap because a
    thread runs one call at a time.
    """
    by_id = {sid: (parent, layer) for sid, parent, layer, _, _, _ in spans}
    child_time: dict = defaultdict(float)
    for sid, parent, layer, start, end, _ in spans:
        if parent:
            child_time[parent] += end - start
    totals: dict = defaultdict(lambda: [0.0, 0, 0.0])
    for sid, parent, layer, start, end, _ in spans:
        ancestor = parent
        nested = False
        while ancestor:
            up, up_layer = by_id.get(ancestor, (0, None))
            if up_layer == layer:
                nested = True
                break
            ancestor = up
        if nested:
            continue
        row = totals[layer]
        row[0] += end - start
        row[1] += 1
        row[2] += (end - start) - child_time[sid]
    return dict(totals)
