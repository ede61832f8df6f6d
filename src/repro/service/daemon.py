"""The planning daemon: HTTP/JSON-RPC front end over ``PerseusServer``.

``PlanningDaemon`` turns the in-process planning stack into a network
service on the stdlib only: a :class:`http.server.ThreadingHTTPServer`
(one handler thread per connection) dispatches JSON-RPC-style calls to
the wrapped :class:`~repro.runtime.server.PerseusServer` and its shared
:class:`~repro.api.Planner`.  What the daemon adds over a bare RPC
shim is the multi-tenant machinery:

* **Coalescing** -- every expensive method funnels its spec through a
  :class:`~repro.service.coalesce.SingleFlight` keyed on the spec's
  stage-sweep sub-key, so K concurrent requests drawn from U unique
  specs perform exactly U profile/crawl runs (the acceptance criterion
  ``BENCH_service.json`` measures).  When the planner sits on a
  persistent :class:`~repro.core.store.PlanStore`, the local flight
  nests inside a :class:`~repro.service.replica.StoreFlight` lock, so
  the same exactly-once guarantee holds *fleet-wide* across N daemon
  processes sharing the store (``BENCH_replicas.json``).
* **Admission** -- a bounded in-flight limit (429-style backpressure)
  plus per-tenant token-bucket quotas, both checked before any
  planning work starts.
* **Tenancy** -- job ids are namespaced per tenant (``tenant::id``
  internally, bare ids on the wire), so two tenants registering
  ``job-0`` never collide and ``sweep_reports`` only shows a tenant its
  own rows.
* **Idempotent request ids** -- a request carrying an ``id`` that
  already completed successfully is answered from a bounded replay
  cache without re-executing, so clients can blindly retry over a
  flaky connection (e.g. a ``register_spec`` retry does not trip the
  duplicate-job error).
* **Metrics** -- per-endpoint latency histograms, coalescing and
  rejection counters, queue depth and the planner's own work/cache
  counters, exposed at ``GET /metrics`` in Prometheus text format.

Protocol (all POST bodies and responses are JSON)::

    POST /rpc      {"method": ..., "params": {...}, "id": ...,
                    "tenant": ...}
                -> {"id": ..., "result": ...}           (HTTP 200)
                -> {"id": ..., "error": {"kind": ..., "message": ...}}
                   (HTTP 422 app error / 429 quota-or-backpressure /
                    400 protocol error / 500 bug)
    GET /metrics   Prometheus-ish text exposition
    GET /healthz   {"ok": true, ...}

The tenant comes from the ``X-Repro-Tenant`` header or the body field
(header wins); absent both, the request belongs to ``"default"``.
"""

from __future__ import annotations

import json
import math
import os
import socket
import sys
import threading
import time
import traceback
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..api.planner import Planner, default_planner
from ..core.serialization import frontier_to_dict, schedule_to_dict
from ..core.store import PlanStore, stable_key
from ..exceptions import (
    ConfigurationError,
    QuotaExceeded,
    ReproError,
    ServiceError,
    ServiceOverloaded,
)
from ..obs.events import EventLog
from ..obs.trace import new_trace_id, set_trace_id
from ..runtime.server import PerseusServer
from .admission import AdmissionController, TokenBucket
from .coalesce import LEADER, SingleFlight, stack_flight_key
from .metrics import MetricsRegistry
from .replica import MATERIALIZE_DELAY_ENV, StoreFlight
from .wire import error_to_wire, report_to_wire, spec_from_wire

#: Separator between the tenant namespace and a job id.  Internal only:
#: clients always see bare ids.
TENANT_SEP = "::"

DEFAULT_TENANT = "default"

#: Methods that may trigger profiling or a frontier crawl; only these
#: pass admission control (quota + bounded in-flight) and coalescing.
EXPENSIVE_METHODS = frozenset({"plan", "register_spec", "submit_sweep"})

#: Completed responses retained for idempotent replay, per daemon.
REPLAY_CACHE_SIZE = 1024

#: Largest ``/rpc`` body the daemon reads (HTTP 413 above it).  Specs
#: and job-state calls are well under a kilobyte; the cap leaves room
#: for sweeps of thousands of specs while bounding what one client can
#: make the daemon buffer.
MAX_RPC_BODY_BYTES = 4 * 1024 * 1024

#: Seconds a connection may sit idle in a read before the daemon drops
#: it, so a client that stalls cannot pin a handler thread.  This also
#: bounds a kept-alive connection between requests: ``ServiceClient``
#: reuses one connection per thread and, finding it dropped, resends
#: on a fresh one.
READ_TIMEOUT_S = 30.0

#: Access-log lines per second (token-bucket refill) before lines are
#: suppressed and counted instead.
ACCESS_LOG_RATE = 10.0


def _validate_tenant(tenant: str) -> str:
    if not tenant or not isinstance(tenant, str) or TENANT_SEP in tenant \
            or any(c.isspace() for c in tenant):
        raise ConfigurationError(
            f"tenant must be a non-empty token without {TENANT_SEP!r} or "
            f"whitespace, got {tenant!r}"
        )
    return tenant


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # The stdlib default backlog of 5 drops SYNs under a thundering
    # herd of clients (the dropped ones retry after a full second);
    # coalescing exists precisely for that herd, so accept it whole.
    request_queue_size = 128
    #: Set by ``server_close``: handlers then answer no further request.
    closing = False

    def __init__(self, *args, **kwargs) -> None:
        self._open_lock = threading.Lock()
        self._open: set = set()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        # A kept-alive connection's handler would go on serving it until
        # READ_TIMEOUT_S.  Flag the close, then end the handlers' reads
        # so their threads exit now; a handler mid-request still writes
        # its response.
        self.closing = True
        with self._open_lock:
            open_sockets = list(self._open)
        for sock in open_sockets:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        super().server_close()


class _RpcError(Exception):
    """Internal: a protocol-level failure with its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_REQUIRED = object()


def _checked(name: str, value, kind: type):
    """``value`` as ``kind``, else :class:`ConfigurationError` naming it.
    A ``float`` param takes any finite JSON number (``json.loads`` also
    reads ``NaN`` and ``Infinity``); ``bool`` is no number."""
    accepted = (int, float) if kind is float else kind
    try:
        if isinstance(value, accepted) and not (
                kind in (int, float) and isinstance(value, bool)):
            if kind is not float:
                return value
            number = float(value)
            if math.isfinite(number):
                return number
    except OverflowError:  # an integer too large for a float
        pass
    expected = "a finite number" if kind is float else kind.__name__
    raise ConfigurationError(
        f"param {name!r} must be {expected}, got "
        f"{type(value).__name__} {value!r:.40}")


def _param(params: dict, name: str, kind: type = object,
           default=_REQUIRED):
    """One RPC param, type-checked: a missing required param or a wrong
    type is the caller's error (HTTP 422), never a 500.  An optional
    param given as ``null`` takes its default."""
    value = params.get(name)
    if value is None:
        if default is not _REQUIRED:
            return default
        if name not in params:
            raise ConfigurationError(f"missing required param {name!r}")
    return _checked(name, value, kind)


class PlanningDaemon:
    """Multi-tenant planning service over one shared planner/store.

    ``planner`` defaults to the process-wide
    :func:`~repro.api.planner.default_planner` (so ``REPRO_CACHE_DIR``
    makes the daemon persistent); pass ``Planner(cache=dir)`` to pin a
    store explicitly.  ``port=0`` binds an ephemeral port --
    :attr:`url` reports the bound address after :meth:`start`.
    Over a :class:`~repro.core.store.PlanStore` the daemon wraps every
    expensive materialization in a
    :class:`~repro.service.replica.StoreFlight`, so daemons sharing the
    store do each piece of work once between them.

    Use as a context manager, or call :meth:`start` / :meth:`close`::

        with PlanningDaemon(port=0) as daemon:
            client = ServiceClient(daemon.url)
            client.ping()
    """

    def __init__(
        self,
        planner: Optional[Planner] = None,
        host: str = "127.0.0.1",
        port: int = 8421,
        max_inflight: Optional[int] = 8,
        quota_rate: Optional[float] = None,
        quota_burst: float = 8.0,
        log_jsonl: Optional[str] = None,
        access_log: bool = True,
    ) -> None:
        self.planner = planner if planner is not None else default_planner()
        self.server = PerseusServer(planner=self.planner)
        self.metrics = MetricsRegistry()
        #: Structured event ring (plan / cache / flight / drift /
        #: admission / rpc events), teed to ``log_jsonl`` when given;
        #: exposed as the ``recent_events`` RPC.
        self.events = EventLog(jsonl_path=log_jsonl)
        #: One structured stderr line per RPC, token-bucket limited so a
        #: herd cannot turn the access log into the bottleneck; denied
        #: lines are counted and surface as ``suppressed=N`` later.
        self._access_log = access_log
        self._access_bucket = TokenBucket(ACCESS_LOG_RATE,
                                          burst=2 * ACCESS_LOG_RATE)
        self._access_lock = threading.Lock()
        self._access_suppressed = 0
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            quota_rate=quota_rate,
            quota_burst=quota_burst,
        )
        self._flight = SingleFlight()
        self._store_flight: Optional[StoreFlight] = (
            StoreFlight(self.planner.cache.root)
            if isinstance(self.planner.cache, PlanStore) else None)
        self._warm_lock = threading.Lock()
        self._warm_keys: set = set()
        self._replay_lock = threading.Lock()
        self._replays: "OrderedDict[Tuple[str, str], dict]" = OrderedDict()
        self._httpd = _Server((host, port), _make_handler(self))
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self.metrics.describe(
            "repro_service_requests_total", "RPC requests by method")
        self.metrics.describe(
            "repro_service_connections_total",
            "accepted client connections (with requests_total: requests "
            "per kept-alive connection)")
        self.metrics.describe(
            "repro_service_coalesce_total",
            "expensive materializations by outcome "
            "(leader=did the work, follower=waited on an in-flight "
            "leader, warm=already materialized)")
        self.metrics.describe(
            "repro_service_store_flights_total",
            "cross-process materializations by store role (leader=this "
            "process took the flight lock first, takeover=finished the "
            "work of a process that died holding it, follower=another "
            "process's leader landed it, warm=done marker already "
            "present)")
        self.metrics.describe(
            "repro_service_rejections_total",
            "requests rejected before any work (quota or backpressure)")
        self.metrics.describe(
            "repro_service_request_latency_seconds",
            "wall-clock request latency by method")
        self.metrics.describe(
            "repro_optimizer_stage_seconds",
            "frontier-crawl stage wall-clock by stage and exactness "
            "(observed once per crawl this daemon ran)")
        self.metrics.describe(
            "repro_optimizer_fast_events_total",
            "fast-mode kernel events (warm-cut hits/misses, "
            "series-parallel contractions, incremental event passes)")
        self.metrics.describe(
            "repro_optimizer_contraction_ratio",
            "edges remaining after series-parallel contraction, as a "
            "fraction of the uncontracted instance (last fresh crawl)")
        self.metrics.describe(
            "repro_drift_reports_total",
            "report_measurement calls by resulting controller state")
        self.metrics.describe(
            "repro_drift_replans_total",
            "drift re-plans accepted through report_measurement, by "
            "reason (drift=corrective, probe=recovery probe, "
            "readopt=post-restart re-adoption)")

    # -- lifecycle -----------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) -- resolved even for ``port=0``."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "PlanningDaemon":
        """Serve on a background thread; returns self (chainable)."""
        if self._thread is not None:
            raise ServiceError("daemon already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        self._started.set()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (CLI mode)."""
        self._started.set()
        self._httpd.serve_forever(poll_interval=0.1)

    def close(self) -> None:
        """Graceful shutdown: stop accepting, unbind, end kept-alive
        connections.

        Idempotent; in-flight handler threads finish their responses
        (they are daemon threads only so a wedged handler cannot hang
        interpreter exit).
        """
        if self._started.is_set():  # shutdown() waits on a serving loop
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.events.close()

    def __enter__(self) -> "PlanningDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- tenancy -------------------------------------------------------------
    @staticmethod
    def _qualify(tenant: str, job_id: str) -> str:
        if not job_id or not isinstance(job_id, str):
            raise ConfigurationError(
                f"job_id must be a non-empty string, got {job_id!r}"
            )
        return f"{tenant}{TENANT_SEP}{job_id}"

    @staticmethod
    def _bare(tenant: str, qualified: str) -> str:
        return qualified[len(tenant) + len(TENANT_SEP):]

    # -- coalesced materialization -------------------------------------------
    def _materialize(self, spec) -> None:
        """Warm the spec's expensive planner stages, coalesced.

        Concurrent requests sharing the spec's stage-sweep sub-key ride
        one flight (one profile run feeds them all); once a key has
        landed it counts as ``warm`` -- the planner's caches serve it
        and no flight is needed.  The frontier crawl needs no flight of
        its own: the memoized optimizer object serializes
        characterization, so concurrent crawls of one (dag, profile,
        tau) collapse to a single run regardless.
        """
        key = stack_flight_key(spec)
        with self._warm_lock:
            if key in self._warm_keys:
                self.metrics.inc("repro_service_coalesce_total",
                                 {"outcome": "warm"})
                self.events.emit("flight", key=stable_key(key)[:12],
                                 outcome="warm")
                return
        store_role, role = self._flight.do(
            key, lambda: self._store_warm(spec, key))
        with self._warm_lock:
            self._warm_keys.add(key)
        self.metrics.inc("repro_service_coalesce_total", {"outcome": role})
        self.events.emit("flight", key=stable_key(key)[:12], outcome=role,
                         store_role=store_role)
        if role == LEADER and store_role is not None:
            self.metrics.inc("repro_service_store_flights_total",
                             {"outcome": store_role})

    def _store_warm(self, spec, key) -> Optional[str]:
        """Warm the stack under the fleet-wide store flight (if attached).

        Only the local single-flight leader gets here, so nesting the
        in-memory flight outside the store flight is deadlock-free:
        one lock waiter per process per key.  Returns the store role
        (``None`` when this daemon runs without a shared store).
        """
        if self._store_flight is None:
            self._warm_stack(spec)
            return None
        _, store_role = self._store_flight.do(
            key, lambda: self._warm_stack(spec))
        return store_role

    def _warm_stack(self, spec) -> None:
        delay = float(os.environ.get(MATERIALIZE_DELAY_ENV, "0") or 0.0)
        if delay > 0:  # chaos hook: widen the mid-flight crash window
            time.sleep(delay)
        optimizer = self.planner.result(spec).optimizer
        # Only a crawl this call ran is observed: a frontier served from
        # memory or the store was observed where it was crawled.
        if spec.strategy == "perseus" and optimizer.characterize():
            self._observe_crawl(optimizer.frontier)

    def _observe_crawl(self, frontier) -> None:
        """Export one fresh crawl's stage timings to the registry.

        Stage seconds land in ``repro_optimizer_stage_seconds`` labeled
        by stage *and* exactness so operators can compare the fast and
        exact kernels side by side; fast-mode event counters (warm-cut
        reuse, contraction, incremental passes) ride a separate family.
        """
        stats = getattr(frontier, "stats", None) or {}
        timings = stats.get("timings") or {}
        exactness = stats.get("exactness", "exact")
        self.events.emit(
            "crawl",
            exactness=exactness,
            kernel=timings.get("kernel"),
            seconds=round(getattr(frontier, "optimizer_runtime_s", 0.0), 6),
            points=len(getattr(frontier, "points", ()) or ()),
        )
        for stage in ("event_times", "instance_build", "contract",
                      "maxflow", "schedule"):
            seconds = timings.get(stage + "_s")
            if seconds is not None:
                self.metrics.observe(
                    "repro_optimizer_stage_seconds", seconds,
                    {"stage": stage, "exactness": exactness})
        for event in ("warm_hits", "warm_misses", "contractions",
                      "incremental_passes", "full_passes"):
            count = timings.get(event)
            if count:
                self.metrics.inc("repro_optimizer_fast_events_total",
                                 {"event": event}, count)
        ratio = timings.get("contraction_ratio")
        if ratio is not None:
            self.metrics.set_gauge(
                "repro_optimizer_contraction_ratio", ratio,
                {"exactness": exactness})

    # -- RPC methods ---------------------------------------------------------
    def _rpc_ping(self, tenant: str, params: dict) -> dict:
        from .. import __version__

        return {"ok": True, "version": __version__, "tenant": tenant}

    def _rpc_plan(self, tenant: str, params: dict) -> dict:
        spec = spec_from_wire(_param(params, "spec"))
        self._materialize(spec)
        return report_to_wire(self.planner.plan(spec))

    def _rpc_register_spec(self, tenant: str, params: dict) -> dict:
        job_id = _param(params, "job_id")
        spec = spec_from_wire(_param(params, "spec"))
        self._materialize(spec)
        # The stack is warm, so blocking registration is instant: the
        # job is deployable the moment the response lands.
        self.server.register_spec(
            self._qualify(tenant, job_id), spec, blocking=True)
        return {"job_id": job_id, "ready": True}

    def _rpc_submit_sweep(self, tenant: str, params: dict) -> dict:
        raw_specs = _param(params, "specs")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise ConfigurationError(
                "submit_sweep params.specs must be a non-empty list of "
                "plan_spec payloads"
            )
        specs = [spec_from_wire(payload) for payload in raw_specs]
        prefix = params.get("prefix", "sweep")
        # Coalesce each unique stack before the batch plan: overlapping
        # sweeps from other tenants in flight right now share the work.
        seen = set()
        for spec in specs:
            key = stack_flight_key(spec)
            if key not in seen:
                seen.add(key)
                self._materialize(spec)
        rows = self.server.submit_sweep(
            specs, prefix=self._qualify(tenant, prefix))
        return {
            "reports": {self._bare(tenant, job_id): report_to_wire(report)
                        for job_id, report in rows.items()}
        }

    def _rpc_report_of(self, tenant: str, params: dict) -> dict:
        job_id = self._qualify(tenant, _param(params, "job_id"))
        return report_to_wire(self.server.report_of(job_id))

    def _rpc_sweep_reports(self, tenant: str, params: dict) -> dict:
        mine = f"{tenant}{TENANT_SEP}"
        return {
            "reports": {
                self._bare(tenant, job_id): report_to_wire(report)
                for job_id, report in self.server.sweep_reports().items()
                if job_id.startswith(mine)
            }
        }

    def _rpc_is_ready(self, tenant: str, params: dict) -> dict:
        job_id = self._qualify(tenant, _param(params, "job_id"))
        return {"ready": self.server.is_ready(job_id)}

    def _rpc_wait_ready(self, tenant: str, params: dict) -> dict:
        job_id = self._qualify(tenant, _param(params, "job_id"))
        timeout_s = _param(params, "timeout_s", float, 300.0)
        frontier = self.server.wait_ready(job_id, timeout_s=timeout_s)
        return {"frontier": frontier_to_dict(frontier)}

    def _rpc_frontier_of(self, tenant: str, params: dict) -> dict:
        job_id = self._qualify(tenant, _param(params, "job_id"))
        return {"frontier": frontier_to_dict(self.server.frontier_of(job_id))}

    def _rpc_current_schedule(self, tenant: str, params: dict) -> dict:
        job_id = self._qualify(tenant, _param(params, "job_id"))
        schedule = self.server.current_schedule(job_id)
        return {"schedule": schedule_to_dict(schedule)}

    def _rpc_set_straggler(self, tenant: str, params: dict) -> dict:
        job_id = self._qualify(tenant, _param(params, "job_id"))
        self.server.set_straggler(
            job_id,
            accelerator_id=_param(params, "accelerator_id", int),
            delay_s=_param(params, "delay_s", float),
            degree=_param(params, "degree", float),
        )
        return {"ok": True}

    def _rpc_report_measurement(self, tenant: str, params: dict) -> dict:
        """The closed drift loop's wire entry: realized step -> action."""
        job_id = self._qualify(tenant, _param(params, "job_id"))
        stages = _param(params, "stage_time_s", list, None)
        action = self.server.report_measurement(
            job_id,
            time_s=_param(params, "time_s", float),
            energy_j=_param(params, "energy_j", float, None),
            stage_time_s=(None if stages is None else [
                _checked(f"stage_time_s[{i}]", t, float)
                for i, t in enumerate(stages)]),
        )
        self.metrics.inc("repro_drift_reports_total",
                         {"state": str(action.get("state"))})
        if action.get("replanned"):
            self.metrics.inc("repro_drift_replans_total",
                             {"reason": str(action.get("reason"))})
            self.events.emit("drift", tenant=tenant,
                             job=self._bare(tenant, job_id),
                             reason=str(action.get("reason")),
                             state=str(action.get("state")))
        return {"action": action}

    def _rpc_notify_restart(self, tenant: str, params: dict) -> dict:
        job_id = self._qualify(tenant, _param(params, "job_id"))
        action = self.server.notify_restart(job_id)
        return {"action": action}

    def _rpc_jobs(self, tenant: str, params: dict) -> dict:
        mine = f"{tenant}{TENANT_SEP}"
        return {"jobs": [self._bare(tenant, job_id)
                         for job_id in self.server.job_ids()
                         if job_id.startswith(mine)]}

    def _operator_counters(self) -> dict:
        """The operator counters ``stats`` and ``GET /metrics`` render:
        planner work, cache events and hit ratio (``None`` before the
        first lookup), queue depth and every job's drift row.  The
        queue-depth gauge is set here, so both surfaces carry it."""
        counters = dict(self.planner.cache.counters)
        lookups = counters.get("hits", 0) + counters.get("misses", 0)
        depth = self.admission.inflight
        self.metrics.set_gauge("repro_service_queue_depth", depth)
        return {
            "planner": dict(self.planner.stats),
            "cache": counters,
            "cache_hit_rate": (counters.get("hits", 0) / lookups
                               if lookups else None),
            "queue_depth": depth,
            "drift": self.server.drift_stats(),
        }

    def _rpc_stats(self, tenant: str, params: dict) -> dict:
        snapshot = self._operator_counters()
        flights = dict(self._flight.stats)
        leaders = flights["leaders"]
        warm = self.metrics.counter_value(
            "repro_service_coalesce_total", {"outcome": "warm"})
        return {
            "planner": snapshot["planner"],
            "cache": snapshot["cache"],
            "cache_hit_rate": snapshot["cache_hit_rate"],
            "coalesce": {
                "leaders": leaders,
                "followers": flights["followers"],
                "warm": warm,
                # requests-per-expensive-run; K requests over U unique
                # in-flight specs -> K/U.
                "ratio": ((leaders + flights["followers"] + warm) / leaders
                          if leaders else None),
            },
            "store_flight": (dict(self._store_flight.stats)
                             if self._store_flight is not None else None),
            "queue_depth": snapshot["queue_depth"],
            "jobs": len(self.server.job_ids()),
            "drift": {
                self._bare(tenant, job_id): row
                for job_id, row in snapshot["drift"].items()
                if job_id.startswith(f"{tenant}{TENANT_SEP}")
            },
            "service": self.metrics.snapshot(),
        }

    def _rpc_recent_events(self, tenant: str, params: dict) -> dict:
        """Tail of the daemon's structured event ring (tenant-scoped).

        Events tagged with another tenant are invisible; untagged
        (infrastructure) events -- flights, crawls, admission -- are
        visible to everyone sharing the daemon.
        """
        limit = _param(params, "limit", int, 100)
        if limit <= 0:
            raise ConfigurationError(
                f"recent_events limit must be positive, got {limit}")
        kind = params.get("kind")
        events = self.events.recent(limit=min(limit, 1000),
                                    kind=str(kind) if kind else None,
                                    tenant=tenant)
        return {"events": events, "count": len(events)}

    # -- dispatch ------------------------------------------------------------
    def _methods(self) -> Dict[str, object]:
        return {
            "ping": self._rpc_ping,
            "plan": self._rpc_plan,
            "register_spec": self._rpc_register_spec,
            "submit_sweep": self._rpc_submit_sweep,
            "report_of": self._rpc_report_of,
            "sweep_reports": self._rpc_sweep_reports,
            "is_ready": self._rpc_is_ready,
            "wait_ready": self._rpc_wait_ready,
            "frontier_of": self._rpc_frontier_of,
            "current_schedule": self._rpc_current_schedule,
            "set_straggler": self._rpc_set_straggler,
            "report_measurement": self._rpc_report_measurement,
            "notify_restart": self._rpc_notify_restart,
            "jobs": self._rpc_jobs,
            "stats": self._rpc_stats,
            "recent_events": self._rpc_recent_events,
        }

    def _replay_get(self, tenant: str, request_id) -> Optional[dict]:
        if request_id is None:
            return None
        key = (tenant, str(request_id))
        with self._replay_lock:
            result = self._replays.get(key)
            if result is not None:
                self._replays.move_to_end(key)
            return result

    def _replay_put(self, tenant: str, request_id, result: dict) -> None:
        if request_id is None:
            return
        key = (tenant, str(request_id))
        with self._replay_lock:
            self._replays[key] = result
            self._replays.move_to_end(key)
            while len(self._replays) > REPLAY_CACHE_SIZE:
                self._replays.popitem(last=False)

    def handle_rpc(self, envelope: dict, header_tenant: Optional[str],
                   trace_id: Optional[str] = None
                   ) -> Tuple[int, dict, Dict[str, str]]:
        """One RPC: returns (HTTP status, response body, extra headers).

        Factored off the socket handler so tests (and in-process
        callers) can exercise the full dispatch path without HTTP.

        The daemon adopts the caller's trace id (``X-Repro-Trace-Id``
        header or envelope field, whichever arrives) -- or mints one --
        binds it to this handler thread's context so every span and
        event below joins it, and echoes it back in the response
        headers.
        """
        if not isinstance(envelope, dict):
            return 400, {"error": error_to_wire(
                ServiceError("request body must be a JSON object"))}, {}
        request_id = envelope.get("id")
        method_name = envelope.get("method")
        params = envelope.get("params") or {}
        adopted = trace_id or envelope.get("trace_id") or new_trace_id()
        set_trace_id(adopted)
        started = time.perf_counter()
        status, body, headers = 200, {}, {"X-Repro-Trace-Id": str(adopted)}
        label = {"method": str(method_name)}
        tenant: Optional[str] = None
        replayed_flag = False
        try:
            tenant = _validate_tenant(
                header_tenant or envelope.get("tenant") or DEFAULT_TENANT)
            if not isinstance(params, dict):
                raise ConfigurationError("params must be a JSON object")
            method = self._methods().get(method_name)
            if method is None:
                raise _RpcError(
                    400, f"unknown method {method_name!r}; known: "
                         f"{sorted(self._methods())}")
            self.metrics.inc("repro_service_requests_total", label)
            replayed = self._replay_get(tenant, request_id)
            if replayed is not None:
                self.metrics.inc("repro_service_replays_total", label)
                body = {"id": request_id, "result": replayed}
                headers["X-Repro-Replayed"] = "1"
                replayed_flag = True
            else:
                if method_name in EXPENSIVE_METHODS:
                    with self.admission.admit(tenant):
                        result = method(tenant, params)
                else:
                    result = method(tenant, params)
                self._replay_put(tenant, request_id, result)
                body = {"id": request_id, "result": result}
        except (QuotaExceeded, ServiceOverloaded) as exc:
            reason = ("quota" if isinstance(exc, QuotaExceeded)
                      else "overload")
            self.metrics.inc("repro_service_rejections_total",
                             {"reason": reason})
            self.events.emit("admission", tenant=tenant, reason=reason,
                             method=str(method_name))
            status, body = 429, {"id": request_id,
                                 "error": error_to_wire(exc)}
            retry = getattr(exc, "retry_after_s", 0.0)
            if retry:
                headers["Retry-After"] = str(max(1, int(retry + 0.999)))
        except _RpcError as exc:
            status, body = exc.status, {"id": request_id, "error":
                                        error_to_wire(ServiceError(str(exc)))}
        except ReproError as exc:
            self.metrics.inc("repro_service_errors_total",
                             {"method": str(method_name),
                              "kind": type(exc).__name__})
            status, body = 422, {"id": request_id,
                                 "error": error_to_wire(exc)}
        except Exception as exc:  # a bug, not a usage error: log loudly
            traceback.print_exc(file=sys.stderr)
            self.metrics.inc("repro_service_errors_total",
                             {"method": str(method_name),
                              "kind": type(exc).__name__})
            status, body = 500, {"id": request_id,
                                 "error": error_to_wire(exc)}
        duration_s = time.perf_counter() - started
        self.metrics.observe("repro_service_request_latency_seconds",
                             duration_s, label)
        self.events.emit("rpc", method=str(method_name), tenant=tenant,
                         status=status, duration_s=round(duration_s, 6),
                         replayed=replayed_flag)
        self._access_line(str(method_name), tenant, status, duration_s,
                          str(adopted), replayed_flag)
        return status, body, headers

    def _access_line(self, method: str, tenant: Optional[str], status: int,
                     duration_s: float, trace_id: str,
                     replayed: bool) -> None:
        """One structured access-log line per RPC, rate-limited.

        Replaces the handler's silent path: operators get method,
        tenant, status, latency, replay flag and the trace id that
        joins the line to spans and events -- without a per-request
        log storm under a coalescing herd (denied lines roll up into
        the next line's ``suppressed=N``).
        """
        if not self._access_log:
            return
        admitted = self._access_bucket.try_acquire() == 0.0
        with self._access_lock:
            if not admitted:
                self._access_suppressed += 1
                return
            suppressed, self._access_suppressed = self._access_suppressed, 0
            line = (f"[repro.serve] rpc method={method} tenant={tenant} "
                    f"status={status} dur_ms={duration_s * 1000.0:.1f} "
                    f"replayed={int(replayed)} trace={trace_id}")
            if suppressed:
                line += f" suppressed={suppressed}"
            # Written under the lock: handler threads printing to one
            # text stream at once can lose lines.
            print(line, file=sys.stderr, flush=True)

    # -- scrape-time views ---------------------------------------------------
    def metrics_text(self) -> str:
        """The ``/metrics`` exposition (live planner/cache families)."""
        snapshot = self._operator_counters()
        extra = ["# TYPE repro_planner_work_total counter"]
        for stage, count in sorted(snapshot["planner"].items()):
            extra.append(f'repro_planner_work_total{{stage="{stage}"}} '
                         f'{count}')
        extra.append("# TYPE repro_cache_events_total counter")
        for event, count in sorted(snapshot["cache"].items()):
            extra.append(f'repro_cache_events_total{{event="{event}"}} '
                         f'{count}')
        if snapshot["cache_hit_rate"] is not None:
            extra.append("# TYPE repro_service_cache_hit_ratio gauge")
            extra.append(f"repro_service_cache_hit_ratio "
                         f"{snapshot['cache_hit_rate']:.6f}")
        drift = snapshot["drift"]
        if drift:
            extra.append("# TYPE repro_drift_loop_total counter")
            for job_id, row in sorted(drift.items()):
                for event, count in sorted(row.items()):
                    if event == "state":
                        continue
                    extra.append(
                        f'repro_drift_loop_total{{job="{job_id}",'
                        f'event="{event}"}} {count}')
            extra.append("# TYPE repro_drift_state gauge")
            for job_id, row in sorted(drift.items()):
                extra.append(
                    f'repro_drift_state{{job="{job_id}",'
                    f'state="{row["state"]}"}} 1')
        return self.metrics.render(extra_lines=extra)

    def health(self) -> dict:
        return {
            "ok": True,
            "jobs": len(self.server.job_ids()),
            "queue_depth": self.admission.inflight,
        }


def _make_handler(daemon: PlanningDaemon):
    """The request handler class bound to one daemon instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = READ_TIMEOUT_S
        # Headers and body go out in two writes; on a kept-alive socket
        # Nagle would hold the body back until the client's delayed ACK.
        disable_nagle_algorithm = True

        def setup(self) -> None:
            super().setup()
            daemon.metrics.inc("repro_service_connections_total")

        def parse_request(self) -> bool:
            if self.server.closing:
                # Unanswered, the request is resent on a fresh
                # connection: to a successor, or refused.
                self.close_connection = True
                return False
            return super().parse_request()

        # Quiet by default: one line per request would swamp benchmarks.
        def log_message(self, format, *args):  # noqa: A002
            pass

        def _send(self, status: int, payload: bytes, content_type: str,
                  headers: Dict[str, str]) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)

        def _send_json(self, status: int, body: dict,
                       headers: Optional[Dict[str, str]] = None) -> None:
            data = json.dumps(body).encode("utf-8")
            self._send(status, data, "application/json", headers or {})

        def _send_error(self, status: int, message: str,
                        close: bool = False) -> None:
            headers = {}
            if close:
                # The body was left unread; it must not be parsed as the
                # next request on this keep-alive connection.
                self.close_connection = True
                headers["Connection"] = "close"
            self._send_json(status, {"error": error_to_wire(
                ServiceError(message))}, headers)

        def _read_body(self) -> Optional[bytes]:
            """The request body, or None after answering a bad length."""
            raw = self.headers.get("Content-Length", "0")
            try:
                length = int(raw)
            except ValueError:
                length = -1
            if length < 0:
                self._send_error(400, f"bad Content-Length {raw!r}",
                                 close=True)
                return None
            if length > MAX_RPC_BODY_BYTES:
                self._send_error(
                    413, f"request body of {length} bytes exceeds the "
                         f"{MAX_RPC_BODY_BYTES}-byte limit", close=True)
                return None
            return self.rfile.read(length)

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            if self.path == "/metrics":
                text = daemon.metrics_text().encode("utf-8")
                self._send(200, text, "text/plain; version=0.0.4", {})
            elif self.path == "/healthz":
                self._send_json(200, daemon.health())
            else:
                self._send_json(404, {"error": error_to_wire(ServiceError(
                    f"unknown path {self.path!r}; GET serves /metrics "
                    f"and /healthz, RPCs POST to /rpc"))})

        def do_POST(self) -> None:  # noqa: N802
            if self.path != "/rpc":
                self._send_json(404, {"error": error_to_wire(ServiceError(
                    f"unknown path {self.path!r}; POST to /rpc"))})
                return
            body = self._read_body()
            if body is None:
                return
            try:
                envelope = json.loads(body.decode("utf-8"))
            except RecursionError:
                self._send_error(400, "request body nests too deeply")
                return
            except (ValueError, UnicodeDecodeError) as exc:
                self._send_error(400, f"request body is not valid JSON: "
                                      f"{exc}")
                return
            status, body, headers = daemon.handle_rpc(
                envelope, self.headers.get("X-Repro-Tenant"),
                trace_id=self.headers.get("X-Repro-Trace-Id"))
            self._send_json(status, body, headers)

    return Handler
