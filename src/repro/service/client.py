"""``ServiceClient``: the daemon's Python face, mirroring ``PerseusServer``.

The client speaks the :mod:`~repro.service.wire` protocol over plain
:mod:`http.client` (stdlib, HTTP/1.1) and returns the same domain
objects the in-process API does:
:class:`~repro.api.planner.PlanReport`,
:class:`~repro.core.frontier.Frontier`,
:class:`~repro.core.schedules.EnergySchedule`.  Remote failures
re-raise as their original :class:`~repro.exceptions.ReproError`
subclass, so the client is a drop-in for code written against
:class:`~repro.runtime.server.PerseusServer`::

    client = ServiceClient("http://127.0.0.1:8421", tenant="team-a")
    report = client.plan(spec)              # == planner.plan(spec)
    client.register_spec("llama-run", spec)
    client.wait_ready("llama-run")

Each calling thread keeps one connection open to the daemon and
reuses it for every request (``close()`` or the ``with`` block releases
them all).  The daemon drops a connection left idle for
:data:`~repro.service.daemon.READ_TIMEOUT_S`; a request that then finds
its reused connection closed -- or its daemon restarted -- before any
response byte arrives is resent once on a fresh connection.  A timeout
is never resent.

Transport failures -- connection refused, a daemon restarting
mid-request (socket reset, truncated response), a garbled response,
an HTTP 5xx -- raise the *typed*
:class:`~repro.exceptions.ServiceUnavailable` (never a raw
:mod:`http.client` error), whose ``retry_after_s`` hints when a retry
is worth attempting.  Every request carries a fresh unique ``id`` by
default, so retrying a call that may have landed is safe: the daemon
replays the recorded response instead of re-executing.  The resend
above and the replica-aware
:class:`~repro.service.replica.ReplicaClient` failover loop both build
on exactly these two properties.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple
from urllib.parse import urlsplit

from ..api.planner import PlanReport
from ..api.spec import PlanSpec
from ..core.frontier import Frontier
from ..core.schedule import EnergySchedule
from ..core.serialization import frontier_from_dict, schedule_from_dict
from ..exceptions import ServiceError, ServiceUnavailable
from ..obs.trace import ensure_trace_id
from .wire import error_from_wire, report_from_wire

#: Default retry hint attached to transport-level failures (seconds);
#: a restarting daemon is typically back within this window.
RETRY_HINT_S = 0.5

_ids = itertools.count(1)
_ids_lock = threading.Lock()


def _fresh_id() -> str:
    with _ids_lock:
        seq = next(_ids)
    return f"c{seq}-{time.monotonic_ns():x}"


def _header_safe(value: str) -> bool:
    """True when ``value`` survives HTTP header (latin-1) encoding."""
    try:
        value.encode("latin-1")
    except UnicodeEncodeError:
        return False
    return "\n" not in value and "\r" not in value


class ServiceClient:
    """HTTP client for a :class:`~repro.service.daemon.PlanningDaemon`.

    ``base_url`` is the daemon's origin (``http://host:port``); pass
    ``tenant`` to namespace jobs and quota accounting (sent as the
    ``X-Repro-Tenant`` header).  ``timeout_s`` bounds each socket
    operation -- leave headroom above ``wait_ready`` timeouts, which
    hold the connection open server-side.  Each calling thread's
    connection stays open until :meth:`close` (or the ``with`` block's
    end).
    """

    def __init__(self, base_url: str, tenant: Optional[str] = None,
                 timeout_s: float = 600.0) -> None:
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", "") or not (parts.netloc or parts.path):
            raise ServiceError(
                f"base_url must be http://host:port, got {base_url!r}"
            )
        netloc = parts.netloc or parts.path
        host, _, port = netloc.partition(":")
        self.host = host
        self.port = int(port) if port else 80
        self.tenant = tenant
        self.timeout_s = timeout_s
        #: Trace id sent with the most recent request (the same id the
        #: daemon adopts, logs and echoes back) -- the join key between
        #: a client-side failure and the daemon's events.
        self.last_trace_id: Optional[str] = None
        self._conns_lock = threading.Lock()
        self._conns: Dict[threading.Thread,
                          http.client.HTTPConnection] = {}

    def close(self) -> None:
        """Close the connections this client opened, on every thread."""
        with self._conns_lock:
            conns, self._conns = list(self._conns.values()), {}
        for conn in conns:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport -----------------------------------------------------------
    def _unavailable(self, what: str,
                     exc: Optional[BaseException] = None
                     ) -> ServiceUnavailable:
        cause = f": {type(exc).__name__}: {exc}" if exc is not None else ""
        return ServiceUnavailable(
            f"daemon at {self.host}:{self.port} unavailable ({what}){cause}",
            retry_after_s=RETRY_HINT_S,
        )

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (opened on first use)."""
        me = threading.current_thread()
        with self._conns_lock:
            conn = self._conns.get(me)
            if conn is None:
                # Connections of threads that have exited go here.
                for thread in [t for t in self._conns if not t.is_alive()]:
                    self._conns.pop(thread).close()
                conn = self._conns[me] = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout_s)
        return conn

    def _exchange(self, method: str, path: str,
                  body: Optional[dict] = None) -> Tuple[int, bytes]:
        """One request on this thread's connection: (status, whole body).

        A reused connection the daemon has dropped (idle timeout,
        restart) fails before any response byte; only then is the same
        request -- same envelope, same ``id`` -- resent once on a fresh
        connection.  Every transport failure raises
        :class:`ServiceUnavailable`.
        """
        headers = {}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.tenant is not None and _header_safe(self.tenant):
            # Non-latin-1 tenants travel in the envelope body instead
            # (HTTP headers cannot carry them); the daemon accepts both.
            headers["X-Repro-Tenant"] = self.tenant
        # Propagate (or mint) the trace context: the daemon adopts this
        # id, so client- and daemon-side records join on it.
        trace_id = ensure_trace_id()
        headers["X-Repro-Trace-Id"] = trace_id
        self.last_trace_id = trace_id
        conn = self._connection()
        try:
            reused = conn.sock is not None
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
            except (BrokenPipeError, ConnectionResetError):
                # RemoteDisconnected is a ConnectionResetError; a
                # timeout is neither, so it is never resent.
                if not reused:
                    raise
                conn.close()
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            # A daemon restart mid-request surfaces here as a reset or
            # a half-closed socket; map it to the typed, retryable
            # error instead of leaking raw http.client internals.
            conn.close()
            raise self._unavailable(f"{method} {path}", exc) from exc
        except BaseException:
            conn.close()  # never leave a half-used connection behind
            raise

    def _json(self, status: int, raw: bytes):
        """The decoded JSON body; a 5xx or garbage is ServiceUnavailable."""
        try:
            body = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise self._unavailable(
                f"non-JSON response, HTTP {status}: {raw[:200]!r}", exc,
            ) from exc
        if status >= 500:
            # 5xx means the daemon (not the request) is broken; rotate
            # or retry rather than blaming the caller.  The envelope's
            # error detail rides along in the message.
            detail = body.get("error", body) if isinstance(body, dict) \
                else body
            raise self._unavailable(f"HTTP {status}: {detail}")
        return body

    def call(self, method: str, params: Optional[dict] = None,
             request_id: Optional[str] = None):
        """One RPC; returns the raw ``result`` payload.

        A remote error re-raises as its original exception class (see
        :func:`~repro.service.wire.error_kinds`).  Pass the same
        ``request_id`` to retry idempotently.
        """
        envelope = {
            "id": request_id if request_id is not None else _fresh_id(),
            "method": method,
            "params": params or {},
        }
        if self.tenant is not None:
            envelope["tenant"] = self.tenant
        body = self._json(*self._exchange("POST", "/rpc", envelope))
        if not isinstance(body, dict):
            raise ServiceError(f"malformed response envelope: {body!r}")
        if "error" in body:
            raise error_from_wire(body["error"])
        if "result" not in body:
            raise ServiceError(f"malformed response envelope: {body!r}")
        return body["result"]

    def call_with_retry(self, method: str, params: Optional[dict] = None,
                        max_attempts: int = 4,
                        deadline_s: float = 30.0,
                        base_backoff_s: float = 0.1,
                        max_backoff_s: float = 5.0,
                        rng: Optional[random.Random] = None,
                        sleep=time.sleep,
                        clock=time.monotonic):
        """``call`` with bounded retry on :class:`ServiceUnavailable`.

        Only transport-level failures retry -- typed domain errors
        (bad spec, unknown job, quota) re-raise immediately because a
        retry cannot fix them.  One request ``id`` spans all attempts,
        so a call that landed before the connection dropped is replayed
        from the daemon's response cache instead of re-executed.

        Backoff is *decorrelated jitter* (AWS-style): each sleep is
        uniform in ``[base, 3 * previous]``, capped at
        ``max_backoff_s`` -- and never below the server's
        ``retry_after_s`` hint when one rode along on the error.  The
        loop gives up after ``max_attempts`` tries or once the next
        sleep would cross the overall ``deadline_s``, re-raising the
        last ``ServiceUnavailable`` either way.
        """
        if max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be >= 1, got {max_attempts}")
        rng = rng if rng is not None else random.Random()
        request_id = _fresh_id()
        started = clock()
        previous = base_backoff_s
        last_exc: Optional[ServiceUnavailable] = None
        for attempt in range(max_attempts):
            try:
                return self.call(method, params, request_id=request_id)
            except ServiceUnavailable as exc:
                last_exc = exc
            if attempt + 1 >= max_attempts:
                break
            delay = min(max_backoff_s,
                        rng.uniform(base_backoff_s, previous * 3.0))
            hint = getattr(last_exc, "retry_after_s", None)
            if hint is not None:
                delay = max(delay, float(hint))
            previous = delay
            if clock() - started + delay > deadline_s:
                break
            sleep(delay)
        assert last_exc is not None
        raise last_exc

    # -- PerseusServer mirror ------------------------------------------------
    def ping(self) -> dict:
        """Liveness + daemon version (also confirms the tenant name)."""
        return self.call("ping")

    def plan(self, spec: PlanSpec) -> PlanReport:
        """Remote :meth:`Planner.plan` -- bit-identical to in-process."""
        result = self.call("plan", {"spec": spec.to_dict()})
        return report_from_wire(result)

    def register_spec(self, job_id: str, spec: PlanSpec) -> None:
        """Register + characterize a job (blocking; ready on return)."""
        self.call("register_spec",
                  {"job_id": job_id, "spec": spec.to_dict()})

    def submit_sweep(self, specs: Iterable[PlanSpec],
                     prefix: str = "sweep") -> Dict[str, PlanReport]:
        result = self.call("submit_sweep", {
            "specs": [spec.to_dict() for spec in specs],
            "prefix": prefix,
        })
        return {job_id: report_from_wire(payload)
                for job_id, payload in result["reports"].items()}

    def report_of(self, job_id: str) -> PlanReport:
        return report_from_wire(self.call("report_of", {"job_id": job_id}))

    def sweep_reports(self) -> Dict[str, PlanReport]:
        result = self.call("sweep_reports")
        return {job_id: report_from_wire(payload)
                for job_id, payload in result["reports"].items()}

    def is_ready(self, job_id: str) -> bool:
        return bool(self.call("is_ready", {"job_id": job_id})["ready"])

    def wait_ready(self, job_id: str, timeout_s: float = 300.0) -> Frontier:
        result = self.call("wait_ready",
                           {"job_id": job_id, "timeout_s": timeout_s})
        return frontier_from_dict(result["frontier"])

    def frontier_of(self, job_id: str) -> Frontier:
        result = self.call("frontier_of", {"job_id": job_id})
        return frontier_from_dict(result["frontier"])

    def current_schedule(self, job_id: str) -> EnergySchedule:
        result = self.call("current_schedule", {"job_id": job_id})
        return schedule_from_dict(result["schedule"])

    def set_straggler(self, job_id: str, accelerator_id: int,
                      delay_s: float, degree: float) -> None:
        self.call("set_straggler", {
            "job_id": job_id,
            "accelerator_id": accelerator_id,
            "delay_s": delay_s,
            "degree": degree,
        })

    def report_measurement(self, job_id: str, time_s: float,
                           energy_j: Optional[float] = None,
                           stage_time_s: Optional[List[float]] = None) -> dict:
        """Feed one realized step summary to the job's drift controller.

        Returns the controller's action dict (``state``, ``replanned``,
        ...); see :meth:`repro.runtime.server.PerseusServer.
        report_measurement`.
        """
        params: dict = {"job_id": job_id, "time_s": time_s}
        if energy_j is not None:
            params["energy_j"] = energy_j
        if stage_time_s is not None:
            params["stage_time_s"] = list(stage_time_s)
        return self.call("report_measurement", params)["action"]

    def notify_restart(self, job_id: str) -> Optional[dict]:
        """Tell the drift controller the job restarted from checkpoint."""
        return self.call("notify_restart", {"job_id": job_id})["action"]

    def jobs(self) -> List[str]:
        """This tenant's registered job ids."""
        return list(self.call("jobs")["jobs"])

    def stats(self) -> dict:
        """Daemon-side service/planner/cache statistics."""
        return self.call("stats")

    def recent_events(self, limit: int = 100,
                      kind: Optional[str] = None) -> List[dict]:
        """Tail of the daemon's structured event ring (tenant-scoped)."""
        params: dict = {"limit": limit}
        if kind is not None:
            params["kind"] = kind
        return list(self.call("recent_events", params)["events"])

    # -- observability endpoints ---------------------------------------------
    def metrics_text(self) -> str:
        """Raw ``GET /metrics`` exposition text."""
        status, raw = self._exchange("GET", "/metrics")
        if status >= 500:
            raise self._unavailable(f"HTTP {status}: {raw[:200]!r}")
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self._unavailable("non-UTF-8 /metrics", exc) from exc

    def health(self) -> dict:
        body = self._json(*self._exchange("GET", "/healthz"))
        if not isinstance(body, dict):
            raise self._unavailable(f"/healthz answered {body!r:.200}")
        return body
