"""The planning service: coalescing, admission, tenancy, wire fidelity.

Unit layers (token bucket, single-flight, metrics, wire codecs) run
with injected clocks and plain callables; the integration layers boot a
real :class:`~repro.service.PlanningDaemon` on an ephemeral loopback
port and talk to it through :class:`~repro.service.ServiceClient` --
including the issue's headline scenario: N tenants concurrently
planning overlapping specs must produce bit-identical reports while the
shared planner does each piece of expensive work exactly once.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import repro
from repro.api import PlanSpec, Planner
from repro.exceptions import (
    ConfigurationError,
    QuotaExceeded,
    ReproError,
    ServerError,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.runtime.server import PerseusServer
from repro.service import daemon as daemon_module
from repro.service import (
    AdmissionController,
    MetricsRegistry,
    PlanningDaemon,
    ServiceClient,
    SingleFlight,
    TokenBucket,
    report_from_wire,
    report_to_wire,
    reports_equal,
    spec_from_wire,
    stack_flight_key,
)
from repro.service.wire import error_from_wire, error_to_wire

TINY = dict(gpu="a100", stages=2, microbatches=2, freq_stride=24)


def tiny_spec(model="gpt3-xl", **overrides):
    merged = dict(TINY)
    merged.update(overrides)
    return PlanSpec(model, **merged)


@pytest.fixture()
def daemon():
    """A live daemon on an ephemeral port with its own planner."""
    with PlanningDaemon(planner=Planner(), port=0) as d:
        yield d


# ---------------------------------------------------------------- token bucket
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_token_bucket_burst_then_rejects():
    clock = FakeClock()
    bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
    assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
    wait = bucket.try_acquire()
    assert wait == pytest.approx(1.0)


def test_token_bucket_refills_at_rate():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
    bucket.try_acquire()
    bucket.try_acquire()
    assert bucket.try_acquire() > 0.0
    clock.now += 0.5  # one token at 2/s
    assert bucket.try_acquire() == 0.0
    assert bucket.try_acquire() == pytest.approx(0.5)


def test_token_bucket_caps_at_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
    clock.now += 1000.0
    assert bucket.tokens == pytest.approx(2.0)


def test_token_bucket_validates():
    with pytest.raises(ConfigurationError):
        TokenBucket(rate=0.0, burst=2.0)
    with pytest.raises(ConfigurationError):
        TokenBucket(rate=1.0, burst=0.5)


# ------------------------------------------------------------------- admission
def test_admission_bounds_inflight():
    ctrl = AdmissionController(max_inflight=2)
    with ctrl.admit("a"):
        with ctrl.admit("b"):
            assert ctrl.inflight == 2
            with pytest.raises(ServiceOverloaded):
                with ctrl.admit("c"):
                    pass
        assert ctrl.inflight == 1
    assert ctrl.inflight == 0


def test_admission_releases_slot_on_error():
    ctrl = AdmissionController(max_inflight=1)
    with pytest.raises(RuntimeError):
        with ctrl.admit("a"):
            raise RuntimeError("boom")
    with ctrl.admit("a"):  # slot was released
        pass


def test_admission_quota_is_per_tenant():
    clock = FakeClock()
    ctrl = AdmissionController(max_inflight=None, quota_rate=1.0,
                               quota_burst=1.0, clock=clock)
    with ctrl.admit("greedy"):
        pass
    with pytest.raises(QuotaExceeded) as err:
        with ctrl.admit("greedy"):
            pass
    assert err.value.retry_after_s > 0.0
    with ctrl.admit("polite"):  # a different tenant's fresh bucket
        pass


def test_admission_unlimited_when_disabled():
    ctrl = AdmissionController(max_inflight=None, quota_rate=None)
    for _ in range(32):
        with ctrl.admit("t"):
            pass
    assert ctrl.bucket_for("t") is None


# --------------------------------------------------------------- single flight
def test_single_flight_serial_calls_each_lead():
    flight = SingleFlight()
    assert flight.do("k", lambda: 1) == (1, "leader")
    assert flight.do("k", lambda: 2) == (2, "leader")
    assert flight.stats == {"leaders": 2, "followers": 0}


def test_single_flight_concurrent_dedup():
    flight = SingleFlight()
    release = threading.Event()
    followers_in = threading.Barrier(4)
    calls = []

    def build():
        calls.append(1)
        release.wait(5.0)
        return "built"

    results = []

    def worker():
        followers_in.wait()
        results.append(flight.do("k", build))

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for t in threads:
        t.start()
    followers_in.wait()  # all workers racing on the same key
    while flight.inflight == 0:  # leader registered its flight
        pass
    release.set()
    for t in threads:
        t.join(5.0)
    assert len(calls) == 1
    assert sorted(role for _, role in results) == \
        ["follower", "follower", "leader"]
    assert all(value == "built" for value, _ in results)


def test_single_flight_propagates_leader_error_to_followers():
    flight = SingleFlight()
    started = threading.Event()
    release = threading.Event()

    def explode():
        started.set()
        release.wait(5.0)
        raise ServerError("leader failed")

    caught = []

    def lead():
        try:
            flight.do("k", explode)
        except ServerError as exc:
            caught.append(("leader", str(exc)))

    def follow():
        started.wait(5.0)
        try:
            flight.do("k", lambda: "unused")
        except ServerError as exc:
            caught.append(("follower", str(exc)))

    t1 = threading.Thread(target=lead)
    t2 = threading.Thread(target=follow)
    t1.start()
    started.wait(5.0)
    t2.start()
    while flight.inflight == 0:
        pass
    release.set()
    t1.join(5.0)
    t2.join(5.0)
    assert sorted(who for who, _ in caught) == ["follower", "leader"]
    assert all(msg == "leader failed" for _, msg in caught)


def test_stack_flight_key_groups_on_expensive_fields():
    base = tiny_spec()
    assert stack_flight_key(base) == \
        stack_flight_key(base.replace(strategy="max-freq"))
    assert stack_flight_key(base) == stack_flight_key(base.replace(tau=0.02))
    assert stack_flight_key(base) == \
        stack_flight_key(base.replace(microbatches=3))
    assert stack_flight_key(base) != \
        stack_flight_key(base.replace(model="bert-large"))
    assert stack_flight_key(base) != stack_flight_key(base.replace(stages=4))


# --------------------------------------------------------------------- metrics
def test_metrics_counters_and_labels():
    reg = MetricsRegistry()
    reg.inc("hits", {"tier": "memory"})
    reg.inc("hits", {"tier": "memory"})
    reg.inc("hits", {"tier": "disk"})
    assert reg.counter_value("hits", {"tier": "memory"}) == 2
    assert reg.counter_total("hits") == 3


def test_metrics_histogram_buckets_are_cumulative():
    reg = MetricsRegistry(latency_buckets_s=(0.1, 1.0))
    for v in (0.05, 0.5, 0.5, 5.0):
        reg.observe("lat", v)
    text = reg.render()
    assert 'lat_bucket{le="0.1"} 1' in text
    assert 'lat_bucket{le="1"} 3' in text
    assert 'lat_bucket{le="+Inf"} 4' in text
    assert "lat_count 4" in text


def test_metrics_render_has_type_headers_and_help():
    reg = MetricsRegistry()
    reg.describe("reqs", "requests served")
    reg.inc("reqs", {"method": "plan"})
    reg.set_gauge("depth", 3)
    text = reg.render(extra_lines=["# TYPE extra counter", "extra 1"])
    assert "# HELP reqs requests served" in text
    assert "# TYPE reqs counter" in text
    assert 'reqs{method="plan"} 1' in text
    assert "# TYPE depth gauge" in text
    assert "depth 3" in text
    assert text.rstrip().endswith("extra 1")


def test_metrics_quantiles_from_histogram():
    reg = MetricsRegistry(latency_buckets_s=(0.01, 0.1, 1.0))
    for _ in range(95):
        reg.observe("lat", 0.005)
    for _ in range(5):
        reg.observe("lat", 0.5)
    snap = reg.snapshot()["histograms"]["lat"]["_total"]
    assert snap["p50_s"] == 0.01
    assert snap["p95_s"] == 0.01
    assert snap["count"] == 100


# ------------------------------------------------------------------------ wire
def test_report_wire_round_trip_bit_identical():
    planner = Planner()
    report = planner.plan(tiny_spec())
    back = report_from_wire(report_to_wire(report))
    assert reports_equal(report, back)
    assert back.plan == report.plan
    assert back.spec == report.spec


def test_report_wire_round_trip_error_row():
    planner = Planner()
    rows = planner.sweep([tiny_spec(model="no-such-model")],
                         errors="report")
    assert not rows[0].ok
    back = report_from_wire(report_to_wire(rows[0]))
    assert reports_equal(rows[0], back)
    assert math.isnan(back.energy_j)
    assert back.error == rows[0].error


def test_spec_from_wire_fills_envelope_defaults():
    spec = spec_from_wire({"model": "gpt3-xl", "gpu": "a100",
                           "stages": 2, "microbatches": 2})
    assert spec.model == "gpt3-xl"
    assert spec.strategy == "perseus"
    with pytest.raises(ConfigurationError):
        spec_from_wire("not-an-object")


def test_error_wire_round_trip():
    err = error_from_wire(error_to_wire(QuotaExceeded("slow down",
                                                      retry_after_s=2.5)))
    assert isinstance(err, QuotaExceeded)
    assert err.retry_after_s == 2.5
    degraded = error_from_wire({"kind": "SomethingNovel", "message": "x"})
    assert isinstance(degraded, ServiceError)


# ------------------------------------------------- server satellites (no HTTP)
def test_wait_ready_wakes_on_event_without_polling():
    server = PerseusServer(planner=Planner())
    spec = tiny_spec()
    server.register_spec("bg", spec, blocking=False)
    frontier = server.wait_ready("bg", timeout_s=60.0)
    assert frontier.points
    assert server.is_ready("bg")


def test_wait_ready_unknown_job_raises():
    server = PerseusServer(planner=Planner())
    with pytest.raises(ServerError):
        server.wait_ready("never-registered", timeout_s=0.05)


def test_duplicate_registration_rejected():
    server = PerseusServer(planner=Planner())
    spec = tiny_spec()
    server.register_spec("dup", spec, blocking=True)
    with pytest.raises(ServerError, match="already registered"):
        server.register_spec("dup", spec, blocking=True)


def test_duplicate_registration_race_single_winner():
    planner = Planner()
    server = PerseusServer(planner=planner)
    spec = tiny_spec()
    planner.result(spec)  # pre-warm so the race is on the registry
    barrier = threading.Barrier(4)
    outcomes = []

    def register():
        barrier.wait()
        try:
            server.register_spec("contested", spec, blocking=True)
            outcomes.append("won")
        except ServerError:
            outcomes.append("lost")

    threads = [threading.Thread(target=register) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    assert sorted(outcomes) == ["lost", "lost", "lost", "won"]
    assert server.job_ids() == ["contested"]


# ----------------------------------------------------------- daemon round trip
def test_daemon_plan_bit_identical_to_in_process(daemon):
    spec = tiny_spec()
    client = ServiceClient(daemon.url, tenant="team-a")
    remote = client.plan(spec)
    local = Planner().plan(spec)
    assert reports_equal(remote, local)


def test_daemon_job_lifecycle(daemon):
    spec = tiny_spec()
    client = ServiceClient(daemon.url, tenant="team-a")
    client.register_spec("job", spec)
    assert client.is_ready("job")
    frontier = client.wait_ready("job", timeout_s=60.0)
    assert frontier.points
    schedule = client.current_schedule("job")
    # The energy-optimal operating point lies on the frontier.
    assert frontier.t_min <= schedule.iteration_time <= frontier.t_star
    client.set_straggler("job", accelerator_id=0, delay_s=1.0, degree=1.2)
    slowed = client.current_schedule("job")
    assert slowed.iteration_time >= schedule.iteration_time
    assert client.jobs() == ["job"]


def test_daemon_frontier_is_bit_identical_to_in_process(daemon):
    spec = tiny_spec(microbatches=4)
    client = ServiceClient(daemon.url, tenant="team-a")
    client.register_spec("job", spec)
    remote = client.frontier_of("job")
    local = Planner().frontier_for(spec)

    def bits(frontier):
        return [(p.iteration_time.hex(), p.effective_energy.hex(),
                 p.compute_energy.hex(),
                 [(k, v.hex()) for k, v in p.durations.items()],
                 list(p.frequencies.items()))
                for p in frontier.points]

    assert len(local.points) > 1
    assert bits(remote) == bits(local)


def test_daemon_sweep_and_reports(daemon):
    client = ServiceClient(daemon.url, tenant="team-a")
    rows = client.submit_sweep(
        [tiny_spec(), tiny_spec(strategy="max-freq")], prefix="sw")
    assert sorted(rows) == ["sw-0", "sw-1"]
    assert reports_equal(client.report_of("sw-0"), rows["sw-0"])
    assert sorted(client.sweep_reports()) == ["sw-0", "sw-1"]


def test_daemon_tenant_isolation(daemon):
    spec = tiny_spec()
    a = ServiceClient(daemon.url, tenant="team-a")
    b = ServiceClient(daemon.url, tenant="team-b")
    a.register_spec("shared-name", spec)
    b.register_spec("shared-name", spec)  # no collision across tenants
    a.submit_sweep([spec], prefix="sw")
    assert a.jobs() == ["shared-name", "sw-0"]
    assert b.jobs() == ["shared-name"]
    assert sorted(a.sweep_reports()) == ["sw-0"]
    assert b.sweep_reports() == {}
    with pytest.raises(ServerError):
        b.report_of("sw-0")


def test_daemon_duplicate_job_rejected_remotely(daemon):
    spec = tiny_spec()
    client = ServiceClient(daemon.url, tenant="team-a")
    client.register_spec("dup", spec)
    with pytest.raises(ServerError, match="already registered"):
        client.register_spec("dup", spec)


def test_daemon_idempotent_replay(daemon):
    spec = tiny_spec()
    client = ServiceClient(daemon.url, tenant="team-a")
    params = {"job_id": "once", "spec": spec.to_dict()}
    first = client.call("register_spec", params, request_id="req-1")
    # Same id: replayed from the cache, NOT re-executed (a re-execution
    # would trip the duplicate-job rejection).
    second = client.call("register_spec", params, request_id="req-1")
    assert first == second
    with pytest.raises(ServerError):  # fresh id really re-executes
        client.call("register_spec", params, request_id="req-2")
    # Replay caches are per-tenant: another tenant's same id executes.
    other = ServiceClient(daemon.url, tenant="team-b")
    other.call("register_spec", params, request_id="req-1")


def test_daemon_rejects_unknown_method_and_bad_params(daemon):
    client = ServiceClient(daemon.url)
    with pytest.raises(ServiceError, match="unknown method"):
        client.call("frobnicate")
    with pytest.raises(ConfigurationError, match="missing required param"):
        client.call("report_of", {})
    with pytest.raises(ConfigurationError, match="tenant"):
        ServiceClient(daemon.url, tenant="bad::tenant").ping()


def test_daemon_quota_rejection_surfaces_as_429():
    with PlanningDaemon(planner=Planner(), port=0, quota_rate=0.001,
                        quota_burst=1.0) as daemon:
        client = ServiceClient(daemon.url, tenant="greedy")
        client.plan(tiny_spec())
        with pytest.raises(QuotaExceeded) as err:
            client.plan(tiny_spec())
        assert err.value.retry_after_s > 0.0
        # Cheap queries bypass admission: still served while over quota.
        assert client.ping()["ok"]
        text = client.metrics_text()
        assert 'repro_service_rejections_total{reason="quota"} 1' in text


def test_daemon_backpressure_surfaces_as_overload():
    with PlanningDaemon(planner=Planner(), port=0, max_inflight=1) as daemon:
        release = threading.Event()
        entered = threading.Event()
        original = daemon._materialize

        def slow_materialize(spec):
            entered.set()
            release.wait(10.0)
            return original(spec)

        daemon._materialize = slow_materialize
        errors = []

        def occupy():
            try:
                ServiceClient(daemon.url, tenant="a").plan(tiny_spec())
            except ReproError as exc:
                errors.append(exc)

        holder = threading.Thread(target=occupy)
        holder.start()
        assert entered.wait(10.0)
        with pytest.raises(ServiceOverloaded):
            ServiceClient(daemon.url, tenant="b").plan(
                tiny_spec(model="bert-large"))
        release.set()
        holder.join(30.0)
        assert not errors


def test_daemon_metrics_and_health_endpoints(daemon):
    client = ServiceClient(daemon.url, tenant="team-a")
    client.plan(tiny_spec())
    text = client.metrics_text()
    assert 'repro_service_requests_total{method="plan"} 1' in text
    assert 'repro_service_coalesce_total{outcome="leader"} 1' in text
    assert "repro_service_request_latency_seconds_bucket" in text
    assert 'repro_planner_work_total{stage="profile"} 1' in text
    assert client.health()["ok"] is True
    stats = client.stats()
    assert stats["planner"]["profile"] == 1
    assert stats["coalesce"]["leaders"] == 1


# ------------------------------------------- the headline concurrent scenario
def test_concurrent_multi_tenant_sweeps_coalesce_and_match():
    """N tenants, K requests, U unique specs: U expensive runs, and
    every response is bit-identical to in-process planning."""
    specs = [tiny_spec(), tiny_spec(model="bert-large")]
    clients, unique = 8, len(specs)
    planner = Planner()
    with PlanningDaemon(planner=planner, port=0,
                        max_inflight=clients) as daemon:
        barrier = threading.Barrier(clients)
        results = [None] * clients
        errors = []

        def worker(i):
            client = ServiceClient(daemon.url, tenant=f"tenant-{i % 3}")
            barrier.wait()
            try:
                results[i] = client.plan(specs[i % unique])
            except Exception as exc:
                errors.append(f"{i}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert not errors
        flights = dict(daemon._flight.stats)
        warm = daemon.metrics.counter_value(
            "repro_service_coalesce_total", {"outcome": "warm"})
        work = dict(planner.stats)

    assert work["profile"] == unique
    assert work["frontier"] == unique
    assert flights["leaders"] == unique
    # Requests overlapping the leader ride its flight; any arriving
    # after it lands are warm hits -- either way, no extra work.
    assert flights["followers"] + warm == clients - unique

    reference = Planner()
    for i, report in enumerate(results):
        assert report is not None
        assert reports_equal(report, reference.plan(specs[i % unique]))


def _crawl_signals(daemon):
    """(``repro_optimizer_stage_seconds`` samples, ``crawl`` events)."""
    stages = daemon.metrics.snapshot()["histograms"].get(
        "repro_optimizer_stage_seconds", {})
    return (sum(series["count"] for series in stages.values()),
            len(daemon.events.recent(limit=1000, kind="crawl")))


def test_crawl_metrics_only_for_crawls_this_daemon_ran(tmp_path):
    """A frontier another planner crawled into the store is served
    without crawl timings; a never-seen spec exports exactly one."""
    store = str(tmp_path / "store")
    Planner(cache=store).plan(tiny_spec())
    planner = Planner(cache=store)
    with PlanningDaemon(planner=planner, port=0) as daemon:
        client = ServiceClient(daemon.url, tenant="ci")
        assert client.plan(tiny_spec()).ok
        assert _crawl_signals(daemon) == (0, 0)
        assert planner.stats["frontier"] == 0
        assert client.plan(tiny_spec(model="bert-large")).ok
        samples, crawls = _crawl_signals(daemon)
        assert crawls == 1 and samples > 0
        assert planner.stats["frontier"] == 1


def test_close_without_start_returns():
    daemon = PlanningDaemon(planner=Planner(), port=0)
    closer = threading.Thread(target=daemon.close, daemon=True)
    closer.start()
    closer.join(10.0)
    assert not closer.is_alive()


def test_concurrent_submit_sweep_across_tenants_bit_identical():
    spec_sets = [[tiny_spec()], [tiny_spec(strategy="max-freq")]]
    planner = Planner()
    with PlanningDaemon(planner=planner, port=0) as daemon:
        barrier = threading.Barrier(len(spec_sets))
        out = [None] * len(spec_sets)

        def worker(i):
            client = ServiceClient(daemon.url, tenant=f"t{i}")
            barrier.wait()
            out[i] = client.submit_sweep(spec_sets[i], prefix="sw")

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(spec_sets))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        work = dict(planner.stats)

    # Both tenants' sweeps share one stack: one profile, one frontier.
    assert work["profile"] == 1
    reference = Planner()
    for i, rows in enumerate(out):
        assert rows is not None and sorted(rows) == ["sw-0"]
        assert reports_equal(rows["sw-0"], reference.plan(spec_sets[i][0]))


# ------------------------------------------------- kept-alive connections
def _connections(daemon) -> float:
    return daemon.metrics.counter_value("repro_service_connections_total")


def _requests(daemon, method: str) -> float:
    return daemon.metrics.counter_value("repro_service_requests_total",
                                        {"method": method})


def test_sequential_calls_share_one_connection(daemon):
    with ServiceClient(daemon.url, tenant="ci") as client:
        for _ in range(20):
            assert client.ping()["ok"]
        text = client.metrics_text()
    assert "\nrepro_service_connections_total 1\n" in text
    assert 'repro_service_requests_total{method="ping"} 20' in text


def test_threads_sharing_a_client_open_one_connection_each(daemon):
    spec = tiny_spec()
    expected = Planner().plan(spec)
    barrier = threading.Barrier(2)
    replies = [None, None]
    with ServiceClient(daemon.url, tenant="ci") as client:

        def worker(i):
            barrier.wait()
            replies[i] = [client.plan(spec) for _ in range(3)]

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
    assert all(rows is not None for rows in replies)
    assert all(reports_equal(report, expected)
               for rows in replies for report in rows)
    assert _connections(daemon) == 2


def test_idle_connection_dropped_by_the_daemon_is_reopened(monkeypatch):
    monkeypatch.setattr(daemon_module, "READ_TIMEOUT_S", 0.5)
    with PlanningDaemon(planner=Planner(), port=0) as daemon:
        with ServiceClient(daemon.url, tenant="ci") as client:
            assert client.ping()["ok"]
            deadline = time.monotonic() + 10.0
            while daemon._httpd._open and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not daemon._httpd._open  # the daemon hung up
            before = _requests(daemon, "ping")
            assert client.ping()["ok"]
            assert _requests(daemon, "ping") == before + 1  # ran once
            assert _connections(daemon) == 2


def test_restarted_daemon_gives_a_reply_or_a_typed_error():
    first = PlanningDaemon(planner=Planner(), port=0).start()
    port = first.address[1]
    with ServiceClient(first.url, tenant="ci") as client:
        assert client.ping()["ok"]
        first.close()
        with pytest.raises(ServiceUnavailable):
            client.ping()  # nothing listens on the port
        for _ in range(2):
            with PlanningDaemon(planner=Planner(), port=port) as second:
                assert client.ping() == {"ok": True, "tenant": "ci",
                                         "version": repro.__version__}
            # Closed, the daemon ended the kept-alive connection: the
            # next round finds it stale and reconnects.


def test_close_ends_idle_kept_alive_connections():
    daemon = PlanningDaemon(planner=Planner(), port=0).start()
    with ServiceClient(daemon.url) as client:
        assert client.ping()["ok"]
        daemon.close()
        deadline = time.monotonic() + 5.0  # well inside READ_TIMEOUT_S
        while daemon._httpd._open and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not daemon._httpd._open


def test_closed_daemon_answers_no_pipelined_request():
    daemon = PlanningDaemon(planner=Planner(), port=0).start()
    entered, release = threading.Event(), threading.Event()

    def slow_ping(tenant, params):
        entered.set()
        release.wait(10.0)
        return {"ok": True}

    daemon._rpc_ping = slow_ping

    def request(request_id: str) -> bytes:
        body = json.dumps({"id": request_id, "method": "ping"}).encode()
        return (f"POST /rpc HTTP/1.1\r\nHost: daemon\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode() + body

    with socket.create_connection(daemon.address, timeout=10.0) as sock:
        sock.sendall(request("first") + request("second"))
        assert entered.wait(10.0)
        daemon.close()  # while "first" is in flight
        release.set()
        replies = b""
        chunk = sock.recv(65536)
        while chunk:
            replies += chunk
            chunk = sock.recv(65536)
    # The in-flight request is answered; the one behind it is not.
    assert replies.count(b"HTTP/1.1 200") == 1
    assert b'"first"' in replies and b'"second"' not in replies


class _AnswerOnce(BaseHTTPRequestHandler):
    """Answers the first RPC; holds every later one without replying."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_POST(self):  # noqa: N802
        envelope = json.loads(
            self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen.append(envelope["id"])
        if len(self.server.seen) > 1:
            self.server.release.wait(10.0)
            self.close_connection = True
            return
        payload = json.dumps({"id": envelope["id"],
                              "result": {"ok": True}}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def test_timeout_on_a_reused_connection_is_not_resent():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _AnswerOnce)
    server.daemon_threads = True
    server.seen, server.release = [], threading.Event()
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        with ServiceClient(url, timeout_s=0.5) as client:
            assert client.ping() == {"ok": True}
            with pytest.raises(ServiceUnavailable):
                client.ping()
        assert len(server.seen) == 2
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
