"""Replica fleet: store-level single-flight, failover client, chaos.

Three layers, increasingly real:

* ``TestStoreFlight`` drives the flight protocol in-process (two
  :class:`StoreFlight` instances over one directory stand in for two
  daemons) through every transition: lock, warm, follower, takeover of
  a dead holder's claim (also with a real SIGKILLed child process),
  long work, leader failure, wait timeout.
* ``TestReplicaClientFailover`` points a :class:`ReplicaClient` at
  dead ports, a canned-500 server and a fault-injecting TCP proxy
  (``tests/chaos.py``) to pin down exactly which failures rotate and
  which re-raise.
* ``TestMultiProcessSingleFlight`` is the issue's acceptance scenario
  with real ``python -m repro serve`` subprocesses: a 16-request cold
  herd over 4 unique specs against 2 daemons does exactly 4 expensive
  materializations fleet-wide (asserted from the summed ``/metrics``
  planner-work counters), and a leader SIGKILLed mid-materialization is
  taken over by the surviving replica with a bit-identical report.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time

import pytest

from chaos import (
    CannedHTTPServer,
    ChaosProxy,
    free_port,
    kill_leader_on_claim,
    make_stale_claim,
    slow_materialize_env,
    wait_for,
)
from repro.api import PlanSpec, Planner
from repro.exceptions import ServiceError, ServiceUnavailable
from repro.service import (
    PlanningDaemon,
    ReplicaClient,
    ReplicaSet,
    ServiceClient,
    StoreFlight,
    reports_equal,
    sticky_index,
)
from repro.service import replica
from repro.service.replica import FOLLOWER, LEADER, TAKEOVER, WARM

TINY = dict(gpu="a100", stages=2, microbatches=2, freq_stride=24)


def tiny_spec(model="gpt3-xl", **overrides):
    merged = dict(TINY)
    merged.update(overrides)
    return PlanSpec(model, **merged)


def tenant_on(replica: int, count: int = 2, prefix: str = "team") -> str:
    """A tenant name whose sticky route lands on ``replica``."""
    for i in range(10_000):
        name = f"{prefix}-{i}"
        if sticky_index(name, count) == replica:
            return name
    raise AssertionError("no tenant found -- sticky hash broken")


_WORK_RE = re.compile(
    r'^repro_planner_work_total\{stage="(\w+)"\} (\d+)$', re.MULTILINE)
_STORE_ROLE_RE = re.compile(
    r'^repro_service_store_flights_total\{outcome="(\w+)"\} (\d+)$',
    re.MULTILINE)


def fleet_work(metrics_by_url, stage: str) -> int:
    """Sum one planner-work stage across every replica's ``/metrics``."""
    total = 0
    for text in metrics_by_url.values():
        for found_stage, count in _WORK_RE.findall(text):
            if found_stage == stage:
                total += int(count)
    return total


def fleet_store_roles(metrics_by_url) -> dict:
    roles = {}
    for text in metrics_by_url.values():
        for role, count in _STORE_ROLE_RE.findall(text):
            roles[role] = roles.get(role, 0) + int(count)
    return roles


# ------------------------------------------------------------ flight protocol
class TestStoreFlight:
    def expensive(self, root, log, tag="artifact"):
        """An idempotent fn with the planner's cost profile: expensive
        when the shared artifact is missing, a cheap read once the
        leader has persisted it."""
        path = os.path.join(str(root), tag)

        def fn():
            if not os.path.exists(path):
                log.append("expensive")
                time.sleep(0.05)  # hold the lock long enough to race
                with open(path, "w") as fp:
                    fp.write("artifact-bytes")
            with open(path) as fp:
                return fp.read()
        return fn

    def test_exactly_once_across_instances(self, tmp_path):
        flights = [StoreFlight(tmp_path, owner=f"proc-{i}")
                   for i in range(2)]
        log, results = [], []
        barrier = threading.Barrier(6)

        def worker(i):
            barrier.wait()
            results.append(flights[i % 2].do(
                "k", self.expensive(tmp_path, log)))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert log == ["expensive"]  # one cold run fleet-wide
        roles = sorted(role for _, role in results)
        assert roles.count(LEADER) == 1
        assert set(roles) <= {LEADER, FOLLOWER, WARM}
        assert all(value == "artifact-bytes" for value, _ in results)

    def test_warm_fast_path_after_landing(self, tmp_path):
        flight = StoreFlight(tmp_path)
        log = []
        fn = self.expensive(tmp_path, log)
        assert flight.do("k", fn)[1] == LEADER
        value, role = flight.do("k", fn)
        assert (value, role) == ("artifact-bytes", WARM)
        assert log == ["expensive"]
        assert flight.claim_of("k") is None  # no claim was even tried

    def test_stale_lease_from_crashed_process_is_seized(self, tmp_path):
        make_stale_claim(str(tmp_path), "k")
        flight = StoreFlight(tmp_path)
        log = []
        value, role = flight.do("k", self.expensive(tmp_path, log))
        assert role == TAKEOVER
        assert value == "artifact-bytes"
        assert flight.stats["takeovers"] == 1
        assert log == ["expensive"]

    def test_long_work_is_never_taken_over(self, tmp_path):
        # The leader works for 1 s; the waiter must wait it out as a
        # follower, however long the work takes, not duplicate it.
        leader = StoreFlight(tmp_path, owner="leader")
        waiter = StoreFlight(tmp_path, owner="waiter")
        started = threading.Event()
        runs = []

        def slow():
            runs.append(1)
            started.set()
            time.sleep(1.0)
            return "done"

        out = {}

        def lead():
            out["leader"] = leader.do("k", slow)

        t = threading.Thread(target=lead)
        t.start()
        assert started.wait(10.0)
        value, role = waiter.do("k", slow)
        t.join(10.0)
        assert role == FOLLOWER  # waited, did not take over
        assert waiter.stats["takeovers"] == 0
        assert len(runs) == 2  # follower re-ran fn warm (idempotent)
        assert out["leader"][1] == LEADER

    def test_sigkilled_holder_is_taken_over_at_once(self, tmp_path):
        # A child process holds the flight inside a 60 s fn and is
        # SIGKILLed; the kernel drops its lock, so the parent takes
        # over immediately instead of waiting out any timeout.
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c",
             "import sys, time\n"
             "from repro.service import StoreFlight\n"
             "StoreFlight(sys.argv[1], owner='child').do("
             "'k', lambda: time.sleep(60))\n",
             str(tmp_path)], env=env)
        try:
            flight = StoreFlight(tmp_path, owner="parent")
            wait_for(lambda: (flight.claim_of("k") or {}).get("pid")
                     == child.pid, message="the child's claim")
        finally:
            child.kill()
            child.wait()
        started = time.monotonic()
        value, role = flight.do("k", lambda: "recovered")
        elapsed = time.monotonic() - started
        assert (value, role) == ("recovered", TAKEOVER)
        assert elapsed < 1.0, f"takeover took {elapsed:.2f}s"

    def test_leader_failure_releases_lease_and_propagates(self, tmp_path):
        flight = StoreFlight(tmp_path)

        def explode():
            raise ServiceError("leader failed")

        with pytest.raises(ServiceError, match="leader failed"):
            flight.do("k", explode)
        assert flight.claim_of("k") is None  # claim dropped, not stuck
        value, role = flight.do("k", lambda: "recovered")
        assert (value, role) == ("recovered", LEADER)

    def test_wait_timeout_reports_the_holder(self, tmp_path, monkeypatch):
        hog = StoreFlight(tmp_path, owner="hog")
        release = threading.Event()
        holder = threading.Thread(
            target=lambda: hog.do("k", lambda: release.wait(10.0)))
        holder.start()
        try:
            wait_for(lambda: hog.claim_of("k") is not None,
                     message="the hog's claim")
            monkeypatch.setattr(replica, "WAIT_TIMEOUT_S", 0.2)
            flight = StoreFlight(tmp_path)
            with pytest.raises(ServiceError, match="hog"):
                flight.do("k", lambda: "never")
        finally:
            release.set()
            holder.join(10.0)

    def test_unsafe_keys_are_hashed_to_filenames(self, tmp_path):
        flight = StoreFlight(tmp_path)
        value, role = flight.do("spec/../weird key é", lambda: 42)
        assert (value, role) == (42, LEADER)
        names = os.listdir(flight.flights_dir)
        assert all(re.fullmatch(r"[0-9a-f]{64}\.(done|lock)", n)
                   for n in names)


# ------------------------------------------------------------- sticky routing
class TestStickyRouting:
    def test_deterministic_and_in_range(self):
        for count in (1, 2, 3, 7):
            for tenant in ("team-a", "team-b", "équipe-α"):
                index = sticky_index(tenant, count)
                assert 0 <= index < count
                assert index == sticky_index(tenant, count)

    def test_spreads_tenants(self):
        hits = {sticky_index(f"tenant-{i}", 2) for i in range(32)}
        assert hits == {0, 1}

    def test_degenerate_inputs_pin_to_zero(self):
        assert sticky_index(None, 4) == 0
        assert sticky_index("", 4) == 0
        assert sticky_index("anyone", 1) == 0


# ----------------------------------------------------------- failover client
@pytest.fixture()
def store_daemon(tmp_path):
    """A live in-process daemon over a persistent store."""
    with PlanningDaemon(planner=Planner(cache=tmp_path / "store"),
                        port=0) as daemon:
        yield daemon


class TestReplicaClientFailover:
    def test_failover_past_a_dead_replica(self, store_daemon):
        dead = f"http://127.0.0.1:{free_port()}"
        # Sticky-route onto the dead replica so the failover is
        # exercised deterministically, not by hash luck.
        client = ReplicaClient([dead, store_daemon.url],
                               tenant=tenant_on(0), cooldown_s=0.2)
        report = client.plan(tiny_spec())
        assert reports_equal(report, Planner().plan(tiny_spec()))
        assert client.stats["failovers"] >= 1
        assert client.ejected() == [0]

    def test_all_replicas_dead_raises_typed_error(self):
        dead = [f"http://127.0.0.1:{free_port()}" for _ in range(2)]
        client = ReplicaClient(dead, max_attempts=3, cooldown_s=0.05)
        with pytest.raises(ServiceUnavailable, match="replicas unavailable"):
            client.ping()

    def test_application_errors_do_not_rotate(self, store_daemon):
        # Both slots point at the same live daemon: if app errors
        # rotated, the failover counter would tick.
        client = ReplicaClient([store_daemon.url, store_daemon.url],
                               tenant="team-a")
        with pytest.raises(ServiceError, match="unknown method"):
            client.call("frobnicate")
        assert client.stats["failovers"] == 0
        assert client.ejected() == []

    def test_http_500_rotates_to_healthy_replica(self, store_daemon):
        with CannedHTTPServer(status=500) as broken:
            client = ReplicaClient([broken.url, store_daemon.url],
                                   cooldown_s=0.2)
            assert client.ping()["ok"]
            assert client.stats["failovers"] >= 1
            assert 0 in client.ejected()

    def test_mid_response_drop_rotates(self, store_daemon):
        with ChaosProxy(store_daemon.url, mode="drop",
                        drop_after_bytes=20) as proxy:
            client = ReplicaClient([proxy.url, store_daemon.url],
                                   cooldown_s=0.2)
            assert client.ping()["ok"]
            assert client.stats["failovers"] >= 1

    def test_ejection_then_probe_readmission(self, store_daemon):
        proxy = ChaosProxy(store_daemon.url, mode="refuse")
        try:
            client = ReplicaClient([proxy.url], cooldown_s=0.2,
                                   probe_timeout_s=2.0, max_attempts=50)
            with pytest.raises(ServiceUnavailable):
                client.ping()
            assert client.ejected() == [0]
            proxy.mode = "pass"  # the replica "restarts"
            time.sleep(0.25)  # cooldown elapses; probe must readmit
            assert client.ping()["ok"]
            assert client.stats["readmissions"] == 1
            assert client.ejected() == []
        finally:
            proxy.close()

    def test_retries_replay_not_reexecute(self, store_daemon):
        # One idempotency id across attempts: a register_spec retried
        # against a daemon that already ran it replays instead of
        # tripping the duplicate-job error.
        with ChaosProxy(store_daemon.url, mode="drop",
                        drop_after_bytes=20) as proxy:
            # No tenant -> sticky index 0 -> the first attempt goes
            # through the response-dropping proxy.
            client = ReplicaClient([proxy.url, store_daemon.url],
                                   cooldown_s=0.2)
            spec = tiny_spec()
            # The proxy eats the first response *after* the daemon
            # committed the registration; the retry must replay.
            result = client.call("register_spec",
                                 {"job_id": "once", "spec": spec.to_dict()})
            assert result["job_id"] == "once"
            assert client.jobs() == ["once"]

    def test_url_list_forms(self, store_daemon):
        pair = ReplicaClient(f" {store_daemon.url} , {store_daemon.url}")
        assert len(pair.replicas) == 2
        with pytest.raises(ServiceError, match="at least one"):
            ReplicaClient([])

    def test_fleet_metrics_skips_dead_replicas(self, store_daemon):
        dead = f"http://127.0.0.1:{free_port()}"
        client = ReplicaClient([dead, store_daemon.url])
        client.ping()
        texts = client.fleet_metrics()
        assert list(texts) == [store_daemon.url]


# ------------------------------------------------- half-broken replicas
ENDPOINTS = {
    "call": lambda client: client.ping(),
    "health": lambda client: client.health(),
    "metrics_text": lambda client: client.metrics_text(),
}

#: Replies a broken daemon (or something else on its port) can send,
#: with the endpoints each is garbage to (``/metrics`` is plain text).
GARBAGE = {
    "not-http": (b"SSH-2.0-OpenSSH_9.6\r\n\r\n", tuple(ENDPOINTS)),
    "truncated": (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n"
                  b'{"ok": tr', tuple(ENDPOINTS)),
    "not-utf8": (b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\n"
                 b"\xff\xfe\xfd\xfc", tuple(ENDPOINTS)),
    "not-json": (b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nnot json!",
                 ("call", "health")),
}


class TestGarbageReplica:
    @pytest.mark.parametrize("garbage, endpoint", [
        (garbage, endpoint) for garbage, (_, endpoints) in GARBAGE.items()
        for endpoint in endpoints])
    def test_garbage_is_a_typed_error(self, garbage, endpoint):
        with CannedHTTPServer(raw=GARBAGE[garbage][0]) as broken:
            with ServiceClient(broken.url, timeout_s=5.0) as client:
                with pytest.raises(ServiceUnavailable):
                    ENDPOINTS[endpoint](client)

    @pytest.mark.parametrize("garbage", sorted(GARBAGE))
    def test_failover_skips_a_garbage_replica(self, store_daemon, garbage):
        with CannedHTTPServer(raw=GARBAGE[garbage][0]) as broken:
            # No tenant -> sticky index 0 -> the garbage replica first.
            with ReplicaClient([broken.url, store_daemon.url],
                               cooldown_s=60.0) as client:
                assert client.health()["ok"] is True
                assert client.ejected() == [0]
            with ReplicaClient([broken.url, store_daemon.url],
                               cooldown_s=60.0) as client:
                report = client.plan(tiny_spec())
                assert client.ejected() == [0]
        assert reports_equal(report, Planner().plan(tiny_spec()))


# ----------------------------------------- the multi-process acceptance tests
class TestMultiProcessSingleFlight:
    """Real daemon subprocesses sharing one store (the issue headline)."""

    def test_cold_herd_does_exactly_u_materializations(self, tmp_path):
        specs = [tiny_spec(), tiny_spec(model="bert-large"),
                 tiny_spec(model="t5-large"),
                 tiny_spec(stages=4, microbatches=4)]
        clients, unique = 16, len(specs)
        tenants = [tenant_on(0), tenant_on(1)]  # both replicas see load
        with ReplicaSet(2, tmp_path / "store",
                        # herd size == client threads; the daemon
                        # default (8) would queue half the herd
                        extra_args=["--max-inflight", str(clients)],
                        ) as fleet:
            barrier = threading.Barrier(clients)
            results = [None] * clients
            errors = []

            def worker(i):
                client = fleet.client(tenant=tenants[i % 2])
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
                t.join(300.0)
            assert not errors
            metrics = fleet.client().fleet_metrics()
            assert len(metrics) == 2  # both replicas alive and scraped

        # The acceptance: K=16 cold requests over U=4 specs across 2
        # processes -> exactly U expensive profile runs fleet-wide.
        assert fleet_work(metrics, "profile") == unique
        roles = fleet_store_roles(metrics)
        assert roles.get("leader", 0) + roles.get("takeover", 0) == unique
        assert roles.get("takeover", 0) == 0  # nothing crashed

        reference = Planner()
        for i, report in enumerate(results):
            assert report is not None
            assert reports_equal(report, reference.plan(specs[i % unique]))

    def test_leader_killed_mid_flight_follower_takes_over(self, tmp_path):
        spec = tiny_spec()
        tenant = tenant_on(0)  # sticky-routes to the doomed replica 0
        store = tmp_path / "store"
        with ReplicaSet(
            2, store,
            # Replica 0 (the future leader) stalls 30s inside its
            # expensive materialization -- plenty of window to die in.
            per_daemon_env={0: slow_materialize_env(30.0)},
        ) as fleet:
            client = fleet.client(tenant=tenant, cooldown_s=0.2)
            out = {}

            def work():
                out["report"] = client.plan(spec)

            t = threading.Thread(target=work)
            t.start()
            victim, claim = kill_leader_on_claim(
                str(store), {fleet.daemons[0].pid: fleet.daemons[0]})
            assert victim is fleet.daemons[0]
            assert claim["pid"] == victim.pid
            t.join(240.0)
            assert "report" in out, "failover plan never completed"
            assert not fleet.daemons[0].alive
            assert fleet.daemons[1].alive
            survivor = ServiceClient(fleet.daemons[1].url)
            text = survivor.metrics_text()

        # The survivor took over the dead leader's flight and finished the
        # work itself -- and its answer is bit-identical to in-process
        # planning (crash-consistency: partial leader state is unseen).
        assert ('repro_service_store_flights_total{outcome="takeover"} 1'
                in text)
        assert reports_equal(out["report"], Planner().plan(spec))
        assert client.stats["failovers"] >= 1

    def test_stale_lease_never_blocks_a_fresh_fleet(self, tmp_path):
        # A crashed fleet leaves a claim behind; a brand-new daemon on
        # the same store must seize it rather than wait forever.
        store = tmp_path / "store"
        store.mkdir()
        from repro.service.coalesce import stack_flight_key
        key = stack_flight_key(tiny_spec())
        make_stale_claim(str(store), key)
        with ReplicaSet(1, store) as fleet:
            report = fleet.client(tenant="team-a").plan(tiny_spec())
            text = ServiceClient(fleet.daemons[0].url).metrics_text()
        assert ('repro_service_store_flights_total{outcome="takeover"} 1'
                in text)
        assert reports_equal(report, Planner().plan(tiny_spec()))


class _ScriptedTransport(ServiceClient):
    """A ServiceClient whose transport is a scripted list of outcomes."""

    def __init__(self, outcomes):
        super().__init__("http://127.0.0.1:1", timeout_s=1.0)
        self.outcomes = list(outcomes)
        self.seen = []  # (method, request_id) per attempt

    def call(self, method, params=None, request_id=None):
        self.seen.append((method, request_id))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestCallWithRetry:
    def test_retries_transport_errors_with_one_request_id(self):
        client = _ScriptedTransport([
            ServiceUnavailable("down", retry_after_s=0.5),
            ServiceUnavailable("still down"),
            {"ok": True},
        ])
        sleeps = []
        result = client.call_with_retry("ping", sleep=sleeps.append)
        assert result == {"ok": True}
        assert len(client.seen) == 3
        ids = {request_id for _, request_id in client.seen}
        assert len(ids) == 1 and None not in ids  # one idempotency id
        # The first sleep honours the server's retry_after_s floor.
        assert len(sleeps) == 2
        assert sleeps[0] >= 0.5

    def test_domain_errors_never_retry(self):
        client = _ScriptedTransport([ServiceError("bad spec")])
        with pytest.raises(ServiceError, match="bad spec"):
            client.call_with_retry("plan", sleep=lambda s: pytest.fail(
                "slept on a non-retryable error"))
        assert len(client.seen) == 1

    def test_gives_up_after_max_attempts(self):
        client = _ScriptedTransport(
            [ServiceUnavailable(f"down {i}") for i in range(5)])
        with pytest.raises(ServiceUnavailable, match="down 2"):
            client.call_with_retry("ping", max_attempts=3,
                                   sleep=lambda s: None)
        assert len(client.seen) == 3

    def test_deadline_stops_before_the_next_sleep(self):
        client = _ScriptedTransport(
            [ServiceUnavailable("down", retry_after_s=10.0)] * 4)
        fake_now = [0.0]

        def clock():
            return fake_now[0]

        def sleep(s):
            fake_now[0] += s

        with pytest.raises(ServiceUnavailable):
            client.call_with_retry("ping", deadline_s=5.0, sleep=sleep,
                                   clock=clock)
        # The 10s hint would cross the 5s deadline: exactly one attempt.
        assert len(client.seen) == 1

    def test_backoff_is_jittered_and_capped(self):
        client = _ScriptedTransport(
            [ServiceUnavailable("down")] * 4)
        sleeps = []
        rng = __import__("random").Random(7)
        with pytest.raises(ServiceUnavailable):
            client.call_with_retry("ping", max_attempts=4,
                                   base_backoff_s=0.1, max_backoff_s=0.25,
                                   rng=rng, sleep=sleeps.append)
        assert len(sleeps) == 3
        assert all(0.1 <= s <= 0.25 for s in sleeps)

    def test_rejects_zero_attempts(self):
        client = _ScriptedTransport([])
        with pytest.raises(ServiceError, match="max_attempts"):
            client.call_with_retry("ping", max_attempts=0)

    def test_composes_with_replica_failover(self):
        """Each retry attempt runs the subclass's full rotation."""
        rotations = []

        class Fleet(ReplicaClient):
            def call(self, method, params=None, request_id=None):
                rotations.append(request_id)
                if len(rotations) < 2:
                    raise ServiceUnavailable("whole fleet restarting")
                return {"ok": True}

        fleet = Fleet(["http://127.0.0.1:1", "http://127.0.0.1:2"])
        result = fleet.call_with_retry("ping", sleep=lambda s: None)
        assert result == {"ok": True}
        assert len(rotations) == 2
        assert len(set(rotations)) == 1  # one idempotency id end to end
