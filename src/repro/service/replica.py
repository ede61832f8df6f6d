"""``repro.service.replica``: a fleet of daemons over one plan store.

One :class:`~repro.service.daemon.PlanningDaemon` coalesces concurrent
duplicate work with an in-memory
:class:`~repro.service.coalesce.SingleFlight`; N daemon *processes*
sharing one :class:`~repro.core.store.PlanStore` need the same
guarantee across process boundaries, where no shared condition
variable exists.  This module supplies the three pieces:

* :class:`StoreFlight` -- cross-process single-flight built on the
  store directory itself.  The process that does a key's work holds an
  exclusive ``flock`` on ``<root>/flights/<key>.lock`` while it works,
  and publishes a ``.done`` marker when the artifacts are persisted.
  The kernel drops the lock the moment its holder dies, so a crashed
  leader's work is taken over at once, without waiting out a timeout.
* :class:`ReplicaClient` -- a drop-in :class:`ServiceClient` over a
  *list* of daemons: sticky tenant routing by stable hash, rotation to
  the next replica on :class:`~repro.exceptions.ServiceUnavailable`
  (connection errors and HTTP 5xx -- retries reuse one idempotency id,
  so a replayed request never re-executes), and health-probe-driven
  ejection/readmission of dead replicas.
* :class:`DaemonProcess` / :class:`ReplicaSet` -- subprocess launchers
  behind ``repro serve --replicas N``: each replica is a real
  ``python -m repro serve`` process, so tests and benchmarks exercise
  true multi-process coordination, not threads.

Exactly-once here means exactly-once *expensive* work: every process
still materializes its own in-memory planner state, but a follower
warms from the store's persisted artifacts (disk hits bump no
planner-work counter), so summing ``repro_planner_work_total`` across
the fleet's ``/metrics`` counts the fleet-wide profile/crawl runs.
Should two processes ever both do a key's work (a daemon from before
the ``flock`` protocol sharing the store), the cost is duplicate work,
never corruption: the store is content-addressed and writes are
atomic, so both produce bit-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

try:  # the same advisory locks ``core.store.store_lock`` uses
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: no cross-process guard
    fcntl = None

from ..exceptions import ServiceError, ServiceUnavailable
from .client import RETRY_HINT_S, ServiceClient, _fresh_id

#: Store-flight roles returned by :meth:`StoreFlight.do`.
LEADER = "leader"          #: took the key's lock first and did the work
TAKEOVER = "takeover"      #: finished the work of a holder that died
FOLLOWER = "follower"      #: waited for another process's leader
WARM = "warm"              #: the done marker already existed

#: Directory (under the store root) holding locks, claims and markers.
FLIGHTS_DIR = "flights"

#: Seconds between attempts on a flight lock another process holds.
LOCK_POLL_S = 0.02

#: Seconds a waiter gives one flight before raising :class:`ServiceError`.
WAIT_TIMEOUT_S = 600.0

#: Chaos hook, read by daemons at startup so a test harness can slow
#: materialization (to widen race windows deterministically).
MATERIALIZE_DELAY_ENV = "REPRO_CHAOS_MATERIALIZE_DELAY_S"

_SAFE_KEY = re.compile(r"^[A-Za-z0-9._-]{1,128}$")

_STAT_OF_ROLE = {LEADER: "leaders", TAKEOVER: "takeovers",
                 FOLLOWER: "followers", WARM: "warm"}


def _flight_name(key: str) -> str:
    """Filesystem-safe name for a flight key (hex digests pass through)."""
    key = str(key)
    if _SAFE_KEY.match(key):
        return key
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


class StoreFlight:
    """Cross-process single-flight keyed on a shared store directory.

    ``do(key, fn)`` returns ``(fn(), role)``; among all processes (and
    threads) sharing ``root``, exactly one runs ``fn`` while holding
    the key's lock -- everyone else waits for the done marker and
    then runs ``fn`` against the warmed store (idempotent by
    contract: ``fn`` must be cheap once the leader's artifacts are
    persisted, which is exactly how the planner's content-addressed
    stages behave).

    Protocol (all paths under ``<root>/flights/``):

    1. **lock**: take an exclusive ``flock`` on ``<key>.lock`` through a
       fresh ``os.open``.  ``flock`` locks belong to the open file, so
       two calls exclude each other even inside one process (``lockf``
       record locks would not), and the kernel releases the lock when
       its holder exits, however it exits.  While the lock is busy the
       caller polls every :data:`LOCK_POLL_S` for the done marker, for
       at most :data:`WAIT_TIMEOUT_S`.
    2. **decide**: with the lock held, a done marker means another
       process finished (:data:`FOLLOWER`); a leftover ``<key>.claim``
       means its writer died mid-work (:data:`TAKEOVER`); otherwise
       this call is the :data:`LEADER`.
    3. **work**: the holder writes ``<key>.claim`` (``{owner, pid}``:
       the chaos harness kills leaders by that pid), runs ``fn``,
       writes ``<key>.done`` atomically, *then* removes the claim and
       unlocks.  If ``fn`` raises, the claim is removed and the error
       propagates to this caller only; the next waiter leads.

    Without ``fcntl`` there is no lock and every call that finds no
    done marker leads, as :func:`~repro.core.store.store_lock` degrades.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        owner: Optional[str] = None,
    ) -> None:
        self.root = os.fspath(root)
        self.flights_dir = os.path.join(self.root, FLIGHTS_DIR)
        os.makedirs(self.flights_dir, exist_ok=True)
        self.owner = owner or (
            f"pid{os.getpid()}-{time.monotonic_ns():x}"
        )
        self._stats_lock = threading.Lock()
        self.stats: Dict[str, int] = dict.fromkeys(_STAT_OF_ROLE.values(), 0)

    # -- paths ---------------------------------------------------------------
    def _path(self, key: str, suffix: str) -> str:
        return os.path.join(self.flights_dir, _flight_name(key) + suffix)

    def _claim_path(self, key: str) -> str:
        return self._path(key, ".claim")

    def _done_path(self, key: str) -> str:
        return self._path(key, ".done")

    # -- observability (and the chaos harness's hooks) -----------------------
    def claim_of(self, key: str) -> Optional[dict]:
        """The live claim payload for ``key`` (``None`` if unclaimed)."""
        try:
            with open(self._claim_path(key), encoding="utf-8") as fp:
                return json.load(fp)
        except (OSError, ValueError):
            return None  # vanished or mid-write: treated as unclaimed

    def claims(self) -> Dict[str, dict]:
        """All live claims in this store, by flight name."""
        found = {}
        try:
            names = os.listdir(self.flights_dir)
        except OSError:
            return found
        for name in names:
            if not name.endswith(".claim"):
                continue
            try:
                with open(os.path.join(self.flights_dir, name),
                          encoding="utf-8") as fp:
                    found[name[:-6]] = json.load(fp)
            except (OSError, ValueError):
                continue
        return found

    def is_done(self, key: str) -> bool:
        return os.path.exists(self._done_path(key))

    # -- protocol steps ------------------------------------------------------
    @contextmanager
    def _locked(self, key: str):
        """Yield True holding ``key``'s lock, False once it is done.

        Raises :class:`ServiceError` naming the holder after
        :data:`WAIT_TIMEOUT_S`.  Closing the descriptor releases the lock.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX
            yield True
            return
        fd = os.open(self._path(key, ".lock"), os.O_CREAT | os.O_RDWR, 0o644)
        try:
            deadline = time.monotonic() + WAIT_TIMEOUT_S
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    pass
                if self.is_done(key):
                    yield False
                    return
                if time.monotonic() > deadline:
                    raise ServiceError(
                        f"store flight {key!r} still held by "
                        f"{self.claim_of(key)} after "
                        f"{WAIT_TIMEOUT_S:g}s")
                time.sleep(LOCK_POLL_S)
            yield True
        finally:
            os.close(fd)

    def _lead(self, key: str, fn: Callable[[], object]):
        claim = self._claim_path(key)
        with open(claim, "w", encoding="utf-8") as fp:
            json.dump({"kind": "store_flight_claim", "owner": self.owner,
                       "pid": os.getpid(), "key": str(key)}, fp)
        try:
            value = fn()
            done = self._done_path(key)
            tmp = done + f".tmp-{self.owner}"
            with open(tmp, "w", encoding="utf-8") as fp:
                json.dump({"kind": "store_flight_done", "owner": self.owner,
                           "key": str(key)}, fp)
            os.replace(tmp, done)
        finally:
            try:
                os.unlink(claim)
            except OSError:
                pass
        return value

    def _finish(self, value, role: str):
        with self._stats_lock:
            self.stats[_STAT_OF_ROLE[role]] += 1
        return value, role

    # -- the flight ----------------------------------------------------------
    def do(self, key, fn: Callable[[], object]):
        """Run ``fn`` with fleet-wide single-flight; ``(value, role)``.

        ``fn`` runs in *every* role -- the single-flight guarantee is
        that only the leader (or a takeover) runs it with the store
        cold; by the time a follower or warm caller runs it, the
        leader's artifacts are persisted and ``fn`` is a read.
        """
        if self.is_done(key):
            return self._finish(fn(), WARM)
        with self._locked(key) as held:
            if held and not self.is_done(key):
                role = (TAKEOVER if os.path.exists(self._claim_path(key))
                        else LEADER)
                return self._finish(self._lead(key, fn), role)
        return self._finish(fn(), FOLLOWER)


def sticky_index(tenant: Optional[str], count: int) -> int:
    """Deterministic replica index for a tenant (stable across runs).

    Uses SHA-256, not :func:`hash` -- the builtin is salted per
    process, which would break stickiness between a client restart and
    its earlier self.
    """
    if not tenant or count <= 1:
        return 0
    digest = hashlib.sha256(tenant.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % count


class ReplicaClient(ServiceClient):
    """A :class:`ServiceClient` over N replicas with retry/failover.

    ``urls`` is a list (or comma-separated string) of daemon origins.
    Each call starts at the tenant's sticky replica
    (:func:`sticky_index`) and rotates on
    :class:`~repro.exceptions.ServiceUnavailable` -- connection
    failures, mid-request daemon deaths and HTTP 5xx; *application*
    errors (quota, bad spec, unknown job) re-raise immediately, because
    another replica would answer the same way.  All attempts of one
    logical call share one idempotency id, so a request that landed
    before its daemon died is replayed, never re-executed, when the
    retry happens to reach the same daemon.

    The inherited :meth:`ServiceClient.call_with_retry` composes with
    this loop: each *retry attempt* runs the full failover rotation,
    sleeps by decorrelated jitter (floored at the fleet's
    ``retry_after_s`` hint) and reuses one idempotency id end to end
    -- use it when a whole-fleet restart must be ridden out rather
    than surfaced.

    A replica that fails is **ejected** for ``cooldown_s``; after the
    cooldown it must pass a short-timeout ``/healthz`` probe to be
    **readmitted**.  When every replica is ejected the client waits
    out the shortest remaining cooldown rather than failing fast --
    a restarting fleet looks exactly like that for a moment.
    """

    def __init__(
        self,
        urls: Union[str, Sequence[str]],
        tenant: Optional[str] = None,
        timeout_s: float = 600.0,
        max_attempts: Optional[int] = None,
        cooldown_s: float = 2.0,
        probe_timeout_s: float = 2.0,
    ) -> None:
        if isinstance(urls, str):
            urls = [u.strip() for u in urls.split(",") if u.strip()]
        urls = list(urls)
        if not urls:
            raise ServiceError("ReplicaClient needs at least one daemon url")
        super().__init__(urls[0], tenant=tenant, timeout_s=timeout_s)
        self.urls = urls
        self.replicas = [ServiceClient(url, tenant=tenant,
                                       timeout_s=timeout_s)
                         for url in urls]
        self._probes = [ServiceClient(url, timeout_s=probe_timeout_s)
                        for url in urls]
        self.cooldown_s = cooldown_s
        self.max_attempts = max_attempts or 2 * len(urls)
        self._sticky = sticky_index(tenant, len(urls))
        self._state_lock = threading.Lock()
        self._ejected_at: Dict[int, float] = {}
        self.stats: Dict[str, int] = {
            "failovers": 0, "ejections": 0, "readmissions": 0,
        }

    def close(self) -> None:
        """Close every replica's and probe's connections."""
        for client in self.replicas + self._probes:
            client.close()
        super().close()

    # -- replica health bookkeeping ------------------------------------------
    def _eject(self, index: int) -> None:
        with self._state_lock:
            if index not in self._ejected_at:
                self.stats["ejections"] += 1
            self._ejected_at[index] = time.monotonic()

    def _mark_healthy(self, index: int) -> None:
        with self._state_lock:
            if self._ejected_at.pop(index, None) is not None:
                self.stats["readmissions"] += 1

    def _usable(self, index: int) -> bool:
        """Not ejected, or past cooldown *and* answering its probe."""
        with self._state_lock:
            ejected_at = self._ejected_at.get(index)
        if ejected_at is None:
            return True
        if time.monotonic() - ejected_at < self.cooldown_s:
            return False
        try:
            self._probes[index].health()
        except ServiceError:
            self._eject(index)  # refresh the cooldown window
            return False
        self._mark_healthy(index)
        return True

    def ejected(self) -> List[int]:
        """Indices currently sitting out a cooldown (observability)."""
        with self._state_lock:
            return sorted(self._ejected_at)

    # -- the failover loop ---------------------------------------------------
    def _rotation(self) -> List[int]:
        n = len(self.replicas)
        return [(self._sticky + i) % n for i in range(n)]

    def call(self, method: str, params: Optional[dict] = None,
             request_id: Optional[str] = None):
        rid = request_id if request_id is not None else _fresh_id()
        attempts = 0
        last_error: Optional[ServiceUnavailable] = None
        while attempts < self.max_attempts:
            tried_one = False
            for index in self._rotation():
                if attempts >= self.max_attempts:
                    break
                if not self._usable(index):
                    continue
                tried_one = True
                attempts += 1
                try:
                    result = self.replicas[index].call(
                        method, params, request_id=rid)
                except ServiceUnavailable as exc:
                    last_error = exc
                    self.last_trace_id = self.replicas[index].last_trace_id
                    self._eject(index)
                    self.stats["failovers"] += 1
                    continue
                self.last_trace_id = self.replicas[index].last_trace_id
                self._mark_healthy(index)
                return result
            if not tried_one:
                # Whole fleet in cooldown: wait for the earliest window
                # to reopen instead of burning attempts on nothing.
                with self._state_lock:
                    if self._ejected_at:
                        earliest = min(self._ejected_at.values())
                        remaining = self.cooldown_s - (
                            time.monotonic() - earliest)
                    else:  # pragma: no cover - raced a readmission
                        remaining = 0.0
                time.sleep(max(remaining, 0.01))
                attempts += 1
        raise ServiceUnavailable(
            f"all {len(self.replicas)} replicas unavailable after "
            f"{attempts} attempts (last: {last_error})",
            retry_after_s=(last_error.retry_after_s if last_error
                           else RETRY_HINT_S),
        ) from last_error

    # -- GET endpoints: first healthy replica answers ------------------------
    def _first_up(self, fn_name: str):
        last_error: Optional[ServiceError] = None
        for index in self._rotation():
            if not self._usable(index):
                continue
            try:
                return getattr(self.replicas[index], fn_name)()
            except ServiceUnavailable as exc:
                last_error = exc
                self._eject(index)
        raise ServiceUnavailable(
            f"no replica answered {fn_name} (last: {last_error})",
            retry_after_s=self.cooldown_s,
        ) from last_error

    def metrics_text(self) -> str:
        return self._first_up("metrics_text")

    def health(self) -> dict:
        return self._first_up("health")

    def fleet_metrics(self) -> Dict[str, str]:
        """``/metrics`` text from every reachable replica, by url.

        The exactly-once acceptance sums ``repro_planner_work_total``
        across these (a dead replica is simply absent from the dict).
        """
        texts = {}
        for index, replica in enumerate(self.replicas):
            try:
                texts[self.urls[index]] = replica.metrics_text()
            except ServiceError:
                continue
        return texts


class DaemonProcess:
    """One ``python -m repro serve`` subprocess with a parsed url.

    Startup is synchronous: the constructor waits for the daemon's
    ``serving    : http://...`` banner (the first line it flushes), so
    a constructed ``DaemonProcess`` is immediately callable.  ``env``
    entries override the inherited environment -- the chaos harness
    injects :data:`MATERIALIZE_DELAY_ENV` this way.  ``kill()`` is
    SIGKILL (chaos: no cleanup runs, the kernel drops the daemon's
    flight locks); ``close()`` is the polite shutdown.
    """

    def __init__(
        self,
        cache_dir: Union[str, os.PathLike, None],
        host: str = "127.0.0.1",
        port: int = 0,
        extra_args: Iterable[str] = (),
        env: Optional[Dict[str, str]] = None,
        startup_timeout_s: float = 60.0,
    ) -> None:
        cmd = [sys.executable, "-m", "repro", "serve",
               "--host", host, "--port", str(port)]
        if cache_dir is not None:
            cmd += ["--cache-dir", os.fspath(cache_dir)]
        cmd += list(extra_args)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        full_env = dict(os.environ)
        existing = full_env.get("PYTHONPATH")
        full_env["PYTHONPATH"] = (src_root + os.pathsep + existing
                                  if existing else src_root)
        if env:
            full_env.update(env)
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=full_env,
            text=True, bufsize=1,
        )
        self.url = self._await_banner(startup_timeout_s)
        self._drain = threading.Thread(target=self._drain_stdout,
                                       daemon=True)
        self._drain.start()

    def _await_banner(self, timeout_s: float) -> str:
        lines: List[str] = []
        deadline = time.monotonic() + timeout_s
        while True:
            if time.monotonic() > deadline:
                self.proc.kill()
                raise ServiceError(
                    f"daemon did not print its serving banner within "
                    f"{timeout_s:g}s; output so far: {lines!r}")
            line = self.proc.stdout.readline()
            if not line:
                code = self.proc.wait()
                raise ServiceError(
                    f"daemon exited (code {code}) before serving; "
                    f"output: {lines!r}")
            lines.append(line.rstrip())
            if line.startswith("serving"):
                return line.split(":", 1)[1].strip().split()[0]

    def _drain_stdout(self) -> None:
        try:
            for _ in self.proc.stdout:
                pass
        except ValueError:  # pipe closed during interpreter teardown
            pass

    @property
    def pid(self) -> int:
        return self.proc.pid

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL -- the crash the store flight exists to survive."""
        self.proc.kill()
        self.proc.wait()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def __enter__(self) -> "DaemonProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ReplicaSet:
    """N daemon subprocesses over one shared plan store.

    The launcher behind ``repro serve --replicas N``; also the test
    fixture for every multi-process scenario.  ``per_daemon_env`` maps
    a replica index to extra environment entries, which is how the
    chaos harness slows exactly one future leader down.
    """

    def __init__(
        self,
        count: int,
        cache_dir: Union[str, os.PathLike],
        host: str = "127.0.0.1",
        ports: Optional[Sequence[int]] = None,
        extra_args: Iterable[str] = (),
        env: Optional[Dict[str, str]] = None,
        per_daemon_env: Optional[Dict[int, Dict[str, str]]] = None,
    ) -> None:
        if count < 1:
            raise ServiceError("a replica set needs at least one daemon")
        self.cache_dir = os.fspath(cache_dir)
        self.daemons: List[DaemonProcess] = []
        try:
            for index in range(count):
                merged = dict(env or {})
                merged.update((per_daemon_env or {}).get(index, {}))
                self.daemons.append(DaemonProcess(
                    self.cache_dir,
                    host=host,
                    port=ports[index] if ports else 0,
                    extra_args=extra_args,
                    env=merged or None,
                ))
        except BaseException:
            self.close()
            raise

    @property
    def urls(self) -> List[str]:
        return [daemon.url for daemon in self.daemons]

    def client(self, tenant: Optional[str] = None,
               **kwargs) -> ReplicaClient:
        return ReplicaClient(self.urls, tenant=tenant, **kwargs)

    def kill(self, index: int) -> None:
        self.daemons[index].kill()

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.close()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
