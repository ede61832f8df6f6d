"""Reusable fault-injection harness for the replica-fleet tests.

Not a test module (pytest collects ``test_*.py`` only): this is the
library the chaos suites in ``test_replica.py`` build on.  Everything
here is deterministic-by-construction -- faults are injected at
*observable* protocol points (a claim file appearing, a byte count on
a socket), not with sleeps and hope:

* :func:`wait_for` -- bounded condition polling with a diagnostic.
* :func:`make_stale_claim` -- forge the claim a crashed process would
  leave behind (a claim file whose writer no longer holds the lock).
* :func:`kill_leader_on_claim` -- watch the store's ``flights/``
  directory for a claim, match its recorded pid to a daemon, SIGKILL
  it mid-materialization.  The claim's appearance is the deterministic
  "leader is now mid-flight" signal; pair it with
  ``MATERIALIZE_DELAY_ENV`` to hold the window open.
* :class:`ChaosProxy` -- a TCP proxy between client and daemon that
  drops connections after N response bytes (truncated response /
  daemon restart mid-request), delays traffic, or refuses outright.
* :class:`CannedHTTPServer` -- answers every request with one fixed
  HTTP response (e.g. a bare 500, or garbage) for 5xx-path and
  malformed-response tests.
* an env builder for the daemon-side chaos hook (materialization
  delay).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.service.replica import MATERIALIZE_DELAY_ENV, StoreFlight


def wait_for(predicate: Callable[[], bool], timeout_s: float = 20.0,
             interval_s: float = 0.02, message: str = "condition") -> None:
    """Poll ``predicate`` until true or fail loudly with ``message``."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(
                f"timed out after {timeout_s:g}s waiting for {message}")
        time.sleep(interval_s)


def free_port() -> int:
    """An OS-granted free TCP port (closed again; races are possible
    but vanishingly rare on loopback in CI)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# -- daemon-side chaos hooks -------------------------------------------------

def slow_materialize_env(delay_s: float) -> Dict[str, str]:
    """Env that makes a daemon's expensive materialization take at
    least ``delay_s`` -- holds the leader mid-flight so a fault can be
    injected inside the window, deterministically."""
    return {MATERIALIZE_DELAY_ENV: str(delay_s)}


# -- flight faults -----------------------------------------------------------

def make_stale_claim(store_root: str, key: str,
                     owner: str = "crashed-process",
                     pid: int = 999_999_999) -> str:
    """Forge the claim a crashed leader leaves: present, lock released.

    Returns the claim path.  ``pid`` defaults to one that cannot be a
    live process, mirroring a leader whose host is simply gone.
    """
    observer = StoreFlight(store_root, owner="chaos-observer")
    path = observer._claim_path(key)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump({"kind": "store_flight_claim", "owner": owner,
                   "pid": pid, "key": str(key)}, fp)
    return path


def kill_leader_on_claim(store_root: str, daemons,
                         timeout_s: float = 30.0):
    """Wait for a flight claim to appear, SIGKILL the daemon holding it.

    ``daemons`` maps pid -> daemon-like object with a ``kill()``
    method (e.g. :class:`repro.service.replica.DaemonProcess`), or is
    an iterable of such objects.  Returns ``(daemon, claim_payload)``.
    The claim file's appearance *is* the "leader is mid-materialization"
    event, so the kill always lands inside the expensive work.
    """
    if not isinstance(daemons, dict):
        daemons = {d.pid: d for d in daemons}
    observer = StoreFlight(store_root, owner="chaos-observer")
    found: Dict[str, dict] = {}

    def leader_claimed() -> bool:
        for payload in observer.claims().values():
            if payload.get("pid") in daemons:
                found["claim"] = payload
                return True
        return False

    wait_for(leader_claimed, timeout_s=timeout_s,
             message=f"a flight claim by one of pids {sorted(daemons)}")
    victim = daemons[found["claim"]["pid"]]
    victim.kill()
    return victim, found["claim"]


def kill_process(pid: int) -> None:
    """SIGKILL by pid (no cleanup handlers run -- a true crash)."""
    os.kill(pid, signal.SIGKILL)


# -- socket faults -----------------------------------------------------------

class ChaosProxy:
    """TCP proxy injecting transport faults between client and daemon.

    Point a client at :attr:`url`; traffic forwards to ``upstream``
    (an ``http://host:port`` origin) according to :attr:`mode`:

    * ``"pass"``   -- transparent forwarding.
    * ``"drop"``   -- forward ``drop_after_bytes`` of each *response*,
      then reset both sockets: the client sees a truncated response /
      connection reset, exactly what a daemon dying mid-request looks
      like.
    * ``"delay"``  -- sleep ``delay_s`` before each response chunk.
    * ``"refuse"`` -- accept and immediately close (a daemon that is
      bound but broken).

    ``mode`` is mutable at runtime, so one proxy can misbehave for the
    first request and heal for the next.
    """

    def __init__(self, upstream: str, mode: str = "pass",
                 drop_after_bytes: int = 20,
                 delay_s: float = 0.05) -> None:
        host, _, port = upstream.rsplit("/", 1)[-1].partition(":")
        self.upstream: Tuple[str, int] = (host, int(port))
        self.mode = mode
        self.drop_after_bytes = drop_after_bytes
        self.delay_s = delay_s
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self._closed = threading.Event()
        self._conns: list = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                downstream, _ = self._listener.accept()
            except OSError:
                return
            if self.mode == "refuse":
                self._reset(downstream)
                continue
            try:
                upstream = socket.create_connection(self.upstream,
                                                    timeout=10.0)
            except OSError:
                self._reset(downstream)
                continue
            self._conns.append(downstream)
            self._conns.append(upstream)
            threading.Thread(target=self._pump, daemon=True,
                             args=(downstream, upstream, False)).start()
            threading.Thread(target=self._pump, daemon=True,
                             args=(upstream, downstream, True)).start()

    @staticmethod
    def _reset(sock: socket.socket) -> None:
        """Close with RST (SO_LINGER 0) -- an abrupt death, not FIN.

        ``shutdown(SHUT_RD)`` first: the sibling pump thread sits in a
        blocking ``recv`` on this socket, and that in-flight syscall
        holds a kernel reference to the open file -- a bare ``close``
        would only drop the fd and defer the teardown (and its RST)
        until the recv returns, which is never.  SHUT_RD wakes the
        reader without putting a FIN on the wire, so the close that
        follows still resets.
        """
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            b"\x01\x00\x00\x00\x00\x00\x00\x00")
        except OSError:
            pass
        try:
            sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _pump(self, src: socket.socket, dst: socket.socket,
              is_response: bool) -> None:
        forwarded = 0
        try:
            while True:
                chunk = src.recv(4096)
                if not chunk:
                    break
                if is_response and self.mode == "delay":
                    time.sleep(self.delay_s)
                if is_response and self.mode == "drop":
                    budget = self.drop_after_bytes - forwarded
                    if budget <= 0:
                        self._reset(dst)
                        self._reset(src)
                        return
                    chunk = chunk[:budget]
                dst.sendall(chunk)
                forwarded += len(chunk)
                if is_response and self.mode == "drop" \
                        and forwarded >= self.drop_after_bytes:
                    self._reset(dst)
                    self._reset(src)
                    return
        except OSError:
            pass
        finally:
            for sock in (src, dst):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def close(self) -> None:
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass
        for sock in self._conns:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CannedHTTPServer:
    """Answers every request with one fixed response (default: 500).

    For testing the client's 5xx handling without needing a real
    daemon bug; speaks just enough HTTP for ``http.client``.  ``raw``
    replaces the whole response with the given bytes (garbage, a
    truncated body), sent before the connection closes.
    """

    def __init__(self, status: int = 500,
                 body: Optional[dict] = None,
                 raw: Optional[bytes] = None) -> None:
        payload = json.dumps(body if body is not None else {
            "error": {"kind": "ServiceError", "message": "injected 500"},
        }).encode("utf-8")
        reason = {500: "Internal Server Error", 502: "Bad Gateway",
                  503: "Service Unavailable"}.get(status, "Error")
        self._response = raw if raw is not None else (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii") + payload
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self._closed = threading.Event()
        threading.Thread(target=self._serve, name="canned-http",
                         daemon=True).start()

    def _serve(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._answer, args=(conn,),
                             daemon=True).start()

    def _answer(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(5.0)
            # Read until the blank line ending the headers (plus any
            # body the client pushes); one recv is enough for the small
            # test envelopes, and robustness here is not the point.
            conn.recv(65536)
            conn.sendall(self._response)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass

    def __enter__(self) -> "CannedHTTPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
