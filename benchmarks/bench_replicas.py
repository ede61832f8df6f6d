"""Replica-fleet benchmark: cold-herd scaling and crash takeover.

Boots real ``python -m repro serve`` subprocess fleets over one shared
:class:`~repro.core.store.PlanStore` and drives them through the
scenarios the replica layer exists for:

* ``cold-herd``   -- K concurrent cold requests over U unique specs
  against a 1-daemon baseline and an N-replica fleet, each on a fresh
  store.  Acceptance: the fleet does exactly U expensive profile runs
  *fleet-wide* (summed from every replica's ``/metrics``
  ``repro_planner_work_total`` counters -- the store-level single
  flight at work), beats the single daemon on cold-herd p95 (the
  leaders really profile in parallel across processes instead of
  time-slicing one GIL), and every response is bit-identical to
  in-process planning.
* ``leader-kill`` -- the sticky leader is SIGKILLed *mid-
  materialization* (a chaos env stalls it inside the expensive stage;
  the kill triggers on its flight claim appearing).  The client fails
  over, the surviving replica takes over the work as soon as the kernel
  drops the dead leader's flight lock, and the answer is still
  bit-identical.  ``recovery_s`` is the kill-to-answer time.

Results land in ``benchmarks/BENCH_replicas.json``.  ``--quick``
shrinks K/U for CI, runs both cold herds in three interleaved rounds
and bounds the fleet's median p95 at 1.5x the single daemon's;
``--ceiling-s`` enforces a wall-clock ceiling.

Run directly::

    python benchmarks/bench_replicas.py                      # full
    python benchmarks/bench_replicas.py --quick --ceiling-s 120  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":  # runnable without installing the package
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULT_PATH = os.path.join(_BENCH_DIR, "BENCH_replicas.json")
QUICK_RESULT_PATH = os.path.join(_BENCH_DIR, "BENCH_replicas.quick.json")

#: Interleaved rounds of both cold herds in quick mode.
QUICK_ROUNDS = 3

_WORK_RE = re.compile(
    r'^repro_planner_work_total\{stage="(\w+)"\} (\d+)$', re.MULTILINE)
_STORE_ROLE_RE = re.compile(
    r'^repro_service_store_flights_total\{outcome="(\w+)"\} (\d+)$',
    re.MULTILINE)


def _unique_specs(quick: bool):
    from repro.api import PlanSpec

    base = dict(gpu="a100", stages=2, microbatches=2, freq_stride=24)
    specs = [
        PlanSpec("gpt3-xl", **base),
        PlanSpec("bert-large", **base),
    ]
    if not quick:
        specs.append(PlanSpec("t5-large", **base))
        specs.append(PlanSpec("gpt3-xl", gpu="a100", stages=4,
                              microbatches=4, freq_stride=24))
    return specs


def _spread_tenants(count: int, clients: int):
    """Tenant names whose sticky routes cover every replica evenly."""
    from repro.service import sticky_index

    by_replica = {i: [] for i in range(count)}
    i = 0
    while any(len(names) < clients for names in by_replica.values()):
        name = f"tenant-{i}"
        by_replica[sticky_index(name, count)].append(name)
        i += 1
    return [by_replica[i % count][i // count] for i in range(clients)]


def _fleet_work(metrics_by_url, stage: str) -> int:
    total = 0
    for text in metrics_by_url.values():
        for found, count in _WORK_RE.findall(text):
            if found == stage:
                total += int(count)
    return total


def _fleet_store_roles(metrics_by_url) -> dict:
    roles = {}
    for text in metrics_by_url.values():
        for role, count in _STORE_ROLE_RE.findall(text):
            roles[role] = roles.get(role, 0) + int(count)
    return roles


def _latency_summary(latencies) -> dict:
    xs = sorted(latencies)
    return {
        "p50_s": round(xs[len(xs) // 2], 4),
        "p95_s": round(xs[min(len(xs) - 1, int(0.95 * len(xs)))], 4),
        "max_s": round(xs[-1], 4),
    }


def _fire_herd(fleet, specs, clients: int):
    """K clients through failover ``ReplicaClient``s, barrier-released."""
    tenants = _spread_tenants(len(fleet.daemons), clients)
    barrier = threading.Barrier(clients)
    latencies = [None] * clients
    reports = [None] * clients
    errors = []

    def worker(i: int) -> None:
        client = fleet.client(tenant=tenants[i])
        spec = specs[i % len(specs)]
        barrier.wait()
        started = time.perf_counter()
        try:
            reports[i] = client.plan(spec)
        except Exception as exc:
            errors.append(f"client {i}: {type(exc).__name__}: {exc}")
        latencies[i] = time.perf_counter() - started

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600.0)
    return latencies, reports, errors


def _bench_cold_herd(quick: bool, replicas: int, workdir: str) -> dict:
    from repro.api import Planner
    from repro.service import ReplicaSet, reports_equal

    specs = _unique_specs(quick)
    clients = 8 if quick else 16
    unique = len(specs)
    store = os.path.join(workdir, f"store-{replicas}x")
    with ReplicaSet(replicas, store,
                    extra_args=["--max-inflight", str(clients)]) as fleet:
        latencies, reports, errors = _fire_herd(fleet, specs, clients)
        assert not errors, errors
        metrics = fleet.client().fleet_metrics()
        assert len(metrics) == replicas

    reference = Planner()
    identical = all(
        reports_equal(report, reference.plan(specs[i % unique]))
        for i, report in enumerate(reports)
    )
    return {
        "replicas": replicas,
        "clients": clients,
        "unique_specs": unique,
        "profile_runs_fleet_wide": _fleet_work(metrics, "profile"),
        "frontier_runs_fleet_wide": _fleet_work(metrics, "frontier"),
        "store_roles": _fleet_store_roles(metrics),
        "bit_identical": identical,
        "cold_latency": _latency_summary(latencies),
    }


def _bench_leader_kill(quick: bool, workdir: str) -> dict:
    from repro.api import Planner
    from repro.service import (
        ReplicaSet,
        ServiceClient,
        StoreFlight,
        reports_equal,
        sticky_index,
    )
    from repro.service.replica import MATERIALIZE_DELAY_ENV

    spec = _unique_specs(True)[0]
    tenant = next(f"tenant-{i}" for i in range(10_000)
                  if sticky_index(f"tenant-{i}", 2) == 0)
    store = os.path.join(workdir, "store-kill")
    started = time.perf_counter()
    with ReplicaSet(
        2, store,
        per_daemon_env={0: {MATERIALIZE_DELAY_ENV: "30.0"}},
    ) as fleet:
        client = fleet.client(tenant=tenant, cooldown_s=0.2)
        out = {}

        def work():
            out["report"] = client.plan(spec)

        t = threading.Thread(target=work, daemon=True)
        t.start()
        # The doomed leader's flight claim appearing IS the
        # "mid-materialization" signal: kill lands inside the window.
        observer = StoreFlight(store, owner="bench-observer")
        deadline = time.monotonic() + 120.0
        victim_pid = fleet.daemons[0].pid
        while not any(payload.get("pid") == victim_pid
                      for payload in observer.claims().values()):
            if time.monotonic() > deadline:
                raise AssertionError("leader never claimed its flight")
            time.sleep(0.02)
        kill_at = time.perf_counter()
        fleet.daemons[0].kill()
        t.join(timeout=240.0)
        recovery_s = time.perf_counter() - kill_at
        assert "report" in out, "failover plan never completed"
        survivor_text = ServiceClient(fleet.daemons[1].url).metrics_text()

    roles = _fleet_store_roles({"survivor": survivor_text})
    identical = reports_equal(out["report"], Planner().plan(spec))
    return {
        "recovered": True,
        "bit_identical": identical,
        "takeovers": roles.get("takeover", 0),
        "failovers": client.stats["failovers"],
        "recovery_s": round(recovery_s, 3),
        "wall_s": round(time.perf_counter() - started, 2),
    }


def run(quick: bool = False) -> dict:
    started = time.perf_counter()
    replicas = 2
    workdir = tempfile.mkdtemp(prefix="bench-replicas-")
    # One cold-herd p95 over quick mode's 8 requests swings by more than
    # the overhead bound from run to run, so quick mode repeats each
    # side in interleaved rounds (alternating which side goes first) and
    # the bound compares medians.
    rounds = QUICK_ROUNDS if quick else 1
    herds = {1: [], replicas: []}
    try:
        for r in range(rounds):
            order = [1, replicas] if r % 2 == 0 else [replicas, 1]
            for count in order:
                herd = _bench_cold_herd(
                    quick, count, os.path.join(workdir, f"round-{r}"))
                herds[count].append(herd)
                print(f"cold-herd  : {count} replica(s), {herd['clients']} "
                      f"clients over {herd['unique_specs']} specs -> "
                      f"{herd['profile_runs_fleet_wide']} profiles "
                      f"fleet-wide, p95={herd['cold_latency']['p95_s']}s "
                      f"(roles {herd['store_roles']})", flush=True)
        kill = _bench_leader_kill(quick, workdir)
        print(f"leader-kill: recovered in {kill['recovery_s']}s via "
              f"{kill['takeovers']} takeover(s), "
              f"bit_identical={kill['bit_identical']}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    p95_runs = {side: [h["cold_latency"]["p95_s"] for h in herds[count]]
                for side, count in (("single", 1), ("fleet", replicas))}
    doc = {
        "benchmark": "replica-fleet",
        "mode": "quick" if quick else "full",
        "cores": os.cpu_count() or 1,
        "single_daemon": herds[1][0],
        "replica_fleet": herds[replicas][0],
        "leader_kill": kill,
        "cold_p95_runs_s": p95_runs,
        "p95_speedup": round(
            statistics.median(p95_runs["single"])
            / max(statistics.median(p95_runs["fleet"]), 1e-9), 3),
        "wall_s": round(time.perf_counter() - started, 2),
    }
    for single, fleet in zip(herds[1], herds[replicas]):
        _check_herds(single, fleet)
    _check_acceptance(doc)
    path = QUICK_RESULT_PATH if quick else RESULT_PATH
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2)
        fp.write("\n")
    print(f"wrote {path}")
    return doc


def _check_herds(single: dict, fleet: dict) -> None:
    """What every round of cold herds must show, whatever its timing."""
    if fleet["profile_runs_fleet_wide"] != fleet["unique_specs"]:
        raise AssertionError(
            f"{fleet['clients']} cold requests over "
            f"{fleet['unique_specs']} specs across "
            f"{fleet['replicas']} processes ran "
            f"{fleet['profile_runs_fleet_wide']} profiles; the store "
            f"flight must make that exactly {fleet['unique_specs']}"
        )
    roles = fleet["store_roles"]
    if roles.get("leader", 0) + roles.get("takeover", 0) \
            != fleet["unique_specs"]:
        raise AssertionError(f"expected {fleet['unique_specs']} store "
                             f"leaders fleet-wide, got {roles}")
    if not (fleet["bit_identical"] and single["bit_identical"]):
        raise AssertionError("fleet reports are not bit-identical to "
                             "in-process planning")


def _check_acceptance(doc: dict) -> None:
    """The timing and leader-kill bars, on the median cold p95s."""
    # The speedup clause needs hardware parallelism: two CPU-bound
    # daemon processes cannot beat one on a single-core host, where the
    # fleet's value is crash isolation (the leader-kill scenario).
    # There the bar is bounded coordination overhead instead.
    runs = doc["cold_p95_runs_s"]
    fleet_p95 = statistics.median(runs["fleet"])
    single_p95 = statistics.median(runs["single"])
    # Quick mode is a smoke: its workload is too small for the
    # parallelism to dominate startup noise, so only the full run
    # enforces the strict speedup.
    if doc["cores"] >= 2 and doc["mode"] == "full":
        if fleet_p95 >= single_p95:
            raise AssertionError(
                f"{doc['replica_fleet']['replicas']} replicas did not beat "
                f"one daemon on cold-herd p95: {fleet_p95}s vs "
                f"{single_p95}s"
            )
    elif fleet_p95 > single_p95 * 1.5:
        branch = ("in quick mode" if doc["mode"] == "quick"
                  else "on a single-core host")
        raise AssertionError(
            f"cross-process coordination overhead out of bounds {branch}: "
            f"median fleet p95 {fleet_p95}s vs single {single_p95}s over "
            f"{len(runs['fleet'])} round(s) {runs}"
        )
    kill = doc["leader_kill"]
    if not (kill["recovered"] and kill["bit_identical"]
            and kill["takeovers"] >= 1):
        raise AssertionError(f"leader-kill scenario failed: {kill}")


def test_replicas_quick():
    """Pytest harness entry: quick scenarios with a lax ceiling."""
    started = time.perf_counter()
    run(quick=True)
    assert time.perf_counter() - started < 300.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced client/spec counts (CI smoke)")
    parser.add_argument("--ceiling-s", type=float, default=None,
                        help="fail if the whole benchmark exceeds this")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    run(quick=args.quick)
    elapsed = time.perf_counter() - started
    print(f"total {elapsed:.1f}s")
    if args.ceiling_s is not None and elapsed > args.ceiling_s:
        print(f"FAIL: exceeded {args.ceiling_s}s ceiling", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
