"""One pass of one benchmark workload, in a process of its own.

::

    python3 perfbench/worker.py --workload W --seed N --seconds S \\
        --trace 0|1 --repeats K --work DIR --out FILE
    python3 perfbench/worker.py --setup W --seed N --work DIR

``run.py`` starts one worker per pass, so peak RSS and module caches
never leak from one workload, or from the traced pass, into another.
The second form is a set-up step that a worker runs as a child of its
own (store filling, in-process references), so that the measured process
only ever holds what its requests load.

Every workload is a closed loop: each caller waits for its reply before
sending the next request.  Requests are drawn in whole rounds -- a
seeded permutation of the workload's spec pool -- and a run does a fixed
number of rounds sized from ``--seconds``, so each run sees the same mix
and only the order depends on the seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402  (sibling module)
from repro.api import PlanSpec, Planner  # noqa: E402
from repro.core.unified import energy_optimal_iteration_time  # noqa: E402
from repro.exceptions import ReproError  # noqa: E402
from repro.service import wire  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

PP4_MODELS = ("gpt3-xl", "bert-huge", "t5-3b", "bloom-3b")

#: cli-cold and store-warm: the pp4 specs a user plans at a shell
#: (``--freq-stride 4`` is the CLI default, spelled out so in-process
#: references equal the CLI's spec).
PP4_POOL = [PlanSpec(m, stages=4, microbatches=mb, freq_stride=4)
            for m in PP4_MODELS for mb in (8, 12)]

#: crawl-large: pp8/pp16 crawls in both optimizer modes.
LARGE_POOL = [PlanSpec(m, stages=pp, microbatches=mb, exactness=ex)
              for m, pp, mb in (("gpt3-175b", 16, 16),
                                ("bloom-176b", 16, 16),
                                ("gpt3-13b", 8, 32))
              for ex in ("exact", "fast")]

#: crawl-large's set-up crawls this spec in another process; the
#: measured crawl of the same spec must match it bit for bit.
REPEAT_SPEC = PlanSpec("gpt3-13b", stages=8, microbatches=32,
                       exactness="fast")

#: store-warm's large working set: a ~5 MB frontier payload (fast mode
#: halves the set-up crawl; the stored payload is the same size).
STORE_LARGE = PlanSpec("gpt3-13b", stages=8, microbatches=32, freq_stride=4,
                       exactness="fast")

#: daemon-mixed's hot set, served warm from the daemon's memory.
HOT_SET = [PlanSpec(m, stages=4, microbatches=8, freq_stride=4, strategy=s)
           for m in PP4_MODELS for s in ("perseus", "zeus-global", "envpipe")]

#: daemon-mixed's never-seen specs: a GPU and stride no hot spec uses,
#: so each one profiles, crawls and writes the store.
COLD_GPUS = ("a40-48g", "h100-sxm-80g", "v100-sxm-32g", "a100-sxm-80g")
COLD_STRIDES = (4, 5, 6, 7, 8)

#: daemon-mixed traffic per client, in blocks of this many requests:
#: one never-seen plan, one job-state group, the rest warm plans.
BLOCK = 100
JOB_GROUP = ("register_spec", "set_straggler", "current_schedule")

WORKLOADS = ("cli-cold", "crawl-large", "store-warm", "daemon-mixed")

INTRINSIC_RE = re.compile(
    r"intrinsic\s*:\s*(-?[\d.]+)% energy saved at ([-+][\d.]+)% iteration")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (inclusive), ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spec_key(spec: PlanSpec) -> str:
    return json.dumps(spec.to_dict(), sort_keys=True)


def rounds(pool, rng: random.Random):
    """Endless seeded permutations of ``pool`` (whole rounds)."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield order


def closed_loop(p, count: int, order, request) -> None:
    """Run ``count`` whole rounds as the pass's measured phase."""
    p.begin()
    for _ in range(count):
        for item in next(order):
            request(item)
    p.end()


def round_count(seconds: float, round_s: float, least: int = 1) -> int:
    """Rounds in a run: a fixed amount of work sized from ``--seconds`` by
    the time a round takes on the reference host, so every run (and every
    commit) does the same work whatever the host's speed."""
    return max(least, round(seconds / round_s))


def spawn(cmd, out_path: str, err_path: str) -> subprocess.Popen:
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        return subprocess.Popen(cmd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=ROOT)


def reap(proc: subprocess.Popen, timeout_s: float):
    """Wait for ``proc`` (killing it after ``timeout_s``); returns its
    exit code and peak RSS in MB, read from the kernel's rusage."""
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_setup_child(p, workload: str, seed: int, work: str) -> float:
    """One set-up step in a child process; returns its duration."""
    started = p.host.clock()
    proc = spawn([sys.executable, os.path.join(HERE, "worker.py"),
                  "--setup", workload, "--seed", str(seed), "--work", work],
                 os.path.join(work, "setup.out"),
                 os.path.join(work, "setup.err"))
    code, _ = reap(proc, 150.0)
    if code != 0:
        with open(os.path.join(work, "setup.err"), encoding="utf-8") as fp:
            sys.stderr.write(fp.read())
        raise RuntimeError(f"{workload} set-up failed with code {code}")
    return p.host.clock() - started


class HostSampler:
    """Samples the speed of the CPU the run is pinned to, all run long.

    The host's cores are shared and their speed drifts by up to half
    within seconds.  Every ``PERIOD_S`` a timer interrupts the worker,
    which times a fixed piece of pure-Python work -- parse a JSON blob,
    walk it -- on the same CPU as every process of the run.
    :meth:`clock` runs only while no probe does, so request latencies
    exclude the probes, and :meth:`scale` turns the run's times into
    those of a host on which the probe takes ``REFERENCE_S``.
    """

    PERIOD_S = 0.1
    REFERENCE_S = 0.0014
    BLOB = json.dumps([[i * 0.37, [j * 1.5 for j in range(20)]]
                       for i in range(300)])

    def __init__(self) -> None:
        self.samples: list = []
        self.busy = 0.0

    def clock(self) -> float:
        return perf_counter() - self.busy

    def _probe(self, signum, frame) -> None:
        started = perf_counter()
        total = 0.0
        for t, row in json.loads(self.BLOB):
            for x in row:
                total += x * t
        elapsed = perf_counter() - started
        self.samples.append(elapsed)
        self.busy += elapsed

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: int = 0, end=None) -> float:
        """Reference probe time over the median of ``samples[start:end]``."""
        return self.REFERENCE_S / statistics.median(self.samples[start:end])


#: A tiny plan run before measuring, so lazy imports and first-call
#: set-up inside the program are not charged to the first request.
WARM_UP = PlanSpec("bert-large", stages=2, microbatches=3, freq_stride=24)


def settle() -> None:
    """Freeze what set-up left in memory, so the collections between
    requests only walk the previous request's garbage."""
    gc.collect()
    gc.freeze()


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_mb(path: str) -> float:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total / 1e6


def fingerprint(report, frontier) -> str:
    """Hex-float digest of a frontier and its plan's scalars."""
    digest = hashlib.sha256()
    for p in frontier.points:
        digest.update(f"{p.iteration_time.hex()},{p.effective_energy.hex()},"
                      f"{p.compute_energy.hex()};".encode())
    digest.update(f"{report.iteration_time_s.hex()},"
                  f"{report.energy_j.hex()}".encode())
    return digest.hexdigest()


def pareto_monotone(frontier) -> bool:
    points = frontier.points
    return all(a.iteration_time < b.iteration_time
               and a.effective_energy > b.effective_energy
               for a, b in zip(points, points[1:]))


class Pass:
    """What one pass measured."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.tracer = tracing.Tracer(measured_prefix="m")
        self.latencies: list = []
        self.failed = 0
        self.savings: list = []
        self.setup_s: list = []
        self.host = HostSampler()
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.store_mb = 0.0
        #: Per-layer totals from other processes (launch.py dumps).
        self.child_totals: list = []
        self.child_counts: list = []
        self.child_spans = 0
        #: ``Planner.stats`` work counted outside any span.
        self.planner_counts: dict = {}
        self._ids = itertools.count(1)

    def begin(self) -> None:
        """Start the measured phase (set-up ends here)."""
        self.window = [len(self.host.samples), None]
        self._started = self.host.clock()

    def end(self) -> None:
        self.wall_s = self.host.clock() - self._started
        self.window[1] = len(self.host.samples)

    def rid(self) -> str:
        """A fresh measured request id (thread-safe)."""
        return f"m-{next(self._ids)}"

    def record(self, latency: float, ok: bool, savings=None) -> None:
        self.latencies.append(latency)
        if not ok:
            self.failed += 1
        if savings is not None:
            self.savings.append(savings)

    def count_planner(self, delta: dict) -> None:
        for name, value in tracing.planner_counts(delta).items():
            self.planner_counts[name] = \
                self.planner_counts.get(name, 0) + value

    def adopt_dump(self, path: str) -> None:
        spans, counts = tracing.load_dump(path)
        self.child_totals.append(tracing.layer_totals(spans))
        self.child_counts.append(counts)
        self.child_spans += len(spans)


# ---------------------------------------------------------------------------
# Set-up steps (run in a child process of the worker)
# ---------------------------------------------------------------------------


def setup_cli_cold(work: str) -> None:
    planner = Planner()
    refs = {}
    for spec in PP4_POOL:
        report = planner.plan(spec)
        refs[spec_key(spec)] = [f"{report.energy_savings_pct:.1f}",
                                f"{report.slowdown_pct:+.2f}"]
    _write_json(os.path.join(work, "refs.json"), refs)


def setup_crawl_large(work: str) -> None:
    planner = Planner()
    report = planner.plan(REPEAT_SPEC)
    _write_json(os.path.join(work, "refs.json"), {
        spec_key(REPEAT_SPEC):
            fingerprint(report, planner.frontier_for(REPEAT_SPEC))})


def setup_store_warm(work: str) -> None:
    store = os.path.join(work, "store")
    shutil.rmtree(store, ignore_errors=True)
    planner = Planner(cache=store)
    _write_json(os.path.join(work, "refs.json"), {
        spec_key(spec): wire.report_to_wire(planner.plan(spec))
        for spec in PP4_POOL + [STORE_LARGE]})


SETUPS = {"cli-cold": setup_cli_cold, "crawl-large": setup_crawl_large,
          "store-warm": setup_store_warm}


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def run_cli_cold(p: Pass, seed: int, seconds: float, repeats: int,
                 work: str) -> None:
    for _ in range(repeats):
        p.setup_s.append(run_setup_child(p, "cli-cold", seed, work))
    refs = _read_json(os.path.join(work, "refs.json"))
    out, err = os.path.join(work, "cli.out"), os.path.join(work, "cli.err")
    spans = os.path.join(work, "cli-spans.jsonl")

    def request(spec: PlanSpec) -> None:
        argv = ["plan", spec.model, "--stages", str(spec.stages),
                "--microbatches", str(spec.microbatches)]
        if p.trace:
            cmd = [sys.executable, os.path.join(HERE, "launch.py"),
                   "--trace", "1", "--spans", spans, "--"] + argv
        else:
            cmd = [sys.executable, "-m", "repro"] + argv
        started = p.host.clock()
        proc = spawn(cmd, out, err)
        code, rss = reap(proc, 120.0)
        latency = p.host.clock() - started
        p.rss_mb = max(p.rss_mb, rss)
        with open(out, encoding="utf-8") as fp:
            match = INTRINSIC_RE.search(fp.read())
        ok = (code == 0 and match is not None
              and [match.group(1), match.group(2)] == refs[spec_key(spec)])
        p.record(latency, ok, float(match.group(1)) if match else None)
        if p.trace and code == 0:
            p.adopt_dump(spans)

    # A round of 8 takes about 6 s here.
    closed_loop(p, round_count(seconds, 6.0),
                rounds(PP4_POOL, random.Random(seed)), request)


def run_crawl_large(p: Pass, seed: int, seconds: float, repeats: int,
                    work: str) -> None:
    for _ in range(repeats):
        p.setup_s.append(run_setup_child(p, "crawl-large", seed, work))
    seen = dict(_read_json(os.path.join(work, "refs.json")))
    for exactness in ("exact", "fast"):
        Planner().plan(WARM_UP.replace(exactness=exactness))
    settle()

    def request(spec: PlanSpec) -> None:
        gc.collect()
        with p.tracer.request(p.rid()):
            started = p.host.clock()
            planner = Planner()
            report = planner.plan(spec)
            latency = p.host.clock() - started
        p.count_planner(planner.stats)
        frontier = planner.frontier_for(spec)
        digest = fingerprint(report, frontier)
        key = spec_key(spec)
        ok = (pareto_monotone(frontier)
              and abs(report.slowdown_pct) < 1e-9
              and seen.setdefault(key, digest) == digest)
        p.record(latency, ok, report.energy_savings_pct)

    # A round of 6 takes about 14 s here; two rounds give every spec a
    # repeat within the run.
    closed_loop(p, round_count(seconds, 14.0, least=2),
                rounds(LARGE_POOL, random.Random(seed)), request)
    p.rss_mb = self_rss_mb()


def run_store_warm(p: Pass, seed: int, seconds: float, repeats: int,
                   work: str) -> None:
    for _ in range(repeats):
        p.setup_s.append(run_setup_child(p, "store-warm", seed, work))
    refs = {key: wire.report_from_wire(payload) for key, payload in
            _read_json(os.path.join(work, "refs.json")).items()}
    store = os.path.join(work, "store")
    Planner(cache=store).plan(PP4_POOL[0])
    settle()

    def request(spec: PlanSpec) -> None:
        # Each request stands for a fresh process's first plan: collect
        # the previous request's garbage outside the timed region.
        gc.collect()
        with p.tracer.request(p.rid()):
            started = p.host.clock()
            planner = Planner(cache=store)
            report = planner.plan(spec)
            latency = p.host.clock() - started
        p.count_planner(planner.stats)
        p.record(latency, wire.reports_equal(report, refs[spec_key(spec)]),
                 report.energy_savings_pct)

    # The large frontier is 2 requests in 10, so p90 falls mid-way
    # through its reads and p50 among the pp4 ones; 10 rounds keep >= 10
    # requests beyond p90.
    closed_loop(p, round_count(seconds, 1.0, least=10),
                rounds(PP4_POOL + [STORE_LARGE] * 2, random.Random(seed)),
                request)
    p.rss_mb = self_rss_mb()
    p.store_mb = dir_mb(store)


# -- daemon-mixed -----------------------------------------------------------


class Daemon:
    """``repro serve`` in a child process, started through launch.py."""

    def __init__(self, work: str, trace: bool) -> None:
        self.store = os.path.join(work, "daemon-store")
        shutil.rmtree(self.store, ignore_errors=True)
        self.spans = os.path.join(work, "daemon-spans.jsonl")
        out = os.path.join(work, "daemon.out")
        # The access log goes to a file, as in a deployment.
        self.proc = spawn(
            [sys.executable, os.path.join(HERE, "launch.py"),
             "--trace", str(int(trace)), "--spans", self.spans, "--",
             "serve", "--cache-dir", self.store, "--port", "0"],
            out, os.path.join(work, "daemon-access.log"))
        self.url = self._wait_url(out)
        self.client = ServiceClient(self.url, timeout_s=120.0)
        self.client.health()

    def _wait_url(self, out: str) -> str:
        started = perf_counter()
        while perf_counter() - started < 60.0:
            with open(out, encoding="utf-8") as fp:
                match = re.search(r"serving\s*:\s*(http://\S+)", fp.read())
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            threading.Event().wait(0.02)
        self.proc.kill()
        raise RuntimeError("daemon did not start")

    def stop(self) -> float:
        """SIGINT (the daemon's clean shutdown); returns peak RSS MB."""
        self.proc.send_signal(signal.SIGINT)
        return reap(self.proc, 30.0)[1]


def block_plan(seed: int, index: int):
    """Where block ``index`` puts its never-seen plan and its job-state
    group, and which job it registers.  Both clients share the layout,
    so they stay symmetric and finish together."""
    rng = random.Random(f"{seed}-{index}")
    cold_at = rng.randrange(BLOCK)
    job_at = rng.choice([i for i in range(BLOCK - len(JOB_GROUP))
                         if not i <= cold_at < i + len(JOB_GROUP)])
    perseus = [spec for spec in HOT_SET if spec.strategy == "perseus"]
    return cold_at, job_at, (rng.choice(perseus),
                             rng.choice((1.05, 1.1, 1.2)))


def cold_specs(seed: int):
    combos = [PlanSpec(m, gpu=g, stages=4, microbatches=4, freq_stride=s)
              for m in PP4_MODELS for g in COLD_GPUS for s in COLD_STRIDES]
    random.Random(seed).shuffle(combos)
    return combos


def run_daemon_mixed(p: Pass, seed: int, seconds: float, repeats: int,
                     work: str) -> None:
    daemons: list = []
    try:
        _daemon_mixed(p, seed, seconds, repeats, work, daemons)
    finally:
        for daemon in daemons:  # stopped on success; killed on a failure
            if daemon.proc.returncode is None:
                daemon.proc.kill()
                daemon.proc.wait()


def _daemon_mixed(p, seed, seconds, repeats, work, daemons) -> None:
    daemon = None
    for index in range(repeats):
        if daemon is not None:
            daemon.stop()
        started = p.host.clock()
        daemon = Daemon(work, p.trace)
        daemons.append(daemon)
        for n, spec in enumerate(HOT_SET):
            daemon.client.call("plan", {"spec": spec.to_dict()},
                               request_id=f"s-{index}-{n}")
        planner = Planner()
        refs = {spec_key(spec): planner.plan(spec) for spec in HOT_SET}
        frontiers = {spec_key(spec): planner.frontier_for(spec)
                     for spec in HOT_SET if spec.strategy == "perseus"}
        p.setup_s.append(p.host.clock() - started)
    del planner

    colds = cold_specs(seed)
    cold_seen: list = []
    lock = threading.Lock()
    # A block takes about 3.5 s here.  Fixed work also keeps the share
    # of never-seen specs the same in every run.
    plans = [block_plan(seed, b) for b in range(round_count(seconds, 3.5))]

    def client_loop(client_index: int) -> None:
        client = ServiceClient(daemon.url, tenant=f"bench{client_index}",
                               timeout_s=120.0)
        warm = rounds(HOT_SET, random.Random(seed * 1009 + client_index))
        hot: list = []
        for b, (cold_at, job_at, job) in enumerate(plans):
            for i in range(BLOCK):
                if i == cold_at:
                    kind, arg = "cold", colds[2 * b + client_index]
                elif job_at <= i < job_at + len(JOB_GROUP):
                    kind, arg = JOB_GROUP[i - job_at], job
                else:
                    hot = hot or list(next(warm))
                    kind, arg = "warm", hot.pop()
                job_id = f"job-{client_index}-{b}"
                rid = p.rid()
                with p.tracer.request(rid):
                    started = p.host.clock()
                    try:
                        result = _daemon_call(client, kind, arg, job_id,
                                              rid)
                    except ReproError:  # refused or failed: counted
                        result = None
                    latency = p.host.clock() - started
                    report = (wire.report_from_wire(result)
                              if result is not None
                              and kind in ("warm", "cold") else None)
                ok, savings = result is not None, None
                if result is None:
                    pass
                elif kind == "warm":
                    ok = wire.reports_equal(report, refs[spec_key(arg)])
                elif kind == "cold":
                    with lock:
                        cold_seen.append((arg, report))
                elif kind == "current_schedule":
                    ok = _schedule_matches(result, frontiers, arg)
                if report is not None and report.strategy == "perseus":
                    savings = report.energy_savings_pct
                with lock:
                    p.record(latency, ok, savings)

    before = daemon.client.call("stats", request_id="s-stats-0")["planner"]
    p.begin()
    threads = [threading.Thread(target=client_loop, args=(i,))
               for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    p.end()
    after = daemon.client.call("stats", request_id="s-stats-1")["planner"]
    p.store_mb = dir_mb(daemon.store)
    p.rss_mb = daemon.stop()
    p.count_planner({k: after[k] - before.get(k, 0) for k in after})
    if p.trace:
        p.adopt_dump(daemon.spans)

    # Never-seen specs are checked after the run, against a fresh
    # in-process planner each (the reference costs a crawl).
    for spec, report in cold_seen:
        if not wire.reports_equal(report, Planner().plan(spec)):
            p.failed += 1


def _daemon_call(client, kind, arg, job_id, rid):
    if kind in ("warm", "cold"):
        return client.call("plan", {"spec": arg.to_dict()}, request_id=rid)
    spec, degree = arg
    if kind == "register_spec":
        return client.call("register_spec",
                           {"job_id": job_id, "spec": spec.to_dict()},
                           request_id=rid)
    if kind == "set_straggler":
        return client.call("set_straggler",
                           {"job_id": job_id, "accelerator_id": 0,
                            "delay_s": 0.0, "degree": degree},
                           request_id=rid)
    return client.call("current_schedule", {"job_id": job_id},
                       request_id=rid)


def _schedule_matches(result, frontiers, arg) -> bool:
    spec, degree = arg
    frontier = frontiers[spec_key(spec)]
    expected = frontier.schedule_for(
        energy_optimal_iteration_time(frontier, degree * frontier.t_min))
    got = result["schedule"]
    return (got["iteration_time"] == expected.iteration_time
            and got["effective_energy"] == expected.effective_energy)


RUNNERS = {"cli-cold": run_cli_cold, "crawl-large": run_crawl_large,
           "store-warm": run_store_warm, "daemon-mixed": run_daemon_mixed}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(p: Pass) -> dict:
    # Set-up and the measured phase are each scaled by the probes taken
    # while they ran.
    start, end = p.window
    scale = p.host.scale(start, end)
    return {
        "setup_s": statistics.median(p.setup_s) * p.host.scale(0, start),
        "latency_p50_ms": percentile(p.latencies, 50) * 1000.0 * scale,
        "latency_p90_ms": percentile(p.latencies, 90) * 1000.0 * scale,
        "throughput_rps": len(p.latencies) / p.wall_s / scale,
        "energy_saved_pct": statistics.fmean(p.savings),
        "peak_rss_mb": p.rss_mb,
    }


def per_layer(p: Pass) -> dict:
    """Per-request layer metrics from every process's spans."""
    totals: dict = {}
    counts: dict = {}
    for layer_totals in [tracing.layer_totals(p.tracer.spans)] + \
            p.child_totals:
        for layer, row in layer_totals.items():
            acc = totals.setdefault(layer, [0.0, 0, 0.0])
            for i in range(3):
                acc[i] += row[i]
    for source in [dict(p.tracer.counts), p.planner_counts] + \
            p.child_counts:
        for name, value in source.items():
            counts[name] = counts.get(name, 0.0) + value

    n = len(p.latencies)
    zero = (0.0, 0, 0.0)
    # Milliseconds on the reference host, like the end-to-end times.
    ms = 1000.0 * p.host.scale(*p.window)

    def busy(layer):
        return totals.get(layer, zero)[0] * ms / n

    def calls(layer):
        return totals.get(layer, zero)[1] / n

    def count(name, scale=1.0):
        return counts.get(name, 0.0) * scale / n

    attempts = counts.get("maxflow.warm_attempts", 0.0)
    metrics = {
        "import.wall_ms": count("import.wall_s", ms),
        "import.repro_modules": count("import.repro_modules"),
        "frontier.busy_ms": busy("frontier"),
        "frontier.calls": calls("frontier"),
        "frontier.steps": count("frontier.steps"),
        "frontier.points": count("frontier.points"),
        "nextschedule.busy_ms": busy("nextschedule"),
        "nextschedule.calls": calls("nextschedule"),
        "compiled.pass_ms": busy("compiled"),
        "compiled.passes": calls("compiled"),
        "lowerbounds.solve_ms": busy("lowerbounds.solve"),
        "lowerbounds.solves": calls("lowerbounds.solve"),
        "lowerbounds.contract_ms": busy("lowerbounds.contract"),
        "lowerbounds.contractions": calls("lowerbounds.contract"),
        "maxflow.busy_ms": busy("maxflow"),
        "maxflow.calls": calls("maxflow"),
        "maxflow.warm_attempts": count("maxflow.warm_attempts"),
        "maxflow.warm_reuse_ratio": (counts.get("maxflow.warm_hits", 0.0)
                                     / attempts if attempts else 0.0),
        "planner.plan_ms": busy("planner"),
        "planner.self_ms": totals.get("planner", zero)[2] * ms / n,
        "planner.builds": count("planner.builds"),
        "planner.profile_builds": count("planner.profile_builds"),
        "planner.frontier_builds": count("planner.frontier_builds"),
        "strategies.busy_ms": busy("strategies"),
        "sim.busy_ms": busy("sim"),
        "sim.calls": calls("sim"),
        "store.hash_ms": busy("store.hash"),
        "store.hash_calls": calls("store.hash"),
        "store.get_ms": busy("store.get"),
        "store.get_calls": calls("store.get"),
        "store.memory_hits": count("store.memory_hits"),
        "store.disk_hits": count("store.disk_hits"),
        "store.misses": count("store.misses"),
        "store.decode_ms": busy("store.decode"),
        "store.put_ms": busy("store.put"),
        "store.encode_ms": busy("store.encode"),
        "store.writes": calls("store.encode"),
        "store_mb": p.store_mb,
        "wire.encode_ms": busy("wire.encode"),
        "wire.decode_ms": busy("wire.decode"),
        "wire.spec_ms": busy("wire.spec"),
        "daemon.rpc_ms": busy("daemon.rpc"),
        "daemon.http_ms": (busy("client.call") - busy("daemon.rpc")
                           if "client.call" in totals else 0.0),
        "admission.admit_ms": busy("admission"),
        "admission.rejected": count("admission.rejected"),
        "client.call_ms": busy("client.call"),
        "coalesce.leaders": count("coalesce.leaders"),
        "coalesce.followers": count("coalesce.followers"),
        "coalesce.warm": max(0.0, calls("coalesce.key")
                             - calls("coalesce.flight")),
        "coalesce.wait_ms": count("coalesce.wait_s", ms),
        "trace.spans": (len(p.tracer.spans) + p.child_spans) / n,
    }
    for layer in ("models", "partition", "profiler", "pipeline"):
        metrics[f"{layer}.busy_ms"] = busy(layer)
        metrics[f"{layer}.calls"] = calls(layer)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--setup", choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    if args.setup:
        SETUPS[args.setup](args.work)
        return 0

    p = Pass(bool(args.trace))
    installed = tracing.install(p.tracer) if p.trace else None
    try:
        with p.host:
            RUNNERS[args.workload](p, args.seed, args.seconds, args.repeats,
                                   args.work)
    finally:
        if installed is not None:
            tracing.uninstall(installed)
    result = {"attempted": len(p.latencies), "failed": p.failed,
              "end_to_end": end_to_end(p),
              "scale": p.host.scale(*p.window)}
    if p.trace:
        left = tracing.unpatched_targets()
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")
        result["per_layer"] = per_layer(p)
        p.tracer.dump(os.path.join(args.work, "worker-spans.jsonl"))
    _write_json(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
