"""End-to-end planner benchmark: one workload, one seed, one JSON line.

::

    python3 perfbench/run.py --workload cli-cold|crawl-large|store-warm|daemon-mixed \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is used from
``src/`` as it stands (``.pyc`` files are compiled first, outside any
timed region).  Each pass of a workload runs in a fresh worker process
(``worker.py``).  ``--trace 0`` runs one untraced pass, setting up three
times, and prints the end-to-end metrics.  ``--trace 1`` runs an
untraced and a traced pass, setting up once each, and prints the
per-layer metrics of the traced pass plus the tracing overhead (the
traced pass's median latency against the untraced one's).

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files live
under ``.perfbench-work/`` in the checkout; the spans of the latest
traced run of each workload stay in ``.perfbench-work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("cli-cold", "crawl-large", "store-warm", "daemon-mixed")

#: A run must end within this many seconds, whatever its passes do.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "energy_saved_pct": "%",
    "peak_rss_mb": "MB",
}

#: Pinned values of every ``REPRO_*`` knob the program reads; any other
#: ``REPRO_*`` variable in the caller's environment is dropped.
PINNED_ENV = {
    "REPRO_CACHE_DIR": "",            # no implicit store
    "REPRO_CACHE_MAX_BYTES": "",      # no store cap
    "REPRO_SLOW_PATH": "0",           # production kernels
    "REPRO_STORE_FSYNC": "1",         # durable store writes
    "REPRO_FAST_WARM_SLACK": "0.01",  # the fast mode's default slack
    "REPRO_NUMPY_MIN_EDGES": "2048",  # the default numpy threshold
    "REPRO_CHAOS_MATERIALIZE_DELAY_S": "0",
    "REPRO_CLOCK_SKEW_S": "0",
    "REPRO_FULL_FIDELITY": "0",
}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio") or name == "error_rate":
        return "ratio"
    return "count"


def pinned_env(work: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = work
    return env


def run_pass(args, trace: int, repeats: int, env: dict,
             deadline: float) -> dict:
    """One worker process (and everything it starts, in its own process
    group, killed together if the run's deadline passes)."""
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}-{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "result.json")
    env = dict(env, TMPDIR=work)
    try:
        worker = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(trace),
             "--repeats", str(repeats), "--work", work, "--out", out],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
            start_new_session=True)
        try:
            code = worker.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
            raise
        if code != 0:
            raise RuntimeError(f"{args.workload} worker exited with {code}")
        with open(out, encoding="utf-8") as fp:
            result = json.load(fp)
        if trace:
            traces = os.path.join(WORK, "traces")
            os.makedirs(traces, exist_ok=True)
            for name in os.listdir(work):
                if name.endswith("spans.jsonl"):
                    os.replace(os.path.join(work, name), os.path.join(
                        traces, f"{args.workload}-{name}"))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    # Every process of the run shares one CPU: the daemon and its
    # clients never contend across cores, and the run's speed is that of
    # one core (the host's cores drift apart in speed).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = pinned_env(WORK)
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC,
                    HERE], env=env, check=True, stdout=subprocess.DEVNULL)

    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        plain = run_pass(args, 0, 1, env, deadline)
        traced = run_pass(args, 1, 1, env, deadline)
        metrics = dict(traced["per_layer"])
        metrics["error_rate"] = traced["failed"] / traced["attempted"]
        metrics["trace.overhead_pct"] = 100.0 * (
            traced["end_to_end"]["latency_p50_ms"]
            / plain["end_to_end"]["latency_p50_ms"] - 1.0)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        values = {name: (value, unit_of(name))
                  for name, value in metrics.items()}
    else:
        result = run_pass(args, 0, 3, env, deadline)
        print(f"{args.workload:13s} {'(host speed scale)':28s} "
              f"{result['scale']:14.6f}")
        attempted, failed = result["attempted"], result["failed"]
        values = {name: (result["end_to_end"][name], unit)
                  for name, unit in END_TO_END.items()}

    for name, (value, unit) in sorted(values.items()):
        print(f"{args.workload:13s} {name:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
