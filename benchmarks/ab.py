"""Paired A/B runs of two revisions, in fresh processes.

Exports two revisions of this repository with ``git archive`` (by
default ``HEAD~1`` as the base and the working tree as the head) and
runs named probes against each in interleaved rounds, alternating
which side goes first, so both sides see the same drift of a shared
host.  Every probe run is a fresh interpreter on the exported tree's
``src/``.  Probes:

* ``store-warm`` -- a warm plan from the store: each side's store is
  filled once (perfbench's eight pp4 specs plus gpt3-13b pp8), then
  each round plans every spec :data:`PLANS` times, a new ``Planner``
  over the store per plan.  The round's figure is the median plan
  latency.
* ``cli-cold`` -- ``python -m repro plan gpt3-xl --stages 4
  --microbatches 12``; the round's figure is the child's wall time.

Each figure comes with a calibration: the median time of a fixed probe
(:func:`calibration`, parsing one JSON blob) taken beside it -- before
each plan in the store-warm child, just before each cli-cold child in
this process.  Pairs compare figures in probe units, so a host whose
speed drifts between the two sides of a pair moves both.

Both probes run :data:`ROUNDS` rounds.  Per probe it reports each
side's median, the median of the paired calibrated head/base ratios,
how many pairs the head won, and a bootstrap 95% interval of the
median ratio.  An A/A run (``--base HEAD --head HEAD``) shows what
spread the host alone gives.

Usage (from anywhere inside the repository; stdlib only)::

    python benchmarks/ab.py                        # HEAD~1 vs worktree
    python benchmarks/ab.py --base HEAD --head HEAD  # A/A

The working tree is exported through ``git stash create``: tracked
files as they are (new files once ``git add``-ed), untracked ones not.
Every process is pinned to one CPU; ``REPRO_*`` variables are cleared.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

#: store-warm's pool: perfbench's pp4 specs and its large working set.
STORE_SPECS = [
    dict(model=m, stages=4, microbatches=mb, freq_stride=4)
    for m in ("gpt3-xl", "bert-huge", "t5-3b", "bloom-3b") for mb in (8, 12)
] + [dict(model="gpt3-13b", stages=8, microbatches=32, freq_stride=4,
          exactness="fast")]

#: Interleaved rounds per probe, and store-warm plans per spec per round.
ROUNDS = 10
PLANS = 5

CLI_COLD = ["plan", "gpt3-xl", "--stages", "4", "--microbatches", "12"]

FILL = """
import sys
from repro.api import PlanSpec, Planner
planner = Planner(cache=sys.argv[1])
for spec in {specs!r}:
    planner.plan(PlanSpec(**spec))
"""

WARM = """
import gc, json, sys, time
from repro.api import PlanSpec, Planner
sys.path.insert(0, {here!r})
from ab import calibration
store, plans = sys.argv[1], int(sys.argv[2])
specs = [PlanSpec(**spec) for spec in {specs!r}]
Planner(cache=store).plan(specs[0])
seconds, probes = [], []
for _ in range(plans):
    for spec in specs:
        gc.collect()
        probes.append(calibration())
        started = time.perf_counter()
        Planner(cache=store).plan(spec)
        seconds.append(time.perf_counter() - started)
print(json.dumps([seconds, probes]))
"""


HERE = os.path.dirname(os.path.abspath(__file__))

#: What :func:`calibration` parses: benchmark data, so no revision of
#: the program can move its time.
BLOB = json.dumps([[i, i * 0.5, str(i)] for i in range(2000)])


def calibration() -> float:
    """Seconds to parse :data:`BLOB`: the host's speed right now."""
    started = time.perf_counter()
    json.loads(BLOB)
    return time.perf_counter() - started


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True,
                          capture_output=True).stdout


def export(rev: str, dest: str) -> str:
    """``rev`` (or ``"WORKTREE"``) extracted into ``dest``; returns the
    commit it names."""
    if rev == "WORKTREE":
        commit = git("stash", "create").decode().strip() or "HEAD"
    else:
        commit = rev
    commit = git("rev-parse", "--verify", commit + "^{commit}").decode()
    commit = commit.strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar",
                                             commit))) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)
    # Byte-compile once, so neither side pays (or skips) compilation in
    # its measured runs, whatever PYTHONDONTWRITEBYTECODE says.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(dest, "src")], check=True)
    return commit


def child_env(side: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(side, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run(side: str, argv: list, work: str) -> tuple:
    """``(stdout, wall seconds)`` of one child."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=work,
                          env=child_env(side), capture_output=True,
                          text=True)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:3]} failed in {side}:\n{proc.stderr}")
    return proc.stdout, wall


class StoreWarm:
    name = "store-warm"

    def setup(self, side: str, work: str) -> None:
        run(side, ["-c", FILL.format(specs=STORE_SPECS),
                   os.path.join(work, "store")], work)

    def measure(self, side: str, work: str) -> tuple:
        out, _ = run(side, ["-c", WARM.format(specs=STORE_SPECS, here=HERE),
                            os.path.join(work, "store"),
                            str(PLANS)], work)
        seconds, probes = json.loads(out)
        return (statistics.median(seconds) * 1e3,
                statistics.median(probes) * 1e3)


class CliCold:
    name = "cli-cold"

    def setup(self, side: str, work: str) -> None:
        pass

    def measure(self, side: str, work: str) -> tuple:
        probe = statistics.median(calibration() for _ in range(5))
        return run(side, ["-m", "repro", *CLI_COLD], work)[1] * 1e3, \
            probe * 1e3


def bootstrap(ratios: list, seed: int = 0, draws: int = 2000) -> tuple:
    """95% interval of the median ratio over resampled pairs."""
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(draws))
    return medians[int(0.025 * draws)], medians[int(0.975 * draws) - 1]


def summary(name: str, base: list, head: list) -> dict:
    """``base`` and ``head``: one ``(ms, calibration ms)`` per round;
    a pair's ratio divides each side by its calibration."""
    ratios = [(h / hc) / (b / bc) for (b, bc), (h, hc) in zip(base, head)]
    low, high = bootstrap(ratios)
    return {"probe": name, "unit": "ms",
            "base_median": statistics.median(b for b, _ in base),
            "head_median": statistics.median(h for h, _ in head),
            "median_ratio": statistics.median(ratios),
            "ci95": [low, high],
            "head_wins": sum(r < 1.0 for r in ratios),
            "pairs": len(ratios), "base": base, "head": head}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1",
                        help="base revision (default HEAD~1)")
    parser.add_argument("--head", default="WORKTREE",
                        help="head revision (default: the working tree)")
    args = parser.parse_args(argv)
    probes = [StoreWarm(), CliCold()]
    try:  # one CPU for every child: both sides run on one core's speed
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    root = tempfile.mkdtemp(prefix="repro-ab-")
    try:
        sides = {}
        for label, rev in (("base", args.base), ("head", args.head)):
            side = sides[label] = os.path.join(root, label)
            commit = export(rev, side)
            print(f"{label:5s}: {rev} ({commit[:12]})", flush=True)
            for probe in probes:
                work = os.path.join(side, ".ab", probe.name)
                os.makedirs(work)
                probe.setup(side, work)
        results = []
        for probe in probes:
            times = {"base": [], "head": []}
            for round_ in range(ROUNDS):
                order = ("base", "head") if round_ % 2 == 0 else ("head",
                                                                  "base")
                for label in order:
                    work = os.path.join(sides[label], ".ab", probe.name)
                    times[label].append(probe.measure(sides[label], work))
            row = summary(probe.name, times["base"], times["head"])
            results.append(row)
            print(f"{probe.name:10s}: base {row['base_median']:.3f} ms, "
                  f"head {row['head_median']:.3f} ms, ratio "
                  f"{row['median_ratio']:.3f} [{row['ci95'][0]:.3f}, "
                  f"{row['ci95'][1]:.3f}], head won "
                  f"{row['head_wins']}/{row['pairs']}", flush=True)
        print(json.dumps(results))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
