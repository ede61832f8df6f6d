"""Optimizer hot path: cold ``characterize_frontier`` seed-vs-kernel.

Times the full Algorithm-1 frontier crawl -- cost-model fits included,
all caches cold -- on the three headline A100 PP4 workloads (Table 10)
plus one 64-stage emulation-scale DAG, once through the preserved seed
oracle (``tests/reference/``: dict event times, per-call ``FlowNetwork``
construction, reference Dinic) and once through the compiled flat-array
kernel, asserting the two frontiers are bit-identical before recording
the speedup.  With ``--exactness fast`` or ``both`` the
``exactness="fast"`` kernel (warm-started min-cuts and series-parallel
contraction) is timed too, its every point
validated against the exact crawl's tolerance contract, and a small
enumeration-oracle instance (``tests/reference/oracle_enum.py``)
reports the provable optimality gap of both modes.  Both modes cut
single-path Critical DAGs in closed form; each row counts those cuts
as ``chain_cuts``.  Results land in
``benchmarks/BENCH_optimizer.json`` -- the repo's perf trajectory for
the optimizer hot path.

Run directly::

    python benchmarks/bench_optimizer_hotpath.py            # full matrix
    python benchmarks/bench_optimizer_hotpath.py --quick \
        --ceiling-s 60 --exactness both --fast-floor 1.05   # CI perf smoke

``--quick`` skips the seed side (the slow one), runs reduced step
counts and exits non-zero if any cold characterization exceeds the
wall-clock ceiling -- a coarse guard against hot-path regressions,
deliberately generous so CI machine jitter never trips it.
``--fast-floor`` additionally fails the run when the geomean fast-mode
speedup over the exact kernel falls below the floor, and any
fast-tolerance or oracle-bound violation always fails.

The module is also collectable by the pytest benchmark harness
(``pytest benchmarks/bench_optimizer_hotpath.py``), where it runs the
quick matrix and emits the table through the shared results sink.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from typing import List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":  # runnable without installing the package
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Full seed-vs-kernel matrix (the tracked perf-trajectory artifact).
RESULT_PATH = os.path.join(_BENCH_DIR, "BENCH_optimizer.json")
#: Quick/CI runs land here so they never clobber the tracked numbers.
QUICK_RESULT_PATH = os.path.join(_BENCH_DIR, "BENCH_optimizer.quick.json")

#: (label, build_stack kwargs, quick-mode step target, timing repeats).
#: The first three are the A100 PP4 workloads the figure benchmarks use
#: (scaled microbatches, experiment-default stride); the last is an
#: emulation-scale 64-stage pipeline (single repeat: its seed-path crawl
#: runs minutes).  Repeats take the best time -- each run is still fully
#: cold (caches evicted), the min just rejects scheduler jitter -- and
#: every repeat's time is recorded next to it.
WORKLOADS = [
    ("gpt3-1.3b@a100-pp4",
     dict(model="gpt3-xl", gpu="a100", stages=4, microbatches=12,
          microbatch_size=4, freq_stride=4), 120, 3),
    ("bert-1.3b@a100-pp4",
     dict(model="bert-huge", gpu="a100", stages=4, microbatches=12,
          microbatch_size=8, freq_stride=4), 120, 3),
    ("t5-3b@a100-pp4",
     dict(model="t5-3b", gpu="a100", stages=4, microbatches=12,
          microbatch_size=4, freq_stride=4), 120, 3),
    ("gpt3-175b@a100-pp64",
     dict(model="gpt3-175b", gpu="a100", stages=64, microbatches=16,
          microbatch_size=1, freq_stride=16), 40, 1),
]


def _frontier_fingerprint(frontier) -> list:
    """Exact (hex-float) content of a frontier, for bit-identity checks."""
    return [
        [
            p.iteration_time.hex(),
            p.effective_energy.hex(),
            p.compute_energy.hex(),
            sorted((k, v.hex()) for k, v in p.durations.items()),
            sorted(p.frequencies.items()),
        ]
        for p in frontier.points
    ]


def _tests_on_path() -> None:
    """Make ``tests/reference/`` (both oracles) importable as ``reference``."""
    tests_dir = os.path.join(REPO_ROOT, "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)


def _seed_oracle():
    """The seed oracle's context manager (``tests/reference/``)."""
    _tests_on_path()
    from reference import seed_oracle

    return seed_oracle()


def _cold_crawl(stack, tau: float, slow: bool, exactness: str = "exact"):
    """One cold characterization; returns (frontier, seconds)."""
    from repro.core.frontier import characterize_frontier

    profile = stack.profile
    # Cold means cold: fitted cost models are cached on the profile and
    # Pareto fronts on each op profile, so evict both before every timed
    # run (the seed side bypasses these caches by design -- the kernel
    # side must not get to keep them across repeats).
    profile.__dict__.pop("_cost_model_cache", None)
    for op_profile in profile.ops.values():
        op_profile._pareto_cache = None
    with _seed_oracle() if slow else contextlib.nullcontext():
        started = time.perf_counter()
        frontier = characterize_frontier(stack.dag, profile, tau=tau,
                                         exactness=exactness)
        elapsed = time.perf_counter() - started
    return frontier, elapsed


def _best_of(stack, tau: float, repeats: int, slow: bool = False,
             exactness: str = "exact"):
    """``repeats`` cold crawls: the fastest one's frontier (whose stats
    are its own stage timings) and time, plus every repeat's time."""
    best, best_s, times = None, math.inf, []
    for _ in range(repeats):
        frontier, elapsed = _cold_crawl(stack, tau, slow=slow,
                                        exactness=exactness)
        times.append(round(elapsed, 4))
        if elapsed < best_s:
            best, best_s = frontier, elapsed
    return best, best_s, times


def _worst_excess(fast_frontier, exact_frontier) -> float:
    """Worst per-point relative excess of fast over exact-at-same-time."""
    worst = 0.0
    for point in fast_frontier.points:
        ref = exact_frontier.schedule_for(point.iteration_time)
        excess = (point.effective_energy - ref.effective_energy) / max(
            abs(ref.effective_energy), 1e-9
        )
        worst = max(worst, excess)
    return worst


def _round_timings(timings: dict) -> dict:
    return {
        k: (round(v, 4) if isinstance(v, float) else v)
        for k, v in timings.items()
    }


def _oracle_section(planner) -> dict:
    """Provable optimality gaps on an enumerable single-microbatch DAG.

    The headline workloads are far too large to enumerate, so the
    oracle instance is a dedicated 2-stage/1-microbatch pipeline: small
    enough for an exhaustive ladder sweep, planned with the same cost
    models.  Gaps are relative to the exact *discrete* optimum (ladder
    mode); ``bound_violations`` counts frontier points provably below
    the continuous grid floor -- always zero unless something is wrong.
    """
    from repro.api import auto_tau

    _tests_on_path()
    from reference.oracle_enum import optimality_gap, oracle_bound

    stack = planner.build_stack(model="gpt3-xl", gpu="a100", stages=2,
                                microbatches=1, freq_stride=8)
    tau = auto_tau(stack.dag, stack.profile, 60)
    ladder = oracle_bound(stack.dag, stack.profile, mode="ladder")
    grid = oracle_bound(stack.dag, stack.profile, grid_points=9)
    section = {
        "workload": "gpt3-1.3b@a100-pp2-mb1",
        "ladder_assignments": ladder.assignments,
        "grid_assignments": grid.assignments,
        "grid_slack": round(grid.slack, 4),
    }
    for exactness in ("exact", "fast"):
        frontier, _ = _cold_crawl(stack, tau, slow=False,
                                  exactness=exactness)
        violations = sum(
            1 for p in frontier.points
            if p.effective_energy < grid.lower_bound(p.iteration_time)
            - 1e-9
        )
        section[f"{exactness}_oracle_gap"] = round(
            optimality_gap(frontier, ladder), 6
        )
        section[f"{exactness}_bound_violations"] = violations
        if violations:
            raise AssertionError(
                f"oracle bound violated by {violations} {exactness} "
                f"frontier points"
            )
    return section


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run(quick: bool = False, only: Optional[List[str]] = None,
        exactness: str = "both") -> dict:
    """Run the matrix; returns (and writes) the result document."""
    from repro.api import Planner, auto_tau
    from repro.core.nextschedule import FAST_TOLERANCE

    if exactness not in ("exact", "fast", "both"):
        raise ValueError(f"exactness must be exact/fast/both, "
                         f"got {exactness!r}")
    run_exact = exactness in ("exact", "both")
    run_fast = exactness in ("fast", "both")
    planner = Planner()
    rows = []
    for key, kwargs, quick_steps, repeats in WORKLOADS:
        if only and key not in only:
            continue
        stack = planner.build_stack(**kwargs)
        tau = auto_tau(stack.dag, stack.profile,
                       quick_steps if quick else 250)
        if quick:
            repeats = 1
        # The exact kernel always runs: it is both a timed column and
        # the tolerance reference for fast mode.
        kernel_frontier, kernel_s, kernel_times = _best_of(stack, tau,
                                                           repeats)
        row = {
            "workload": key,
            **{k: v for k, v in kwargs.items() if k != "gpu"},
            "gpu": kwargs["gpu"],
            "tau_s": tau,
            "num_computations": stack.dag.num_computations,
            "steps": kernel_frontier.steps,
            "points": len(kernel_frontier.points),
            "kernel_s": round(kernel_s, 4),
            "kernel_repeats_s": kernel_times,
            "chain_cuts": kernel_frontier.stats["timings"]["chain_cuts"],
            "kernel_timings": _round_timings(
                kernel_frontier.stats["timings"]
            ),
        }
        if run_fast:
            fast_frontier, fast_s, fast_times = _best_of(
                stack, tau, repeats, exactness="fast")
            worst = _worst_excess(fast_frontier, kernel_frontier)
            if worst > FAST_TOLERANCE:
                raise AssertionError(
                    f"{key}: fast mode exceeds the exact crawl by "
                    f"{worst:.4f} (> {FAST_TOLERANCE} tolerance)"
                )
            row.update({
                "fast_s": round(fast_s, 4),
                "fast_repeats_s": fast_times,
                "fast_vs_exact": round(kernel_s / fast_s, 2),
                "fast_tolerance_worst": round(worst, 6),
                "fast_points": len(fast_frontier.points),
                "fast_chain_cuts":
                    fast_frontier.stats["timings"]["chain_cuts"],
                "fast_timings": _round_timings(
                    fast_frontier.stats["timings"]
                ),
            })
        if not quick and run_exact:
            seed_frontier, seed_s, seed_times = _best_of(stack, tau,
                                                         repeats, slow=True)
            identical = (_frontier_fingerprint(seed_frontier)
                         == _frontier_fingerprint(kernel_frontier))
            row.update({
                "seed_s": round(seed_s, 4),
                "seed_repeats_s": seed_times,
                "speedup": round(seed_s / kernel_s, 2),
                "bit_identical": identical,
            })
            if "fast_s" in row:
                row["fast_speedup"] = round(seed_s / row["fast_s"], 2)
            if not identical:
                raise AssertionError(
                    f"{key}: kernel frontier diverged from the "
                    f"seed oracle"
                )
        rows.append(row)
        line = (f"{key:24s} kernel {kernel_s:7.3f}s"
                f" (chain cuts {row['chain_cuts']}/"
                f"{row['kernel_timings']['cuts']})")
        if "fast_s" in row:
            line += (f"  fast {row['fast_s']:7.3f}s"
                     f" ({row['fast_vs_exact']:4.2f}x,"
                     f" tol {row['fast_tolerance_worst']:.1e})")
        if "seed_s" in row:
            line += (f"  seed {row['seed_s']:7.3f}s"
                     f"  speedup {row['speedup']:5.2f}x  bit-identical")
        print(line, flush=True)

    doc = {
        "benchmark": "optimizer-hotpath",
        "mode": "quick" if quick else "full",
        "exactness": exactness,
        "seed_definition": (
            "seed oracle: the seed dict event-times / per-call "
            "FlowNetwork implementation preserved verbatim in "
            "tests/reference/, with per-call pareto filtering and "
            "per-crawl cost-model refits as the seed had.  Exponential fits are the one shared component "
            "(both sides must plan from identical coefficients for the "
            "bit-identity check to be meaningful)."
        ),
        "fast_definition": (
            "exactness='fast' kernel: warm-started min-cuts and "
            "series-parallel contraction (single-path instances take "
            "the same closed-form cuts as exact mode, counted in "
            "chain_cuts); "
            "every frontier point validated within FAST_TOLERANCE of "
            "the exact crawl at the same iteration time, and the small "
            "oracle instance certifies neither mode dips below the "
            "enumeration lower bound."
        ),
        "workloads": rows,
    }
    if run_fast:
        doc["oracle"] = _oracle_section(planner)
    speedups = [r["speedup"] for r in rows if "speedup" in r]
    if speedups:
        doc["geomean_speedup"] = round(_geomean(speedups), 2)
    fast_vs_exact = [r["fast_vs_exact"] for r in rows
                     if "fast_vs_exact" in r]
    if fast_vs_exact:
        doc["geomean_fast_vs_exact"] = round(_geomean(fast_vs_exact), 2)
    fast_speedups = [r["fast_speedup"] for r in rows
                     if "fast_speedup" in r]
    if fast_speedups:
        doc["geomean_fast_speedup"] = round(_geomean(fast_speedups), 2)
    path = QUICK_RESULT_PATH if quick else RESULT_PATH
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2)
        fp.write("\n")
    summary = []
    if "geomean_speedup" in doc:
        summary.append(f"geomean speedup {doc['geomean_speedup']}x")
    if "geomean_fast_speedup" in doc:
        summary.append(
            f"fast geomean {doc['geomean_fast_speedup']}x vs seed"
        )
    elif "geomean_fast_vs_exact" in doc:
        summary.append(
            f"fast geomean {doc['geomean_fast_vs_exact']}x vs exact"
        )
    print(f"wrote {path}"
          + (f" ({', '.join(summary)})" if summary else ""))
    return doc


def test_optimizer_hotpath_quick():
    """Pytest harness entry: quick kernel matrix with a lax ceiling."""
    doc = run(quick=True, only=[WORKLOADS[0][0], WORKLOADS[1][0]])
    for row in doc["workloads"]:
        assert row["kernel_s"] < 60.0, f"{row['workload']} exceeded ceiling"
        assert row["fast_tolerance_worst"] <= 0.05
    assert doc["oracle"]["fast_bound_violations"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="no seed side, reduced step targets")
    parser.add_argument("--ceiling-s", type=float, default=None,
                        help="fail if any cold kernel crawl exceeds this")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of workload keys to run")
    parser.add_argument("--exactness", choices=("exact", "fast", "both"),
                        default="both",
                        help="which optimizer modes to time (fast/both "
                             "also validate tolerance and oracle bounds)")
    parser.add_argument("--fast-floor", type=float, default=None,
                        help="fail if the geomean fast-vs-exact speedup "
                             "falls below this factor")
    args = parser.parse_args(argv)
    doc = run(quick=args.quick, only=args.only, exactness=args.exactness)
    if args.ceiling_s is not None:
        over = [r for r in doc["workloads"] if r["kernel_s"] > args.ceiling_s]
        if over:
            print(f"FAIL: {[r['workload'] for r in over]} exceeded "
                  f"{args.ceiling_s}s ceiling", file=sys.stderr)
            return 1
    if args.fast_floor is not None:
        geomean = doc.get("geomean_fast_vs_exact")
        if geomean is None or geomean < args.fast_floor:
            print(f"FAIL: geomean fast-vs-exact speedup {geomean} below "
                  f"{args.fast_floor}x floor", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
