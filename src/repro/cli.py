"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands:

* ``plan``      -- model -> partition -> profile -> frontier; prints the
  frontier summary and (optionally) saves it as JSON for the server.
  ``--strategy`` swaps the planner policy (default ``perseus``).
* ``compare``   -- run **every** registered strategy over one shared
  profile and tabulate iteration time, energy, savings and slowdown --
  one row per strategy (see ``repro.api.list_strategies``).
* ``sweep``     -- batch-plan many specs (strategy lists, mixed-cluster
  GPU pools, or a JSON manifest) with per-spec error isolation.
  ``--cache-dir`` persists partitions / profiles / frontiers across
  invocations (second run: zero re-profiling) and lets ``--jobs`` plan
  on a process pool (without a store the sweep plans serially);
  ``--format json|csv`` + ``--output`` export the report rows.
* ``timeline``  -- render the Figure-1 style before/after timelines for
  the chosen ``--strategy``.
* ``straggler`` -- given a saved frontier, look up ``T_opt = min(T*, T')``
  schedules for one or more anticipated slowdowns (degrees beyond the
  frontier range are reported as clamped; a degree below 1.0 is an
  error).
* ``fleet``     -- simulate a datacenter of training jobs under a
  cluster power cap: jobs from a trace file (``--trace``) or seeded
  synthetic arrivals, an allocation policy (``--policy waterfill``),
  a constant ``--cap-watts`` or a piecewise ``--cap-trace``, report as
  a table or ``--format json|csv``.
* ``serve``     -- run the multi-tenant planning daemon: the shared
  planner behind an HTTP/JSON front end with request coalescing,
  per-tenant quotas, backpressure and a ``/metrics`` endpoint
  (``--port``, ``--cache-dir``, ``--max-inflight``, ``--quota-rate``).
  ``--replicas N`` launches N daemon processes over one shared store,
  coordinated by a store-level single flight: one ``flock`` per
  materialization, released by the kernel if its holder dies.
* ``call``      -- one RPC against a running daemon: ``repro call
  ping``, ``repro call plan --params '{"spec": {...}}'``; the special
  method names ``metrics`` and ``health`` fetch the GET endpoints.
* ``trace view`` -- ASCII summary of a saved Chrome trace-event JSON
  (from ``plan --trace`` or ``fleet --trace-out``); the same files load
  in Perfetto (https://ui.perfetto.dev).
* ``cache gc`` -- prune a persistent plan store to a size cap
  (least-recently-used entries first, recency = file mtime refreshed on
  every disk hit).  ``repro cache gc --max-bytes 200M``.
* ``strategies`` / ``policies`` / ``models`` / ``gpus`` -- list the
  strategy registry (name plus one-line description), the fleet policy
  registry, the model zoo and the device registry.

All planning commands share one :class:`repro.api.Planner`, so e.g.
``compare`` profiles the pipeline exactly once for all six strategies.

``--gpu`` accepts either one name (``--gpu a100``) or a comma-separated
per-stage list (``--gpu a100,a100,a40,a40``) for mixed-cluster planning;
a per-stage list must name exactly one GPU per ``--stages``.

Exit codes follow a two-value convention:

* ``0`` -- the command ran to completion.
* ``2`` -- a :class:`repro.exceptions.ReproError` (bad configuration,
  unknown model/GPU/strategy, malformed input file); the message is
  printed to stderr.  Unexpected internal failures propagate as
  tracebacks, which is deliberate: they are bugs, not usage errors.
* ``3`` -- ``sweep`` only: the batch ran, but at least one spec failed
  (its row carries the error); the healthy rows are still reported.

Setting ``REPRO_CACHE_DIR`` gives every command a persistent plan
store, exactly as if ``--cache-dir`` were passed where supported.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import json

from .api import (
    Planner,
    PlanSpec,
    default_planner,
    get_strategy,
    list_strategies,
    mixed_cluster_specs,
    strategy_description,
)
from .core.serialization import load_json, save_json
from .core.unified import select_schedule, straggler_floor
from .exceptions import ReproError
from .gpu.specs import list_gpus
from .models.registry import list_models


def _add_plan_args(p: argparse.ArgumentParser,
                   model_optional: bool = False) -> None:
    if model_optional:
        p.add_argument("model", nargs="?", default=None,
                       help="model zoo variant (omit when using --specs)")
    else:
        p.add_argument("model", help="model zoo variant, e.g. gpt3-xl")
    p.add_argument("--gpu", default="a100",
                   help="GPU name/alias, or a comma-separated per-stage "
                        "list (e.g. a100,a100,a40,a40) for a mixed "
                        "cluster")
    p.add_argument("--stages", type=int, default=4, help="pipeline depth")
    p.add_argument("--microbatches", type=int, default=8)
    p.add_argument("--microbatch-size", type=int, default=None)
    p.add_argument("--tensor-parallel", type=int, default=1)
    p.add_argument("--freq-stride", type=int, default=4,
                   help="profile every k-th 15 MHz clock")
    p.add_argument("--tau", type=float, default=None,
                   help="planning granularity in seconds (auto if omitted)")
    p.add_argument("--exactness", choices=("exact", "fast"),
                   default="exact",
                   help="optimizer mode: 'exact' matches the reference "
                        "crawl bit-for-bit; 'fast' enables warm-started "
                        "min-cuts and series-parallel contraction "
                        "(within tolerance; measured 1.2-1.4x faster)")


def _parse_gpu(raw: str):
    """``a100`` -> name; ``a100,a100,a40,a40`` -> per-stage tuple."""
    if "," in raw:
        return tuple(name.strip() for name in raw.split(","))
    return raw


def _spec_of(args, strategy: Optional[str] = None) -> PlanSpec:
    return PlanSpec(
        model=args.model,
        gpu=_parse_gpu(args.gpu),
        stages=args.stages,
        microbatches=args.microbatches,
        microbatch_size=args.microbatch_size,
        tensor_parallel=args.tensor_parallel,
        freq_stride=args.freq_stride,
        tau=args.tau,
        strategy=strategy or getattr(args, "strategy", "perseus"),
        exactness=getattr(args, "exactness", "exact"),
    )


def _print_timings(timings: Optional[dict]) -> None:
    """Render a frontier crawl's ``stats["timings"]`` block."""
    if not timings:
        print("timings    : (no frontier characterized)")
        return
    print(f"timings    : kernel={timings.get('kernel', '?')} "
          f"cuts={timings.get('cuts', 0)} "
          f"repairs={timings.get('repairs', 0)}")
    for name in ("event_times_s", "instance_build_s", "maxflow_s",
                 "schedule_s"):
        if name in timings:
            label = name[:-2].replace("_", " ")
            print(f"  {label:<15s}: {timings[name] * 1000.0:8.1f} ms")
    if timings.get("kernel") == "fast":
        print(f"  warm cuts      : {timings.get('warm_hits', 0)} hits / "
              f"{timings.get('warm_misses', 0)} misses")
        print(f"  contraction    : {timings.get('contractions', 0)} runs, "
              f"edge ratio {timings.get('contraction_ratio', 1.0):.3f}")
        print(f"  event passes   : "
              f"{timings.get('incremental_passes', 0)} incremental / "
              f"{timings.get('full_passes', 0)} full "
              f"({timings.get('nodes_recomputed', 0)}/"
              f"{timings.get('nodes_total', 0)} nodes)")


def cmd_plan(args) -> int:
    spec = _spec_of(args)
    planner = default_planner()
    recorder = None
    if args.trace:
        from .obs.trace import enable_tracing

        recorder = enable_tracing()
    stack = planner.result(spec)
    report = planner.plan(spec)
    print(f"model      : {stack.model.name} "
          f"({stack.model.params / 1e9:.2f}B params)")
    if stack.is_heterogeneous:
        mix = ", ".join(f"stage{i}={g.name}" for i, g in enumerate(stack.gpus))
        print(f"gpus       : {mix}")
    else:
        print(f"gpu        : {stack.gpu.name}")
    print(f"strategy   : {spec.strategy}")
    print(f"partition  : {list(stack.partition.boundaries)} "
          f"(imbalance {stack.partition.ratio:.2f})")
    if spec.strategy == "perseus" or args.output:
        # frontier_for (not stack.frontier) so a persistent store, if
        # attached via REPRO_CACHE_DIR, records the characterization.
        frontier = planner.frontier_for(spec)
        print(f"frontier   : {len(frontier.points)} schedules, "
              f"T_min={frontier.t_min:.4f}s, T*={frontier.t_star:.4f}s")
        print(f"optimizer  : {frontier.steps} steps, "
              f"{frontier.optimizer_runtime_s:.2f}s")
    # "intrinsic" is the paper's term for bloat Perseus removes without
    # slowing the iteration; other strategies get a neutral label.
    label = "intrinsic" if spec.strategy == "perseus" else "savings"
    print(f"{label:11s}: {report.energy_savings_pct:.1f}% energy saved at "
          f"{report.slowdown_pct:+.2f}% iteration time")
    if args.timings:
        # Force characterization so there is a crawl to report on, then
        # show where its time went (flat or fast kernel, event passes,
        # instance builds, max-flow solves).
        frontier = planner.frontier_for(spec)
        _print_timings(frontier.stats.get("timings"))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            save_json(stack.frontier, fp)
        print(f"frontier saved to {args.output}")
    if recorder is not None:
        from .obs.export import save_chrome_trace
        from .obs.trace import disable_tracing

        spans = recorder.spans
        disable_tracing()
        save_chrome_trace(args.trace, spans)
        trace_id = (report.provenance or {}).get("trace_id")
        print(f"trace saved to {args.trace} ({len(spans)} spans"
              + (f", trace id {trace_id}" if trace_id else "") + ")")
    return 0


def cmd_compare(args) -> int:
    from .experiments.report import format_table

    planner = default_planner()
    spec = _spec_of(args)
    reports = planner.sweep(
        spec.replace(strategy=name) for name in list_strategies()
    )
    rows = [
        [
            r.strategy,
            f"{r.iteration_time_s:.4f}",
            f"{r.energy_j:.1f}",
            f"{r.energy_savings_pct:+.1f}",
            f"{r.slowdown_pct:+.2f}",
        ]
        for r in reports
    ]
    print(format_table(
        ["strategy", "iteration time (s)", "energy (J)",
         "savings (%)", "slowdown (%)"],
        rows,
        title=f"{args.model} on {args.gpu}: every registered strategy "
              f"(shared profile; savings vs all-max)",
    ))
    return 0


def _load_manifest(path: str) -> List[PlanSpec]:
    """Specs from a JSON manifest: a list of ``plan_spec`` payloads or
    an object with a ``specs`` list (a sweep's sidecar manifest)."""
    try:
        with open(path, encoding="utf-8") as fp:
            payload = json.load(fp)
    except OSError as exc:
        raise ReproError(f"cannot read manifest {path}: {exc}") from exc
    except ValueError as exc:
        raise ReproError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(payload, dict):
        payload = payload.get("specs")
    if not isinstance(payload, list) or not payload:
        raise ReproError(
            f"{path}: a sweep manifest is a non-empty JSON list of "
            f"plan_spec payloads (or an object with a 'specs' list)"
        )
    return [PlanSpec.from_dict(entry) for entry in payload]


def _sweep_specs(args) -> List[PlanSpec]:
    """Expand CLI flags (or a manifest) into the batch to plan."""
    if args.specs:
        return _load_manifest(args.specs)
    if not args.model:
        raise ReproError("sweep needs a model (or --specs MANIFEST)")
    base = _spec_of(args, strategy="perseus")
    if args.strategies == "all":
        strategies = list_strategies()
    else:
        strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
        if not strategies:
            raise ReproError("--strategies must name at least one strategy")
    specs: List[PlanSpec] = []
    for name in strategies:
        with_strategy = base.replace(strategy=name)
        if args.gpu_pool:
            pool = [g.strip() for g in args.gpu_pool.split(",") if g.strip()]
            specs.extend(mixed_cluster_specs(with_strategy, pool))
        else:
            specs.append(with_strategy)
    return specs


def _write_report(fp, rows, fmt: str) -> None:
    dicts = [r.to_dict() for r in rows]
    if fmt == "json":
        json.dump(dicts, fp, indent=2)
        fp.write("\n")
    else:
        from .experiments.export import write_series

        headers = list(dicts[0].keys())
        write_series(fp, headers, ([d[h] for h in headers] for d in dicts))


def cmd_sweep(args) -> int:
    from .experiments.report import format_table

    specs = _sweep_specs(args)
    planner = Planner(cache=args.cache_dir) if args.cache_dir \
        else default_planner()
    rows = planner.sweep(specs, jobs=args.jobs, errors="report")
    # A machine format on stdout must stay a clean, parseable stream
    # (`repro sweep --format json | jq .`): route the human-facing
    # table and counters to stderr in that case.
    human = sys.stderr if (args.format != "table" and not args.output) \
        else sys.stdout
    table = [
        [
            r.spec.model,
            (r.spec.gpu if isinstance(r.spec.gpu, str)
             else ",".join(r.spec.gpu)),
            r.strategy,
            "-" if not r.ok else f"{r.iteration_time_s:.4f}",
            "-" if not r.ok else f"{r.energy_j:.1f}",
            "-" if not r.ok else f"{r.energy_savings_pct:+.1f}",
            # keep the table narrow; full messages live in --output rows
            (r.error[:57] + "..." if r.error and len(r.error) > 60
             else (r.error or "")),
        ]
        for r in rows
    ]
    failed = sum(1 for r in rows if not r.ok)
    print(format_table(
        ["model", "gpu", "strategy", "time (s)", "energy (J)",
         "savings (%)", "error"],
        table,
        title=f"sweep: {len(rows)} specs, {failed} failed "
              f"(jobs={args.jobs or 1})",
    ), file=human)
    # The persistence guard greps this line: a warm store keeps every
    # expensive-work counter at zero on a repeat run.
    s = planner.stats
    print(f"work       : profiles={s['profile']} "
          f"stage_sweeps={s['stage_profile']} taus={s['tau']} "
          f"frontiers={s['frontier']}", file=human)
    counters = planner.cache.counters
    print("cache      : " + " ".join(
        f"{name}={counters[name]}" for name in sorted(counters)
    ), file=human)
    if args.output:
        # the printed table is not a file format; default exports to CSV
        fmt = "csv" if args.format == "table" else args.format
        with open(args.output, "w", encoding="utf-8", newline="") as fp:
            _write_report(fp, rows, fmt)
        print(f"report ({fmt}) saved to {args.output}")
    elif args.format != "table":
        _write_report(sys.stdout, rows, args.format)
    return 3 if failed else 0


def cmd_timeline(args) -> int:
    from .viz.timeline_ascii import render_comparison

    planner = default_planner()
    spec = _spec_of(args)
    report = planner.plan(spec)
    base = planner.baseline_execution(spec)
    print(render_comparison(base, report.execution, width=args.width,
                            label=spec.strategy))
    return 0


def cmd_straggler(args) -> int:
    with open(args.frontier, encoding="utf-8") as fp:
        frontier = load_json(fp)
    if not hasattr(frontier, "schedule_for"):
        print("error: file does not contain a frontier", file=sys.stderr)
        return 2
    # Every degree is checked before the first row is printed.
    floors = [straggler_floor(frontier.t_min, d) for d in args.degrees]
    print(f"frontier: T_min={frontier.t_min:.4f}s T*={frontier.t_star:.4f}s")
    for degree, floor in zip(args.degrees, floors):
        t_prime = frontier.t_min if floor is None else floor
        sched = select_schedule(frontier, floor)
        clamped = (" (T' beyond frontier, clamped to T*)"
                   if t_prime > frontier.t_star else "")
        print(f"  degree {degree:4.2f}: T'={t_prime:.4f}s -> T_opt schedule "
              f"at {sched.iteration_time:.4f}s, effective energy "
              f"{sched.effective_energy:.1f} J{clamped}")
    return 0


def _fleet_trace(args):
    """The fleet scenario: a trace file, or seeded synthetic arrivals."""
    from .fleet import FleetTrace, synthetic_trace

    if args.trace:
        try:
            with open(args.trace, encoding="utf-8") as fp:
                return FleetTrace.from_json(fp)
        except OSError as exc:
            raise ReproError(f"cannot read trace {args.trace}: {exc}") from exc
        except ValueError as exc:
            raise ReproError(f"{args.trace} is not valid JSON: {exc}") from exc
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    gpus = [g.strip() for g in args.gpus.split(",") if g.strip()]
    if not models:
        raise ReproError("fleet needs --models (or --trace FILE)")
    lo = args.iterations
    # Without an explicit upper bound the default range top applies,
    # clamped so `--iterations 500` alone still forms a valid range.
    hi = args.max_iterations if args.max_iterations is not None \
        else max(lo, 400)
    return synthetic_trace(
        models, args.count, seed=args.seed, gpus=gpus,
        interval_s=args.interval_s, iterations=(lo, hi),
        stages=args.stages, microbatches=args.microbatches,
        freq_stride=args.freq_stride,
    )


def cmd_fleet(args) -> int:
    from .experiments.report import format_table
    from .fleet import FleetSimulator, StepTrace

    trace = _fleet_trace(args)
    observers = None
    if args.drift:
        from .drift.scenarios import ScenarioDriver, get_scenario

        try:
            overrides = json.loads(args.drift_params) \
                if args.drift_params else {}
        except ValueError as exc:
            raise ReproError(
                f"--drift-params is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ReproError("--drift-params must be a JSON object")
        scenario = get_scenario(args.drift, **overrides)
        # One driver per job, with the fault clock starting at that
        # job's arrival -- every job sees the same relative timeline.
        observers = [ScenarioDriver(job.job_id, scenario,
                                    start_s=job.arrival_s)
                     for job in trace.jobs]
    cap = args.cap_watts
    if args.cap_trace:
        try:
            with open(args.cap_trace, encoding="utf-8") as fp:
                cap = StepTrace.from_json(fp)
        except OSError as exc:
            raise ReproError(
                f"cannot read cap trace {args.cap_trace}: {exc}"
            ) from exc
        except ValueError as exc:
            raise ReproError(
                f"{args.cap_trace} is not valid JSON: {exc}"
            ) from exc
    planner = Planner(cache=args.cache_dir) if args.cache_dir \
        else default_planner()
    sim = FleetSimulator(
        trace, policy=args.policy, cap_w=cap, carbon=args.carbon,
        planner=planner, plan_jobs=args.jobs, observers=observers,
        record_timeline=bool(args.trace_out),
    )
    report = sim.run()

    human = sys.stderr if (args.format != "table" and not args.output) \
        else sys.stdout
    rows = [
        [
            r.job_id,
            r.model,
            r.gpus,
            str(r.iterations),
            f"{r.duration_s:.1f}",
            f"{r.energy_j:.0f}",
            f"{r.slowdown_pct:+.2f}",
            ("-" if r.deadline_s is None
             else ("MISS" if r.deadline_missed else "ok")),
        ]
        for r in report.jobs
    ]
    # --cap-trace overrides --cap-watts, so label in the same order.
    cap_label = ("trace" if args.cap_trace
                 else f"{args.cap_watts:.0f} W"
                 if args.cap_watts is not None else "uncapped")
    print(format_table(
        ["job", "model", "gpus", "iters", "duration (s)", "energy (J)",
         "slowdown (%)", "deadline"],
        rows,
        title=f"fleet: {len(report.jobs)} jobs, policy={report.policy}, "
              f"cap={cap_label}",
    ), file=human)
    print(f"fleet      : energy={report.fleet_energy_j:.0f} J "
          f"(all-max {report.allmax_energy_j:.0f} J, "
          f"{report.energy_vs_allmax_pct:+.2f}% vs all-max)", file=human)
    print(f"slowdown   : {report.aggregate_slowdown_pct:+.2f}% aggregate, "
          f"makespan {report.makespan_s:.1f} s", file=human)
    # The fleet-smoke CI guard greps this line: the water-filling policy
    # must keep the steady-state scenario strictly under its cap.
    print(f"cap        : violation {report.cap_violation_s:.2f} s, "
          f"deadline misses {report.deadline_misses}", file=human)
    if observers is not None:
        # The drift-smoke CI guard greps this line for a nonzero
        # replans_total: online notifications must re-point jobs.
        stats = sim.drift_stats
        print(f"drift      : replans_total={stats['replans']} "
              f"notifications={stats['notifications']} "
              f"wakes={stats['wakes']} scenario={args.drift}", file=human)
    if report.carbon_g:
        print(f"carbon     : {report.carbon_g:.1f} gCO2", file=human)

    if args.trace_out:
        from .obs.export import fleet_timeline_to_chrome

        document = fleet_timeline_to_chrome(sim.timeline)
        with open(args.trace_out, "w", encoding="utf-8") as fp:
            json.dump(document, fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"timeline saved to {args.trace_out} "
              f"({len(sim.timeline)} entries)", file=human)

    if args.output or args.format != "table":
        fmt = "csv" if args.format == "table" else args.format
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as fp:
                _write_fleet_report(fp, report, fmt)
            print(f"report ({fmt}) saved to {args.output}")
        else:
            _write_fleet_report(sys.stdout, report, fmt)
    return 0


def _write_fleet_report(fp, report, fmt: str) -> None:
    if fmt == "json":
        json.dump(report.to_dict(), fp, indent=2)
        fp.write("\n")
    else:
        from .experiments.export import write_series

        dicts = [r.to_dict() for r in report.jobs]
        headers = list(dicts[0].keys()) if dicts else []
        write_series(fp, headers, ([d[h] for h in headers] for d in dicts))


def cmd_policies(_args) -> int:
    from .fleet import get_policy, list_policies, policy_description

    names = list_policies()
    width = max(len(name) for name in names)
    for name in names:
        print(f"{name:<{width}}  {policy_description(get_policy(name))}")
    return 0


def cmd_cache_gc(args) -> int:
    from .api.planner import CACHE_DIR_ENV
    from .core.store import PlanStore, parse_size

    root = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
    if not root:
        raise ReproError(
            "cache gc needs a store: pass --cache-dir or set "
            f"{CACHE_DIR_ENV}"
        )
    store = PlanStore(root)
    before = store.disk_bytes()
    result = store.gc(parse_size(args.max_bytes))
    print(f"store      : {os.path.abspath(root)}")
    print(f"before     : {before} bytes")
    print(f"removed    : {result['removed']} entries "
          f"({result['freed_bytes']} bytes, LRU by mtime)")
    print(f"kept       : {result['kept_bytes']} bytes")
    return 0


def _serve_replicas(args) -> int:
    """``repro serve --replicas N``: N daemon processes, one store."""
    import time

    from .api.planner import CACHE_DIR_ENV
    from .service import ReplicaSet

    root = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
    if not root:
        raise ReproError(
            "--replicas needs a shared plan store for cross-process "
            f"single-flight: pass --cache-dir or set {CACHE_DIR_ENV}"
        )
    extra = ["--max-inflight", str(args.max_inflight),
             "--quota-burst", str(args.quota_burst)]
    if args.quota_rate is not None:
        extra += ["--quota-rate", str(args.quota_rate)]
    # With an explicit base port the replicas take consecutive ports;
    # port 0 gives every replica its own ephemeral bind.
    ports = None if args.port == 0 \
        else [args.port + i for i in range(args.replicas)]
    with ReplicaSet(args.replicas, root, host=args.host, ports=ports,
                    extra_args=extra) as fleet:
        print(f"replicas   : {args.replicas} daemons over one store")
        for daemon in fleet.daemons:
            print(f"  {daemon.url}  (pid {daemon.pid})")
        print(f"store      : {os.path.abspath(root)}")
        print(f"client     : repro call ping --url "
              f"{','.join(fleet.urls)}")
        sys.stdout.flush()
        try:
            while all(d.alive for d in fleet.daemons):
                time.sleep(0.5)
            dead = [d.pid for d in fleet.daemons if not d.alive]
            print(f"replica(s) {dead} exited; shutting down the fleet",
                  file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    from .service import PlanningDaemon

    if args.replicas > 1:
        return _serve_replicas(args)
    planner = Planner(cache=args.cache_dir) if args.cache_dir \
        else default_planner()
    daemon = PlanningDaemon(
        planner=planner,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        log_jsonl=args.log_jsonl,
    )
    quota = (f"{args.quota_rate:g}/s burst {args.quota_burst:g}"
             if args.quota_rate else "off")
    print(f"serving    : {daemon.url}  (POST /rpc, GET /metrics, "
          f"GET /healthz)")
    print(f"admission  : max-inflight={args.max_inflight} quota={quota}")
    if args.log_jsonl:
        print(f"event log  : {os.path.abspath(args.log_jsonl)} (JSONL)")
    if args.cache_dir:
        print(f"store      : {os.path.abspath(args.cache_dir)}")
    sys.stdout.flush()
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        daemon.close()
    return 0


def cmd_call(args) -> int:
    from .service import ReplicaClient, ServiceClient

    # A comma-separated --url gets the replica-aware client: sticky
    # tenant routing plus failover on unreachable/5xx daemons.
    if "," in args.url:
        client = ReplicaClient(args.url, tenant=args.tenant,
                               timeout_s=args.timeout_s)
    else:
        client = ServiceClient(args.url, tenant=args.tenant,
                               timeout_s=args.timeout_s)
    # GET endpoints ride the same subcommand for one-stop scripting.
    if args.method == "metrics":
        sys.stdout.write(client.metrics_text())
        return 0
    if args.method == "health":
        json.dump(client.health(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    try:
        params = json.loads(args.params) if args.params else {}
    except ValueError as exc:
        raise ReproError(f"--params is not valid JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise ReproError("--params must be a JSON object")
    result = client.call(args.method, params, request_id=args.id)
    json.dump(result, sys.stdout, indent=2)
    sys.stdout.write("\n")
    # Stderr so `repro call ... | jq` stays clean; the obs-smoke CI
    # guard greps this id on both sides of the round-trip.
    if getattr(client, "last_trace_id", None):
        print(f"trace      : {client.last_trace_id}", file=sys.stderr)
    return 0


def cmd_trace_view(args) -> int:
    from .obs.export import format_trace, load_chrome_trace

    try:
        document = load_chrome_trace(args.file)
    except OSError as exc:
        raise ReproError(f"cannot read trace {args.file}: {exc}") from exc
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    print(format_trace(document, width=args.width))
    return 0


def cmd_strategies(_args) -> int:
    names = list_strategies()
    width = max(len(name) for name in names)
    for name in names:
        print(f"{name:<{width}}  {strategy_description(get_strategy(name))}")
    return 0


def cmd_models(_args) -> int:
    for name in list_models():
        print(name)
    return 0


def cmd_gpus(_args) -> int:
    for name in list_gpus():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Perseus reproduction: plan energy schedules for "
                    "pipeline-parallel training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="characterize a time-energy frontier")
    _add_plan_args(p)
    p.add_argument("--strategy", default="perseus",
                   help="registered strategy name (see 'strategies')")
    p.add_argument("--output", "-o", default=None,
                   help="save the frontier as JSON")
    p.add_argument("--timings", action="store_true",
                   help="print the frontier crawl's timing breakdown "
                        "(event passes, instance builds, max-flow)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="record the plan as spans and save a Chrome "
                        "trace-event JSON (open in Perfetto, or "
                        "'repro trace view FILE')")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("compare",
                       help="tabulate every registered strategy on one "
                            "shared profile")
    _add_plan_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "sweep",
        help="batch-plan many specs (parallel, error-isolated, "
             "persistently cached)",
    )
    _add_plan_args(p, model_optional=True)
    p.add_argument("--strategies", default="perseus",
                   help="comma-separated strategy names, or 'all'")
    p.add_argument("--gpu-pool", default=None,
                   help="comma-separated GPU pool: sweep every per-stage "
                        "mix (cartesian product)")
    p.add_argument("--specs", default=None, metavar="MANIFEST",
                   help="JSON manifest of plan_spec payloads (overrides "
                        "model/strategy/pool flags)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes over --cache-dir (default: "
                        "serial; ignored without a store)")
    p.add_argument("--cache-dir", default=None,
                   help="persistent plan store: partitions, profiles and "
                        "frontiers are reused across runs")
    p.add_argument("--format", choices=["table", "json", "csv"],
                   default="table",
                   help="report format (with --output, 'table' defaults "
                        "to csv)")
    p.add_argument("--output", "-o", default=None,
                   help="write the report rows to this file")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("timeline", help="render before/after timelines")
    _add_plan_args(p)
    p.add_argument("--strategy", default="perseus",
                   help="registered strategy name (see 'strategies')")
    p.add_argument("--width", type=int, default=100)
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("straggler",
                       help="look up T_opt schedules from a saved frontier")
    p.add_argument("frontier", help="frontier JSON from 'plan -o'")
    p.add_argument("--degrees", type=float, nargs="+",
                   default=[1.05, 1.1, 1.2, 1.3, 1.5])
    p.set_defaults(func=cmd_straggler)

    p = sub.add_parser(
        "fleet",
        help="simulate a datacenter of training jobs under a power cap",
    )
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="fleet_trace JSON (jobs + straggler events); "
                        "omit for synthetic arrivals from the flags below")
    p.add_argument("--models", default="gpt3-xl,bert-large,t5-large",
                   help="comma-separated model zoo names the synthetic "
                        "trace cycles through")
    p.add_argument("--gpus", default="a100,a40",
                   help="comma-separated GPU names the synthetic trace "
                        "cycles through (one homogeneous pipeline each)")
    p.add_argument("--count", type=int, default=6,
                   help="number of synthetic jobs")
    p.add_argument("--seed", type=int, default=0,
                   help="synthetic arrival/iteration RNG seed")
    p.add_argument("--interval-s", type=float, default=5.0,
                   help="mean synthetic arrival gap in seconds")
    p.add_argument("--iterations", type=int, default=200,
                   help="lower bound of the synthetic iteration range")
    p.add_argument("--max-iterations", type=int, default=None,
                   help="upper bound of the synthetic iteration range "
                        "(default 400, raised to --iterations if that "
                        "is larger)")
    p.add_argument("--stages", type=int, default=4)
    p.add_argument("--microbatches", type=int, default=8)
    p.add_argument("--freq-stride", type=int, default=8)
    p.add_argument("--policy", default="waterfill",
                   help="registered fleet policy (see 'policies')")
    p.add_argument("--drift", default=None, metavar="SCENARIO",
                   help="inject a drift scenario online into every job "
                        "(thermal-ramp, stale-profile, "
                        "checkpoint-restart, flapping)")
    p.add_argument("--drift-params", default=None, metavar="JSON",
                   help="keyword overrides for the scenario factory, "
                        "e.g. '{\"start_s\": 60, \"peak\": 1.5}'")
    p.add_argument("--cap-watts", type=float, default=None,
                   help="constant cluster power cap in watts")
    p.add_argument("--cap-trace", default=None, metavar="FILE",
                   help="step_trace JSON of a time-varying cap "
                        "(overrides --cap-watts)")
    p.add_argument("--carbon", type=float, default=None,
                   help="grid carbon intensity in gCO2/kWh")
    p.add_argument("--jobs", type=int, default=None,
                   help="planner worker processes for the up-front "
                        "sweep (needs --cache-dir; serial without one)")
    p.add_argument("--cache-dir", default=None,
                   help="persistent plan store for the fleet's frontiers")
    p.add_argument("--format", choices=["table", "json", "csv"],
                   default="table",
                   help="report format (with --output, 'table' defaults "
                        "to csv)")
    p.add_argument("--output", "-o", default=None,
                   help="write the fleet report to this file")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="record the run's event timeline (arrivals, "
                        "re-plans, cap changes, drift wakes) and save "
                        "it as Chrome trace-event JSON (--trace is the "
                        "fleet *input* trace)")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant planning daemon (HTTP/JSON)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default loopback)")
    p.add_argument("--port", type=int, default=8421,
                   help="bind port (0 = ephemeral, printed on startup)")
    p.add_argument("--cache-dir", default=None,
                   help="persistent plan store shared by every tenant "
                        "(default: $REPRO_CACHE_DIR if set)")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="expensive requests executing at once before "
                        "429-style backpressure kicks in")
    p.add_argument("--quota-rate", type=float, default=None,
                   help="per-tenant sustained quota in expensive "
                        "requests/second (default: no quotas)")
    p.add_argument("--quota-burst", type=float, default=8.0,
                   help="per-tenant token-bucket burst capacity")
    p.add_argument("--replicas", type=int, default=1,
                   help="launch N daemon processes over one shared "
                        "store (needs --cache-dir or REPRO_CACHE_DIR); "
                        "an explicit --port becomes the base of N "
                        "consecutive ports")
    p.add_argument("--log-jsonl", default=None, metavar="FILE",
                   help="append every structured event (plans, cache "
                        "flights, drift, admission, RPCs -- with trace "
                        "ids) to this JSONL file")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "call",
        help="one RPC against a running daemon ('metrics'/'health' "
             "fetch the GET endpoints)",
    )
    p.add_argument("method",
                   help="RPC method (ping, plan, register_spec, "
                        "submit_sweep, report_of, sweep_reports, "
                        "is_ready, wait_ready, frontier_of, "
                        "current_schedule, set_straggler, "
                        "report_measurement, notify_restart, jobs, "
                        "stats) or metrics/health")
    p.add_argument("--url", default="http://127.0.0.1:8421",
                   help="daemon origin, or a comma-separated replica "
                        "list (failover client)")
    p.add_argument("--params", default=None,
                   help="JSON object of RPC params, e.g. "
                        "'{\"spec\": {\"model\": \"gpt3-xl\"}}'")
    p.add_argument("--tenant", default=None,
                   help="tenant namespace (X-Repro-Tenant header)")
    p.add_argument("--id", default=None,
                   help="idempotent request id (safe retries)")
    p.add_argument("--timeout-s", type=float, default=600.0,
                   help="socket timeout per request")
    p.set_defaults(func=cmd_call)

    p = sub.add_parser("trace", help="inspect saved Chrome trace files")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    t = trace_sub.add_parser(
        "view",
        help="ASCII summary of a Chrome trace-event JSON file "
             "(from 'plan --trace' or 'fleet --trace-out')",
    )
    t.add_argument("file", help="Chrome trace-event JSON file")
    t.add_argument("--width", type=int, default=72)
    t.set_defaults(func=cmd_trace_view)

    p = sub.add_parser("cache", help="plan-store maintenance")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    g = cache_sub.add_parser(
        "gc",
        help="prune a plan store to a size cap (least-recently-used "
             "entries, by file mtime, go first)",
    )
    g.add_argument("--cache-dir", default=None,
                   help="store directory (default: $REPRO_CACHE_DIR)")
    g.add_argument("--max-bytes", required=True,
                   help="target size, e.g. 200M, 1G, or 0 to clear")
    g.set_defaults(func=cmd_cache_gc)

    p = sub.add_parser("strategies", help="list registered strategies")
    p.set_defaults(func=cmd_strategies)
    p = sub.add_parser("policies", help="list registered fleet policies")
    p.set_defaults(func=cmd_policies)
    p = sub.add_parser("models", help="list model zoo variants")
    p.set_defaults(func=cmd_models)
    p = sub.add_parser("gpus", help="list GPU specs")
    p.set_defaults(func=cmd_gpus)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
