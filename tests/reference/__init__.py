"""Reference implementations, kept out of ``src/`` as the tests' oracles.

* :mod:`.critical` -- dict-of-float event times and critical-edge
  extraction (what :class:`~repro.graph.compiled.CompiledDag` replaces);
* :mod:`.fit` -- the numpy exponential fit (what the stdlib
  ``repro.profiler.fit`` replaces);
* :mod:`.dag_v1` -- the DAG builder before the one-pass rewrite
  (tuple-keyed node ids, ``add_edge`` per edge): the structure
  :func:`repro.pipeline.dag.build_pipeline_dag` must reproduce, set
  iteration order included;
* :mod:`.frontier_v2` and :mod:`.frontier_v3` -- the version-2 (one
  delta row per point), version-3 (the same changes as flat delta
  columns, JSON lists) and version-4 (those columns packed as base64)
  frontier writers: the oracle the one-pass version-5 writer's columns
  are checked against, and the older files the store must treat as
  misses; :mod:`.frontier_v3` also reads a version-5 payload's packing
  back as lists;
* :mod:`.measurements_v1` -- profile and stage-sweep payloads with
  ``[clock, time, energy]`` rows, as builds before the packed
  measurement layout wrote them (misses for the store);
* :mod:`.keys` -- the store-key text built form first, then
  ``json.dumps`` (what :func:`repro.core.store.stable_key`'s one-pass
  text must equal);
* :mod:`.maxflow` -- ``FlowNetwork``/``Dinic``, Edmonds-Karp and the
  per-call bounded min-cut (what ``FlowArena`` replaces);
* :mod:`.oracle` -- the dict Algorithm-2 step, the seed crawl and
  :func:`~.oracle.seed_oracle`, which swaps them into
  :func:`~repro.core.frontier.characterize_frontier`;
* :mod:`.oracle_enum` -- the enumeration oracle: every duration
  assignment of a small DAG, turned into a provable lower bound on any
  planner's energy at each deadline (:func:`~.oracle_enum.oracle_bound`,
  :func:`~.oracle_enum.optimality_gap`); of the crawl's code it
  shares only the cost-model fit;
* :mod:`.noisy` -- the §5 sweep under multiplicative measurement
  noise (:func:`~.noisy.noisy_profile_pipeline`), for the robustness
  and fast-mode tests;
* :mod:`.sim` -- the two-pass dict simulator (a fresh Kahn order per
  longest-path pass, a profile scan per node) that
  :mod:`repro.sim.executor` replaces.

Importable as ``reference`` with ``tests/`` on ``sys.path`` (pytest puts
it there; ``benchmarks/bench_optimizer_hotpath.py`` adds it for the seed
oracle and the enumeration oracle).
"""

from .oracle import crawl_dict, get_next_schedule_dict, seed_oracle

__all__ = ["crawl_dict", "get_next_schedule_dict", "seed_oracle"]
