"""The seed implementation, kept out of ``src/`` as the tests' oracle.

* :mod:`.critical` -- dict-of-float event times and critical-edge
  extraction (what :class:`~repro.graph.compiled.CompiledDag` replaces);
* :mod:`.fit` -- the numpy exponential fit (what the stdlib
  ``repro.profiler.fit`` replaces);
* :mod:`.maxflow` -- ``FlowNetwork``/``Dinic``, Edmonds-Karp and the
  per-call bounded min-cut (what ``FlowArena`` replaces);
* :mod:`.oracle` -- the dict Algorithm-2 step, the seed crawl and
  :func:`~.oracle.seed_oracle`, which swaps them into
  :func:`~repro.core.frontier.characterize_frontier`;
* :mod:`.sim` -- the two-pass dict simulator (a fresh Kahn order per
  longest-path pass, a profile scan per node) that
  :mod:`repro.sim.executor` replaces.

Importable as ``reference`` with ``tests/`` on ``sys.path`` (pytest puts
it there; ``benchmarks/bench_optimizer_hotpath.py`` adds it).
"""

from .oracle import crawl_dict, get_next_schedule_dict, seed_oracle

__all__ = ["crawl_dict", "get_next_schedule_dict", "seed_oracle"]
