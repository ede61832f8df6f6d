"""Closed-form min cuts on single-path Critical DAGs vs the flow network.

:func:`repro.graph.lowerbounds.chain_min_cut` must return exactly what
:func:`~repro.graph.lowerbounds.solve_bounded_arrays` (warm or cold) and
the seed's reference solve return -- the same source-side mask, or the
same violating set -- whenever it decides, and must defer (return
``None``) when the answer sits near a float threshold.  Checked on chain
instances recorded from real crawls and on seeded random chains shaped
like them, including exact ties, near-ties from 1e-12 to 2e-9, lower
bounds at or below ``FLOW_EPS`` and infinite upper bounds.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Planner, PlanSpec
from repro.core import nextschedule
from repro.exceptions import InfeasibleFlowError
from repro.graph.lowerbounds import (
    chain_min_cut,
    relaxed_min_cut,
    solve_bounded_arrays,
)
from repro.graph.maxflow import INF, FlowArena
from reference.maxflow import (
    BoundedEdge,
    max_flow_with_lower_bounds_reference,
)


def _endpoints(path):
    """Per-edge tail/head node ids: edge ``path[p]`` runs ``p -> p+1``."""
    tail = [0] * len(path)
    for p, j in enumerate(path):
        tail[j] = p
    return tail, [p + 1 for p in tail]


def _flow(lower, upper, path, warm=True, arena=None):
    """``(mask, None)`` or ``(None, violating)`` from the flow network."""
    n = len(path) + 1
    bu, bv = _endpoints(path)
    try:
        mask = solve_bounded_arrays(
            n, bu, bv, lower, upper, 0, n - 1, arena=arena,
            order=range(n) if warm else None)
    except InfeasibleFlowError as err:
        return None, set(err.violating_set)
    return bytes(mask[:n]), None


def _reference(lower, upper, path):
    """The same outcome from the seed's object-per-call solve."""
    n = len(path) + 1
    bu, bv = _endpoints(path)
    edges = [BoundedEdge(u, v, lb, ub)
             for u, v, lb, ub in zip(bu, bv, lower, upper)]
    try:
        res = max_flow_with_lower_bounds_reference(n, edges, 0, n - 1)
    except InfeasibleFlowError as err:
        return None, set(err.violating_set)
    return bytes(1 if v in res.source_side else 0 for v in range(n)), None


def _closed(lower, upper, path):
    cut = chain_min_cut(lower, upper, path)
    if cut is None:
        return None
    mask, violating = cut
    return (bytes(mask) if mask is not None else None), violating


#: Perturbations that put a bound on, inside or just past a threshold.
NUDGES = (1e-12, -1e-12, 3e-10, -3e-10, 1e-9, -1e-9, 2e-9, -2e-9, 5e-9,
          -7e-8)


def _random_chain(rng):
    """A path instance shaped like a crawl's: dependency edges ``(0,
    inf)``, computations that cannot speed up ``(lb, inf)``, and
    ``(lb, ub)`` ones drawn from a few shared values (so ties are
    exact), some clamped to ``lb == ub``, some nudged, some with
    ``lb <= FLOW_EPS``; edges listed in shuffled order."""
    m = rng.randint(1, 40)
    pool = [rng.uniform(0.01, 2.0) for _ in range(rng.randint(1, 6))]

    def value():
        v = rng.choice(pool)
        if rng.random() < 0.03:
            v += rng.choice(NUDGES)
        return max(v, 1e-9)

    lbs, ubs = [], []
    for _ in range(m):
        r = rng.random()
        if r < 0.3:
            lb, ub = 0.0, INF
        elif r < 0.4:
            lb, ub = value(), INF
        else:
            ub = value()
            q = rng.random()
            if q < 0.25:
                lb = 0.0
            elif q < 0.35:
                lb = ub
            elif q < 0.36:
                lb = min(ub, rng.choice((1e-10, 1e-9, 2e-9, 4e-9, 5e-9)))
            else:
                lb = min(value(), ub)
        lbs.append(lb)
        ubs.append(ub)
    if all(ub == INF for ub in ubs):
        k = rng.randrange(m)
        ubs[k] = value()
        lbs[k] = min(lbs[k], ubs[k])
    path = list(range(m))
    rng.shuffle(path)
    lower, upper = [0.0] * m, [0.0] * m
    for p, j in enumerate(path):
        lower[j], upper[j] = lbs[p], ubs[p]
    return lower, upper, path


def _random_chains(count, seed):
    rng = random.Random(seed)
    return [_random_chain(rng) for _ in range(count)]


class TestRandomChains:
    def test_decided_cuts_match_the_flow_network(self):
        arena = FlowArena()
        decided = {"mask": 0, "violating": 0}
        for k, (lower, upper, path) in enumerate(_random_chains(4000, 11)):
            closed = _closed(lower, upper, path)
            if closed is None:
                continue
            assert closed == _flow(lower, upper, path, warm=bool(k % 2),
                                   arena=arena), k
            decided["mask" if closed[0] is not None else "violating"] += 1
        assert decided["mask"] >= 500 and decided["violating"] >= 500

    def test_decided_cuts_match_the_seed_reference(self):
        checked = 0
        for lower, upper, path in _random_chains(800, 12):
            closed = _closed(lower, upper, path)
            if closed is not None:
                assert closed == _reference(lower, upper, path)
                checked += 1
        assert checked >= 200

    def test_relaxed_cut_always_decides_and_matches(self):
        """Lower bounds dropped (the re-solve after an unrepairable
        infeasible instance): one augmentation, replicated exactly."""
        arena, fresh = FlowArena(), FlowArena()
        resolved = 0
        for lower, upper, path in _random_chains(600, 13):
            zeros = [0.0] * len(path)
            closed = _closed(zeros, upper, path)
            assert closed is not None
            assert closed == _flow(zeros, upper, path, arena=fresh)
            if _flow(lower, upper, path, arena=arena)[0] is None:
                n = len(path) + 1
                in_place = relaxed_min_cut(arena, upper, 0, n - 1)
                assert closed[0] == bytes(in_place[:n])
                resolved += 1
        assert resolved >= 100

    def test_tiny_lower_bounds_only_use_reduced_capacities(self):
        # Every lower bound <= FLOW_EPS: no dummy arc, capacities ub - lb.
        rng = random.Random(14)
        for _ in range(300):
            m = rng.randint(1, 12)
            upper = [rng.choice((0.5, 0.5 + 1e-9, 0.5 + 3e-9, 2e-9, INF))
                     for _ in range(m)]
            upper[rng.randrange(m)] = 0.5
            lower = [rng.choice((0.0, 2e-10, 1e-9)) for _ in range(m)]
            path = rng.sample(range(m), m)
            assert _closed(lower, upper, path) == _flow(lower, upper, path)


def _chain(lbs, ubs):
    """Instance arrays with edges listed in path order."""
    return list(lbs), list(ubs), list(range(len(lbs)))


class TestThresholds:
    def test_exact_min_ub_ties_cut_at_the_first(self):
        # Clamped computations (lb == ub == min ub) tie exactly; the
        # residual BFS stops at the first of them.
        lower, upper, path = _chain((0.0, 0.3, 0.0, 0.3, 0.0, 0.3),
                                    (INF, 0.3, INF, 0.3, 0.9, 0.3))
        closed = _closed(lower, upper, path)
        assert closed == _flow(lower, upper, path)
        assert closed[0] == bytes((1, 1, 0, 0, 0, 0, 0))

    def test_infeasible_violating_set(self):
        # lb 0.8 on edge 1 cannot pass ub 0.2 on edge 3: X = {2, 3}.
        lower, upper, path = _chain((0.0, 0.8, 0.0, 0.0, 0.0),
                                    (INF, 1.0, INF, 0.2, INF))
        closed = _closed(lower, upper, path)
        assert closed == (None, {2, 3})
        assert closed == _flow(lower, upper, path)

    def test_wrapped_violating_set(self):
        # A later lb over an earlier ub: X holds s and t (t -> s arc).
        lower, upper, path = _chain((0.0, 0.0, 0.0, 0.9, 0.0),
                                    (INF, 0.2, INF, 1.0, INF))
        closed = _closed(lower, upper, path)
        assert closed == (None, {0, 1, 4, 5})
        assert closed == _flow(lower, upper, path)

    # margin = 4 (m + 1) FLOW_EPS = 1.6e-8 for three edges.
    @pytest.mark.parametrize("lbs, ubs", [
        # a lower bound near zero beside real ones
        ((3e-9, 0.5, 0.0), (1.0, 1.0, 0.7)),
        # a node excess near zero
        ((0.5, 0.5 + 2e-9, 0.0), (1.0, 1.0, 0.7)),
        # an ub before the first minimum near it
        ((0.1, 0.0, 0.0), (0.7 + 5e-9, INF, 0.7)),
        # another lb just under the minimum ub
        ((0.7 - 1e-9, 0.0, 0.1), (1.0, INF, 0.7)),
        # the minimum ub itself near zero
        ((6e-9, 0.0, 0.0), (1.0, INF, 1e-8)),
        # max D positive but not a margin above the tolerance
        ((0.7 + 1e-7, 0.0, 0.0), (1.0, INF, 0.7)),
        # a second piece violating by 2e-9 only (lb 0.5 + 2e-9 beside
        # ub 0.5)
        ((0.0, 0.9, 0.0, 0.2, 0.0, 0.5 + 2e-9, 0.0),
         (INF, 1.0, 0.2, 1.0, INF, 1.0, 0.5)),
        # two maximisers tie exactly, one of them wrapping through
        # t -> s; the passes' float sums of the tie differ in the last
        # bit, so node 3's exclusion gap is 1.1e-16, in (0, margin]
        ((0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0),
         (0.8, INF, 0.3 + 1e-9, INF, 0.8, INF, INF)),
    ])
    def test_near_threshold_cases_defer(self, lbs, ubs):
        assert chain_min_cut(*_chain(lbs, ubs)) is None

    def test_clear_gaps_decide(self):
        # The same shape with the second piece violating by 0.1.
        lower, upper, path = _chain(
            (0.0, 0.9, 0.0, 0.2, 0.0, 0.6, 0.0),
            (INF, 1.0, 0.2, 1.0, INF, 1.0, 0.5))
        closed = _closed(lower, upper, path)
        assert closed == (None, {2, 6})
        assert closed == _flow(lower, upper, path)


def _record_chain_cuts(monkeypatch):
    """Record every chain instance the optimizer asks about."""
    calls = []

    def recording(lower, upper, path):
        calls.append((list(lower), list(upper), list(path)))
        return chain_min_cut(lower, upper, path)

    monkeypatch.setattr(nextschedule, "chain_min_cut", recording)
    return calls


class TestRecordedCrawls:
    @pytest.mark.parametrize("model, stages, microbatches", [
        ("gpt3-xl", 4, 8), ("t5-3b", 4, 8), ("gpt3-13b", 8, 16),
    ])
    def test_crawl_chains_match_the_flow_network(
            self, monkeypatch, model, stages, microbatches):
        calls = _record_chain_cuts(monkeypatch)
        Planner().plan(PlanSpec(model, stages=stages,
                                microbatches=microbatches))
        arena = FlowArena()
        outcomes = {"mask": 0, "violating": 0, "deferred": 0}
        for lower, upper, path in calls:
            closed = _closed(lower, upper, path)
            if closed is None:
                outcomes["deferred"] += 1
                continue
            assert closed == _flow(lower, upper, path, arena=arena)
            outcomes["mask" if closed[0] is not None else "violating"] += 1
        assert outcomes["mask"] > 100 and outcomes["violating"] > 100
        assert outcomes["deferred"] <= 0.05 * len(calls)


class TestChainCutCounts:
    @pytest.mark.parametrize("exactness", ["exact", "fast"])
    def test_single_path_crawls_cut_in_closed_form(self, exactness):
        spec = PlanSpec("gpt3-xl", stages=4, microbatches=8,
                        exactness=exactness)
        timings = Planner().frontier_for(spec).stats["timings"]
        assert timings["cuts"] > 0
        assert timings["chain_cuts"] >= 0.9 * timings["cuts"]

    @pytest.mark.parametrize("exactness", ["exact", "fast"])
    def test_branching_crawls_use_the_flow_network(self, exactness):
        spec = PlanSpec("bloom-3b", stages=4, microbatches=8,
                        exactness=exactness)
        timings = Planner().frontier_for(spec).stats["timings"]
        assert timings["cuts"] > 0
        assert timings["chain_cuts"] == 0

    def test_timings_print_chain_cuts(self, capsys):
        from repro.cli import main

        main(["plan", "gpt3-xl", "--stages", "2", "--microbatches", "2",
              "--freq-stride", "24", "--timings"])
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("timings"))
        assert "chain_cuts=" in line
