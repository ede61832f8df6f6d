"""The ``exactness="fast"`` kernel vs the exact crawl and the oracle.

Fast mode trades bit-identity for speed (warm-started min-cuts and
series-parallel contraction) under an explicit contract: every fast
frontier point costs at most ``1 + FAST_TOLERANCE`` times the exact
point at the same deadline, and never dips below the enumeration
oracle's provable floor.  These tests pin that contract over ~200
seeded random small pipelines, pin ``exactness="exact"`` to the seed
oracle in ``tests/reference/`` bit-for-bit, pin fast frontiers to
fingerprints recorded before the fast and exact step bodies were
merged, and cover the kernel's building blocks (incremental forward
pass, SP contraction, warm-cut cache) plus the cache-key plumbing that
keeps fast and exact artifacts from ever aliasing.
"""

from __future__ import annotations

import hashlib
import random
import re
from array import array

import pytest

from repro.api import Planner, PlanSpec
from repro.baselines.oracle import OracleBound, optimality_gap, oracle_bound
from repro.core.costmodel import build_cost_models
from repro.core.frontier import characterize_frontier
from repro.core.nextschedule import FAST_TOLERANCE, compiled_kernel
from repro.core.store import PlanStore
from repro.exceptions import ConfigurationError, OptimizationError
from repro.gpu.specs import A100_PCIE
from repro.graph.edgecentric import to_edge_centric
from repro.graph.lowerbounds import (
    BoundedEdge,
    contract_series_parallel,
    max_flow_with_lower_bounds,
)
from repro.graph.maxflow import WarmCutCache
from repro.models.registry import build_model
from repro.partition.algorithms import partition_model
from repro.pipeline.dag import build_pipeline_dag
from repro.pipeline.schedules import schedule_1f1b
from repro.profiler.online import profile_pipeline
from repro.service import stack_flight_key
from reference import seed_oracle

NOISE = 0.05
STEP_TARGET = 24


def _noisy_profile(stages, seed):
    model = build_model("gpt3-xl", 4)
    partition = partition_model(model, stages, A100_PCIE)
    return profile_pipeline(model, partition, A100_PCIE, freq_stride=16,
                            noise=NOISE, seed=seed)


def _auto_tau(dag, profile):
    """Span-proportional tau giving ~STEP_TARGET crawl steps."""
    models = build_cost_models(profile)
    slowest = {n: models[dag.nodes[n].op_key].t_max for n in dag.nodes}
    fastest = {n: models[dag.nodes[n].op_key].t_min for n in dag.nodes}
    span = dag.iteration_time(slowest) - dag.iteration_time(fastest)
    return max(span, 1e-6) / STEP_TARGET


def _within_tolerance(fast_frontier, exact_frontier):
    """Worst per-point relative excess of fast over exact-at-same-time."""
    worst = 0.0
    for point in fast_frontier.points:
        ref = exact_frontier.schedule_for(point.iteration_time)
        excess = (point.effective_energy - ref.effective_energy) / max(
            abs(ref.effective_energy), 1e-9
        )
        worst = max(worst, excess)
    return worst


class TestFastTolerance:
    """~200 seeded random pipelines: fast within tolerance of exact."""

    @pytest.mark.parametrize("stages", [2, 3])
    def test_fast_within_tolerance_of_exact(self, stages):
        # 25 noisy profiles x 4 microbatch counts x 2 stage depths
        # = 200 (exact, fast) crawl pairs across the suite.
        dags = {
            mb: build_pipeline_dag(schedule_1f1b(stages, mb))
            for mb in (1, 2, 3, 4)
        }
        checked = 0
        for seed in range(25):
            profile = _noisy_profile(stages, seed)
            for mb, dag in dags.items():
                tau = _auto_tau(dag, profile)
                exact = characterize_frontier(dag, profile, tau=tau)
                fast = characterize_frontier(dag, profile, tau=tau,
                                             exactness="fast")
                worst = _within_tolerance(fast, exact)
                assert worst <= FAST_TOLERANCE, (
                    f"stages={stages} mb={mb} seed={seed}: fast exceeds "
                    f"exact by {worst:.4f} (> {FAST_TOLERANCE})"
                )
                # Both crawls share their endpoints by construction.
                assert fast.t_min == pytest.approx(exact.t_min)
                assert fast.t_star == pytest.approx(exact.t_star)
                checked += 1
        assert checked == 100

    def test_fast_never_below_oracle_floor(self):
        dag = build_pipeline_dag(schedule_1f1b(2, 1))
        for seed in range(10):
            profile = _noisy_profile(2, seed)
            tau = _auto_tau(dag, profile)
            bound = oracle_bound(dag, profile, grid_points=7)
            for exactness in ("exact", "fast"):
                frontier = characterize_frontier(dag, profile, tau=tau,
                                                 exactness=exactness)
                for point in frontier.points:
                    floor = bound.lower_bound(point.iteration_time)
                    assert point.effective_energy >= floor - 1e-9, (
                        f"seed={seed} {exactness}: point at "
                        f"{point.iteration_time:.4f}s below oracle floor"
                    )

    def test_exact_mode_stays_bit_identical_to_slow_path(self):
        profile = _noisy_profile(2, 7)
        dag = build_pipeline_dag(schedule_1f1b(2, 3))
        tau = _auto_tau(dag, profile)
        exact = characterize_frontier(dag, profile, tau=tau,
                                      exactness="exact")
        with seed_oracle():
            oracle = characterize_frontier(dag, profile, tau=tau)
        key = lambda f: [
            (p.iteration_time, p.effective_energy, p.compute_energy,
             p.durations, p.frequencies)
            for p in f.points
        ]
        assert key(exact) == key(oracle)
        assert exact.stats["timings"]["kernel"] == "flat"
        assert oracle.stats["timings"]["kernel"] == "dict"

    def test_invalid_exactness_rejected(self):
        profile = _noisy_profile(2, 0)
        dag = build_pipeline_dag(schedule_1f1b(2, 1))
        with pytest.raises(OptimizationError):
            characterize_frontier(dag, profile, tau=0.01,
                                  exactness="approximate")


def _fast_fingerprint(frontier) -> str:
    """Digest of every point's hex ``iteration_time``/``effective_energy``."""
    h = hashlib.sha256()
    for p in frontier.points:
        h.update(p.iteration_time.hex().encode())
        h.update(p.effective_energy.hex().encode())
    return h.hexdigest()[:24]


class TestFastPinned:
    """Fast frontiers bit for bit, as recorded before the fast and exact
    step bodies were merged.  Fast mode is only tolerance-bound against
    exact, so these pins are what catches a silent change in its cut
    choices (warm-cut replay, contraction, repairs).  The pins hold for
    one numerical environment: a different numpy/libm can move the fits
    in the last ULPs, which re-records them legitimately."""

    #: (stages, microbatches, profile seed) -> (steps, fingerprint).
    #: Each pipeline exercises repairs and warm-cut hits.
    PINS = {
        (2, 2, 0): (23, "06048d8a24fef2a88aa789aa"),
        (3, 4, 5): (24, "40d2f72108490e76781c515b"),
        (2, 3, 7): (24, "206be33376f83475264ca3d9"),
    }

    @pytest.mark.parametrize("case", sorted(PINS))
    def test_noisy_pipeline_fast_frontier_pinned(self, case):
        stages, mb, seed = case
        profile = _noisy_profile(stages, seed)
        dag = build_pipeline_dag(schedule_1f1b(stages, mb))
        frontier = characterize_frontier(dag, profile,
                                         tau=_auto_tau(dag, profile),
                                         exactness="fast")
        assert (frontier.steps, _fast_fingerprint(frontier)) == \
            self.PINS[case]

    def test_planner_fast_frontier_pinned(self):
        spec = PlanSpec(model="gpt3-xl", gpu="a100", stages=4,
                        microbatches=6, freq_stride=8, exactness="fast")
        frontier = Planner().frontier_for(spec)
        assert frontier.steps == 249
        assert _fast_fingerprint(frontier) == "6500f39ebf1ef3aa2394ed87"


class TestFastTimings:
    def test_fast_stats_record_kernel_counters(self):
        profile = _noisy_profile(2, 3)
        dag = build_pipeline_dag(schedule_1f1b(2, 4))
        frontier = characterize_frontier(dag, profile,
                                         tau=_auto_tau(dag, profile),
                                         exactness="fast")
        timings = frontier.stats["timings"]
        assert frontier.stats["exactness"] == "fast"
        assert timings["kernel"] == "fast"
        for counter in ("warm_hits", "warm_misses", "contractions",
                        "incremental_passes", "full_passes",
                        "nodes_recomputed", "nodes_total"):
            assert counter in timings
        assert 0.0 < timings["contraction_ratio"] <= 1.0
        assert timings["nodes_total"] >= timings["nodes_recomputed"] > 0

    def test_exact_stats_carry_no_fast_counters(self):
        profile = _noisy_profile(2, 3)
        dag = build_pipeline_dag(schedule_1f1b(2, 4))
        frontier = characterize_frontier(dag, profile,
                                         tau=_auto_tau(dag, profile))
        assert frontier.stats["exactness"] == "exact"
        assert "warm_hits" not in frontier.stats["timings"]


class TestOracleBound:
    def test_ladder_mode_is_exact_discrete_floor(self):
        profile = _noisy_profile(2, 5)
        dag = build_pipeline_dag(schedule_1f1b(2, 1))
        bound = oracle_bound(dag, profile, mode="ladder")
        assert bound.slack == 0.0
        assert bound.mode == "ladder"
        frontier = characterize_frontier(dag, profile,
                                         tau=_auto_tau(dag, profile))
        # The continuous crawl matches or beats the discrete optimum;
        # the clamped gap summary is therefore ~0 at every point.
        assert optimality_gap(frontier, bound) <= 0.02

    def test_grid_refines_with_resolution(self):
        profile = _noisy_profile(2, 5)
        dag = build_pipeline_dag(schedule_1f1b(2, 1))
        coarse = oracle_bound(dag, profile, grid_points=3)
        fine = oracle_bound(dag, profile, grid_points=9)
        assert fine.slack < coarse.slack
        assert isinstance(coarse, OracleBound)

    def test_infeasible_deadline_returns_inf(self):
        profile = _noisy_profile(2, 5)
        dag = build_pipeline_dag(schedule_1f1b(2, 1))
        bound = oracle_bound(dag, profile, grid_points=3)
        assert bound.lower_bound(bound.t_min * 0.5) == float("inf")
        assert bound.lower_bound() == bound.energies[0] - bound.slack

    def test_assignment_cap_enforced(self):
        profile = _noisy_profile(2, 0)
        dag = build_pipeline_dag(schedule_1f1b(2, 4))
        with pytest.raises(ConfigurationError):
            oracle_bound(dag, profile, grid_points=9, max_assignments=100)

    def test_bad_mode_and_grid_rejected(self):
        profile = _noisy_profile(2, 0)
        dag = build_pipeline_dag(schedule_1f1b(2, 1))
        with pytest.raises(ConfigurationError):
            oracle_bound(dag, profile, mode="exhaustive")
        with pytest.raises(ConfigurationError):
            oracle_bound(dag, profile, grid_points=1)


class TestIncrementalForwardPass:
    def test_bit_identical_to_full_pass(self):
        profile = _noisy_profile(2, 2)
        dag = build_pipeline_dag(schedule_1f1b(2, 4))
        models = build_cost_models(profile)
        node_cost = {n: models[dag.nodes[n].op_key] for n in dag.nodes}
        kern = compiled_kernel(to_edge_centric(dag), node_cost)
        rng = random.Random(42)
        base = kern.durations_array(
            {n: cm.t_max for n, cm in node_cost.items()}
        )
        earliest, _ = kern.forward_pass(base)
        for _ in range(50):
            new = array("d", base)
            changed = rng.sample(range(kern.num_comps),
                                 rng.randint(1, 3))
            for comp in changed:
                cm = node_cost[comp]
                if cm.fixed:
                    continue
                new[comp] = cm.t_min + rng.random() * (cm.t_max - cm.t_min)
            from_pos = kern.min_affected_pos(changed)
            inc_ear, inc_make, _ = kern.forward_pass_incremental(
                new, earliest, from_pos
            )
            full_ear, full_make = kern.forward_pass(new)
            assert inc_ear == full_ear  # bitwise, not approx
            assert inc_make == full_make
            base, earliest = new, inc_ear

    def test_from_pos_zero_falls_back_to_full(self):
        profile = _noisy_profile(2, 2)
        dag = build_pipeline_dag(schedule_1f1b(2, 2))
        models = build_cost_models(profile)
        node_cost = {n: models[dag.nodes[n].op_key] for n in dag.nodes}
        kern = compiled_kernel(to_edge_centric(dag), node_cost)
        dur = kern.durations_array(
            {n: cm.t_min for n, cm in node_cost.items()}
        )
        ear, make, recomputed = kern.forward_pass_incremental(dur, [], 0)
        full_ear, full_make = kern.forward_pass(dur)
        assert (ear, make) == (full_ear, full_make)
        assert recomputed == kern.num_nodes


def _random_bounded_instance(rng):
    n = rng.randint(3, 10)
    edges = []
    for _ in range(rng.randint(2, 18)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        ub = rng.uniform(0.5, 20.0)
        lb = rng.uniform(0.0, ub) if rng.random() < 0.4 else 0.0
        edges.append(BoundedEdge(u, v, lb, ub))
    return n, edges


class TestSeriesParallelContraction:
    def test_contraction_preserves_solution_exactly(self):
        rng = random.Random(2024)
        contracted_count = 0
        for _ in range(150):
            n, edges = _random_bounded_instance(rng)
            if not edges:
                continue
            s, t = 0, n - 1
            con = contract_series_parallel(
                n, [e.u for e in edges], [e.v for e in edges],
                [e.lb for e in edges], [e.ub for e in edges], s, t,
            )
            try:
                full = max_flow_with_lower_bounds(n, edges, s, t)
                full_err = None
            except Exception as exc:
                full, full_err = None, exc
            if con is None:
                continue
            contracted_count += 1
            small_edges = [
                BoundedEdge(con.edge_u[k], con.edge_v[k],
                            con.lower[k], con.upper[k])
                for k in range(len(con.edge_u))
            ]
            try:
                small = max_flow_with_lower_bounds(
                    con.num_nodes, small_edges, con.s, con.t
                )
                small_err = None
            except Exception as exc:
                small, small_err = None, exc
            if full_err is not None:
                assert small_err is not None
                continue
            assert small_err is None
            assert small.max_flow == pytest.approx(full.max_flow)
            # The expanded source side must be a genuine minimum cut:
            # same cut value as the uncontracted min cut.
            mask = [False] * n
            for node in small.source_side:
                mask[node] = True
            expanded = con.expand_mask(mask)
            value = 0.0
            for e in edges:
                if expanded[e.u] and not expanded[e.v]:
                    value += e.ub
                elif expanded[e.v] and not expanded[e.u]:
                    value -= e.lb
            cut_value = 0.0
            for e in edges:
                if e.u in full.source_side and e.v not in full.source_side:
                    cut_value += e.ub
                elif (e.v in full.source_side
                      and e.u not in full.source_side):
                    cut_value -= e.lb
            assert expanded[s] and not expanded[t]
            assert value == pytest.approx(cut_value)
        assert contracted_count > 30

    def test_zero_lower_variant_shares_structure(self):
        edges = [BoundedEdge(0, 1, 1.0, 5.0), BoundedEdge(1, 2, 0.5, 4.0),
                 BoundedEdge(0, 2, 0.0, 2.0)]
        con = contract_series_parallel(
            3, [e.u for e in edges], [e.v for e in edges],
            [e.lb for e in edges], [e.ub for e in edges], 0, 2,
        )
        assert con is not None
        relaxed = con.with_zero_lower()
        assert relaxed.upper == con.upper
        assert all(lb == 0.0 for lb in relaxed.lower)
        assert relaxed.num_nodes == con.num_nodes


class TestWarmCutCache:
    EDGE_U = [0, 1, 0]
    EDGE_V = [1, 2, 2]

    def test_reuse_on_identical_capacities(self):
        cache = WarmCutCache()
        lower, upper = [0.0, 0.0, 0.0], [2.0, 3.0, 4.0]
        mask = [True, False, False]
        cache.record(3, self.EDGE_U, self.EDGE_V, lower, upper, mask)
        reused = cache.try_reuse(3, self.EDGE_U, self.EDGE_V,
                                 lower, upper, 0.01)
        assert reused == mask
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_when_cheaper_cut_possible(self):
        cache = WarmCutCache()
        lower, upper = [0.0, 0.0, 0.0], [2.0, 3.0, 4.0]
        cache.record(3, self.EDGE_U, self.EDGE_V, lower, upper,
                     [True, False, False])
        # A non-crossing edge gets much cheaper: the recorded cut (cost
        # unchanged) may no longer be minimal -> must re-solve.
        cheaper = [2.0, 0.1, 4.0]
        assert cache.try_reuse(3, self.EDGE_U, self.EDGE_V,
                               lower, cheaper, 0.01) is None
        assert cache.misses == 1

    def test_structural_change_invalidates(self):
        cache = WarmCutCache()
        cache.record(3, self.EDGE_U, self.EDGE_V,
                     [0.0, 0.0, 0.0], [2.0, 3.0, 4.0],
                     [True, False, False])
        assert cache.try_reuse(4, self.EDGE_U + [2], self.EDGE_V + [3],
                               [0.0] * 4, [2.0, 3.0, 4.0, 1.0],
                               0.01) is None

    def test_infinite_cut_value_never_recorded(self):
        cache = WarmCutCache()
        inf = float("inf")
        cache.record(3, self.EDGE_U, self.EDGE_V,
                     [0.0, 0.0, 0.0], [inf, 3.0, 4.0],
                     [True, False, False])  # crossing edge is infinite
        assert cache.try_reuse(3, self.EDGE_U, self.EDGE_V,
                               [0.0, 0.0, 0.0], [inf, 3.0, 4.0],
                               0.01) is None


class TestExactnessPlumbing:
    """Spec round-trip, cache keys and flight keys never alias modes."""

    SPEC = dict(model="gpt3-xl", gpu="a100", stages=2, microbatches=2,
                freq_stride=24)

    def test_spec_roundtrip_and_version_gate(self):
        fast = PlanSpec(exactness="fast", **self.SPEC)
        assert PlanSpec.from_dict(fast.to_dict()) == fast
        payload = fast.to_dict()
        assert payload["version"] == 3
        payload["version"] = 2
        with pytest.raises(ConfigurationError):
            PlanSpec.from_dict(payload)
        legacy = PlanSpec(**self.SPEC).to_dict()
        legacy["version"] = 2
        del legacy["exactness"]
        assert PlanSpec.from_dict(legacy).exactness == "exact"

    def test_invalid_exactness_rejected_at_spec(self):
        with pytest.raises(ConfigurationError):
            PlanSpec(exactness="quick", **self.SPEC)

    def test_cache_and_flight_keys_distinguish_modes(self):
        exact = PlanSpec(**self.SPEC)
        fast = exact.replace(exactness="fast")
        planner = Planner()
        exact_keys = planner.cache_keys(exact)
        fast_keys = planner.cache_keys(fast)
        assert exact_keys["frontier"] != fast_keys["frontier"]
        assert exact_keys["profile"] == fast_keys["profile"]
        assert exact_keys["partition"] == fast_keys["partition"]
        assert stack_flight_key(exact) != stack_flight_key(fast)

    def test_store_roundtrip_never_aliases_modes(self, tmp_path):
        exact = PlanSpec(**self.SPEC)
        fast = exact.replace(exactness="fast")
        store = PlanStore(tmp_path / "plans")
        planner = Planner(cache=store)
        first_exact = planner.frontier_for(exact)
        first_fast = planner.frontier_for(fast)
        assert first_exact.stats["exactness"] == "exact"
        assert first_fast.stats["exactness"] == "fast"
        # A cold planner over the same store must load each mode's own
        # artifact, bit-for-bit, never the other mode's.
        cold = Planner(cache=PlanStore(tmp_path / "plans"))
        for spec, original in ((exact, first_exact), (fast, first_fast)):
            loaded = cold.frontier_for(spec)
            assert loaded.stats["exactness"] == spec.exactness
            assert [p.effective_energy for p in loaded.points] == \
                [p.effective_energy for p in original.points]
            assert [p.iteration_time for p in loaded.points] == \
                [p.iteration_time for p in original.points]

    def test_optimizer_exactness_flows_from_spec(self):
        planner = Planner()
        fast = PlanSpec(exactness="fast", **self.SPEC)
        stack = planner.result(fast)
        assert stack.optimizer.exactness == "fast"
        assert stack.keys["optimizer"][-1] == "fast"
        assert stack.optimizer.frontier.stats["exactness"] == "fast"


class TestServiceMetrics:
    """A serving daemon exports the crawl's stage timings per mode."""

    def test_stage_timings_exported_per_exactness(self):
        import json
        from http.client import HTTPConnection

        from repro.service.daemon import PlanningDaemon

        with PlanningDaemon(planner=Planner(), port=0) as daemon:
            host, port = daemon.address
            conn = HTTPConnection(host, port, timeout=60)
            for exactness in ("exact", "fast"):
                body = json.dumps({
                    "method": "plan", "id": f"fm-{exactness}", "params": {
                        "spec": {"model": "gpt3-xl", "stages": 2,
                                 "microbatches": 2, "freq_stride": 24,
                                 "exactness": exactness}}})
                conn.request("POST", "/rpc", body,
                             {"Content-Type": "application/json"})
                reply = conn.getresponse().read()
                assert b'"error"' not in reply[:200], reply[:400]
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
            conn.close()
        for exactness in ("exact", "fast"):
            for stage in ("event_times", "instance_build", "maxflow",
                          "schedule"):
                needle = ('repro_optimizer_stage_seconds_count'
                          f'{{exactness="{exactness}",stage="{stage}"}} 1')
                assert needle in text
        assert re.search(
            r'repro_optimizer_fast_events_total\{event="contractions"\} '
            r'[1-9]', text)
        assert re.search(
            r'repro_optimizer_fast_events_total\{event="warm_hits"\} '
            r'[1-9]', text)
        assert 'repro_optimizer_contraction_ratio{exactness="fast"}' in text
