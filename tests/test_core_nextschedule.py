"""GetNextSchedule: single-step invariants of the cut-based planner."""

import pytest

from repro.core.costmodel import build_cost_models
from repro.core.schedule import schedule_energies
from repro.graph.edgecentric import to_edge_centric
from adapters import next_durations


@pytest.fixture()
def stepping(small_dag, small_profile):
    cms = build_cost_models(small_profile)
    node_cost = {n: cms[small_dag.nodes[n].op_key] for n in small_dag.nodes}
    ecd = to_edge_centric(small_dag)
    start = {n: node_cost[n].t_max for n in small_dag.nodes}
    return small_dag, ecd, node_cost, cms, start


TAU = 0.01


class TestSingleStep:
    def test_reduces_iteration_time(self, stepping):
        dag, ecd, node_cost, _, durations = stepping
        nxt = next_durations(ecd, durations, node_cost, TAU)
        assert nxt is not None
        assert dag.iteration_time(nxt) < dag.iteration_time(durations) - 1e-9

    def test_reduction_close_to_tau(self, stepping):
        dag, ecd, node_cost, _, durations = stepping
        nxt = next_durations(ecd, durations, node_cost, TAU)
        reduction = dag.iteration_time(durations) - dag.iteration_time(nxt)
        assert reduction >= 0.5 * TAU
        assert reduction <= 3.0 * TAU  # accumulation overshoot is bounded

    def test_durations_stay_in_bounds(self, stepping):
        dag, ecd, node_cost, _, durations = stepping
        for _ in range(20):
            nxt = next_durations(ecd, durations, node_cost, TAU)
            if nxt is None:
                break
            for n, t in nxt.items():
                cm = node_cost[n]
                assert cm.t_min - 1e-9 <= t <= cm.t_max + 1e-9
            durations = nxt

    def test_energy_increases_along_crawl(self, stepping):
        dag, ecd, node_cost, cms, durations = stepping
        prev_eff, _ = schedule_energies(dag, durations, cms)
        for _ in range(10):
            nxt = next_durations(ecd, durations, node_cost, TAU)
            if nxt is None:
                break
            eff, _ = schedule_energies(dag, nxt, cms)
            assert eff >= prev_eff - 1e-6  # faster must not be cheaper
            prev_eff = eff
            durations = nxt

    def test_only_some_nodes_touched(self, stepping):
        """A min-cut step modifies a cut, not the whole DAG."""
        _, ecd, node_cost, _, durations = stepping
        nxt = next_durations(ecd, durations, node_cost, TAU)
        changed = [n for n in durations if abs(nxt[n] - durations[n]) > 1e-12]
        assert 0 < len(changed) < len(durations)

    def test_terminates_at_fastest(self, stepping):
        dag, ecd, node_cost, _, _ = stepping
        fastest = {n: node_cost[n].t_min for n in dag.nodes}
        assert next_durations(ecd, fastest, node_cost, TAU) is None

    def test_rejects_bad_tau(self, stepping):
        from repro.exceptions import OptimizationError

        _, ecd, node_cost, _, durations = stepping
        with pytest.raises(OptimizationError):
            next_durations(ecd, durations, node_cost, 0.0)

    def test_full_crawl_reaches_tmin(self, stepping):
        dag, ecd, node_cost, _, durations = stepping
        fastest_time = dag.iteration_time(
            {n: node_cost[n].t_min for n in dag.nodes}
        )
        for _ in range(400):
            nxt = next_durations(ecd, durations, node_cost, TAU)
            if nxt is None:
                break
            durations = nxt
        assert dag.iteration_time(durations) <= fastest_time + TAU
