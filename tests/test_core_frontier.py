"""Frontier characterization: Algorithm 1's output properties + brute force.

The brute-force test enumerates every discrete frequency assignment of a
tiny pipeline and checks Perseus's (continuously relaxed) frontier tracks
the true discrete Pareto frontier.
"""

import itertools

import pytest

from repro.core.costmodel import build_cost_models
from repro.core.frontier import characterize_frontier
from repro.core.schedule import make_schedule
from repro.gpu.specs import A100_PCIE
from repro.models.registry import build_model
from repro.partition.algorithms import partition_model
from repro.pipeline.dag import build_pipeline_dag
from repro.pipeline.schedules import schedule_1f1b, with_data_loading
from repro.profiler.measurement import Measurement, PipelineProfile
from repro.profiler.online import profile_constant_op, profile_pipeline


@pytest.fixture(scope="module")
def tiny():
    """2-stage, 2-microbatch pipeline with a handful of clocks per op."""
    model = build_model("gpt3-xl", 2)
    part = partition_model(model, 2, A100_PCIE)
    profile = profile_pipeline(model, part, A100_PCIE, freq_stride=12)
    dag = build_pipeline_dag(schedule_1f1b(2, 2))
    return dag, profile


class TestFrontierShape:
    def test_monotone_tradeoff(self, small_optimizer):
        frontier = small_optimizer.frontier
        times = [p.iteration_time for p in frontier.points]
        effs = [p.effective_energy for p in frontier.points]
        assert times == sorted(times)
        assert all(a > b for a, b in zip(effs, effs[1:]))

    def test_endpoints(self, small_optimizer, small_profile, small_dag):
        frontier = small_optimizer.frontier
        cms = build_cost_models(small_profile)
        fastest = {n: cms[small_dag.nodes[n].op_key].t_min for n in small_dag.nodes}
        slowest = {n: cms[small_dag.nodes[n].op_key].t_max for n in small_dag.nodes}
        assert frontier.t_min == pytest.approx(
            small_dag.iteration_time(fastest), rel=1e-6
        )
        assert frontier.t_star == pytest.approx(
            small_dag.iteration_time(slowest), rel=1e-6
        )

    def test_t_star_within_paper_band(self, small_optimizer):
        """Figures 8/9: T*/Tmin lands around 1.15-1.5."""
        frontier = small_optimizer.frontier
        assert 1.1 < frontier.t_star / frontier.t_min < 1.6

    def test_tmin_point_has_intrinsic_savings(self, small_optimizer, small_dag,
                                              small_profile):
        """The fastest frontier point must beat naive all-max energy."""
        cms = build_cost_models(small_profile)
        tmin_point = small_optimizer.frontier.min_time_schedule
        fastest = {n: cms[small_dag.nodes[n].op_key].t_min for n in small_dag.nodes}
        naive = make_schedule(small_dag, fastest, cms)
        assert tmin_point.effective_energy < naive.effective_energy * 0.98

    def test_schedule_lookup_clamps(self, small_optimizer):
        frontier = small_optimizer.frontier
        assert frontier.schedule_for(None) is frontier.points[0]
        assert frontier.schedule_for(0.0) is frontier.points[0]
        assert (
            frontier.schedule_for(frontier.t_star * 10) is frontier.points[-1]
        )

    def test_lookup_never_exceeds_target(self, small_optimizer):
        frontier = small_optimizer.frontier
        target = (frontier.t_min + frontier.t_star) / 2
        chosen = frontier.schedule_for(target)
        assert chosen.iteration_time <= target + 1e-6

    def test_frequencies_realized(self, small_optimizer):
        for point in small_optimizer.frontier.points[:: max(1, len(
            small_optimizer.frontier.points
        ) // 10)]:
            assert set(point.frequencies) == set(point.durations)


class TestBruteForce:
    def test_tracks_discrete_pareto(self, tiny):
        dag, profile = tiny
        frontier = characterize_frontier(dag, profile, tau=0.005)
        cms = build_cost_models(profile)

        # Enumerate per-op frequency choices (ops shared across nodes).
        ops = sorted(profile.op_keys())
        choices = {op: profile.get(op).pareto() for op in ops}
        discrete = []
        for combo in itertools.product(*(choices[op] for op in ops)):
            chosen = dict(zip(ops, combo))
            durations = {
                n: chosen[dag.nodes[n].op_key].time_s for n in dag.nodes
            }
            eff = sum(
                chosen[dag.nodes[n].op_key].energy_j
                - profile.p_blocking_w * durations[n]
                for n in dag.nodes
            )
            discrete.append((dag.iteration_time(durations), eff))

        # Perseus's relaxed frontier must not be dominated by any discrete
        # assignment beyond a small relaxation gap.
        for point in frontier.points:
            better = [
                e
                for t, e in discrete
                if t <= point.iteration_time + 1e-9
                and e < point.effective_energy * 0.93 - 1e-9
            ]
            assert not better, (
                f"discrete plan beats frontier at t={point.iteration_time}"
            )

        # ...and conversely it should match the best discrete energy at the
        # slow end (where the relaxation is exact by construction).
        best_discrete = min(e for _, e in discrete)
        assert frontier.points[-1].effective_energy <= best_discrete * 1.02


class TestGeneralizations:
    def test_constant_ops_supported(self, tiny):
        """§4.4: single-choice nodes plan without breaking the crawl."""
        model = build_model("gpt3-xl", 2)
        part = partition_model(model, 2, A100_PCIE)
        profile = profile_pipeline(model, part, A100_PCIE, freq_stride=12)
        profile_constant_op(profile, 0, "dataload", duration_s=0.01)
        dag = build_pipeline_dag(with_data_loading(schedule_1f1b(2, 2)))
        frontier = characterize_frontier(dag, profile, tau=0.02)
        assert len(frontier.points) > 3
        assert frontier.t_min < frontier.t_star

    def test_gpipe_schedule_supported(self, tiny):
        """§4.4: any DAG-expressible schedule works unmodified."""
        from repro.pipeline.schedules import schedule_gpipe

        _, profile = tiny
        dag = build_pipeline_dag(schedule_gpipe(2, 2))
        frontier = characterize_frontier(dag, profile, tau=0.02)
        assert frontier.t_min < frontier.t_star
        effs = [p.effective_energy for p in frontier.points]
        assert all(a > b for a, b in zip(effs, effs[1:]))

    def test_runtime_is_recorded(self, small_optimizer):
        frontier = small_optimizer.frontier
        assert frontier.optimizer_runtime_s > 0
        assert frontier.steps > 0
        assert frontier.stats["num_computations"] == 48
