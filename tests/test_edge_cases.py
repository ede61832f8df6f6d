"""Edge cases and error paths across modules."""

import pytest

import repro
from repro.core.frontier import Frontier
from repro.exceptions import (
    ClientError,
    ConfigurationError,
    GraphError,
    InfeasibleFlowError,
    OptimizationError,
    ProfilingError,
    ReproError,
)
from repro.gpu.frequency import FrequencyTable
from repro.gpu.specs import GPUSpec


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (ConfigurationError, ProfilingError, GraphError,
                    OptimizationError, ClientError):
            assert issubclass(exc, ReproError)

    def test_infeasible_flow_is_graph_error(self):
        assert issubclass(InfeasibleFlowError, GraphError)
        assert InfeasibleFlowError("x").violating_set is None


class TestGPUSpecValidation:
    def _spec(self, **overrides):
        base = dict(
            name="test",
            freq=FrequencyTable.from_range(210, 1410, 15),
            tdp_w=300.0, idle_w=60.0, blocking_w=90.0,
            active_floor_w=150.0, peak_tflops=100.0,
            mem_bandwidth_gbps=1000.0,
        )
        base.update(overrides)
        return GPUSpec(**base)

    def test_valid_spec(self):
        assert self._spec().max_freq == 1410

    def test_tdp_below_idle(self):
        with pytest.raises(ConfigurationError):
            self._spec(tdp_w=50.0)

    def test_blocking_out_of_band(self):
        with pytest.raises(ConfigurationError):
            self._spec(blocking_w=10.0)

    def test_floor_above_tdp(self):
        with pytest.raises(ConfigurationError):
            self._spec(active_floor_w=400.0)

    def test_power_must_outfall_performance(self):
        with pytest.raises(ConfigurationError):
            self._spec(power_exponent=0.3, perf_exponent=0.4)

    def test_perf_exponent_band(self):
        with pytest.raises(ConfigurationError):
            self._spec(perf_exponent=1.5)


class TestFrontierEdges:
    def test_empty_frontier_rejected(self):
        with pytest.raises(OptimizationError):
            Frontier(points=[], tau=0.001)

    def test_single_point_frontier_lookup(self, small_optimizer):
        point = small_optimizer.frontier.points[0]
        single = Frontier(points=[point], tau=0.001)
        assert single.t_min == single.t_star
        assert single.schedule_for(None) is point
        assert single.schedule_for(1e9) is point


class TestWorkloadFlags:
    def test_full_fidelity_env(self, monkeypatch):
        from repro.experiments.workloads import (
            effective_microbatches,
            full_fidelity,
            get_workload,
        )

        wl = get_workload("gpt3-1.3b@a100-pp4")
        monkeypatch.delenv("REPRO_FULL_FIDELITY", raising=False)
        assert not full_fidelity()
        assert effective_microbatches(wl, None) == 12
        monkeypatch.setenv("REPRO_FULL_FIDELITY", "1")
        assert full_fidelity()
        assert effective_microbatches(wl, None) == wl.num_microbatches


class TestPublicSurface:
    def test_version_and_all(self):
        assert repro.__version__ == "1.4.0"
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_plan_result_frontier_is_cached(self):
        plan = repro.default_planner().build_stack(
            "bert-large", stages=2, microbatches=2, freq_stride=24
        )
        assert plan.frontier is plan.frontier

    def test_engine_profile_feeds_serialization(self):
        """Profiles produced by the in-vivo runtime serialize cleanly."""
        import json

        from repro.core.serialization import profile_from_dict, profile_to_dict
        from repro.gpu.specs import A100_PCIE
        from repro.models.registry import build_model
        from repro.partition.algorithms import partition_model
        from repro.runtime.engine import TrainingEngine

        model = build_model("bert-large", 4)
        part = partition_model(model, 2, A100_PCIE)
        engine = TrainingEngine(model, part, A100_PCIE, num_microbatches=2,
                                freq_stride=24, iterations_per_freq=1)
        while not engine.profiling_done():
            engine.run_iteration()
        profile = engine.collect_profile()
        restored = profile_from_dict(
            json.loads(json.dumps(profile_to_dict(profile)))
        )
        assert set(restored.ops) == set(profile.ops)
