"""The unified planning API: PlanSpec, strategy registry, Planner, sweep."""

import dataclasses
import io
import json

import pytest

from repro.api import (
    PlanSpec,
    Planner,
    default_planner,
    get_strategy,
    list_strategies,
    register_strategy,
    sweep,
)
from repro.api.spec import FIDELITY_STRIDES, SPEC_FORMAT_VERSION
from repro.api.strategies import _REGISTRY
from repro.core.serialization import SerializationError, load_json, save_json
from repro.exceptions import ConfigurationError

#: Small/fast planning request reused across the module.
SMALL = PlanSpec("bert-large", gpu="a100", stages=2, microbatches=3,
                 freq_stride=24)

BUILTINS = ["envpipe", "max-freq", "min-energy", "perseus", "zeus-global",
            "zeus-per-stage"]


class TestPlanSpec:
    def test_defaults_validate(self):
        spec = PlanSpec("gpt3-xl")
        assert spec.strategy == "perseus"
        assert spec.effective_freq_stride == FIDELITY_STRIDES["fast"]

    def test_explicit_stride_beats_fidelity(self):
        assert SMALL.effective_freq_stride == 24
        assert PlanSpec("gpt3-xl", fidelity="smoke").effective_freq_stride == 16

    @pytest.mark.parametrize("kwargs", [
        {"model": ""},
        {"model": "gpt3-xl", "gpu": ""},
        {"model": "gpt3-xl", "stages": 0},
        {"model": "gpt3-xl", "microbatches": -1},
        {"model": "gpt3-xl", "tensor_parallel": 0},
        {"model": "gpt3-xl", "microbatch_size": 0},
        {"model": "gpt3-xl", "freq_stride": 0},
        {"model": "gpt3-xl", "tau": 0.0},
        {"model": "gpt3-xl", "tau": -1.0},
        {"model": "gpt3-xl", "strategy": ""},
        {"model": "gpt3-xl", "fidelity": "ludicrous"},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PlanSpec(**kwargs)

    def test_int_tau_keys_like_its_float(self):
        spec = PlanSpec("gpt3-xl", tau=2)
        assert type(spec.tau) is float
        assert spec.to_json() == PlanSpec("gpt3-xl", tau=2.0).to_json()

    @pytest.mark.parametrize("gpu", ["a100", ("a100", "a40")])
    def test_to_dict_is_the_asdict_form(self, gpu):
        spec = PlanSpec("gpt3-xl", gpu=gpu, stages=2, tau=2.0)
        expected = {"version": SPEC_FORMAT_VERSION, "kind": "plan_spec"}
        expected.update(dataclasses.asdict(spec))
        if isinstance(expected["gpu"], tuple):
            expected["gpu"] = list(expected["gpu"])
        payload = spec.to_dict()
        assert list(payload.items()) == list(expected.items())
        assert type(payload["gpu"]) is (str if gpu == "a100" else list)

    def test_replace_revalidates(self):
        with pytest.raises(ConfigurationError):
            SMALL.replace(stages=0)

    def test_json_round_trip(self):
        restored = PlanSpec.from_json(SMALL.to_json())
        assert restored == SMALL
        assert hash(restored) == hash(SMALL)

    def test_round_trip_through_file_helpers(self):
        buf = io.StringIO()
        save_json(SMALL, buf)
        buf.seek(0)
        assert load_json(buf) == SMALL

    def test_from_dict_rejects_unknown_fields(self):
        payload = SMALL.to_dict()
        payload["warp_factor"] = 9
        with pytest.raises(ConfigurationError):
            PlanSpec.from_dict(payload)

    def test_from_dict_rejects_bad_kind_and_version(self):
        payload = SMALL.to_dict()
        payload["kind"] = "frontier"
        with pytest.raises(ConfigurationError):
            PlanSpec.from_dict(payload)
        payload = SMALL.to_dict()
        payload["version"] = 999
        with pytest.raises(ConfigurationError):
            PlanSpec.from_dict(payload)

    def test_malformed_payload_via_load_json(self):
        bad = dict(SMALL.to_dict(), stages=0)
        with pytest.raises(SerializationError):
            load_json(io.StringIO(json.dumps(bad)))


class TestStrategyRegistry:
    def test_all_six_builtins_listed(self):
        names = list_strategies()
        for builtin in BUILTINS:
            assert builtin in names

    def test_unknown_name_error_lists_registered(self):
        with pytest.raises(ConfigurationError, match="perseus"):
            get_strategy("does-not-exist")

    def test_lookup_returns_named_strategy(self):
        for builtin in BUILTINS:
            assert get_strategy(builtin).name == builtin

    def test_function_registration_and_removal(self):
        @register_strategy("test-all-max")
        def _all_max(ctx):
            from repro.baselines.static import max_frequency_plan

            return max_frequency_plan(ctx.dag, ctx.profile)

        try:
            assert "test-all-max" in list_strategies()
            planner = default_planner()
            ours = planner.plan(SMALL.replace(strategy="test-all-max"))
            theirs = planner.plan(SMALL.replace(strategy="max-freq"))
            assert ours.plan == theirs.plan
        finally:
            _REGISTRY.pop("test-all-max", None)
        assert "test-all-max" not in list_strategies()

    def test_class_without_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            register_strategy("bad")(type("NoPlan", (), {}))
        _REGISTRY.pop("bad", None)


class TestPlannerMemoization:
    def test_sweep_profiles_once_per_unique_stack(self):
        planner = Planner()
        specs = [SMALL.replace(strategy=name) for name in BUILTINS]
        # Same model/gpu/partition at two microbatch counts: still one
        # profile (profiles are microbatch-independent), two DAGs.
        specs += [SMALL.replace(microbatches=4),
                  SMALL.replace(strategy="envpipe", microbatches=4)]
        reports = planner.sweep(specs)
        assert len(reports) == len(specs)
        assert planner.stats["model"] == 1
        assert planner.stats["partition"] == 1
        assert planner.stats["profile"] == 1
        assert planner.stats["dag"] == 2
        assert planner.stats["optimizer"] == 2  # one frontier per DAG

    def test_custom_gpu_spec_not_confused_with_registry_name(self):
        import dataclasses

        from repro.gpu.specs import A100_PCIE

        derated = dataclasses.replace(A100_PCIE, tdp_w=250.0)
        planner = Planner()
        stock = planner.build_stack("bert-large", gpu=A100_PCIE, stages=2,
                                    microbatches=2, freq_stride=24)
        custom = planner.build_stack("bert-large", gpu=derated, stages=2,
                                     microbatches=2, freq_stride=24)
        assert planner.stats["profile"] == 2
        assert stock.profile is not custom.profile

    def test_clear_drops_memoized_stages(self):
        planner = Planner()
        planner.plan(SMALL)
        planner.clear()
        planner.plan(SMALL)
        assert planner.stats["profile"] == 2

    def test_second_gpu_triggers_second_profile(self):
        planner = Planner()
        planner.plan(SMALL)
        planner.plan(SMALL.replace(gpu="a40"))
        assert planner.stats["profile"] == 2
        assert planner.stats["partition"] == 2
        assert planner.stats["model"] == 1

    def test_sweep_rows_are_comparable(self):
        planner = Planner()
        rows = sweep(
            (SMALL.replace(strategy=n) for n in BUILTINS), planner=planner
        )
        base = {r.strategy: r for r in rows}["max-freq"]
        assert base.energy_savings_pct == pytest.approx(0.0)
        assert base.slowdown_pct == pytest.approx(0.0)
        for r in rows:
            assert r.baseline_energy_j == pytest.approx(base.energy_j)
            row = r.to_dict()
            assert row["strategy"] == r.strategy
            assert row["energy_j"] > 0

    def test_perseus_report_matches_frontier_lookup(self):
        planner = Planner()
        report = planner.plan(SMALL)
        stack = planner.result(SMALL)
        schedule = stack.optimizer.schedule_for_straggler(None)
        assert report.plan == dict(schedule.frequencies)


class TestPlanStage:
    """The plan itself (strategy + simulation) is a memoized stage."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts strategy runs and simulations from here on."""
        import repro.api.planner as planner_module

        counts = {"strategy": 0, "simulate": 0}
        perseus = get_strategy("perseus")
        original_plan = perseus.plan
        simulate = planner_module.execute_frequency_plan

        def counted_plan(ctx):
            counts["strategy"] += 1
            return original_plan(ctx)

        def counted_simulate(*args, **kwargs):
            counts["simulate"] += 1
            return simulate(*args, **kwargs)

        monkeypatch.setattr(perseus, "plan", counted_plan)
        monkeypatch.setattr(planner_module, "execute_frequency_plan",
                            counted_simulate)
        return counts

    def test_warm_plan_is_a_lookup(self, calls):
        from repro.service.wire import reports_equal

        planner = Planner()
        first = planner.plan(SMALL)
        assert first.provenance["stages"]["plan"]["source"] == "built"
        before = dict(calls)
        assert before["strategy"] == 1 and before["simulate"] >= 1
        second = planner.plan(SMALL)
        assert calls == before
        assert reports_equal(first, second)
        assert second.provenance["stages"]["plan"]["source"] == "memory"
        assert "plan" not in second.provenance["digests"]

    def test_straggler_time_and_exactness_are_separate_entries(self, calls):
        planner = Planner()
        planner.plan(SMALL)
        target = planner.baseline_execution(SMALL).iteration_time * 1.2
        variants = [(SMALL, target), (SMALL.replace(exactness="fast"), None)]
        for spec, straggler_time in variants:
            before = calls["strategy"]
            report = planner.plan(spec, straggler_time=straggler_time)
            assert calls["strategy"] == before + 1
            assert report.provenance["stages"]["plan"]["source"] == "built"
        # ... and each variant is warm on its own key afterwards.
        before = dict(calls)
        for spec, straggler_time in variants:
            planner.plan(spec, straggler_time=straggler_time)
        assert calls == before

    def test_reregistered_name_plans_with_the_new_strategy(self):
        from repro.sim.executor import max_frequency_plan, min_energy_plan

        planner = Planner()
        try:
            register_strategy("test-plan-stage")(
                lambda ctx: max_frequency_plan(ctx.dag, ctx.profile))
            spec = SMALL.replace(strategy="test-plan-stage")
            fast = planner.plan(spec)
            register_strategy("test-plan-stage")(
                lambda ctx: min_energy_plan(ctx.dag, ctx.profile))
            frugal = planner.plan(spec)
        finally:
            _REGISTRY.pop("test-plan-stage", None)
        assert frugal.plan != fast.plan
        assert frugal.energy_j < fast.energy_j
        assert frugal.provenance["stages"]["plan"]["source"] == "built"

    def test_unhashable_strategy_instance_is_memoized_by_identity(self):
        from repro.sim.executor import max_frequency_plan

        class ValueStrategy:
            """Compares by value, so it is unhashable."""

            def __eq__(self, other):
                return isinstance(other, ValueStrategy)

            def plan(self, ctx):
                return max_frequency_plan(ctx.dag, ctx.profile)

        planner = Planner()
        spec = SMALL.replace(strategy="test-value-strategy")
        try:
            register_strategy("test-value-strategy")(ValueStrategy())
            first = planner.plan(spec)
            second = planner.plan(spec)
            # An equal but distinct instance is a different strategy.
            register_strategy("test-value-strategy")(ValueStrategy())
            third = planner.plan(spec)
        finally:
            _REGISTRY.pop("test-value-strategy", None)
        sources = [r.provenance["stages"]["plan"]["source"]
                   for r in (first, second, third)]
        assert sources == ["built", "memory", "built"]

    def test_mutating_a_report_plan_leaves_the_memo_intact(self):
        planner = Planner()
        first = planner.plan(SMALL)
        expected = dict(first.plan)
        first.plan.clear()
        second = planner.plan(SMALL)
        assert second.plan == expected
        assert second.plan is not first.plan

    def test_clear_forces_a_rebuild(self, calls):
        planner = Planner()
        planner.plan(SMALL)
        cold = dict(calls)
        planner.clear()
        report = planner.plan(SMALL)
        assert calls == {name: 2 * count for name, count in cold.items()}
        assert report.provenance["stages"]["plan"]["source"] == "built"


class TestServerSpecRegistration:
    def test_register_spec_characterizes(self):
        from repro.runtime.server import PerseusServer

        server = PerseusServer()
        server.register_spec("job-api", SMALL, blocking=True)
        frontier = server.frontier_of("job-api")
        assert frontier.t_min <= frontier.t_star
        schedule = server.current_schedule("job-api")
        assert schedule.iteration_time == pytest.approx(frontier.t_min)

    def test_register_spec_rejects_non_perseus_strategy(self):
        from repro.exceptions import ServerError
        from repro.runtime.server import PerseusServer

        server = PerseusServer()
        with pytest.raises(ServerError, match="zeus-global"):
            server.register_spec(
                "job-bad", SMALL.replace(strategy="zeus-global")
            )


class TestCompareCLI:
    def test_compare_prints_row_per_strategy(self, capsys):
        from repro.cli import main

        rc = main(["compare", "bert-large", "--stages", "2",
                   "--microbatches", "3", "--freq-stride", "24"])
        assert rc == 0
        out = capsys.readouterr().out
        for builtin in BUILTINS:
            assert builtin in out

    def test_plan_accepts_strategy_flag(self, capsys):
        from repro.cli import main

        rc = main(["plan", "bert-large", "--stages", "2",
                   "--microbatches", "3", "--freq-stride", "24",
                   "--strategy", "envpipe"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "strategy   : envpipe" in out and "savings" in out
        assert "intrinsic" not in out  # that label is Perseus-only

    def test_straggler_reports_clamping(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "frontier.json"
        assert main(["plan", "bert-large", "--stages", "2",
                     "--microbatches", "3", "--freq-stride", "24",
                     "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["straggler", str(out_path),
                     "--degrees", "1.01", "99.0"]) == 0
        out = capsys.readouterr().out
        assert "degree 99.00" in out
        assert "clamped to T*" in out
        # the in-range degree must NOT be flagged as clamped
        in_range_line = [l for l in out.splitlines() if "degree 1.01" in l][0]
        assert "clamped" not in in_range_line
