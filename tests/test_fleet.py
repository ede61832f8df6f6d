"""Fleet subsystem: events, power models, traces, policies, simulator."""

import json

import pytest

from repro.api import Planner, PlanSpec
from repro.core.frontier import Frontier
from repro.core.schedule import EnergySchedule
from repro.exceptions import ConfigurationError, SimulationError
from repro.fleet import (
    ARRIVAL,
    AllocationContext,
    Event,
    EventQueue,
    FleetJob,
    FleetSimulator,
    FleetTrace,
    JobPowerModel,
    JobView,
    StepTrace,
    StragglerEvent,
    get_policy,
    list_policies,
    register_policy,
    simulate,
    synthetic_trace,
)
from repro.fleet.policy import _REGISTRY as _POLICY_REGISTRY


# ---------------------------------------------------------------------------
# Synthetic frontiers: policies and power models testable without planning
# ---------------------------------------------------------------------------


def make_frontier(points, tau=0.01):
    """points: [(iteration_time, effective_energy), ...]"""
    schedules = [
        EnergySchedule(
            durations={},
            iteration_time=t,
            effective_energy=e,
            compute_energy=e,
            frequencies={},
        )
        for t, e in points
    ]
    return Frontier(points=schedules, tau=tau)


def make_model(points, blocking_w=(100.0, 100.0)):
    return JobPowerModel(make_frontier(points), blocking_w)


#: A steep ladder: slowing 10% saves very little energy.
STEEP = [(1.0, 1000.0), (1.1, 995.0), (1.2, 992.0)]
#: A shallow ladder: slowing 10% saves a lot of energy.
SHALLOW = [(1.0, 1000.0), (1.1, 800.0), (1.2, 700.0)]


class TestEventQueue:
    def test_orders_by_time_then_fifo(self):
        q = EventQueue()
        q.push(Event(time_s=2.0, kind=ARRIVAL, job_id="b"))
        q.push(Event(time_s=1.0, kind=ARRIVAL, job_id="a"))
        q.push(Event(time_s=2.0, kind=ARRIVAL, job_id="c"))
        assert q.pop().job_id == "a"
        batch = q.pop_batch()
        assert [e.job_id for e in batch] == ["b", "c"]
        assert not q

    def test_pop_batch_groups_equal_times(self):
        q = EventQueue()
        for jid in ("x", "y"):
            q.push(Event(time_s=5.0, kind=ARRIVAL, job_id=jid))
        q.push(Event(time_s=6.0, kind=ARRIVAL, job_id="z"))
        assert len(q.pop_batch()) == 2
        assert len(q.pop_batch()) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_bad_event_rejected(self):
        with pytest.raises(SimulationError):
            Event(time_s=-1.0, kind=ARRIVAL)
        with pytest.raises(SimulationError):
            Event(time_s=0.0, kind="nope")


class TestStepTrace:
    def test_right_continuous_lookup(self):
        tr = StepTrace.from_pairs([[0.0, 10.0], [5.0, 20.0]])
        assert tr.value_at(0.0) == 10.0
        assert tr.value_at(4.999) == 10.0
        assert tr.value_at(5.0) == 20.0
        assert tr.value_at(100.0) == 20.0
        assert tr.value_at(-1.0) == 10.0  # first value holds before t0

    def test_breakpoints_after(self):
        tr = StepTrace.from_pairs([[0.0, 1.0], [5.0, 2.0], [9.0, 3.0]])
        assert tr.breakpoints_after(0.0) == [5.0, 9.0]
        assert tr.breakpoints_after(5.0) == [9.0]

    def test_round_trip(self):
        tr = StepTrace.diurnal(base=100.0, amplitude=20.0, period_s=60.0,
                               steps=4)
        again = StepTrace.from_json(json.dumps(tr.to_dict()))
        assert again == tr

    def test_diurnal_spans_base_plus_minus_amplitude(self):
        tr = StepTrace.diurnal(base=100.0, amplitude=20.0, period_s=60.0,
                               steps=24)
        assert min(tr.values) >= 80.0
        assert max(tr.values) <= 120.0
        assert min(tr.values) < 85.0 and max(tr.values) > 115.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StepTrace(times=(1.0, 1.0), values=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            StepTrace(times=(0.0,), values=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            StepTrace.from_pairs([])


class TestJobPowerModel:
    def test_power_strictly_decreases_along_ladder(self):
        model = make_model(SHALLOW)
        ladder = model.ladder()
        powers = [p.power_w for p in ladder]
        assert powers == sorted(powers, reverse=True)
        assert len(ladder) == 3

    def test_point_prices_eq3(self):
        model = make_model([(2.0, 500.0)], blocking_w=(50.0, 75.0))
        point = model.point(0)
        assert point.energy_j == pytest.approx(500.0 + 125.0 * 2.0)
        assert point.power_w == pytest.approx(point.energy_j / 2.0)
        assert point.per_gpu_power_w(2) == pytest.approx(point.power_w / 2)

    def test_floor_collapses_fast_points(self):
        model = make_model(SHALLOW)
        ladder = model.ladder(floor_time_s=1.15)
        # Points at 1.0 and 1.1 are faster than the floor; only the
        # cheapest of them (index 1, the schedule_for(T') lookup)
        # survives, floored to 1.15 s.
        assert [p.index for p in ladder] == [1, 2]
        assert ladder[0].iteration_time_s == pytest.approx(1.15)
        assert ladder[1].iteration_time_s == pytest.approx(1.2)

    def test_floor_boundary_uses_the_schedule_for_lookup(self):
        # Point 1 is 5e-8 s slower than the floor: within TIME_EPS, so
        # schedule_for(T') deploys it and the ladder must start there.
        model = make_model([(1.0, 1000.0), (1.15 + 5e-8, 800.0),
                            (1.3, 700.0)])
        ladder = model.ladder(floor_time_s=1.15)
        assert ladder[0].index == model.frontier.index_for(1.15) == 1
        assert model.frontier.schedule_for(1.15) is \
            model.frontier.points[ladder[0].index]
        assert ladder[0].energy_j == pytest.approx(1030.0)

    def test_floor_beyond_frontier_pins_slowest(self):
        model = make_model(SHALLOW)
        ladder = model.ladder(floor_time_s=9.0)
        assert len(ladder) == 1
        assert ladder[0].index == 2
        assert ladder[0].iteration_time_s == pytest.approx(9.0)

    def test_bad_blocking_rejected(self):
        with pytest.raises(ConfigurationError):
            make_model(SHALLOW, blocking_w=())
        with pytest.raises(ConfigurationError):
            make_model(SHALLOW, blocking_w=(100.0, -1.0))


class TestTraces:
    def test_fleet_job_validation(self):
        spec = PlanSpec("gpt3-xl")
        with pytest.raises(ConfigurationError):
            FleetJob(job_id="", spec=spec, iterations=10)
        with pytest.raises(ConfigurationError):
            FleetJob(job_id="a", spec=spec, iterations=0)
        with pytest.raises(ConfigurationError):
            FleetJob(job_id="a", spec=spec, iterations=10, arrival_s=5.0,
                     deadline_s=4.0)

    def test_trace_rejects_duplicates_and_unknown_events(self):
        spec = PlanSpec("gpt3-xl")
        job = FleetJob(job_id="a", spec=spec, iterations=10)
        with pytest.raises(ConfigurationError):
            FleetTrace(jobs=(job, job))
        with pytest.raises(ConfigurationError):
            FleetTrace(jobs=(job,), events=(
                StragglerEvent(time_s=1.0, job_id="ghost", degree=1.2),
            ))

    def test_trace_json_round_trip(self):
        trace = synthetic_trace(["gpt3-xl", "bert-large"], count=3, seed=7,
                                deadline_slack=2.0)
        trace = FleetTrace(jobs=trace.jobs, events=(
            StragglerEvent(time_s=12.0, job_id="job-001", degree=1.25),
        ))
        again = FleetTrace.from_json(trace.to_json())
        assert again == trace

    def test_synthetic_trace_is_seed_deterministic(self):
        a = synthetic_trace(["gpt3-xl"], count=5, seed=3)
        b = synthetic_trace(["gpt3-xl"], count=5, seed=3)
        c = synthetic_trace(["gpt3-xl"], count=5, seed=4)
        assert a == b
        assert a != c

    def test_plan_spec_normalizes_strategy(self):
        job = FleetJob(
            job_id="a", spec=PlanSpec("gpt3-xl", strategy="envpipe"),
            iterations=1,
        )
        assert job.plan_spec.strategy == "perseus"
        assert job.spec.strategy == "envpipe"

    def test_unique_specs_dedupe(self):
        spec = PlanSpec("gpt3-xl")
        trace = FleetTrace(jobs=(
            FleetJob(job_id="a", spec=spec, iterations=1),
            FleetJob(job_id="b", spec=spec, iterations=2),
            FleetJob(job_id="c", spec=spec.replace(stages=2), iterations=3),
        ))
        assert len(trace.unique_specs()) == 2


def views(**ladders):
    return tuple(
        JobView(job_id=name, options=make_model(points).ladder(),
                num_gpus=2)
        for name, points in sorted(ladders.items())
    )


class TestPolicies:
    def test_registry_lists_builtins(self):
        names = list_policies()
        assert {"uncapped", "uniform", "greedy", "waterfill"} <= set(names)
        assert get_policy("waterfill").name == "waterfill"
        with pytest.raises(ConfigurationError):
            get_policy("no-such-policy")

    def test_register_function_policy(self):
        @register_policy("all-slow-test")
        def _all_slow(ctx):
            """Everything at the slowest point."""
            return {j.job_id: len(j.options) - 1 for j in ctx.jobs}

        try:
            policy = get_policy("all-slow-test")
            ctx = AllocationContext(jobs=views(a=STEEP), cap_w=None)
            assert policy.allocate(ctx) == {"a": 2}
            assert "slowest" in policy.description
        finally:
            _POLICY_REGISTRY.pop("all-slow-test", None)

    def test_register_instance_policy(self):
        class Configurable:
            """Pre-configured policy instance."""

            def __init__(self, position):
                self.position = position

            def allocate(self, ctx):
                return {j.job_id: self.position for j in ctx.jobs}

        register_policy("inst-test")(Configurable(position=1))
        try:
            ctx = AllocationContext(jobs=views(a=STEEP), cap_w=None)
            assert get_policy("inst-test").allocate(ctx) == {"a": 1}
        finally:
            _POLICY_REGISTRY.pop("inst-test", None)

    def test_uncapped_ignores_cap(self):
        ctx = AllocationContext(jobs=views(a=STEEP, b=SHALLOW), cap_w=1.0)
        assert get_policy("uncapped").allocate(ctx) == {"a": 0, "b": 0}

    @pytest.mark.parametrize("name", ["uniform", "greedy", "waterfill"])
    def test_policies_fit_feasible_caps(self, name):
        ctx = AllocationContext(jobs=views(a=STEEP, b=SHALLOW), cap_w=2300.0)
        allocation = get_policy(name).allocate(ctx)
        assert ctx.fleet_power(allocation) <= 2300.0 + 1e-9

    @pytest.mark.parametrize("name", ["uniform", "greedy", "waterfill"])
    def test_policies_best_effort_on_infeasible_caps(self, name):
        ctx = AllocationContext(jobs=views(a=STEEP, b=SHALLOW), cap_w=10.0)
        allocation = get_policy(name).allocate(ctx)
        # Nothing fits: every job parks at its slowest point.
        assert allocation == {"a": 2, "b": 2}

    def test_waterfill_slows_the_shallow_job_first(self):
        # One step of shedding suffices; the shallow frontier gives the
        # energy back at ~20x fewer seconds per joule.
        ctx = AllocationContext(jobs=views(a=STEEP, b=SHALLOW), cap_w=2390.0)
        allocation = get_policy("waterfill").allocate(ctx)
        assert allocation["b"] > 0
        assert allocation["a"] == 0

    def test_greedy_slows_the_hungriest_job(self):
        hungry = [(1.0, 2000.0), (1.1, 1990.0), (1.2, 1985.0)]
        modest = [(1.0, 500.0), (1.1, 400.0)]
        ctx = AllocationContext(jobs=views(a=hungry, b=modest), cap_w=2890.0)
        allocation = get_policy("greedy").allocate(ctx)
        assert allocation["a"] > 0

    def test_uniform_caps_every_gpu_equally(self):
        ctx = AllocationContext(jobs=views(a=STEEP, b=SHALLOW), cap_w=2300.0)
        allocation = get_policy("uniform").allocate(ctx)
        jobs = {v.job_id: v for v in ctx.jobs}
        per_gpu = [
            jobs[jid].options[pos].per_gpu_power_w(jobs[jid].num_gpus)
            for jid, pos in allocation.items()
        ]
        # Both jobs respect one shared per-GPU limit: the larger chosen
        # draw is the binding limit and the other lies under it.
        assert max(per_gpu) <= 2300.0 / 4 + 1e-9


# ---------------------------------------------------------------------------
# End-to-end simulation on real (small) planned specs
# ---------------------------------------------------------------------------

SMALL = dict(stages=2, microbatches=3, freq_stride=24)


@pytest.fixture(scope="module")
def fleet_planner():
    return Planner()


@pytest.fixture(scope="module")
def small_trace():
    return FleetTrace(jobs=(
        FleetJob(job_id="alpha", spec=PlanSpec("bert-large", **SMALL),
                 iterations=40),
        FleetJob(job_id="beta", spec=PlanSpec("t5-large", **SMALL),
                 iterations=30, arrival_s=2.0),
        FleetJob(job_id="gamma", spec=PlanSpec("bert-large", **SMALL),
                 iterations=20, arrival_s=4.0),
    ))


class TestSimulator:
    def test_uncapped_runs_at_allmax(self, small_trace, fleet_planner):
        report = simulate(small_trace, policy="uncapped",
                          planner=fleet_planner)
        assert report.cap_violation_s == 0.0
        for record in report.jobs:
            assert record.slowdown_pct == pytest.approx(0.0, abs=1e-9)
            assert record.energy_j == pytest.approx(record.allmax_energy_j)
        assert report.fleet_energy_j == \
            pytest.approx(report.allmax_energy_j)

    def test_capped_run_meets_cap_and_saves_energy(self, small_trace,
                                                   fleet_planner):
        free = simulate(small_trace, policy="uncapped",
                        planner=fleet_planner)
        # A cap that binds while all three jobs overlap.
        peak = max(r.avg_power_w for r in free.jobs) * 2.2
        capped = simulate(small_trace, policy="waterfill", cap_w=peak,
                          planner=fleet_planner)
        assert capped.cap_violation_s == 0.0
        assert capped.fleet_energy_j < free.fleet_energy_j
        assert capped.aggregate_slowdown_pct > 0.0
        assert capped.energy_bloat_pct > 0.0

    def test_report_is_bit_identical_across_runs(self, small_trace,
                                                 fleet_planner):
        kwargs = dict(policy="waterfill", cap_w=2000.0,
                      planner=fleet_planner)
        first = simulate(small_trace, **kwargs).to_json()
        second = simulate(small_trace, **kwargs).to_json()
        assert first == second

    def test_report_identical_across_planner_parallelism(self, small_trace):
        serial = FleetSimulator(small_trace, policy="waterfill",
                                cap_w=2000.0, planner=Planner()).run()
        pooled = FleetSimulator(small_trace, policy="waterfill",
                                cap_w=2000.0, planner=Planner(),
                                plan_jobs=2).run()
        assert serial.to_json() == pooled.to_json()

    def test_report_identical_through_a_persistent_store(self, small_trace,
                                                         tmp_path):
        # Frontiers adopted from disk (a store warmed by a previous
        # planner) must reproduce the in-memory fleet report bit for
        # bit -- the serialization roundtrip is exact.
        store = str(tmp_path / "plan-store")
        fresh = FleetSimulator(small_trace, policy="waterfill",
                               cap_w=2000.0, planner=Planner(cache=store)
                               ).run()
        warm_planner = Planner(cache=store)
        warm = FleetSimulator(small_trace, policy="waterfill",
                              cap_w=2000.0, planner=warm_planner).run()
        assert warm_planner.stats["frontier"] == 0  # adopted, not crawled
        assert fresh.to_json() == warm.to_json()

    def test_straggler_event_slows_and_saves(self, small_trace,
                                             fleet_planner):
        clean = simulate(small_trace, policy="uncapped",
                         planner=fleet_planner)
        straggled = FleetTrace(jobs=small_trace.jobs, events=(
            StragglerEvent(time_s=0.0, job_id="alpha", degree=1.3),
        ))
        report = simulate(straggled, policy="waterfill",
                          planner=fleet_planner)
        alpha = report.job("alpha")
        assert alpha.duration_s > clean.job("alpha").duration_s
        assert alpha.slowdown_pct == pytest.approx(30.0, abs=2.0)
        # Perseus semantics: running at T' is time-free, so the job
        # rides its frontier down and burns less than all-max would.
        assert alpha.energy_j < alpha.allmax_energy_j

    def test_straggler_before_arrival_applies_on_admit(self, small_trace,
                                                       fleet_planner):
        straggled = FleetTrace(jobs=small_trace.jobs, events=(
            StragglerEvent(time_s=1.0, job_id="gamma", degree=1.5),
        ))
        report = simulate(straggled, policy="uncapped",
                          planner=fleet_planner)
        assert report.job("gamma").slowdown_pct == pytest.approx(50.0,
                                                                 abs=3.0)

    def test_deadline_accounting(self, fleet_planner):
        base = PlanSpec("bert-large", **SMALL)
        trace = FleetTrace(jobs=(
            FleetJob(job_id="tight", spec=base, iterations=20,
                     deadline_s=0.001),
            FleetJob(job_id="loose", spec=base, iterations=20,
                     deadline_s=1e6),
        ))
        report = simulate(trace, policy="uncapped", planner=fleet_planner)
        assert report.job("tight").deadline_missed
        assert not report.job("loose").deadline_missed
        assert report.deadline_misses == 1

    def test_carbon_accounting(self, small_trace, fleet_planner):
        report = simulate(small_trace, policy="uncapped", carbon=500.0,
                          planner=fleet_planner)
        expected_g = report.fleet_energy_j / 3.6e6 * 500.0
        assert report.carbon_g == pytest.approx(expected_g, rel=1e-9)

    def test_cap_trace_breakpoints_drive_reallocation(self, small_trace,
                                                      fleet_planner):
        free = simulate(small_trace, policy="uncapped",
                        planner=fleet_planner)
        tight = max(r.avg_power_w for r in free.jobs) * 2.2
        cap = StepTrace.from_pairs([[0.0, 1e9], [3.0, tight]])
        report = simulate(small_trace, policy="waterfill", cap_w=cap,
                          planner=fleet_planner)
        assert report.cap_violation_s == 0.0
        assert report.fleet_energy_j < free.fleet_energy_j

    def test_trace_breakpoints_beyond_fleet_do_not_stretch_makespan(
        self, small_trace, fleet_planner
    ):
        free = simulate(small_trace, policy="uncapped",
                        planner=fleet_planner)
        # A 24h-style cap curve whose breakpoints vastly outlast the
        # fleet: the makespan is still the last job completion.
        long_cap = StepTrace.from_pairs(
            [[0.0, 1e9], [50_000.0, 1e9], [100_000.0, 1e9]]
        )
        report = simulate(small_trace, policy="uncapped", cap_w=long_cap,
                          planner=fleet_planner)
        assert report.makespan_s == pytest.approx(free.makespan_s)
        assert report.makespan_s == max(r.end_s for r in report.jobs)

    def test_violation_seconds_accrue_when_infeasible(self, small_trace,
                                                      fleet_planner):
        report = simulate(small_trace, policy="waterfill", cap_w=1.0,
                          planner=fleet_planner)
        assert report.cap_violation_s == pytest.approx(report.makespan_s)

    def test_waterfill_beats_uniform_on_mixed_fleet(self, fleet_planner):
        trace = FleetTrace(jobs=(
            FleetJob(job_id="a",
                     spec=PlanSpec("bert-large", gpu="a100", **SMALL),
                     iterations=60),
            FleetJob(job_id="b",
                     spec=PlanSpec("bert-large", gpu="a40", **SMALL),
                     iterations=40),
            FleetJob(job_id="c",
                     spec=PlanSpec("t5-large", gpu="a40", **SMALL),
                     iterations=40),
        ))
        free = simulate(trace, policy="uncapped", planner=fleet_planner)
        cap = sum(r.avg_power_w for r in free.jobs) * 0.88
        uniform = simulate(trace, policy="uniform", cap_w=cap,
                           planner=fleet_planner)
        water = simulate(trace, policy="waterfill", cap_w=cap,
                         planner=fleet_planner)
        assert water.cap_violation_s == 0.0
        assert uniform.cap_violation_s == 0.0
        assert water.fleet_energy_j < uniform.fleet_energy_j
        assert water.aggregate_slowdown_pct <= \
            uniform.aggregate_slowdown_pct + 1e-9

    def test_unique_specs_plan_once(self, small_trace):
        planner = Planner()
        simulate(small_trace, policy="uncapped", planner=planner)
        # alpha and gamma share a spec: two unique stacks, two frontiers.
        assert planner.stats["profile"] == 2
        assert planner.stats["frontier"] == 2

    def test_report_dict_shape(self, small_trace, fleet_planner):
        report = simulate(small_trace, policy="uncapped",
                          planner=fleet_planner)
        doc = report.to_dict()
        assert doc["kind"] == "fleet_report"
        assert len(doc["jobs"]) == 3
        row = doc["jobs"][0]
        assert {"job_id", "energy_j", "slowdown_pct", "deadline_missed",
                "allmax_energy_j"} <= set(row)
        assert doc["aggregate_slowdown_pct"] == \
            pytest.approx(report.aggregate_slowdown_pct)

    def test_bad_policy_rejected(self, small_trace):
        with pytest.raises(ConfigurationError):
            FleetSimulator(small_trace, policy=object())


class TestFleetCli:
    def test_fleet_cli_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fleet.json"
        code = main([
            "fleet", "--count", "2", "--models", "bert-large",
            "--gpus", "a100", "--stages", "2", "--microbatches", "3",
            "--freq-stride", "24", "--iterations", "20",
            "--max-iterations", "30", "--policy", "waterfill",
            "--cap-watts", "800", "--format", "json",
            "-o", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["policy"] == "waterfill"
        assert len(doc["jobs"]) == 2

    def test_fleet_cli_trace_file(self, tmp_path, capsys):
        from repro.cli import main

        trace = synthetic_trace(["bert-large"], count=2, seed=1,
                                iterations=(10, 20), stages=2,
                                microbatches=3, freq_stride=24)
        path = tmp_path / "trace.json"
        path.write_text(trace.to_json())
        assert main(["fleet", "--trace", str(path)]) == 0
        assert "fleet" in capsys.readouterr().out

    def test_fleet_cli_bad_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["fleet", "--trace", str(path)]) == 2

    def test_fleet_cli_iterations_lower_bound_alone(self, capsys):
        from repro.cli import main

        # --iterations above the default upper bound must not error:
        # the range clamps to (500, 500).
        code = main([
            "fleet", "--count", "1", "--models", "bert-large",
            "--gpus", "a100", "--stages", "2", "--microbatches", "3",
            "--freq-stride", "24", "--iterations", "500",
        ])
        assert code == 0
        assert "iters" in capsys.readouterr().out

    def test_policies_cli(self, capsys):
        from repro.cli import main

        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "waterfill" in out and "uniform" in out
