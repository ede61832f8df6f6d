"""Runtime: controller prefetching, client/server lifecycle, engine."""

import pytest

from repro.exceptions import ClientError, ServerError
from repro.gpu.nvml import SimulatedNVML
from repro.gpu.specs import A40, A100_PCIE
from repro.models.registry import build_model
from repro.partition.algorithms import partition_model
from repro.runtime.client import PerseusClient
from repro.runtime.controller import AsyncFrequencyController
from repro.runtime.engine import (
    TrainingEngine,
    TrainingSession,
    profile_p_blocking,
)
from repro.runtime.server import PerseusServer


@pytest.fixture()
def device():
    return SimulatedNVML(A100_PCIE, 1).device(0)


class TestController:
    def test_load_plan_arms_first_clock(self, device):
        ctrl = AsyncFrequencyController(device=device)
        ctrl.load_plan([900, 1200, 600], now=0.0)
        assert device.sm_clock(0.02) == 900

    def test_set_speed_prefetches_next(self, device):
        ctrl = AsyncFrequencyController(device=device)
        ctrl.load_plan([900, 1200, 600], now=0.0)
        nxt = ctrl.set_speed(now=1.0)  # instruction 0 starts
        assert nxt == 1200
        assert device.sm_clock(1.02) == 1200

    def test_end_of_plan_returns_none(self, device):
        ctrl = AsyncFrequencyController(device=device)
        ctrl.load_plan([900], now=0.0)
        assert ctrl.set_speed(now=1.0) is None

    def test_empty_plan_rejected(self, device):
        ctrl = AsyncFrequencyController(device=device)
        with pytest.raises(ClientError):
            ctrl.load_plan([], now=0.0)

    def test_begin_iteration_resets(self, device):
        ctrl = AsyncFrequencyController(device=device)
        ctrl.load_plan([900, 1200], now=0.0)
        ctrl.set_speed(now=1.0)
        ctrl.begin_iteration(now=2.0)
        assert ctrl.current_planned() == (0, 900)


class TestServer:
    def test_register_and_duplicate(self, small_dag):
        server = PerseusServer()
        server.register_job("j", small_dag)
        with pytest.raises(ServerError):
            server.register_job("j", small_dag)

    def test_unknown_job(self):
        server = PerseusServer()
        with pytest.raises(ServerError):
            server.is_ready("nope")

    def test_blocking_characterization(self, small_dag, small_profile):
        server = PerseusServer()
        server.register_job("j", small_dag, tau=0.02)
        server.submit_profile("j", small_profile, blocking=True)
        assert server.is_ready("j")
        frontier = server.frontier_of("j")
        assert frontier.t_min < frontier.t_star

    def test_async_characterization(self, small_dag, small_profile):
        server = PerseusServer()
        server.register_job("j", small_dag, tau=0.02)
        server.submit_profile("j", small_profile, blocking=False)
        frontier = server.wait_ready("j", timeout_s=120.0)
        assert frontier.points

    def test_straggler_lookup(self, small_dag, small_profile):
        server = PerseusServer()
        server.register_job("j", small_dag, tau=0.02)
        server.submit_profile("j", small_profile, blocking=True)
        tmin_sched = server.current_schedule("j")
        server.set_straggler("j", accelerator_id=3, delay_s=0.0, degree=1.2)
        slow_sched = server.current_schedule("j")
        assert slow_sched.iteration_time > tmin_sched.iteration_time
        frontier = server.frontier_of("j")
        assert slow_sched.iteration_time <= 1.2 * frontier.t_min + 1e-6
        # straggler resolved
        server.set_straggler("j", accelerator_id=3, delay_s=0.0, degree=1.0)
        assert (
            server.current_schedule("j").iteration_time
            == tmin_sched.iteration_time
        )

    def test_straggler_validation(self, small_dag):
        server = PerseusServer()
        server.register_job("j", small_dag)
        with pytest.raises(ServerError):
            server.set_straggler("j", 0, 0.0, degree=0.5)
        with pytest.raises(ServerError):
            server.set_straggler("j", 0, -1.0, degree=1.2)


class TestStoreBackedSubmitProfile:
    """The raw client-driven path persists/adopts frontiers like
    ``register_spec``: content-addressed on (profile, DAG shape, tau)
    through the attached planner's cache backend."""

    def test_second_submission_adopts_cached_frontier(
        self, small_dag, small_profile
    ):
        from repro.api import Planner

        planner = Planner()
        server = PerseusServer(planner=planner)
        server.register_job("one", small_dag, tau=0.02)
        server.submit_profile("one", small_profile, blocking=True)
        assert planner.stats["frontier"] == 1
        server.register_job("two", small_dag, tau=0.02)
        server.submit_profile("two", small_profile, blocking=True)
        # Same (profile, dag, tau) content: no second crawl, and the
        # very same frontier object is served for both jobs.
        assert planner.stats["frontier"] == 1
        assert server.frontier_of("two") is server.frontier_of("one")

    def test_different_tau_characterizes_again(
        self, small_dag, small_profile
    ):
        from repro.api import Planner

        planner = Planner()
        server = PerseusServer(planner=planner)
        server.register_job("a", small_dag, tau=0.02)
        server.submit_profile("a", small_profile, blocking=True)
        server.register_job("b", small_dag, tau=0.04)
        server.submit_profile("b", small_profile, blocking=True)
        assert planner.stats["frontier"] == 2

    def test_frontier_persists_across_processes(
        self, tmp_path, small_dag, small_profile
    ):
        from repro.api import Planner

        store = str(tmp_path / "plan-store")
        cold_planner = Planner(cache=store)
        cold = PerseusServer(planner=cold_planner)
        cold.register_job("j", small_dag, tau=0.02)
        cold.submit_profile("j", small_profile, blocking=True)
        assert cold_planner.stats["frontier"] == 1

        # A fresh planner over the same store stands in for a second
        # process: the frontier is adopted from disk, never re-crawled.
        warm_planner = Planner(cache=store)
        warm = PerseusServer(planner=warm_planner)
        warm.register_job("j", small_dag, tau=0.02)
        warm.submit_profile("j", small_profile, blocking=True)
        assert warm_planner.stats["frontier"] == 0
        assert warm_planner.cache.counters.get("disk_hits", 0) >= 1

        a, b = cold.frontier_of("j"), warm.frontier_of("j")
        assert [(p.iteration_time, p.effective_energy) for p in a.points] \
            == [(p.iteration_time, p.effective_energy) for p in b.points]

    def test_key_distinguishes_dag_structure(self, small_profile):
        # Two DAGs with identical shape (stages, microbatches, node
        # count, op keys) but different dependency edges must not share
        # a frontier: the key hashes the full structure.
        from repro.pipeline.dag import build_pipeline_dag
        from repro.pipeline.schedules import schedule_1f1b
        from repro.runtime.server import _Job

        a = build_pipeline_dag(schedule_1f1b(4, 6))
        b = build_pipeline_dag(schedule_1f1b(4, 6))
        extra = sorted(b.nodes)  # add one more dependency edge to b
        b.add_edge(extra[0], extra[-1])
        server = PerseusServer()
        job_a = _Job(job_id="a", dag=a, tau=0.02, profile=small_profile)
        job_b = _Job(job_id="b", dag=b, tau=0.02, profile=small_profile)
        key_a = server._raw_frontier_key(job_a)
        key_b = server._raw_frontier_key(job_b)
        assert key_a != key_b
        # Same structure, same profile, same tau: keys alias.
        job_c = _Job(job_id="c", dag=build_pipeline_dag(schedule_1f1b(4, 6)),
                     tau=0.02, profile=small_profile)
        assert server._raw_frontier_key(job_c) == key_a

    def test_async_path_is_store_backed_too(
        self, tmp_path, small_dag, small_profile
    ):
        from repro.api import Planner

        store = str(tmp_path / "plan-store")
        seed_planner = Planner(cache=store)
        seed = PerseusServer(planner=seed_planner)
        seed.register_job("j", small_dag, tau=0.02)
        seed.submit_profile("j", small_profile, blocking=True)

        adopt_planner = Planner(cache=store)
        server = PerseusServer(planner=adopt_planner)
        server.register_job("j", small_dag, tau=0.02)
        server.submit_profile("j", small_profile, blocking=False)
        frontier = server.wait_ready("j", timeout_s=120.0)
        assert frontier.points
        assert adopt_planner.stats["frontier"] == 0


@pytest.fixture(scope="module")
def engine():
    model = build_model("gpt3-xl", 4)
    part = partition_model(model, 4, A100_PCIE)
    return TrainingEngine(
        model, part, A100_PCIE, num_microbatches=4,
        freq_stride=24, iterations_per_freq=1,
    )


class TestEngine:
    def test_iteration_runs_all_instructions(self, engine):
        stats = engine.run_iteration()
        assert stats.iteration_time > 0
        assert stats.energy_j > 0

    def test_profiling_eventually_completes(self, engine):
        for _ in range(60):
            engine.run_iteration()
            if engine.profiling_done():
                break
        assert engine.profiling_done()
        profile = engine.collect_profile()
        assert set(profile.op_keys()) == {
            (s, k) for s in range(4) for k in ("forward", "backward")
        }
        for op in profile.ops.values():
            assert len(op.measurements) >= 3

    def test_p_blocking_profiled_once_per_model(self):
        p = profile_p_blocking(A100_PCIE)
        assert p == pytest.approx(A100_PCIE.blocking_w)

    def test_straggler_injection_slows_iteration(self):
        model = build_model("gpt3-xl", 4)
        part = partition_model(model, 4, A100_PCIE)
        eng = TrainingEngine(model, part, A100_PCIE, num_microbatches=4,
                             freq_stride=24, iterations_per_freq=1)
        t0 = eng.run_iteration().iteration_time
        eng.set_stage_slowdown(1, 1.4)
        t1 = eng.run_iteration().iteration_time
        # stage 1 is ~1/4 of the critical path; throttling it 1.4x must
        # stretch the iteration noticeably but sub-proportionally
        assert t0 * 1.05 < t1 < t0 * 1.4


class TestSession:
    def test_full_lifecycle(self):
        model = build_model("gpt3-xl", 4)
        part = partition_model(model, 4, A100_PCIE)
        eng = TrainingEngine(model, part, A100_PCIE, num_microbatches=4,
                             freq_stride=24, iterations_per_freq=1)
        session = TrainingSession(engine=eng, server=PerseusServer(), tau=0.02)
        for _ in range(100):
            stats = session.step()
            if stats.phase == "optimized":
                break
        assert stats.phase == "optimized"
        # the first optimized iteration is transitional (stale clocks until
        # the deployed locks apply); assert on the steady state after it
        stats = session.step()
        first = session.history[0]
        assert stats.iteration_time <= first.iteration_time * 1.03
        assert stats.energy_j < first.energy_j * 0.97

    def test_straggler_notification_slows_pipeline(self):
        model = build_model("gpt3-xl", 4)
        part = partition_model(model, 4, A100_PCIE)
        eng = TrainingEngine(model, part, A100_PCIE, num_microbatches=4,
                             freq_stride=24, iterations_per_freq=1)
        session = TrainingSession(engine=eng, server=PerseusServer(), tau=0.02)
        for _ in range(100):
            if session.step().phase == "optimized":
                break
        session.step()  # let the deployed clocks settle
        t_opt = session.history[-1].iteration_time
        e_opt = session.history[-1].energy_j
        session.notify_straggler(accelerator_id=9, delay_s=0.0, degree=1.25)
        session.step()  # transition iteration while new locks apply
        stats = session.step()
        assert stats.iteration_time <= t_opt * 1.25 * 1.03
        assert stats.iteration_time > t_opt * 1.05
        assert stats.energy_j < e_opt


def _op_windows(engine):
    """Wrap every client's instruction hooks; the returned list fills
    with ``(stage, start, end)`` per executed computation."""
    windows = []
    for client in engine.clients:
        opened = {}

        def on_start(op_key, now, _hook=client.on_instruction_start,
                     _open=opened):
            _open[op_key] = now
            _hook(op_key, now)

        def on_end(op_key, now, _hook=client.on_instruction_end,
                   _open=opened, _stage=client.stage):
            windows.append((_stage, _open.pop(op_key), now))
            _hook(op_key, now)

        client.on_instruction_start = on_start
        client.on_instruction_end = on_end
    return windows


def _steady_state(gpu, microbatches):
    """gpt3-xl pp4 at stride 24, run to its steady-state optimized
    iteration: (session, that iteration's stats, its op windows)."""
    model = build_model("gpt3-xl", 4)
    part = partition_model(model, 4, gpu)
    eng = TrainingEngine(model, part, gpu, num_microbatches=microbatches,
                         freq_stride=24, iterations_per_freq=1)
    session = TrainingSession(engine=eng, server=PerseusServer(), tau=0.02)
    windows = _op_windows(eng)
    for _ in range(100):
        if session.step().phase == "optimized":
            break
    session.step()  # transitional: the deployed clock locks apply
    windows.clear()
    stats = session.step()
    assert stats.phase == "optimized"
    return session, stats, windows


def _profile_fingerprint(profile):
    """(sha256 of every op's clocks and times, bit for bit; the fsum of
    every measured energy)."""
    import hashlib
    import math

    digest = hashlib.sha256()
    energies = []
    for key in sorted(profile.ops):
        for m in profile.ops[key].measurements:
            digest.update(repr((key, m.freq_mhz, m.time_s.hex())).encode())
            energies.append(m.energy_j)
    return digest.hexdigest()[:16], math.fsum(energies)


class TestRealizedEnergyIsEq3:
    """The engine charges bubbles at ``P_blocking``, so a realized
    iteration counts the joules Eq. 3 plans."""

    @pytest.mark.parametrize("gpu", [A100_PCIE, A40], ids=["a100", "a40"])
    def test_bubbles_are_charged_at_blocking_power(self, gpu):
        session, stats, windows = _steady_state(gpu, 4)
        nvml = session.engine.nvml
        compute = sum(nvml.device(stage).energy_counter(end, since=start)
                      for stage, start, end in windows)
        busy = sum(end - start for _, start, end in windows)
        assert len(windows) == len(session.engine.dag.nodes)
        bubbles = 4 * stats.iteration_time - busy
        assert stats.energy_j == pytest.approx(
            compute + gpu.blocking_w * bubbles, rel=1e-9)

    @pytest.mark.parametrize("microbatches", [4, 8])
    def test_realized_matches_planned_energy_on_a100(self, microbatches):
        session, stats, _ = _steady_state(A100_PCIE, microbatches)
        schedule = session.server.current_schedule(session.job_id)
        assert stats.iteration_time == pytest.approx(
            schedule.iteration_time, rel=1e-9)
        planned = schedule.energy_at(4 * A100_PCIE.blocking_w)
        assert stats.energy_j / planned == pytest.approx(1.0, abs=0.005)

    @pytest.mark.parametrize("gpu, fingerprint, energy_sum", [
        (A100_PCIE, "7cf5cfe74480fe7a", 841.0715580788208),
        (A40, "2e736215aee92e87", 2010.4343307752779),
    ], ids=["a100", "a40"])
    def test_invivo_profile_is_unchanged(self, gpu, fingerprint,
                                         energy_sum):
        # Recorded before bubbles were charged at P_blocking.  A bubble
        # recorded after the profiler reads the counter would land in
        # the next op's measured energy and move the sum by percents;
        # counter deltas may only move by float rounding.
        session, _, _ = _steady_state(gpu, 4)
        digest, total = _profile_fingerprint(session.engine.collect_profile())
        assert digest == fingerprint
        assert total == pytest.approx(energy_sum, rel=1e-12)
