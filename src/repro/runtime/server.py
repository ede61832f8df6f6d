"""Perseus server (§3.2, §5): cluster-wide singleton planner.

The server owns, per training job: the computation DAG, the merged profile
from all stage clients, the (asynchronously characterized) time-energy
frontier, and the current straggler state.  Clients talk to it through
plain method calls standing in for the paper's HTTP/RPC surface; the
infrastructure notifies stragglers via ``set_straggler`` (Table 2).

Frontier characterization runs on a background thread so training
continues at maximum clocks while the optimizer works (§3.2 step 2).

Jobs can be registered either from raw parts (``register_job`` +
``submit_profile``, the client-driven path) or from a single
:class:`repro.api.PlanSpec` via :meth:`PerseusServer.register_spec`,
which builds the DAG, profile and tau through the shared planner.
Spec-registered jobs characterize *through* the planner, so a frontier
already held by the planner's cache backend (including a persistent
:class:`~repro.core.store.PlanStore` warmed by another process) is
adopted as-is instead of being re-crawled.

The raw client-driven path and drift re-plans take the same door: a
profile submitted via ``submit_profile`` is content-hashed together
with the job's DAG shape and tau, and the frontier is resolved under
that key by :meth:`~repro.api.planner.Planner.frontier_at` -- the one
path that finds, counts and files every planner frontier.  Two
servers (or two *processes* sharing a ``REPRO_CACHE_DIR`` store) that
receive the same profile for the same pipeline therefore characterize
it exactly once.

:meth:`PerseusServer.submit_sweep` is the batch path: it plans a whole
spec batch (with per-spec error isolation), registers one deployable
job per successful Perseus spec, and serves the comparable
:class:`~repro.api.planner.PlanReport` rows via
:meth:`PerseusServer.report_of` / :meth:`PerseusServer.sweep_reports`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
)

from ..core.frontier import DEFAULT_TAU, Frontier, characterize_frontier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.planner import Planner, PlanReport
    from ..api.spec import PlanSpec
    from ..drift.controller import DriftController, DriftPolicy
    from ..drift.detector import DriftSignal
from ..core.schedule import EnergySchedule
from ..core.unified import select_schedule, straggler_floor
from ..exceptions import ServerError
from ..pipeline.dag import ComputationDag
from ..profiler.measurement import PipelineProfile

#: Callback fired when a job gets a new schedule: (job_id, stage ->
#: per-instruction frequency list).
DeployCallback = Callable[[str, Dict[int, List[int]]], None]


@dataclass
class StragglerState:
    """Latest infrastructure notification for one accelerator."""

    accelerator_id: int
    delay_s: float
    degree: float  # 1.0 = back to normal


@dataclass
class _Job:
    job_id: str
    dag: ComputationDag
    tau: float
    profile: Optional[PipelineProfile] = None
    frontier: Optional[Frontier] = None
    characterizing: bool = False
    straggler: Optional[StragglerState] = None
    error: Optional[BaseException] = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Set the moment characterization settles (frontier adopted or
    #: error recorded); ``wait_ready`` blocks on this instead of
    #: polling.  Never cleared: once a job has settled, waiters return
    #: instantly (a later re-characterization serves the old frontier
    #: until the new one lands, exactly as queries always have).
    settled: threading.Event = field(default_factory=threading.Event)
    #: Closed-loop drift state (``enable_drift``): the controller, the
    #: iteration-time floor its last accepted re-plan imposed, and the
    #: most recent per-stage busy times reported alongside measurements
    #: (used to localize which stages to re-profile).
    drift: Optional["DriftController"] = None
    drift_floor_s: Optional[float] = None
    drift_stage_times: Optional[List[float]] = None
    #: Serializes the drift loop itself.  Separate from ``lock``:
    #: a re-plan accepted inside ``observe`` walks back into
    #: ``_push_schedule``/``current_schedule``, which take ``lock`` --
    #: the order is always ``drift_lock`` then ``lock``, never the
    #: reverse.
    drift_lock: threading.Lock = field(default_factory=threading.Lock)


class PerseusServer:
    """Framework- and accelerator-agnostic planning service.

    ``planner`` is the shared :class:`~repro.api.Planner` behind every
    store-aware path (spec registration, sweeps, and the raw
    ``submit_profile`` frontier cache); it defaults to the process-wide
    :func:`~repro.api.planner.default_planner`, so ``REPRO_CACHE_DIR``
    makes the whole server persistent at once.
    """

    def __init__(self, deploy_callback: Optional[DeployCallback] = None,
                 planner: Optional["Planner"] = None):
        self._jobs: Dict[str, _Job] = {}
        #: Guards the job registry itself.  Registration is
        #: check-and-insert under this lock, so two concurrent
        #: ``register_spec``/``register_job`` calls naming the same id
        #: cannot race into silent last-writer-wins -- exactly one wins,
        #: the other gets the explicit duplicate :class:`ServerError`.
        self._registry_lock = threading.Lock()
        self._deploy = deploy_callback
        self._planner = planner
        #: Sweep rows by job id; ``None`` marks an id reserved by an
        #: in-flight ``submit_sweep`` batch (planning takes seconds).
        self._reports: Dict[str, Optional["PlanReport"]] = {}
        self._sweep_lock = threading.Lock()

    def _shared_planner(self) -> "Planner":
        if self._planner is None:
            from ..api.planner import default_planner

            self._planner = default_planner()
        return self._planner

    # -- job lifecycle -------------------------------------------------------
    def register_job(
        self, job_id: str, dag: ComputationDag, tau: float = DEFAULT_TAU
    ) -> None:
        """Register a training job, specified by its computation DAG.

        Atomic: under concurrent registration of one ``job_id`` exactly
        one caller wins and every other gets the duplicate error.
        """
        with self._registry_lock:
            if job_id in self._jobs:
                raise ServerError(f"job {job_id!r} already registered")
            self._jobs[job_id] = _Job(job_id=job_id, dag=dag, tau=tau)

    def register_spec(
        self,
        job_id: str,
        spec: "PlanSpec",
        blocking: bool = False,
    ) -> None:
        """Register a job from a :class:`~repro.api.PlanSpec`.

        The (memoized) planner assembles the DAG, the analytic profile
        and the auto-derived tau, then frontier characterization runs
        through the planner itself (:meth:`~repro.api.Planner.frontier_for`,
        not the raw-parts ``submit_profile`` path) -- asynchronously
        unless ``blocking`` is set.  Specs with a per-stage ``gpu``
        tuple are first-class: the mixed-cluster profile (per-stage
        ladders and blocking powers) flows into characterization
        unchanged, so the frontier the server deploys is the
        heterogeneous pipeline's own.

        The server *is* the Perseus frontier service: it characterizes
        and deploys frontier schedules, so a spec naming any other
        strategy is rejected rather than silently ignored.

        Characterization goes through the planner's cache backend: a
        frontier the planner (or its persistent store) already holds is
        adopted instantly, and a freshly crawled one is shared with
        every later job naming the same (dag, profile, tau).
        """
        if spec.strategy != "perseus":
            raise ServerError(
                f"the server deploys Perseus frontier schedules; got "
                f"strategy {spec.strategy!r} -- use "
                f"spec.replace(strategy='perseus')"
            )
        self._adopt(job_id, spec, blocking)

    def _adopt(self, job_id: str, spec: "PlanSpec", blocking: bool) -> None:
        """Register ``job_id`` on the planner's stack for ``spec`` and
        adopt its frontier (crawled, or served by the planner's cache)."""
        stack = self._shared_planner().result(spec)
        self.register_job(job_id, stack.dag, tau=stack.optimizer.tau)
        job = self._job(job_id)
        with job.lock:
            job.profile = stack.profile
            job.characterizing = True
        # The stack was fully assembled above, on this thread; a
        # non-blocking worker only forces the frontier.  That is safe
        # (and not duplicated) off-thread: the optimizer serializes its
        # own characterization, and the backend locks its mutations.
        self._settle(job, lambda: stack.optimizer.frontier, blocking)

    def _settle(self, job: _Job, resolve: Callable[[], Frontier],
                blocking: bool) -> None:
        """Resolve the job's frontier (on a daemon thread unless
        ``blocking``), record it -- or the error -- and deploy."""
        if not blocking:
            threading.Thread(target=self._settle, args=(job, resolve, True),
                             daemon=True).start()
            return
        try:
            frontier = resolve()
        except BaseException as exc:  # surfaced on next query
            with job.lock:
                job.error = exc
                job.characterizing = False
            job.settled.set()
            return
        with job.lock:
            job.frontier = frontier
            job.characterizing = False
        job.settled.set()
        self._push_schedule(job)

    # -- batch sweep service -------------------------------------------------
    def submit_sweep(
        self,
        specs: Iterable["PlanSpec"],
        prefix: str = "sweep",
    ) -> Dict[str, "PlanReport"]:
        """Plan a batch of specs and register the deployable ones.

        Every spec is planned through the shared planner, with per-spec
        error isolation: a bad spec yields an error row, never an
        aborted batch.  One job per *successful Perseus* spec is
        registered as :meth:`register_spec` registers one -- its
        frontier is the one the planner just characterized (or loaded
        from its store), so nothing is crawled twice -- and its schedule
        is pushed through the deploy callback.  Rows for non-Perseus
        strategies are served for comparison but deploy nothing.

        Returns ``job_id -> PlanReport`` in input order; rows are also
        retained for :meth:`report_of` / :meth:`sweep_reports`.
        """
        spec_list = list(specs)
        job_ids = [f"{prefix}-{i}" for i in range(len(spec_list))]
        # Reserve every id atomically up front: the batch plan below can
        # take seconds, and a concurrent submit_sweep with the same
        # prefix must fail here, not half-way through registration.
        with self._sweep_lock:
            with self._registry_lock:
                taken = set(self._jobs)
            for job_id in job_ids:
                if job_id in taken or job_id in self._reports:
                    raise ServerError(
                        f"sweep job {job_id!r} already exists; pick "
                        f"another prefix"
                    )
            for job_id in job_ids:
                self._reports[job_id] = None
        try:
            reports = self._shared_planner().sweep(spec_list, errors="report")
        except BaseException:
            with self._sweep_lock:
                for job_id in job_ids:
                    self._reports.pop(job_id, None)
            raise
        out: Dict[str, "PlanReport"] = {}
        try:
            for job_id, spec, report in zip(job_ids, spec_list, reports):
                self._reports[job_id] = report
                out[job_id] = report
                if report.ok and spec.strategy == "perseus":
                    self._adopt(job_id, spec, blocking=True)
        except BaseException:
            # A failing registration or deploy callback rolls the whole
            # batch back -- reserved ids, filled rows and jobs this
            # batch registered -- so nothing is left half-deployed and
            # a retry with the same prefix can proceed.  (The planner's
            # cached artifacts survive, so the retry is cheap.)
            with self._sweep_lock:
                for job_id in job_ids:
                    self._reports.pop(job_id, None)
                with self._registry_lock:
                    for job_id in job_ids:
                        self._jobs.pop(job_id, None)
            raise
        return out

    def report_of(self, job_id: str) -> "PlanReport":
        """The retained sweep row for one submitted spec."""
        with self._sweep_lock:
            report = self._reports.get(job_id)
        if report is None:
            raise ServerError(f"no sweep report for {job_id!r}")
        return report

    def sweep_reports(self) -> Dict[str, "PlanReport"]:
        """All retained sweep rows (job id -> report, insertion order;
        ids reserved by an in-flight batch are excluded)."""
        with self._sweep_lock:
            return {job_id: report
                    for job_id, report in self._reports.items()
                    if report is not None}

    def submit_profile(
        self, job_id: str, profile: PipelineProfile, blocking: bool = False
    ) -> None:
        """Receive profiling results; kick off frontier characterization.

        ``blocking=True`` characterizes synchronously (tests, experiments);
        otherwise a daemon thread does the work while training continues.

        Characterization is store-backed like :meth:`register_spec`: the
        submitted profile is content-hashed with the job's DAG shape and
        tau, a frontier the shared planner's backend already holds under
        that key (this process, or a persistent
        :class:`~repro.core.store.PlanStore` warmed by another one) is
        adopted without a crawl, and a fresh crawl is recorded back
        through the planner so later submissions -- and later
        *processes* -- reuse it.
        """
        job = self._job(job_id)
        with job.lock:
            if job.characterizing:
                raise ServerError(f"job {job_id!r} is already being characterized")
            job.profile = profile
            job.characterizing = True
        self._settle(job, lambda: self._raw_frontier(job), blocking)

    def _raw_frontier_key(self, job: _Job) -> tuple:
        """The content address of a raw-parts job's frontier.

        Profiles are hashed through their versioned serialization
        payload (the same canonical form the plan store writes), so the
        key is stable across processes; the DAG contributes its full
        *structure* -- per-node op keys plus every dependency edge --
        because two schedules with identical shape but different
        orderings characterize different frontiers.  The leading
        ``"raw_profile"`` tag keeps these keys disjoint from the
        planner's own (dag, profile, tau) optimizer keys -- the
        planner's constituents (model specs, GPU values) are not
        recoverable from raw parts, so aliasing is not attempted.
        """
        from ..core.serialization import payload_to_dict
        from ..core.store import stable_key

        dag = job.dag
        structure = (
            tuple((n, dag.nodes[n].op_key) for n in sorted(dag.nodes)),
            tuple(sorted(
                (u, v) for u, succs in dag.succ.items() for v in succs
            )),
        )
        return (
            "raw_profile",
            stable_key(payload_to_dict(job.profile)),
            stable_key(structure),
            dag.num_stages,
            dag.num_microbatches,
            job.tau,
        )

    def _raw_frontier(self, job: _Job) -> Frontier:
        """A raw-parts job's frontier, through
        :meth:`~repro.api.planner.Planner.frontier_at` under its content
        key: adopted if cached, else crawled, counted and persisted."""
        from ..obs.trace import span as obs_span

        def crawl() -> Frontier:
            with obs_span("server.characterize", job=job.job_id):
                return characterize_frontier(job.dag, job.profile,
                                             tau=job.tau)

        return self._shared_planner().frontier_at(
            self._raw_frontier_key(job), crawl)

    # -- queries ---------------------------------------------------------------
    def is_ready(self, job_id: str) -> bool:
        job = self._job(job_id)
        with job.lock:
            if job.error is not None:
                raise ServerError(
                    f"characterization failed for {job_id!r}"
                ) from job.error
            return job.frontier is not None

    def wait_ready(self, job_id: str, timeout_s: float = 300.0) -> Frontier:
        """Block until the frontier is available.

        Event-driven: the characterization worker signals the job's
        ``settled`` event the moment the frontier (or an error) lands,
        so waiters wake immediately instead of busy-polling.
        """
        job = self._job(job_id)
        if not job.settled.wait(timeout_s):
            raise ServerError(
                f"timed out waiting for {job_id!r} characterization"
            )
        if self.is_ready(job_id):  # raises if characterization failed
            return job.frontier
        raise ServerError(f"job {job_id!r} has no frontier yet")

    def frontier_of(self, job_id: str) -> Frontier:
        job = self._job(job_id)
        with job.lock:
            if job.frontier is None:
                raise ServerError(f"job {job_id!r} has no frontier yet")
            return job.frontier

    def current_schedule(self, job_id: str) -> EnergySchedule:
        """The schedule for the current straggler + drift state.

        ``T'`` is the larger of the announced straggler floor (Table 2)
        and the drift controller's observed floor -- both describe the
        same physical fact (the pipeline cannot iterate faster than
        some ``T'``), so Eq. 2 takes their max.
        """
        job = self._job(job_id)
        frontier = self.frontier_of(job_id)
        return select_schedule(
            frontier, self._t_prime(job, frontier, job.drift_floor_s))

    def _t_prime(self, job: _Job, frontier: Frontier,
                 floor_s: Optional[float]) -> Optional[float]:
        """Eq. 2's ``T'``: the later of the announced straggler floor
        (Table 2) and ``floor_s``; ``None`` when neither is set."""
        with job.lock:
            degree = 1.0 if job.straggler is None else job.straggler.degree
        announced = straggler_floor(frontier.t_min, degree)
        if announced is None or (floor_s is not None and floor_s > announced):
            return floor_s
        return announced

    # -- straggler notification (Table 2) ---------------------------------------
    def set_straggler(
        self, job_id: str, accelerator_id: int, delay_s: float, degree: float
    ) -> None:
        """Infrastructure notifies an anticipated straggler (Table 2).

        ``degree`` is the anticipated slowdown factor (1.0 = back to
        normal).  The server looks up the ``T_opt = min(T*, T')`` schedule
        and deploys it to clients.
        """
        if degree < 1.0:
            raise ServerError("straggler degree must be >= 1.0")
        if delay_s < 0:
            raise ServerError("delay must be non-negative")
        job = self._job(job_id)
        controller = job.drift
        if controller is not None:
            # An *announced* floor supersedes the observed one: the
            # infrastructure just told us the real constraint, so the
            # drift floor (an inference) is retired and the controller
            # rebases onto the announced deploy below.
            with job.drift_lock:
                with job.lock:
                    job.straggler = StragglerState(
                        accelerator_id, delay_s, degree)
                    job.drift_floor_s = None
                if job.frontier is not None:
                    self._push_schedule(job)
                    controller.notify_external_replan(
                        *self._planned_point(job))
            return
        with job.lock:
            job.straggler = StragglerState(accelerator_id, delay_s, degree)
        if job.frontier is not None:
            self._push_schedule(job)

    # -- closed-loop drift (repro.drift) -----------------------------------------
    def enable_drift(
        self,
        job_id: str,
        policy: Optional["DriftPolicy"] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> "DriftController":
        """Attach a :class:`~repro.drift.DriftController` to a ready job.

        Idempotent: a job already watching keeps its controller (and
        its accumulated state) regardless of the arguments.  The
        controller's ``replan`` callable re-points through this
        server's own planning stack -- frontier lookup, warm
        store-backed re-characterization for re-profiles, and the
        existing ``_push_schedule`` deploy path -- so an adopted
        re-plan reaches clients exactly like the original schedule
        did.
        """
        from ..drift.controller import DriftController

        job = self._job(job_id)
        with job.drift_lock:
            if job.drift is not None:
                return job.drift
            planned_time_s, planned_energy_j = self._planned_point(job)
            kwargs = {} if clock is None else {"clock": clock}
            job.drift = DriftController(
                replan=lambda target, reason, signal, _job=job:
                    self._drift_replan(_job, target, reason, signal),
                planned_time_s=planned_time_s,
                planned_energy_j=planned_energy_j,
                policy=policy,
                **kwargs,
            )
            return job.drift

    def _planned_point(self, job: _Job) -> tuple:
        """(iteration time, Eq. 3 energy) the deployed schedule plans
        for: both at ``T'``, the later of its own time and the floors.
        Raises until the job's frontier is ready."""
        schedule = self.current_schedule(job.job_id)
        t_prime = self._t_prime(job, job.frontier, schedule.iteration_time)
        return t_prime, schedule.energy_at(self._total_blocking_w(job),
                                           t_prime)

    def report_measurement(
        self,
        job_id: str,
        time_s: float,
        energy_j: Optional[float] = None,
        stage_time_s: Optional[List[float]] = None,
    ) -> dict:
        """Feed one realized-step summary into the job's drift loop.

        The closed-loop entry point (the RPC surface the daemon
        exposes): the runtime ships its windowed
        :class:`~repro.profiler.online.StepSummary` numbers here and
        gets back what the controller decided.  Drift watching is
        lazily enabled on first report; reports arriving before the
        frontier settles are held (``held='not_ready'``), not errors
        -- training is allowed to start reporting immediately.
        """
        job = self._job(job_id)
        if job.drift is None:
            if not self.is_ready(job_id):
                return {"state": "pending", "detected": False,
                        "replanned": False, "reason": None,
                        "held": "not_ready", "target_time_s": None}
            self.enable_drift(job_id)
        controller = job.drift
        with job.drift_lock:
            if stage_time_s is not None:
                with job.lock:
                    job.drift_stage_times = [float(t) for t in stage_time_s]
            action = controller.observe(time_s, energy_j)
        return action.to_dict()

    def notify_restart(self, job_id: str) -> Optional[dict]:
        """A checkpoint/restart rebooted the job onto its default plan.

        With drift enabled the controller re-adopts its held decision
        (guardrail/bucket-exempt; see
        :meth:`~repro.drift.DriftController.notify_restart`); without
        it the server simply re-pushes the current schedule.
        """
        job = self._job(job_id)
        controller = job.drift
        if controller is None:
            if job.frontier is not None:
                self._push_schedule(job)
            return None
        with job.drift_lock:
            return controller.notify_restart().to_dict()

    def drift_stats(self) -> Dict[str, dict]:
        """Per-job drift counters (metrics surface): job id -> stats."""
        with self._registry_lock:
            jobs = list(self._jobs.values())
        out: Dict[str, dict] = {}
        for job in jobs:
            controller = job.drift
            if controller is None:
                continue
            row = {"state": controller.state}
            row.update(controller.stats)
            out[job.job_id] = row
        return out

    def _drift_replan(
        self,
        job: _Job,
        target_time_s: Optional[float],
        reason: str,
        signal: Optional["DriftSignal"],
    ):
        """Build a re-plan proposal for the drift controller.

        Time drift re-points along the *existing* frontier: the
        observed slowdown becomes an Eq. 2 floor ``T'`` and the
        cheapest schedule at that floor is proposed.  Energy drift
        means the profile itself is mispriced, so it takes the
        re-profile path instead.  Both predictions are Eq. 3 energies
        at the observed floor, so the controller's guardrail compares
        like with like.
        """
        from ..drift.controller import ReplanProposal
        from ..drift.detector import ENERGY_DRIFT

        frontier = job.frontier
        if frontier is None:
            return None  # decline; nothing to re-plan from yet
        if signal is not None and signal.kind == ENERGY_DRIFT:
            return self._drift_reprofile(job, signal)
        target = self._t_prime(job, frontier, target_time_s)
        cand = select_schedule(frontier, target)
        held = select_schedule(
            frontier, self._t_prime(job, frontier, job.drift_floor_s))
        blocking_w = self._total_blocking_w(job)
        planned = max(cand.iteration_time, target or 0.0)

        def apply(job=job, target=target):
            with job.lock:
                job.drift_floor_s = target
            self._push_schedule(job)

        return ReplanProposal(
            planned_time_s=planned,
            predicted_energy_j=cand.energy_at(blocking_w, target),
            held_predicted_energy_j=held.energy_at(blocking_w, target),
            apply=apply,
            detail={"reason": reason, "floor_s": target},
        )

    def _drift_reprofile(self, job: _Job, signal: "DriftSignal"):
        """Re-profile the drifted stages; re-characterize; propose.

        Only stages whose reported busy time departs from the deployed
        schedule's planned stage time are rescaled (falling back to a
        uniform rescale when no per-stage breakdown localizes the
        drift).  The new frontier is characterized through the shared
        planner's backend -- content-addressed on the rescaled profile
        -- so a warm :class:`~repro.core.store.PlanStore` makes the
        re-plan nearly free, and a repeat of the same drift hits the
        cache outright.
        """
        from ..drift.controller import ReplanProposal, planned_stage_times
        from ..profiler.online import rescale_stage_profile

        profile = job.profile
        frontier = job.frontier
        if profile is None or frontier is None:
            return None
        controller = job.drift
        band_exit = controller.policy.band.exit if controller else 0.03
        deployed = self.current_schedule(job.job_id)
        with job.lock:
            observed = job.drift_stage_times
        factors = {}
        if observed is not None and len(observed) == job.dag.num_stages:
            planned_busy = planned_stage_times(job.dag, deployed)
            for stage in range(job.dag.num_stages):
                busy = planned_busy.get(stage, 0.0)
                if busy <= 0:
                    continue
                tf = observed[stage] / busy
                if abs(tf - 1.0) > band_exit:
                    factors[stage] = (tf, signal.energy_factor)
        if not factors:
            # Unlocalizable: treat the whole pipeline as drifted.
            factors = {
                stage: (signal.time_factor, signal.energy_factor)
                for stage in range(job.dag.num_stages)
            }
        new_profile = rescale_stage_profile(profile, factors)
        shadow = _Job(job_id=job.job_id, dag=job.dag, tau=job.tau,
                      profile=new_profile)
        new_frontier = self._raw_frontier(shadow)
        cand = select_schedule(new_frontier, None)
        blocking_w = self._total_blocking_w(job)
        # Both sides priced under the *observed* (drifted) conditions:
        # the held plan's compute energy realizes scaled by the drift
        # the new profile bakes in.
        held_energy = replace(
            deployed,
            effective_energy=deployed.effective_energy * signal.energy_factor,
        ).energy_at(blocking_w, cand.iteration_time)
        predicted = cand.energy_at(blocking_w)

        def apply(job=job, new_profile=new_profile,
                  new_frontier=new_frontier):
            with job.lock:
                job.profile = new_profile
                job.frontier = new_frontier
                job.drift_floor_s = None
            self._push_schedule(job)

        return ReplanProposal(
            planned_time_s=cand.iteration_time,
            predicted_energy_j=predicted,
            held_predicted_energy_j=held_energy,
            apply=apply,
            detail={"new_baseline": True, "stages": sorted(factors)},
        )

    def _total_blocking_w(self, job: _Job) -> float:
        """Eq. 3's blocking power summed over stages, as the fleet sums it."""
        profile = job.profile
        if profile is None:
            return 0.0
        return math.fsum(profile.blocking_power(stage)
                         for stage in range(job.dag.num_stages))

    # -- internals ---------------------------------------------------------------
    def _push_schedule(self, job: _Job) -> None:
        if self._deploy is None:
            return
        schedule = self.current_schedule(job.job_id)
        self._deploy(job.job_id, schedule.stage_plans(job.dag))

    def _job(self, job_id: str) -> _Job:
        with self._registry_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServerError(f"unknown job {job_id!r}")
        return job

    def job_ids(self) -> List[str]:
        """Registered job ids, registration order (service listings)."""
        with self._registry_lock:
            return list(self._jobs)
