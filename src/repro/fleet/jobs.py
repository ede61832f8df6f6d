"""Fleet jobs and arrival traces.

A :class:`FleetJob` is one training job submitted to the datacenter:
its :class:`~repro.api.spec.PlanSpec` (what to train, on what GPUs,
with which planner strategy), an iteration count, an arrival time and
an optional completion deadline.  A :class:`FleetTrace` bundles the
job list with mid-run :class:`StragglerEvent` notifications and
round-trips through JSON, so datacenter scenarios are files exactly
like sweep manifests are.

Planning happens *once per unique spec*, through the shared
:class:`~repro.api.planner.Planner`: two jobs training the same spec
reuse one characterized frontier (and, with a persistent
:class:`~repro.core.store.PlanStore` attached, so do two *runs*).
:func:`plan_trace` optionally warms the planner on a worker pool
(``jobs=N``, the planner's own parallel sweep) before adopting each
frontier -- the adopted artifacts are bit-identical either way, which
is what keeps fleet reports reproducible across planner parallelism.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import IO, Dict, List, Optional, Sequence, Union

from ..api.planner import Planner, default_planner
from ..api.spec import PlanSpec
from ..exceptions import ConfigurationError
from .power import JobPowerModel

#: Serialized fleet-trace schema version.
FLEET_TRACE_VERSION = 1


@dataclass(frozen=True)
class FleetJob:
    """One training job in a datacenter arrival trace."""

    job_id: str
    spec: PlanSpec
    iterations: int
    arrival_s: float = 0.0
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.job_id or not isinstance(self.job_id, str):
            raise ConfigurationError("FleetJob.job_id must be a name")
        if not isinstance(self.spec, PlanSpec):
            raise ConfigurationError("FleetJob.spec must be a PlanSpec")
        if not isinstance(self.iterations, int) or self.iterations < 1:
            raise ConfigurationError(
                f"FleetJob.iterations must be a positive int, got "
                f"{self.iterations!r}"
            )
        if self.arrival_s < 0:
            raise ConfigurationError("FleetJob.arrival_s must be >= 0")
        if self.deadline_s is not None and self.deadline_s <= self.arrival_s:
            raise ConfigurationError(
                "FleetJob.deadline_s must come after the arrival"
            )

    #: The spec the planner actually characterizes: fleet scheduling
    #: moves jobs along their *frontier*, so every job plans as Perseus
    #: regardless of the strategy named in its spec.
    @property
    def plan_spec(self) -> PlanSpec:
        if self.spec.strategy == "perseus":
            return self.spec
        return self.spec.replace(strategy="perseus")

    def to_dict(self) -> dict:
        return {
            "id": self.job_id,
            "iterations": self.iterations,
            "arrival_s": self.arrival_s,
            "deadline_s": self.deadline_s,
            "spec": self.spec.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetJob":
        if not isinstance(payload, dict):
            raise ConfigurationError("fleet job payload must be an object")
        unknown = set(payload) - {"id", "iterations", "arrival_s",
                                  "deadline_s", "spec"}
        if unknown:
            raise ConfigurationError(
                f"unknown fleet job fields: {sorted(unknown)}"
            )
        try:
            spec = PlanSpec.from_dict(payload["spec"])
        except KeyError:
            raise ConfigurationError("fleet job payload needs a 'spec'")
        deadline = payload.get("deadline_s")
        return cls(
            job_id=payload.get("id", ""),
            spec=spec,
            iterations=payload.get("iterations", 0),
            arrival_s=float(payload.get("arrival_s", 0.0)),
            deadline_s=float(deadline) if deadline is not None else None,
        )


@dataclass(frozen=True)
class StragglerEvent:
    """A mid-run infrastructure notification for one fleet job.

    ``degree`` is the anticipated slowdown factor (Table 2 semantics:
    the job's achievable iteration time floors at ``degree * T_min``;
    1.0 clears the straggler).
    """

    time_s: float
    job_id: str
    degree: float

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ConfigurationError("straggler time must be >= 0")
        if self.degree < 1.0:
            raise ConfigurationError("straggler degree must be >= 1.0")

    def to_dict(self) -> dict:
        return {"time_s": self.time_s, "job": self.job_id,
                "degree": self.degree}

    @classmethod
    def from_dict(cls, payload: dict) -> "StragglerEvent":
        if not isinstance(payload, dict):
            raise ConfigurationError("straggler event payload must be an "
                                     "object")
        return cls(
            time_s=float(payload.get("time_s", -1.0)),
            job_id=payload.get("job", ""),
            degree=float(payload.get("degree", 0.0)),
        )


@dataclass(frozen=True)
class FleetTrace:
    """An arrival trace: jobs plus scheduled straggler notifications."""

    jobs: tuple
    events: tuple = ()

    def __post_init__(self) -> None:
        if isinstance(self.jobs, list):
            object.__setattr__(self, "jobs", tuple(self.jobs))
        if isinstance(self.events, list):
            object.__setattr__(self, "events", tuple(self.events))
        if not self.jobs:
            raise ConfigurationError("a fleet trace needs at least one job")
        by_id: Dict[str, FleetJob] = {}
        for job in self.jobs:
            if job.job_id in by_id:
                raise ConfigurationError(
                    f"duplicate fleet job id {job.job_id!r}"
                )
            by_id[job.job_id] = job
        for event in self.events:
            if event.job_id not in by_id:
                raise ConfigurationError(
                    f"straggler event names unknown job {event.job_id!r}"
                )
        # Lookup index (not a dataclass field: equality and the JSON
        # form stay defined by the job/event tuples alone).  The
        # simulator resolves a job id per arrival and straggler event,
        # which must not scan a datacenter-sized trace each time.
        object.__setattr__(self, "_by_id", by_id)

    def job(self, job_id: str) -> FleetJob:
        try:
            return self._by_id[job_id]
        except KeyError:
            raise ConfigurationError(f"unknown fleet job {job_id!r}") from None

    def unique_specs(self) -> List[PlanSpec]:
        """The distinct specs to characterize, in first-seen order."""
        out: Dict[PlanSpec, None] = {}
        for job in self.jobs:
            out.setdefault(job.plan_spec)
        return list(out)

    # -- JSON round-trip -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": FLEET_TRACE_VERSION,
            "kind": "fleet_trace",
            "jobs": [job.to_dict() for job in self.jobs],
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetTrace":
        if not isinstance(payload, dict) or \
                payload.get("kind") != "fleet_trace":
            raise ConfigurationError(
                "a fleet trace is a JSON object with kind 'fleet_trace'"
            )
        if payload.get("version") != FLEET_TRACE_VERSION:
            raise ConfigurationError(
                f"unsupported fleet_trace version "
                f"{payload.get('version')!r}"
            )
        jobs = tuple(FleetJob.from_dict(p) for p in payload.get("jobs") or [])
        events = tuple(
            StragglerEvent.from_dict(p) for p in payload.get("events") or []
        )
        return cls(jobs=jobs, events=events)

    def to_json(self, fp: Optional[IO[str]] = None) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, indent=2)
        if fp is not None:
            fp.write(text)
        return text

    @classmethod
    def from_json(cls, source: Union[str, IO[str]]) -> "FleetTrace":
        text = source if isinstance(source, str) else source.read()
        return cls.from_dict(json.loads(text))


def synthetic_trace(
    models: Sequence[str],
    count: int,
    seed: int = 0,
    gpus: Sequence[str] = ("a100",),
    interval_s: float = 30.0,
    iterations: Union[int, Sequence[int]] = (40, 80),
    stages: int = 4,
    microbatches: int = 8,
    freq_stride: int = 8,
    deadline_slack: Optional[float] = None,
) -> FleetTrace:
    """A seeded synthetic arrival trace (deterministic for a seed).

    Jobs cycle through ``models`` x ``gpus`` round-robin (so a small
    unique-spec set is characterized however large ``count`` grows),
    arrive with exponential gaps of mean ``interval_s``, and train a
    uniform random iteration count from the ``iterations`` range.
    ``deadline_slack`` (e.g. ``1.5``) gives each job a deadline at
    ``slack x`` its all-max-clock runtime estimate -- left ``None``,
    jobs have no deadlines.

    All randomness comes from one ``random.Random(seed)`` stream, so a
    (seed, parameters) pair always produces bit-identical traces --
    the anchor of the fleet determinism guarantee.
    """
    if count < 1:
        raise ConfigurationError("synthetic trace needs at least one job")
    if not models:
        raise ConfigurationError("synthetic trace needs at least one model")
    if not gpus:
        raise ConfigurationError("synthetic trace needs at least one GPU")
    if isinstance(iterations, int):
        lo = hi = iterations
    else:
        try:
            lo, hi = iterations
        except (TypeError, ValueError):
            raise ConfigurationError(
                "iterations must be an int or a (lo, hi) range"
            )
    if lo < 1 or hi < lo:
        raise ConfigurationError(
            f"iteration range must satisfy 1 <= lo <= hi, got ({lo}, {hi})"
        )
    rng = random.Random(seed)
    jobs: List[FleetJob] = []
    arrival = 0.0
    for n in range(count):
        model = models[n % len(models)]
        gpu = gpus[(n // len(models)) % len(gpus)]
        spec = PlanSpec(
            model=model, gpu=gpu, stages=stages,
            microbatches=microbatches, freq_stride=freq_stride,
        )
        iters = rng.randint(lo, hi)
        deadline = None
        if deadline_slack is not None:
            # A coarse all-max runtime estimate: the exact T_min is not
            # known before planning, so the slack rides on the interval
            # scale -- deadlines are a reporting device, not a
            # scheduling constraint.
            deadline = arrival + deadline_slack * iters * rng.uniform(0.5, 1.0)
        jobs.append(FleetJob(
            job_id=f"job-{n:03d}",
            spec=spec,
            iterations=iters,
            arrival_s=arrival,
            deadline_s=deadline,
        ))
        arrival += rng.expovariate(1.0 / interval_s) if interval_s > 0 \
            else 0.0
    return FleetTrace(jobs=tuple(jobs))


@dataclass
class JobPlan:
    """One spec's planned stack, reduced to what the fleet needs."""

    spec: PlanSpec
    model: JobPowerModel
    #: Canonical per-stage device names (report labelling).
    gpu_names: tuple = ()

    @property
    def num_gpus(self) -> int:
        return self.model.num_gpus


def plan_trace(
    trace: FleetTrace,
    planner: Optional[Planner] = None,
    jobs: Optional[int] = None,
) -> Dict[PlanSpec, JobPlan]:
    """Characterize every unique spec in the trace, once each.

    ``jobs > 1`` warms the planner with its own parallel sweep first
    (multi-process when a persistent store is attached); the frontiers
    then adopted are bit-identical to a serial run's, so the simulated
    fleet is too.  Planning errors raise -- a fleet scenario with an
    unplannable job is a configuration error, not a row to skip.
    """
    planner = planner or default_planner()
    specs = trace.unique_specs()
    if jobs is not None and jobs > 1 and len(specs) > 1:
        planner.sweep(specs, jobs=jobs, errors="raise")
    plans: Dict[PlanSpec, JobPlan] = {}
    for spec in specs:
        stack = planner.result(spec)
        frontier = planner.frontier_for(spec)
        blocking = tuple(
            stack.profile.blocking_power(s) for s in range(spec.stages)
        )
        plans[spec] = JobPlan(
            spec=spec,
            model=JobPowerModel(frontier, blocking),
            gpu_names=tuple(g.name for g in stack.gpus),
        )
    return plans
