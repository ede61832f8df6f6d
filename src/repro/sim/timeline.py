"""Timeline extraction for Figure 1 / Figure 10 style visualizations.

Turns a :class:`~repro.sim.executor.PipelineExecution` into per-stage rows
of labelled, power-annotated segments (computation blocks separated by
blocking-on-communication gaps), ready for ASCII or plot rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..pipeline.instructions import InstrKind
from .executor import PipelineExecution


@dataclass(frozen=True)
class TimelineSegment:
    """One block on a stage's row: a computation or a blocking gap."""

    label: str  # e.g. "F5", "B2", or "" for blocking
    start: float
    end: float
    power_w: float
    kind: str  # "forward" | "backward" | "const" | "blocking"

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class StageTimeline:
    """All segments of one pipeline stage, in time order."""

    stage: int
    segments: List[TimelineSegment]

    def busy_fraction(self, horizon: float) -> float:
        busy = sum(s.duration for s in self.segments if s.kind != "blocking")
        return busy / horizon if horizon > 0 else 0.0


def extract_timeline(execution: PipelineExecution) -> List[StageTimeline]:
    """Per-stage segment rows, with blocking gaps filled in explicitly."""
    horizon = execution.iteration_time
    rows: List[StageTimeline] = []
    for stage in range(execution.num_devices()):
        segments: List[TimelineSegment] = []
        cursor = 0.0
        for rec in execution.stage_records(stage):
            if rec.start > cursor + 1e-9:
                segments.append(
                    TimelineSegment(
                        label="",
                        start=cursor,
                        end=rec.start,
                        power_w=execution.blocking_power(stage),
                        kind="blocking",
                    )
                )
            ins = rec.instruction
            if ins.kind is InstrKind.FORWARD:
                label, kind = f"F{ins.microbatch + 1}", "forward"
            elif ins.kind is InstrKind.BACKWARD:
                label, kind = f"B{ins.microbatch + 1}", "backward"
            else:
                label, kind = ins.label or "C", "const"
            segments.append(
                TimelineSegment(
                    label=label,
                    start=rec.start,
                    end=rec.end,
                    power_w=rec.power_w,
                    kind=kind,
                )
            )
            cursor = rec.end
        if horizon > cursor + 1e-9:
            segments.append(
                TimelineSegment(
                    label="",
                    start=cursor,
                    end=horizon,
                    power_w=execution.blocking_power(stage),
                    kind="blocking",
                )
            )
        rows.append(StageTimeline(stage=stage, segments=segments))
    return rows
