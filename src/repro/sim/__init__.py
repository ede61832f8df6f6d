"""Execution simulation: realized timelines and energy accounting."""

from .executor import (
    NodeExecution,
    PipelineExecution,
    execute,
    execute_frequency_plan,
    max_frequency_plan,
    min_energy_plan,
)
from .timeline import StageTimeline, TimelineSegment, extract_timeline

__all__ = [
    "NodeExecution",
    "PipelineExecution",
    "StageTimeline",
    "TimelineSegment",
    "execute",
    "execute_frequency_plan",
    "extract_timeline",
    "max_frequency_plan",
    "min_energy_plan",
]
