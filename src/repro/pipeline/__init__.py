"""Pipeline schedules and computation DAGs."""

from .dag import SINK, SOURCE, ComputationDag, build_pipeline_dag
from .instructions import InstrKind, Instruction
from .schedules import (
    Schedule,
    schedule_1f1b,
    schedule_gpipe,
    schedule_interleaved_1f1b,
    with_data_loading,
)

__all__ = [
    "SINK",
    "SOURCE",
    "ComputationDag",
    "InstrKind",
    "Instruction",
    "Schedule",
    "build_pipeline_dag",
    "schedule_1f1b",
    "schedule_gpipe",
    "schedule_interleaved_1f1b",
    "with_data_loading",
]
