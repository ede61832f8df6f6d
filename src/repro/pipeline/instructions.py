"""Pipeline instructions: the unit of work Perseus plans and controls.

A pipeline-parallel training engine executes a per-stage sequence of
instructions (forward / backward on one microbatch, plus auxiliary
constant-time operations such as data loading).  Perseus wraps exactly
these instruction boundaries with its client API (Table 2, Appendix G).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple


class InstrKind(str, Enum):
    """Kind of a pipeline instruction."""

    FORWARD = "forward"
    BACKWARD = "backward"
    #: Constant-time operation (data loading, slow-link transfer, ...);
    #: not affected by the GPU clock and planned as a single-choice node
    #: (§4.4 "Constant-Time Operations").
    CONST = "const"


@dataclass(frozen=True, order=True)
class Instruction:
    """One unit of pipeline work: ``kind`` on ``microbatch`` at ``stage``."""

    stage: int
    microbatch: int
    kind: InstrKind
    label: str = ""

    def __post_init__(self) -> None:
        if self.stage < 0:
            raise ValueError("stage must be non-negative")
        if self.microbatch < 0:
            raise ValueError("microbatch must be non-negative")

    @property
    def op_key(self) -> Tuple:
        """Profile key: computations of the same type share measurements.

        Forward/backward of the same stage have identical work regardless
        of microbatch index, so they share one profile (§5).  Constant ops
        are keyed by their label.
        """
        if self.kind is InstrKind.CONST:
            return (self.stage, self.kind.value, self.label)
        return (self.stage, self.kind.value)
