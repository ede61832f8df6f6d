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


#: Module-level alias: an attribute read on the enum class costs more
#: than a global read, and every simulation reads each node's key.
_CONST = InstrKind.CONST


@dataclass(frozen=True, order=True, init=False)
class Instruction:
    """One unit of pipeline work: ``kind`` on ``microbatch`` at ``stage``."""

    stage: int
    microbatch: int
    kind: InstrKind
    label: str = ""

    def __init__(self, stage: int, microbatch: int, kind: InstrKind,
                 label: str = "") -> None:
        if stage < 0:
            raise ValueError("stage must be non-negative")
        if microbatch < 0:
            raise ValueError("microbatch must be non-negative")
        # Frozen: the fields go straight into the instance dict.  The
        # generated ``__init__`` calls ``object.__setattr__`` per field,
        # about three times the cost, and a plan builds one Instruction
        # per computation.
        fields = self.__dict__
        fields["stage"] = stage
        fields["microbatch"] = microbatch
        fields["kind"] = kind
        fields["label"] = label

    @property
    def op_key(self) -> Tuple:
        """Profile key: computations of the same type share measurements.

        Forward/backward of the same stage have identical work regardless
        of microbatch index, so they share one profile (§5).  Constant ops
        are keyed by their label.
        """
        # ``_value_`` is what the ``value`` property returns, without
        # the property's cost.
        kind = self.kind
        if kind is _CONST:
            return (self.stage, kind._value_, self.label)
        return (self.stage, kind._value_)
