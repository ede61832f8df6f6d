"""Pipeline schedules: 1F1B structure, GPipe, interleaving, const ops."""

import pytest

from repro.exceptions import ConfigurationError
from repro.pipeline.instructions import InstrKind, Instruction
from repro.pipeline.schedules import (
    schedule_1f1b,
    schedule_gpipe,
    schedule_interleaved_1f1b,
    with_data_loading,
)


def kinds(order):
    return [(i.kind, i.microbatch) for i in order]


def validate_schedule(schedule, num_stages, num_microbatches):
    """Check a schedule is complete and well-ordered.

    Every stage must run forward and backward for every microbatch exactly
    once, with each microbatch's backward after its forward.
    """
    if len(schedule) != num_stages:
        raise ConfigurationError(
            f"schedule has {len(schedule)} stages, expected {num_stages}"
        )
    for s, order in enumerate(schedule):
        seen_fwd = set()
        seen_bwd = set()
        for instr in order:
            if instr.stage != s:
                raise ConfigurationError(
                    f"instruction {instr} listed under stage {s}"
                )
            if instr.kind is InstrKind.FORWARD:
                if instr.microbatch in seen_fwd:
                    raise ConfigurationError(f"duplicate {instr}")
                seen_fwd.add(instr.microbatch)
            elif instr.kind is InstrKind.BACKWARD:
                if instr.microbatch not in seen_fwd:
                    raise ConfigurationError(
                        f"{instr} scheduled before its forward"
                    )
                if instr.microbatch in seen_bwd:
                    raise ConfigurationError(f"duplicate {instr}")
                seen_bwd.add(instr.microbatch)
        expected = set(range(num_microbatches))
        if seen_fwd != expected or seen_bwd != expected:
            raise ConfigurationError(f"stage {s} does not cover all microbatches")


class Test1F1B:
    def test_last_stage_alternates(self):
        """Figure 1, S4 row: F1 B1 F2 B2 ..."""
        sched = schedule_1f1b(4, 6)
        expected = []
        for m in range(6):
            expected += [(InstrKind.FORWARD, m), (InstrKind.BACKWARD, m)]
        assert kinds(sched[3]) == expected

    def test_first_stage_warmup_count(self):
        """Figure 1, S1 row: 3 warm-up forwards before the first backward."""
        sched = schedule_1f1b(4, 6)
        first_bwd = next(
            i for i, ins in enumerate(sched[0]) if ins.kind is InstrKind.BACKWARD
        )
        assert first_bwd == 4  # F1 F2 F3 F4 B1

    def test_validates_for_various_sizes(self):
        for n, m in [(1, 1), (2, 3), (4, 6), (8, 16), (4, 2)]:
            sched = schedule_1f1b(n, m)
            validate_schedule(sched, n, m)

    def test_warmup_capped_by_microbatches(self):
        sched = schedule_1f1b(8, 2)
        validate_schedule(sched, 8, 2)
        assert len(sched[0]) == 4  # 2 fwd + 2 bwd

    def test_rejects_degenerate(self):
        with pytest.raises(ConfigurationError):
            schedule_1f1b(0, 4)
        with pytest.raises(ConfigurationError):
            schedule_1f1b(4, 0)


class TestGPipe:
    def test_all_forwards_then_backwards(self):
        sched = schedule_gpipe(2, 3)
        validate_schedule(sched, 2, 3)
        stage0 = kinds(sched[0])
        assert stage0[:3] == [(InstrKind.FORWARD, m) for m in range(3)]
        assert stage0[3:] == [(InstrKind.BACKWARD, m) for m in range(3)]


class TestInterleaved:
    def test_virtual_stage_count(self):
        sched = schedule_interleaved_1f1b(4, 8, num_chunks=2)
        assert len(sched) == 8  # 4 devices x 2 chunks
        validate_schedule(sched, 8, 8)

    def test_rejects_indivisible(self):
        with pytest.raises(ConfigurationError):
            schedule_interleaved_1f1b(4, 6, num_chunks=2)


class TestDataLoading:
    def test_const_before_each_stage0_forward(self):
        sched = with_data_loading(schedule_1f1b(2, 3))
        stage0 = sched[0]
        for i, ins in enumerate(stage0):
            if ins.kind is InstrKind.FORWARD:
                assert stage0[i - 1].kind is InstrKind.CONST
                assert stage0[i - 1].microbatch == ins.microbatch

    def test_other_stages_untouched(self):
        base = schedule_1f1b(2, 3)
        sched = with_data_loading(base)
        assert sched[1] == base[1]


class TestValidation:
    def test_detects_backward_before_forward(self):
        bad = [[Instruction(0, 0, InstrKind.BACKWARD), Instruction(0, 0, InstrKind.FORWARD)]]
        with pytest.raises(ConfigurationError):
            validate_schedule(bad, 1, 1)

    def test_detects_missing_microbatch(self):
        bad = [[Instruction(0, 0, InstrKind.FORWARD), Instruction(0, 0, InstrKind.BACKWARD)]]
        with pytest.raises(ConfigurationError):
            validate_schedule(bad, 1, 2)

    def test_detects_duplicates(self):
        bad = [
            [
                Instruction(0, 0, InstrKind.FORWARD),
                Instruction(0, 0, InstrKind.FORWARD),
                Instruction(0, 0, InstrKind.BACKWARD),
            ]
        ]
        with pytest.raises(ConfigurationError):
            validate_schedule(bad, 1, 1)


class TestInstruction:
    def test_op_key_shared_across_microbatches(self):
        a = Instruction(2, 0, InstrKind.FORWARD)
        b = Instruction(2, 5, InstrKind.FORWARD)
        assert a.op_key == b.op_key

    def test_const_op_key_includes_label(self):
        a = Instruction(0, 0, InstrKind.CONST, "dataload")
        b = Instruction(0, 0, InstrKind.CONST, "checkpoint")
        assert a.op_key != b.op_key
