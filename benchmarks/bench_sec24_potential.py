"""§2.4: potential energy savings upper bound.

Paper: slowing every computation to its minimum-energy clock gives on
average 16% (A100) and 27% (A40) energy reduction across the §6.2
workloads, at the cost of slowdown.  Perseus later realizes most of this
without the slowdown.

The potential is the ``min-energy`` strategy's ``PlanReport``: Eq. 3 at
each plan's own iteration time, priced like every other plan.
"""

from __future__ import annotations

import numpy as np
from conftest import emit, emit_table


PAPER_AVG = {"A100": 16.0, "A40": 27.0}


def _sweep(setups):
    rows = []
    for setup in setups.values():
        report = setup.plan("min-energy")
        rows.append([setup.workload.display, report.energy_savings_pct,
                     report.slowdown_pct])
    return rows


def test_sec24_potential_a100(a100_setups):
    rows = _sweep(a100_setups)
    avg = float(np.mean([r[1] for r in rows]))
    emit_table(
        ["workload", "potential savings %", "slowdown %"],
        rows + [[f"average (paper {PAPER_AVG['A100']}%)", avg, ""]],
        title="[Sec 2.4] Upper-bound savings on A100",
    )
    assert 8.0 < avg < 30.0


def test_sec24_potential_a40(a40_setups):
    rows = _sweep(a40_setups)
    avg = float(np.mean([r[1] for r in rows]))
    emit_table(
        ["workload", "potential savings %", "slowdown %"],
        rows + [[f"average (paper {PAPER_AVG['A40']}%)", avg, ""]],
        title="[Sec 2.4] Upper-bound savings on A40",
    )
    assert 15.0 < avg < 40.0


def test_sec24_a40_exceeds_a100(a100_setups, a40_setups):
    def averages():
        a100 = np.mean([s.plan("min-energy").energy_savings_pct
                        for s in a100_setups.values()])
        a40 = np.mean([s.plan("min-energy").energy_savings_pct
                       for s in a40_setups.values()])
        return a100, a40

    a100, a40 = averages()
    emit(f"[Sec 2.4] average potential: A100 {a100:.1f}% vs A40 {a40:.1f}% "
         f"(paper: 16% vs 27%)")
    assert a40 > a100
