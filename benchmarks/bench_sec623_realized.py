"""§6.2.3: how much of the §2.4 potential does Perseus realize?

Paper: 74% (A100) and 89% (A40) of the potential savings on average, with
negligible slowdown; potential is fully realized once stragglers slow the
job by ~1.1-1.15x.

The potential is the §2.4 one: the ``min-energy`` plan's savings, priced
by Eq. 3 at its own iteration time like every other ``PlanReport``.
"""

from __future__ import annotations

import numpy as np
from conftest import emit_table

from repro.experiments.runner import evaluate_realized_potential

PAPER_FRACTION = {"A100": 0.74, "A40": 0.89}


def _run(setups):
    rows = []
    for setup in setups.values():
        rp = evaluate_realized_potential(setup)
        rows.append([rp.workload, rp.potential_pct, rp.realized_pct,
                     100 * rp.fraction])
    return rows


def test_sec623_realized_a100(a100_setups):
    rows = _run(a100_setups)
    avg = float(np.mean([r[3] for r in rows]))
    emit_table(
        ["workload", "potential %", "realized %", "fraction %"],
        rows + [[f"average (paper {100 * PAPER_FRACTION['A100']:.0f}%)",
                 "", "", avg]],
        title="[Sec 6.2.3] Realized potential, A100",
    )
    assert 40.0 < avg <= 110.0


def test_sec623_realized_a40(a40_setups):
    rows = _run(a40_setups)
    avg = float(np.mean([r[3] for r in rows]))
    emit_table(
        ["workload", "potential %", "realized %", "fraction %"],
        rows + [[f"average (paper {100 * PAPER_FRACTION['A40']:.0f}%)",
                 "", "", avg]],
        title="[Sec 6.2.3] Realized potential, A40",
    )
    assert 50.0 < avg <= 115.0


def test_sec623_straggler_fully_realizes(a100_setups):
    """With a ~1.1-1.15x straggler, Perseus reaches the full potential."""
    from repro.experiments.runner import evaluate_straggler

    def run():
        out = []
        for setup in a100_setups.values():
            pot = setup.plan("min-energy").energy_savings_pct
            sav = evaluate_straggler(setup, (1.15,))
            perseus = next(r for r in sav if r.method == "Perseus")
            out.append([setup.workload.display, pot,
                        perseus.energy_savings_pct])
        return out

    rows = run()
    emit_table(
        ["workload", "potential %", "Perseus @ T'/T=1.15 %"],
        rows,
        title="[Sec 6.2.3] Straggler slack realizes the potential (A100)",
    )
    realized = np.mean([r[2] / r[1] for r in rows])
    assert realized > 0.75
