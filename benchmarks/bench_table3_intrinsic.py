"""Table 3: intrinsic energy bloat reduction without stragglers.

Perseus's minimum-iteration-time schedule vs EnvPipe, on both testbeds.
Shape targets: Perseus saves 10-15% (A100) / 15-29% (A40) at ~zero
slowdown; EnvPipe saves less on average and sometimes slows the pipeline.
"""

from __future__ import annotations

from conftest import emit_table

from repro.experiments.runner import evaluate_intrinsic

#: Paper Table 3: workload key -> (perseus %, envpipe %, perseus slow %,
#: envpipe slow %).
PAPER = {
    "gpt3-1.3b@a100-pp4": (13.2, 8.8, 0.1, 0.1),
    "bert-1.3b@a100-pp4": (12.9, 8.0, 0.5, 0.0),
    "t5-3b@a100-pp4": (10.6, 7.4, 1.3, 3.4),
    "bloom-3b@a100-pp4": (11.7, 8.9, 0.2, 0.2),
    "wresnet-1.5b@a100-pp4": (3.2, 3.7, 2.3, 4.1),
    "gpt3-2.7b@a40-pp8": (21.1, 21.7, 0.2, 5.6),
    "bert-1.3b@a40-pp8": (15.7, 16.5, 0.0, 9.7),
    "t5-3b@a40-pp8": (28.5, 19.3, 0.0, 0.0),
    "bloom-3b@a40-pp8": (22.4, 19.9, 0.0, 0.0),
    "wresnet-1.5b@a40-pp8": (20.4, 16.5, 0.2, 0.5),
}


def _run(setups):
    rows = []
    for key, setup in setups.items():
        result = {r.method: r for r in evaluate_intrinsic(setup)}
        p, e = result["Perseus"], result["EnvPipe"]
        paper = PAPER[key]
        rows.append([
            setup.workload.display,
            p.energy_savings_pct, e.energy_savings_pct,
            paper[0], paper[1],
            p.slowdown_pct, e.slowdown_pct,
        ])
    return rows


def _check(rows):
    for row in rows:
        display, perseus, envpipe, paper_p, paper_e, slow_p, slow_e = row
        assert perseus > 0, f"{display}: Perseus must save energy"
        assert slow_p < 1.0, f"{display}: Perseus must not slow down"


def test_table3a_a100_pp4(a100_setups):
    rows = _run(a100_setups)
    emit_table(
        ["workload", "Perseus %", "EnvPipe %", "paper P", "paper E",
         "P slow %", "E slow %"],
        rows,
        title="[Table 3a] Intrinsic bloat reduction, A100 PP4",
    )
    _check(rows)


def test_table3b_a40_pp8(a40_setups):
    rows = _run(a40_setups)
    emit_table(
        ["workload", "Perseus %", "EnvPipe %", "paper P", "paper E",
         "P slow %", "E slow %"],
        rows,
        title="[Table 3b] Intrinsic bloat reduction, A40 PP8",
    )
    _check(rows)
    # headline: A40 savings exceed A100 savings for matching models
    assert min(r[1] for r in rows) > 10.0
