"""Table 1 / Table 7: minimum imbalance ratios for all model variants.

Regenerates the forward-latency imbalance of the longest vs shortest stage
under minimum-imbalance partitioning, for 4 and 8 stages, and prints it
next to the paper's A100 numbers.
"""

from __future__ import annotations

from conftest import emit_table

from repro.gpu.specs import A40, A100_PCIE
from repro.models.registry import build_model
from repro.partition.algorithms import partition_model

#: Paper Table 1 (A100): variant -> (ratio 4 stages, ratio 8 stages).
PAPER_A100 = {
    "gpt3-xl": (1.17, 1.33), "gpt3-2.7b": (1.13, 1.25),
    "gpt3-6.7b": (1.11, 1.23), "gpt3-13b": (1.08, 1.17),
    "gpt3-175b": (1.02, 1.03),
    "bloom-3b": (1.13, 1.25), "bloom-7b": (1.13, 1.25),
    "bloom-176b": (1.05, 1.10),
    "bert-base": (1.33, 2.00), "bert-large": (1.17, 1.33),
    "bert-huge": (1.17, 1.33),
    "t5-base": (1.19, 1.50), "t5-large": (1.05, 1.11),
    "t5-3b": (1.06, 1.16),
    "wide-resnet50": (1.23, 1.46), "wide-resnet101": (1.09, 1.25),
}


def _ratios(gpu):
    rows = []
    for name, (p4, p8) in PAPER_A100.items():
        model = build_model(name)
        r4 = partition_model(model, 4, gpu).ratio
        r8 = partition_model(model, 8, gpu).ratio
        rows.append([name, f"{r4:.2f}", f"{r8:.2f}", f"{p4:.2f}", f"{p8:.2f}"])
    return rows


def test_table1_imbalance_ratios():
    rows = _ratios(A100_PCIE)
    emit_table(
        ["model", "ours N=4", "ours N=8", "paper N=4", "paper N=8"],
        rows,
        title="[Table 1] Minimum imbalance ratio (A100)",
    )
    # Shape assertions: perfect balance is rare; deeper pipelines worse.
    for name, r4s, r8s, _, _ in rows:
        r4, r8 = float(r4s), float(r8s)
        assert r8 >= r4 - 1e-9, f"{name}: N=8 should not balance better"
    assert float(dict((r[0], r[1]) for r in rows)["gpt3-175b"]) < 1.05


def test_table7_partitions_listed():
    """Appendix B: partition boundaries for the headline models."""
    def run():
        out = []
        for name in ("gpt3-xl", "bloom-3b", "t5-3b", "wide-resnet101"):
            model = build_model(name)
            p4 = partition_model(model, 4, A100_PCIE)
            p8 = partition_model(model, 8, A40)
            out.append([name, str(list(p4.boundaries)), str(list(p8.boundaries))])
        return out

    rows = run()
    emit_table(
        ["model", "A100 4-stage partition", "A40 8-stage partition"],
        rows,
        title="[Table 7] Minimum-imbalance partitions",
    )
    # GPT-3 1.3B: the LM head forces a short final stage (paper: 5 layers + head)
    gpt = next(r for r in rows if r[0] == "gpt3-xl")
    bounds = eval(gpt[1])
    assert bounds[0] == 0 and bounds[-1] == 25
    assert bounds[4] - bounds[3] <= 7  # final stage not the largest
