"""Figure 11 / Appendix D: Pareto points and the exponential fit.

GPT-3 0.3B-class stages on A40: per-stage forward/backward Pareto-optimal
(time, energy) measurements, normalized as in the figure, plus the
``a*exp(b*t)+c`` fit quality (the continuous relaxation's justification).
"""

from __future__ import annotations

from conftest import emit_table

from repro.gpu.specs import A40
from repro.models.registry import build_model
from repro.partition.algorithms import partition_model
from repro.profiler.fit import fit_exponential, fit_quality
from repro.profiler.online import profile_pipeline


def _run():
    # "GPT-3 0.3B" of Figure 11 ~ bert-large-scale decoder; we use the
    # smallest GPT-like zoo entry per stage on A40, full 15 MHz grid.
    model = build_model("bert-large", 8)
    part = partition_model(model, 4, A40)
    profile = profile_pipeline(model, part, A40, freq_stride=1)
    rows = []
    fits = {}
    for stage in range(4):
        for kind in ("forward", "backward"):
            op = profile.get((stage, kind))
            pareto = op.pareto()
            fit = fit_exponential(pareto)
            r2 = fit_quality(fit, pareto)
            fits[(stage, kind)] = (fit, pareto, r2)
            fastest = pareto[0]
            slowest = pareto[-1]
            rows.append([
                f"stage {stage} {kind}",
                len(pareto),
                f"{slowest.time_s / fastest.time_s:.2f}",
                f"{slowest.energy_j / fastest.energy_j:.2f}",
                f"{r2:.4f}",
            ])
    return rows, fits


def test_fig11_pareto_and_fit():
    rows, fits = _run()
    emit_table(
        ["computation", "# pareto pts", "max norm time", "min norm energy",
         "fit R^2"],
        rows,
        title="[Figure 11] Pareto (time, energy) choices + exponential fit "
              "(A40, full 15 MHz grid)",
    )
    for (stage, kind), (fit, pareto, r2) in fits.items():
        # Appendix D: the exponential is a natural fit to the data
        assert r2 > 0.97, f"stage {stage} {kind}: poor fit R^2={r2:.3f}"
        assert fit.a > 0 and fit.b < 0
    for row in rows:
        # Figure 11's axes: min-energy point lands near 1.2-1.4x time at
        # ~0.55-0.8x energy
        assert 1.1 < float(row[2]) < 1.6
        assert 0.45 < float(row[3]) < 0.9
