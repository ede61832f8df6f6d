"""Figure 1 / Figure 10: execution timelines, max-frequency vs Perseus.

Renders the one-iteration timeline of GPT-3 1.3B (N=4, M=6, as drawn in
Figure 1) plus the Appendix-A models, and checks Perseus's schedule keeps
the iteration time while cutting energy -- the figure's visual claim.
"""

from __future__ import annotations

from conftest import emit

from repro.api import PlanSpec, default_planner
from repro.viz import render_comparison

#: (model, figure label) as visualized in Figure 1 / Figure 10.
FIGURE_MODELS = [
    ("gpt3-xl", "Figure 1: GPT-3 1.3B"),
    ("bert-huge", "Figure 10a: BERT 1.3B"),
    ("t5-3b", "Figure 10b: T5 3B"),
    ("bloom-3b", "Figure 10c: Bloom 3B"),
    ("wide-resnet101", "Figure 10d: Wide-ResNet101 1.5B"),
]


def _render(model_name):
    planner = default_planner()
    spec = PlanSpec(model_name, gpu="a100", stages=4, microbatches=6,
                    freq_stride=8)
    base = planner.baseline_execution(spec)
    opt = planner.plan(spec).execution
    return base, opt


def test_fig1_gpt3_timeline():
    base, opt = _render("gpt3-xl")
    emit("[Figure 1] GPT-3 1.3B, 4 stages, 6 microbatches (A100)\n"
         + render_comparison(base, opt, width=100))
    # the figure's claim: same iteration time, visibly less energy
    assert opt.iteration_time <= base.iteration_time * 1.001
    assert opt.energy_at() < base.energy_at() * 0.95


def test_fig10_appendix_timelines():
    def run():
        out = []
        for name, label in FIGURE_MODELS[1:]:
            base, opt = _render(name)
            out.append((label, base, opt))
        return out

    results = run()
    for label, base, opt in results:
        saved = 100 * (1 - opt.energy_at() / base.energy_at())
        emit(f"[{label}] iteration {base.iteration_time:.3f}s -> "
             f"{opt.iteration_time:.3f}s, energy saved {saved:.1f}%\n"
             + render_comparison(base, opt, width=100))
        assert opt.iteration_time <= base.iteration_time * 1.001
        assert opt.energy_at() < base.energy_at()
