"""ASCII rendering of pipeline timelines (Figure 1 / Figure 10).

Each stage is one row; computations are drawn to scale with shading by
power draw (darker = hotter) and F/B microbatch labels where they fit --
a terminal rendition of the paper's timeline figures.
"""

from __future__ import annotations

from typing import List

from ..sim.executor import PipelineExecution
from ..sim.timeline import extract_timeline

#: Shading ramp from blocking (light) to TDP (dark).
SHADES = " .:-=+*#%@"


def _shade(power_w: float, p_max: float) -> str:
    idx = int(min(max(power_w / p_max, 0.0), 1.0) * (len(SHADES) - 1))
    return SHADES[idx]


def render_timeline(execution: PipelineExecution, width: int = 100) -> str:
    """Render an execution as fixed-width ASCII rows, one per stage."""
    rows = extract_timeline(execution)
    horizon = execution.iteration_time
    p_max = max(
        (seg.power_w for row in rows for seg in row.segments), default=1.0
    )
    lines: List[str] = [
        f"iteration: {horizon:.3f}s | power ramp '{SHADES}' (0..{p_max:.0f}W)"
    ]
    for row in rows:
        chars = [" "] * width
        for seg in row.segments:
            a = int(seg.start / horizon * width)
            b = max(int(seg.end / horizon * width), a + 1)
            b = min(b, width)
            fill = _shade(seg.power_w, p_max) if seg.kind != "blocking" else "."
            for i in range(a, b):
                chars[i] = fill
            if seg.label and b - a >= len(seg.label) + 1:
                for j, ch in enumerate(seg.label):
                    chars[a + j] = ch
        lines.append(f"S{row.stage + 1} |" + "".join(chars) + "|")
    return "\n".join(lines)


def render_comparison(
    before: PipelineExecution, after: PipelineExecution, width: int = 100,
    label: str = "Perseus",
) -> str:
    """Figure 1's (a)/(b) pair: max-frequency vs the optimized plan."""
    return "\n".join(
        [
            "(a) all computations at maximum frequency "
            f"[{before.energy_at():.0f} J]",
            render_timeline(before, width=width),
            "",
            f"(b) {label} energy schedule "
            f"[{after.energy_at():.0f} J, "
            f"{100 * (1 - after.energy_at() / before.energy_at()):.1f}% saved]",
            render_timeline(after, width=width),
        ]
    )
