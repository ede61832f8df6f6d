"""ASCII timeline rendering."""

import pytest

from repro.pipeline.dag import build_pipeline_dag
from repro.pipeline.schedules import schedule_1f1b
from repro.sim.executor import execute
from repro.viz.timeline_ascii import SHADES, render_comparison, render_timeline


@pytest.fixture(scope="module")
def execution():
    dag = build_pipeline_dag(schedule_1f1b(3, 3))
    durations = {n: 0.1 for n in dag.nodes}
    powers = {n: 100.0 + 40 * dag.nodes[n].stage for n in dag.nodes}
    return execute(dag, durations, powers, p_blocking_w=60.0)


def test_render_has_one_row_per_stage(execution):
    out = render_timeline(execution, width=60)
    lines = out.splitlines()
    assert len(lines) == 4  # header + 3 stages
    assert lines[1].startswith("S1 |")
    assert lines[3].startswith("S3 |")


def test_rows_have_fixed_width(execution):
    out = render_timeline(execution, width=72)
    lines = out.splitlines()[1:]
    assert len({len(l) for l in lines}) == 1
    for line in lines:
        assert len(line) == len("S1 |") + 72 + 1


def test_blocking_rendered_as_dots(execution):
    out = render_timeline(execution, width=80)
    # stage 1 idles at the start (waiting for stage 0's forward)
    row_s2 = out.splitlines()[2]
    assert row_s2.split("|")[1].startswith(".")


def test_labels_present_when_wide(execution):
    out = render_timeline(execution, width=120)
    assert "F1" in out
    assert "B3" in out


def test_power_shading_monotone():
    assert SHADES[0] == " "
    assert len(set(SHADES)) == len(SHADES)


def test_render_comparison_reports_savings(execution):
    out = render_comparison(execution, execution, width=50)
    assert "(a)" in out and "(b)" in out
    assert "0.0% saved" in out
