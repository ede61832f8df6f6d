"""Experiment harness: workloads, evaluation rows, report rendering."""

import pytest

from repro.experiments.report import format_table
from repro.experiments.runner import (
    evaluate_intrinsic,
    evaluate_realized_potential,
    evaluate_straggler,
    prepare,
)
from repro.experiments.workloads import (
    A40_3D_WORKLOAD,
    A40_PP8_WORKLOADS,
    A100_PP4_WORKLOADS,
    ALL_WORKLOADS,
    effective_microbatches,
    get_workload,
)


@pytest.fixture(scope="module")
def gpt3_setup():
    return prepare(A100_PP4_WORKLOADS[0], num_microbatches=8, freq_stride=8)


class TestWorkloads:
    def test_counts(self):
        assert len(A100_PP4_WORKLOADS) == 5
        assert len(A40_PP8_WORKLOADS) == 5
        assert len(ALL_WORKLOADS) == 11

    def test_lookup(self):
        wl = get_workload("gpt3-1.3b@a100-pp4")
        assert wl.model_name == "gpt3-xl"
        with pytest.raises(KeyError):
            get_workload("nope")

    def test_3d_workload_gpu_count(self):
        wl = A40_3D_WORKLOAD
        assert (wl.data_parallel, wl.tensor_parallel, wl.num_stages) == \
            (2, 2, 4)  # 16 GPUs

    def test_microbatch_scaling(self):
        wl = A100_PP4_WORKLOADS[0]
        assert effective_microbatches(wl, None) <= wl.num_microbatches
        assert effective_microbatches(wl, 7) == 7


class TestPrepare:
    def test_setup_complete(self, gpt3_setup):
        assert gpt3_setup.num_microbatches == 8
        assert gpt3_setup.dag.num_stages == 4
        assert gpt3_setup.tau > 0
        assert gpt3_setup.partition.num_stages == 4

    def test_executions_consistent(self, gpt3_setup):
        base = gpt3_setup.plan("max-freq")
        slow = gpt3_setup.plan("min-energy")
        assert base.iteration_time_s < slow.iteration_time_s
        # The all-max plan is the baseline every report is priced against.
        assert base.iteration_time_s == slow.baseline_time_s
        assert base.energy_j == slow.baseline_energy_j

    def test_spec_hits_the_prepared_stack(self, gpt3_setup):
        planner = gpt3_setup.planner
        before = dict(planner.stats)
        stack = planner.result(gpt3_setup.spec.replace(strategy="envpipe"))
        assert planner.stats == before
        assert stack.optimizer is gpt3_setup.optimizer


#: Table 3 / Table 4 values of the GPT-3 1.3B setup, recorded before the
#: evaluations were routed through ``Planner.plan``.  Relative 1e-12:
#: summation order may differ across Python versions.
INTRINSIC = {"Perseus": 14.30393856839267, "EnvPipe": 12.123053675730922}
STRAGGLER = {
    (1.05, "Perseus"): 18.256216497761677,
    (1.05, "EnvPipe"): 12.436361718338295,
    (1.2, "Perseus"): 22.38631008355263,
    (1.2, "EnvPipe"): 11.7414817328925,
}


class TestEvaluations:
    def test_intrinsic_recorded_values(self, gpt3_setup):
        rows = {r.method: r.energy_savings_pct
                for r in evaluate_intrinsic(gpt3_setup)}
        assert rows == pytest.approx(INTRINSIC, rel=1e-12)

    def test_straggler_recorded_values(self, gpt3_setup):
        rows = {(r.slowdown_factor, r.method): r.energy_savings_pct
                for r in evaluate_straggler(gpt3_setup, (1.05, 1.2))}
        assert rows == pytest.approx(STRAGGLER, rel=1e-12)

    def test_intrinsic_rows(self, gpt3_setup):
        rows = evaluate_intrinsic(gpt3_setup)
        methods = {r.method for r in rows}
        assert methods == {"Perseus", "EnvPipe"}
        perseus = next(r for r in rows if r.method == "Perseus")
        assert 5.0 < perseus.energy_savings_pct < 30.0
        assert perseus.slowdown_pct < 1.0

    def test_straggler_rows_shape(self, gpt3_setup):
        rows = evaluate_straggler(gpt3_setup, (1.05, 1.2, 1.5))
        perseus = [r for r in rows if r.method == "Perseus"]
        envpipe = [r for r in rows if r.method == "EnvPipe"]
        assert len(perseus) == len(envpipe) == 3
        # Perseus exploits slack; EnvPipe's fixed plan decays monotonically
        assert all(p.energy_savings_pct > e.energy_savings_pct
                   for p, e in zip(perseus, envpipe))
        assert envpipe[0].energy_savings_pct >= envpipe[-1].energy_savings_pct

    def test_straggler_savings_peak_then_decline(self, gpt3_setup):
        """Table 4's signature shape: rise to ~T*, then wane."""
        rows = evaluate_straggler(
            gpt3_setup, (1.05, 1.1, 1.2, 1.3, 1.4, 1.5)
        )
        perseus = [r.energy_savings_pct for r in rows if r.method == "Perseus"]
        peak = max(perseus)
        assert perseus[-1] < peak  # declines past T*
        assert perseus[0] < peak + 1e-9  # rises from 1.05

    def test_realized_potential(self, gpt3_setup):
        """§6.2.3: Perseus realizes a large share of the §2.4 bound."""
        rp = evaluate_realized_potential(gpt3_setup)
        assert 0.4 < rp.fraction < 1.1
        assert rp.potential_pct > rp.realized_pct * 0.5

    def test_potential_is_the_min_energy_report(self, gpt3_setup):
        """One §2.4 potential: the min-energy plan's Eq. 3 savings."""
        rp = evaluate_realized_potential(gpt3_setup)
        assert rp.potential_pct == gpt3_setup.plan(
            "min-energy").energy_savings_pct
        perseus = next(r for r in evaluate_intrinsic(gpt3_setup)
                       if r.method == "Perseus")
        assert rp.realized_pct == perseus.energy_savings_pct


class TestReport:
    def test_format_table(self):
        out = format_table(
            ["model", "savings"], [["gpt3", 13.2], ["bloom", 11.7]], title="T3"
        )
        assert "gpt3" in out and "13.2" in out and "T3" in out
        lines = out.splitlines()
        assert len({len(l) for l in lines[1:]}) <= 2  # aligned
