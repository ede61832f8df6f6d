"""Large-scale emulation (§6.3): scaling configs and savings trends."""

import pytest

from repro.api import Planner
from repro.emulation.largescale import (
    ScalingConfig,
    emulated_breakdown,
    emulated_intrinsic_savings,
    emulated_straggler_savings,
    emulation_workload,
    t_star_ratio,
    table5_configs,
)
from repro.exceptions import ConfigurationError
from repro.experiments.runner import prepare
from repro.gpu.specs import A100_SXM


@pytest.fixture(scope="module")
def planner_12():
    """A private planner holding only the M=12 emulation."""
    return Planner()


@pytest.fixture(scope="module")
def setup_12(planner_12):
    return prepare(emulation_workload("gpt3-175b", A100_SXM),
                   num_microbatches=12, freq_stride=8, planner=planner_12)


@pytest.fixture(scope="module")
def setup_24():
    return prepare(emulation_workload("gpt3-175b", A100_SXM),
                   num_microbatches=24, freq_stride=8)


class TestConfigs:
    def test_table5_rows(self):
        configs = table5_configs()
        assert [(c.num_gpus, c.num_pipelines, c.num_microbatches)
                for c in configs] == [
            (1024, 16, 96), (2048, 32, 48), (4096, 64, 24), (8192, 128, 12)
        ]

    def test_strong_scaling_consistency(self):
        """Global batch stays constant across Table 5 rows."""
        configs = table5_configs()
        products = {c.num_pipelines * c.num_microbatches for c in configs}
        assert len(products) == 1  # 16*96 == 32*48 == 64*24 == 128*12

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ScalingConfig(num_gpus=1000, num_pipelines=16, num_microbatches=96)


class TestIntrinsic:
    def test_savings_positive(self, setup_12):
        savings = emulated_intrinsic_savings(setup_12)
        assert 2.0 < savings < 35.0

    def test_fewer_microbatches_more_savings(self, setup_12, setup_24):
        """Table 6: warm-up/flush microbatches can slow to min energy;
        steady-state ones cannot, so savings decrease with M."""
        s12 = emulated_intrinsic_savings(setup_12)
        s24 = emulated_intrinsic_savings(setup_24)
        assert s12 > s24 - 0.5

    def test_t_star_ratio_band(self, setup_12):
        assert 1.05 < t_star_ratio(setup_12) < 1.6


class TestStragglers:
    def test_savings_positive_and_bounded(self, setup_12):
        s = emulated_straggler_savings(setup_12, num_pipelines=16, slowdown=1.2)
        assert 0.0 < s < 40.0

    def test_peak_then_decline(self, setup_12):
        """Figure 8: savings rise until T' ~ T*, then wane."""
        sweep = [
            emulated_straggler_savings(setup_12, 16, s)
            for s in (1.05, 1.2, 1.5)
        ]
        assert max(sweep) >= sweep[-1]

    def test_needs_two_pipelines(self, setup_12):
        with pytest.raises(ConfigurationError):
            emulated_straggler_savings(setup_12, num_pipelines=1, slowdown=1.2)

    @pytest.mark.parametrize("slowdown", [0.9, float("nan")])
    def test_straggler_cannot_be_faster_than_all_max(self, setup_12,
                                                      slowdown):
        with pytest.raises(ConfigurationError):
            emulated_straggler_savings(setup_12, 16, slowdown)
        with pytest.raises(ConfigurationError):
            emulated_breakdown(setup_12, 16, slowdown)


class TestBreakdown:
    def test_intrinsic_plus_extrinsic(self, setup_12):
        """Figure 7: both components present under a 1.2x straggler."""
        b = emulated_breakdown(setup_12, num_pipelines=16, slowdown=1.2)
        assert b.intrinsic_pct > 0
        assert b.extrinsic_pct > 0
        assert b.total_pct < 45.0

    def test_envpipe_style_plan_has_no_extrinsic(self, setup_12):
        """EnvPipe ignores T', so its plan for T' is its intrinsic plan."""
        b = emulated_breakdown(
            setup_12, num_pipelines=16, slowdown=1.2, strategy="envpipe"
        )
        assert b.intrinsic_pct > 0
        assert b.extrinsic_pct == 0.0


class TestProductPath:
    def test_plan_cli_prints_the_table6_cell(self, setup_12, planner_12,
                                             monkeypatch, capsys):
        """``repro plan`` of the M=12 cell prints Table 6's intrinsic %,
        and every emulated figure of that cell shares one crawl."""
        import repro.cli

        intrinsic = emulated_intrinsic_savings(setup_12)
        emulated_straggler_savings(setup_12, 128, 1.2)
        emulated_breakdown(setup_12, 128, 1.2)
        t_star_ratio(setup_12)
        assert planner_12.stats["frontier"] == 1

        monkeypatch.setattr(repro.cli, "default_planner", lambda: planner_12)
        assert repro.cli.main([
            "plan", "gpt3-175b", "--gpu", "a100-sxm-80g", "--stages", "8",
            "--microbatches", "12", "--microbatch-size", "1",
            "--tensor-parallel", "8", "--freq-stride", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert f"intrinsic  : {intrinsic:.1f}% energy saved" in out
        assert planner_12.stats["frontier"] == 1
