"""Minimum-imbalance partitioning: exactness, structure, Table 1 shapes."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PartitionError
from repro.gpu.specs import A100_PCIE
from repro.models.registry import build_model
from repro.partition.algorithms import (
    min_imbalance_partition,
    partition_model,
    partition_model_uniform,
    uniform_partition,
)
from repro.partition.imbalance import (
    imbalance_ratio,
    stage_latencies,
    validate_partition,
)


def brute_force_best_ratio(lats, stages, tail=0.0):
    """Reference: try every contiguous partition."""
    n = len(lats)
    best = float("inf")
    for cuts in itertools.combinations(range(1, n), stages - 1):
        bounds = [0] + list(cuts) + [n]
        stage_lats = stage_latencies([lats] * stages, bounds, [tail] * stages)
        best = min(best, imbalance_ratio(stage_lats))
    return best


class TestImbalanceMetrics:
    def test_perfect_balance_is_one(self):
        assert imbalance_ratio([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_ratio_definition(self):
        assert imbalance_ratio([1.0, 2.0]) == pytest.approx(2.0)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(PartitionError):
            imbalance_ratio([])
        with pytest.raises(PartitionError):
            imbalance_ratio([1.0, 0.0])

    def test_validate_partition(self):
        validate_partition([0, 2, 5], 5, 2)
        with pytest.raises(PartitionError):
            validate_partition([0, 2, 4], 5, 2)  # wrong end
        with pytest.raises(PartitionError):
            validate_partition([0, 2, 2, 5], 5, 3)  # empty stage

    def test_tail_added_to_last_stage(self):
        lats = stage_latencies([[1.0, 1.0]] * 2, [0, 1, 2], [0.5, 0.5])
        assert lats == [1.0, 1.5]


class TestUniformPartition:
    def test_even_split(self):
        assert uniform_partition(8, 4) == [0, 2, 4, 6, 8]

    def test_remainder_goes_to_front(self):
        assert uniform_partition(10, 4) == [0, 3, 6, 8, 10]

    def test_rejects_impossible(self):
        with pytest.raises(PartitionError):
            uniform_partition(3, 4)


class TestMinImbalanceDP:
    def test_matches_brute_force_small(self):
        lats = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for stages in (2, 3, 4):
            result = min_imbalance_partition([lats] * stages, stages)
            assert result.ratio == pytest.approx(
                brute_force_best_ratio(lats, stages)
            )

    def test_matches_brute_force_with_tail(self):
        lats = [2.0, 2.0, 3.0, 1.0, 2.0, 4.0]
        result = min_imbalance_partition([lats] * 3, 3, [1.5] * 3)
        assert result.ratio == pytest.approx(
            brute_force_best_ratio(lats, 3, tail=1.5)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=4, max_size=10),
        st.integers(min_value=2, max_value=4),
    )
    def test_property_matches_brute_force(self, lats, stages):
        if len(lats) < stages:
            return
        result = min_imbalance_partition([lats] * stages, stages)
        assert result.ratio == pytest.approx(
            brute_force_best_ratio(lats, stages), rel=1e-9
        )

    def test_dominates_uniform(self):
        model = build_model("gpt3-xl")
        best = partition_model(model, 4, A100_PCIE)
        uniform = partition_model_uniform(model, 4, A100_PCIE)
        assert best.ratio <= uniform.ratio + 1e-12

    def test_rejects_impossible(self):
        with pytest.raises(PartitionError):
            min_imbalance_partition([[1.0, 2.0]] * 3, 3)
        with pytest.raises(PartitionError):
            min_imbalance_partition([[1.0, -2.0, 3.0]] * 2, 2)

    def test_result_structure(self):
        result = min_imbalance_partition([[1.0] * 8] * 4, 4)
        assert result.num_stages == 4
        assert result.stage_layer_counts() == [2, 2, 2, 2]
        assert result.ratio == pytest.approx(1.0)


class TestPaperShapes:
    """Table 1: imbalance shapes the paper reports (loose bands)."""

    @pytest.mark.parametrize(
        "name,paper_r4",
        [("gpt3-xl", 1.17), ("bloom-3b", 1.13), ("bert-huge", 1.17),
         ("t5-3b", 1.06), ("gpt3-175b", 1.02)],
    )
    def test_four_stage_ratio_band(self, name, paper_r4):
        model = build_model(name)
        ratio = partition_model(model, 4, A100_PCIE).ratio
        assert abs(ratio - paper_r4) < 0.10

    def test_more_stages_more_imbalance(self):
        """Appendix B.2: deeper pipelines are harder to balance."""
        for name in ("gpt3-xl", "bert-huge", "gpt3-175b"):
            model = build_model(name)
            r4 = partition_model(model, 4, A100_PCIE).ratio
            r8 = partition_model(model, 8, A100_PCIE).ratio
            assert r8 >= r4 - 1e-9

    def test_bigger_models_better_balance(self):
        """Within GPT-3, more layers -> smaller ratio at fixed stages."""
        r_small = partition_model(build_model("gpt3-xl"), 4, A100_PCIE).ratio
        r_big = partition_model(build_model("gpt3-175b"), 4, A100_PCIE).ratio
        assert r_big < r_small
