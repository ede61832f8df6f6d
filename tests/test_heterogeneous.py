"""Heterogeneous (per-stage GPU mix) planning: spec, planner, strategies.

Covers the ISSUE-2 acceptance surface: mixed-GPU JSON round-trips,
wrong-length validation, per-stage profile-cache sharing in ``sweep()``,
and the homogeneous-tuple == single-name equivalence against the PR-1
single-GPU planning path (which is byte-identical code).
"""

import dataclasses
import hashlib
import io
import json

import pytest

from repro.api import (
    PlanSpec,
    Planner,
    list_strategies,
    mixed_cluster_specs,
    sweep,
)
from repro.api.spec import SPEC_FORMAT_VERSION
from repro.core.serialization import load_json, save_json
from repro.exceptions import ConfigurationError, PartitionError
from repro.gpu.specs import get_gpu, is_homogeneous, list_gpus, resolve_gpus
from repro.models.registry import build_model, list_models
from repro.partition.algorithms import (
    min_imbalance_partition,
    partition_model,
    partition_model_uniform,
)
from repro.partition.imbalance import stage_latencies

#: Small, fast mixed-cluster request reused across the module.
MIXED = PlanSpec("bert-large", gpu=("a100", "a40"), stages=2,
                 microbatches=3, freq_stride=24)
SINGLE = MIXED.replace(gpu="a100")


class TestHeterogeneousSpec:
    def test_tuple_gpu_accepted_and_hashable(self):
        assert MIXED.gpu == ("a100", "a40")
        assert MIXED.gpu_names == ("a100", "a40")
        assert MIXED.is_heterogeneous
        hash(MIXED)  # must stay usable as a memoization key

    def test_single_name_broadcasts(self):
        assert SINGLE.gpu_names == ("a100", "a100")
        assert not SINGLE.is_heterogeneous

    def test_list_normalized_to_tuple(self):
        spec = MIXED.replace(gpu=["a100", "a40"])
        assert spec.gpu == ("a100", "a40")
        assert spec == MIXED

    @pytest.mark.parametrize("gpu", [
        ("a100",),                      # too short
        ("a100", "a40", "a40"),         # too long
        (),                             # empty
        ("a100", ""),                   # empty entry
        ("a100", 7),                    # non-string entry
    ])
    def test_wrong_gpu_tuples_rejected(self, gpu):
        with pytest.raises(ConfigurationError):
            PlanSpec("bert-large", gpu=gpu, stages=2)

    def test_replace_stages_revalidates_gpu_length(self):
        with pytest.raises(ConfigurationError):
            MIXED.replace(stages=4)

    def test_json_round_trip_mixed(self):
        payload = MIXED.to_dict()
        assert payload["version"] == SPEC_FORMAT_VERSION
        assert payload["gpu"] == ["a100", "a40"]  # JSON-friendly list
        restored = PlanSpec.from_json(MIXED.to_json())
        assert restored == MIXED
        assert restored.gpu == ("a100", "a40")

    def test_round_trip_through_file_helpers(self):
        buf = io.StringIO()
        save_json(MIXED, buf)
        buf.seek(0)
        assert load_json(buf) == MIXED

    def test_version1_payload_still_loads(self):
        payload = SINGLE.to_dict()
        payload["version"] = 1
        payload["gpu"] = "a100"
        assert PlanSpec.from_dict(payload) == SINGLE

    def test_version1_payload_rejects_gpu_list(self):
        payload = MIXED.to_dict()
        payload["version"] = 1
        with pytest.raises(ConfigurationError, match="version 2"):
            PlanSpec.from_dict(payload)

    def test_unsupported_version_rejected(self):
        payload = MIXED.to_dict()
        payload["version"] = 99
        with pytest.raises(ConfigurationError):
            PlanSpec.from_dict(payload)


class TestResolveGpus:
    def test_broadcast_and_alias_resolution(self):
        gpus = resolve_gpus("a100", 3)
        assert len(gpus) == 3 and is_homogeneous(gpus)

    def test_alias_mix_is_homogeneous_after_resolution(self):
        gpus = resolve_gpus(("a100", "a100-pcie"), 2)
        assert is_homogeneous(gpus)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_gpus(("a100", "a40"), 3)


class TestHeterogeneousPartition:
    def test_slower_gpu_gets_fewer_layers(self):
        model = build_model("bert-large", None)
        mixed = partition_model(model, 2, ("a100", "a40"))
        counts = mixed.stage_layer_counts()
        # The A40 is the lower-throughput device: the minimum-imbalance
        # search must compensate by assigning it fewer layers than the
        # A100 stage receives.
        assert counts[1] < counts[0]

    #: sha256 of the partitions below (boundaries, repr'd stage
    #: latencies and ratio) as the homogeneous single-table partitioner
    #: produced them before the per-stage-table search replaced it.
    ZOO_PARTITIONS_SHA256 = (
        "b015162aaa2067ad1d89b298187b863df9c63041d35547f815ee439ed99daad3")

    def test_homogeneous_tuple_matches_single_gpu_partition(self):
        # Every zoo model x registry GPU x {2, 4, 8} stages, for both
        # the minimum-imbalance and the uniform partition: one device
        # name and a per-stage tuple of equal (but distinct) specs give
        # the same result, bit for bit the pre-fold homogeneous one.
        rows = []
        for name in list_models():
            model = build_model(name, None)
            for gpu in list_gpus():
                spec = get_gpu(gpu)
                for stages in (2, 4, 8):
                    tupled = tuple(dataclasses.replace(spec)
                                   for _ in range(stages))
                    for search in (partition_model, partition_model_uniform):
                        single = search(model, stages, gpu)
                        assert search(model, stages, tupled) == single, (
                            name, gpu, stages, search.__name__)
                        rows.append([
                            name, gpu, stages, search.__name__,
                            list(single.boundaries),
                            [repr(t) for t in single.stage_latencies],
                            repr(single.ratio)])
        assert len(rows) == 2 * 240
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == self.ZOO_PARTITIONS_SHA256

    def test_hetero_dp_prices_stages_on_their_own_tables(self):
        fast, slow = [1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0]
        result = min_imbalance_partition([fast, slow], 2)
        # Stage 1 runs each layer twice as slow, so perfect balance puts
        # ~2/3 of the layers on stage 0.
        assert result.boundaries[1] == 3
        assert result.ratio == pytest.approx(3.0 / 2.0)

    def test_hetero_dp_rejects_wrong_table_count(self):
        with pytest.raises(PartitionError):
            min_imbalance_partition([[1.0, 1.0]], 2)
        with pytest.raises(PartitionError):
            min_imbalance_partition(
                [[1.0, 1.0], [1.0]], 2
            )

    def test_stage_latencies_hetero_charges_tail_to_last_stage(self):
        lats = stage_latencies(
            [[1.0, 1.0], [3.0, 3.0]], [0, 1, 2], [0.5, 0.25]
        )
        assert lats == [1.0, 3.25]
        with pytest.raises(PartitionError):
            stage_latencies([[1.0, 1.0]], [0, 1, 2], [0.0])

    def test_zero_stages_still_raises_partition_error(self):
        with pytest.raises(PartitionError):
            min_imbalance_partition([[1.0, 2.0, 3.0]], 0)
        with pytest.raises(PartitionError):
            min_imbalance_partition([], 0)

    def test_custom_spec_reusing_registry_name_not_conflated(self):
        import dataclasses

        model = build_model("bert-large", None)
        a100 = get_gpu("a100")
        derated = dataclasses.replace(
            a100, peak_tflops=a100.peak_tflops / 2
        )
        pure = partition_model(model, 2, (a100, a100))
        mixed = partition_model(model, 2, (a100, derated))
        # Same .name, different spec value: the derated stage must be
        # priced on its own (slower) table, shifting the boundaries.
        assert mixed.boundaries != pure.boundaries

    def test_identical_tables_match_homogeneous_dp(self):
        table = [1.0, 2.0, 3.0, 1.0, 2.0]
        result = min_imbalance_partition([table, list(table)], 2, [0.5, 0.5])
        # The single-table search's answer for this table (tail on the
        # last stage), recorded before the two searches were folded.
        assert result.boundaries == (0, 3, 5)
        assert result.stage_latencies == (6.0, 3.5)
        assert result.ratio == 6.0 / 3.5


class TestHeterogeneousProfile:
    def test_per_stage_ladders_and_blocking_power(self):
        planner = Planner()
        profile = planner.result(MIXED).profile
        a100, a40 = get_gpu("a100"), get_gpu("a40")
        # Each stage sweeps its own device's ladder from its own max clock.
        stage0_max = max(
            m.freq_mhz for m in profile.get((0, "forward")).measurements
        )
        stage1_max = max(
            m.freq_mhz for m in profile.get((1, "forward")).measurements
        )
        assert stage0_max == a100.max_freq
        assert stage1_max == a40.max_freq
        assert stage1_max > stage0_max  # A40 clocks past the A100 ceiling
        # Per-stage blocking powers, with the scalar kept as the mean.
        assert profile.stage_blocking_w == {0: a100.blocking_w,
                                            1: a40.blocking_w}
        assert profile.blocking_power(0) == a100.blocking_w
        assert profile.blocking_power(1) == a40.blocking_w
        assert profile.p_blocking_w == pytest.approx(
            (a100.blocking_w + a40.blocking_w) / 2
        )

    def test_mixed_profile_serialization_round_trip(self):
        planner = Planner()
        profile = planner.result(MIXED).profile
        buf = io.StringIO()
        save_json(profile, buf)
        # Mixed and homogeneous profiles share version 3 (packed
        # measurement columns); a mixed one also carries its per-stage
        # blocking powers, which no reader may average away.
        payload = json.loads(buf.getvalue())
        assert payload["version"] == 3
        assert len(payload["stage_blocking_w"]) == 2
        buf.seek(0)
        restored = load_json(buf)
        assert restored.stage_blocking_w == profile.stage_blocking_w
        assert restored.p_blocking_w == profile.p_blocking_w

    def test_homogeneous_profile_shares_version_3(self):
        planner = Planner()
        buf = io.StringIO()
        save_json(planner.result(SINGLE).profile, buf)
        payload = json.loads(buf.getvalue())
        assert payload["version"] == 3
        assert "stage_blocking_w" not in payload

    def test_homogeneous_profile_has_no_stage_map(self):
        planner = Planner()
        profile = planner.result(SINGLE).profile
        assert profile.stage_blocking_w is None


class TestHomogeneousTupleEquivalence:
    def test_bit_for_bit_against_single_name_plans(self):
        planner = Planner()
        for name in list_strategies():
            single = planner.plan(SINGLE.replace(strategy=name))
            tupled = planner.plan(
                SINGLE.replace(gpu=("a100", "a100"), strategy=name)
            )
            assert single.plan == tupled.plan
            assert single.energy_j == tupled.energy_j
            assert single.iteration_time_s == tupled.iteration_time_s

    def test_homogeneous_tuple_shares_every_cache(self):
        planner = Planner()
        s1 = planner.result(SINGLE)
        s2 = planner.result(SINGLE.replace(gpu=("a100", "a100")))
        assert s1.profile is s2.profile
        assert s1.partition is s2.partition
        assert s1.optimizer is s2.optimizer
        assert planner.stats["profile"] == 1
        assert planner.stats["partition"] == 1

    def test_alias_tuple_also_collapses(self):
        planner = Planner()
        planner.result(SINGLE)
        planner.result(SINGLE.replace(gpu=("a100", "a100-pcie")))
        assert planner.stats["profile"] == 1


class TestStageProfileSharing:
    def test_sweep_shares_stage_sweeps_across_strategies(self):
        planner = Planner()
        reports = planner.sweep(
            MIXED.replace(strategy=name) for name in list_strategies()
        )
        assert len(reports) == len(list_strategies())
        # One mixed profile, assembled from exactly 2 stages x 2 kinds
        # of per-stage sweeps -- shared by all six strategies.
        assert planner.stats["profile"] == 1
        assert planner.stats["stage_profile"] == 4

    def test_new_profile_key_reuses_same_gpu_stage_sweeps(self):
        planner = Planner()
        planner.build_stack("bert-large", gpu=("a100", "a40"), stages=2,
                            microbatches=3, freq_stride=24)
        assert planner.stats["profile"] == 1
        assert planner.stats["stage_profile"] == 4

    def test_clear_drops_stage_sweeps(self):
        planner = Planner()
        planner.plan(MIXED)
        planner.clear()
        planner.plan(MIXED)
        assert planner.stats["stage_profile"] == 8


class TestMixedClusterSweep:
    def test_cartesian_pool_expansion(self):
        specs = mixed_cluster_specs(SINGLE, ["a100", "a40"])
        assert len(specs) == 4  # 2 choices ** 2 stages
        assert {s.gpu for s in specs} == {
            ("a100", "a100"), ("a100", "a40"),
            ("a40", "a100"), ("a40", "a40"),
        }

    def test_per_stage_choice_lists(self):
        specs = mixed_cluster_specs(SINGLE, [["a100"], ["a100", "a40"]])
        assert [s.gpu for s in specs] == [
            ("a100", "a100"), ("a100", "a40")
        ]

    def test_wrong_choice_list_count_rejected(self):
        with pytest.raises(ConfigurationError):
            mixed_cluster_specs(SINGLE, [["a100"]] * 3)
        with pytest.raises(ConfigurationError):
            mixed_cluster_specs(SINGLE, [])

    def test_bare_string_pool_rejected(self):
        # A single name would otherwise expand character-by-character.
        with pytest.raises(ConfigurationError, match="single name"):
            mixed_cluster_specs(SINGLE, "a100")

    def test_bare_string_stage_entry_means_fixed_stage(self):
        specs = mixed_cluster_specs(SINGLE, ["a100", ["a100", "a40"]])
        assert [s.gpu for s in specs] == [
            ("a100", "a100"), ("a100", "a40")
        ]

    def test_sweep_rows_comparable_on_mixed_cluster(self):
        rows = sweep(
            (MIXED.replace(strategy=n) for n in list_strategies()),
            planner=Planner(),
        )
        base = {r.strategy: r for r in rows}["max-freq"]
        assert base.energy_savings_pct == pytest.approx(0.0)
        for r in rows:
            assert r.baseline_energy_j == pytest.approx(base.energy_j)
            assert r.to_dict()["gpu"] == "a100,a40"


class TestHeterogeneousStragglers:
    def test_slow_gpu_type_degree_from_spec(self):
        from repro.stragglers import SlowGPUType

        planner = Planner()
        scenario = SlowGPUType.from_spec(MIXED, planner=planner)
        # The all-A100 reference is faster than the mixed deployment, so
        # the anticipated degree exceeds 1 (it is the straggler T'/T).
        assert scenario.reference_gpu == "a100"
        assert scenario.degree > 1.0
        assert scenario.gpu_names == ("a100", "a40")

    def test_homogeneous_spec_yields_unit_degree(self):
        from repro.stragglers import SlowGPUType

        scenario = SlowGPUType.from_spec(SINGLE, planner=Planner())
        assert scenario.degree == 1.0


class TestHeterogeneousServer:
    def test_register_mixed_spec_characterizes(self):
        from repro.runtime.server import PerseusServer

        server = PerseusServer(planner=Planner())
        server.register_spec("job-mixed", MIXED, blocking=True)
        frontier = server.frontier_of("job-mixed")
        assert frontier.t_min <= frontier.t_star


class TestHeterogeneousCLI:
    def test_compare_runs_mixed_cluster(self, capsys):
        from repro.cli import main

        rc = main(["compare", "bert-large", "--gpu", "a100,a40",
                   "--stages", "2", "--microbatches", "3",
                   "--freq-stride", "24"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in list_strategies():
            assert name in out
        assert "a100,a40" in out

    def test_plan_prints_per_stage_mix(self, capsys):
        from repro.cli import main

        rc = main(["plan", "bert-large", "--gpu", "a100,a40",
                   "--stages", "2", "--microbatches", "3",
                   "--freq-stride", "24"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage0=A100-PCIe-80G" in out
        assert "stage1=A40-48G" in out

    def test_wrong_length_gpu_list_exits_2(self, capsys):
        from repro.cli import main

        rc = main(["plan", "bert-large", "--gpu", "a100,a40",
                   "--stages", "3", "--microbatches", "3",
                   "--freq-stride", "24"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_strategies_prints_descriptions(self, capsys):
        from repro.cli import main

        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        assert "Graph-cut frontier planner" in out
        for name in list_strategies():
            assert name in out
