"""Persistent plan store, pluggable cache backends, parallel sweeps.

Covers the guarantees the sweep service is built on: stable
content-addressed keys (v1/v2 spec payloads and homogeneous-tuple vs
single-name specs alias), cross-process reuse with zero re-profiling /
re-characterization and bit-identical frontiers, per-spec error
isolation, and parallel ``sweep(jobs>1)`` equivalence with serial.
"""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest
from reference.frontier_v2 import frontier_to_dict_v2
from reference.frontier_v3 import (frontier_to_dict_v3, frontier_to_dict_v4,
                                   repack, v3_lists)
from reference.keys import key_text
from reference.measurements_v1 import as_old_payload

from repro.api import PlanSpec, Planner, mixed_cluster_specs
from repro.core.serialization import (
    frontier_to_dict,
    payload_from_dict,
    profile_to_dict,
    schedule_to_dict,
)
from repro.api.planner import _sweep_store_worker
from repro.core.store import (
    CACHE_MAX_BYTES_ENV,
    MISS,
    MemoryCache,
    PlanStore,
    StoreError,
    stable_key,
)
from repro.exceptions import ConfigurationError
from repro.runtime.server import PerseusServer
from repro.service.wire import reports_equal
from repro.sim.executor import PipelineExecution

#: Tiny/fast planning request reused across the module.
SMALL = PlanSpec("bert-large", gpu="a100", stages=2, microbatches=3,
                 freq_stride=24)
MIXED = PlanSpec("bert-large", gpu=("a100", "a40"), stages=2,
                 microbatches=3, freq_stride=24)


def expensive_work(planner: Planner) -> dict:
    """The stats counters that must stay zero on a warm store."""
    return {k: planner.stats[k]
            for k in ("profile", "stage_profile", "tau", "frontier")}


class TestStableKey:
    def test_deterministic_and_distinct(self):
        a = stable_key(("bert-large", None, 2, "a100"))
        assert a == stable_key(("bert-large", None, 2, "a100"))
        assert a != stable_key(("bert-large", None, 4, "a100"))

    def test_float_exactness(self):
        assert stable_key(0.1 + 0.2) != stable_key(0.3)
        assert stable_key(1.0) != stable_key(1)

    def test_dataclass_content_not_name(self):
        import dataclasses

        from repro.gpu.specs import A100_PCIE

        derated = dataclasses.replace(A100_PCIE, tdp_w=250.0)
        assert stable_key(A100_PCIE) != stable_key(derated)
        assert stable_key(A100_PCIE) == stable_key(
            dataclasses.replace(A100_PCIE)
        )

    def test_unhashable_content_rejected(self):
        with pytest.raises(TypeError):
            stable_key(object())

    def test_short_lived_instances_never_alias(self):
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class Point:
            x: int

        def digest(i):
            return hashlib.sha256(json.dumps(
                ["Point", {"x": i}], separators=(",", ":")).encode()
            ).hexdigest()

        # Each instance dies right after hashing; CPython hands its id
        # to the next one, which must not inherit the memoized form.
        assert all(stable_key(Point(i)) == digest(i) for i in range(1000))

    def test_one_pass_text_matches_the_two_pass_oracle(self):
        from repro.core.store import _key_text

        rng = random.Random(20231206)
        shared = _Node(_Leaf(-0.0, "é"), _Box(1, [True, 2]), {1: None})
        for _ in range(2000):
            key = (_random_key(rng), shared, _random_key(rng))
            expected = key_text(key)
            assert _key_text(key) == expected
            assert _key_text(key) == expected  # through the memo
            assert stable_key(key) == hashlib.sha256(
                expected.encode("utf-8")).hexdigest()
        for value in ([object()], {1: "a", "b": 2}):
            with pytest.raises(TypeError):
                key_text(value)
            with pytest.raises(TypeError):
                stable_key(value)

    def test_a_model_key_adds_one_memo_entry(self):
        """Nested values (each block, the shared block work) are written
        once per key and never enter the process-wide memo, so one plan
        cannot clear it."""
        from repro.core import store
        from repro.models.registry import build_model

        model = build_model("t5-3b", None)
        works = {id(layer.forward) for layer in model.layers}
        assert len(works) < len(model.layers)  # blocks share their work
        store._MEMO.clear()
        key = ("model", model)
        assert stable_key(key) == hashlib.sha256(
            key_text(key).encode("utf-8")).hexdigest()
        assert list(store._MEMO) == [id(model)]

    def test_concurrent_hashing_through_memo_evictions(self):
        import dataclasses
        import threading

        from repro.core import store
        from repro.gpu.specs import A100_PCIE

        # More distinct frozen specs than the memo holds, so threads
        # hash while others clear it.
        specs = [dataclasses.replace(A100_PCIE, tdp_w=A100_PCIE.tdp_w + i)
                 for i in range(store._MEMO_SIZE + 50)]
        expected = [stable_key((spec, i)) for i, spec in enumerate(specs)]
        failures = []

        def worker(offset):
            for step in range(len(specs)):
                i = (offset * 37 + step) % len(specs)
                if stable_key((specs[i], i)) != expected[i]:
                    failures.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


@dataclasses.dataclass(frozen=True)
class _Leaf:
    x: float
    tag: str


@dataclasses.dataclass
class _Box:
    value: object
    items: list


@dataclasses.dataclass(frozen=True)
class _Node:
    left: object
    right: object
    table: dict


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1e-310,
                   float("inf"), float("-inf"), float("nan"), 0.1 + 0.2,
                   1e300, -1.5]
_STRINGS = ["", "a100", "é", "名前", "\u2028", "\x00\x1f", '"quoted"',
            "back\\slash", "\U0001f600", "tab\there", "True", "1"]


def _random_key(rng, depth=0):
    """A random cache key: scalars, containers and dataclasses."""
    kinds = ["none", "bool", "int", "float", "str"]
    if depth < 4:
        kinds += ["tuple", "list", "dict", "leaf", "box", "node"]
    kind = rng.choice(kinds)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.choice([0, 1, -1, 2 ** 70, -(2 ** 63), rng.randint(-9, 9)])
    if kind == "float":
        return rng.choice(_SPECIAL_FLOATS + [rng.uniform(-1e3, 1e3)])
    if kind == "str":
        return rng.choice(_STRINGS)
    size = rng.randint(0, 4)
    if kind in ("tuple", "list"):
        items = [_random_key(rng, depth + 1) for _ in range(size)]
        return tuple(items) if kind == "tuple" else items
    if kind == "dict":
        keys = rng.choice([
            lambda: rng.randint(-5, 5),                      # int keys
            lambda: rng.choice([True, False, 2, 3, -4]),     # bools by ints
            lambda: rng.choice(_STRINGS),
        ])
        return {keys(): _random_key(rng, depth + 1) for _ in range(size)}
    if kind == "leaf":
        return _Leaf(rng.choice(_SPECIAL_FLOATS), rng.choice(_STRINGS))
    if kind == "box":
        return _Box(_random_key(rng, depth + 1),
                    [_random_key(rng, depth + 1) for _ in range(size)])
    return _Node(_random_key(rng, depth + 1), _random_key(rng, depth + 1),
                 {rng.randint(0, 9): _random_key(rng, depth + 1)
                  for _ in range(size)})


class TestCacheKeyStability:
    """Satellite: equal specs must address identical store entries."""

    def test_old_version_payloads_hash_identically(self):
        payload_v3 = SMALL.to_dict()
        assert payload_v3["version"] == 3
        payload_v2 = dict(payload_v3, version=2)
        payload_v2.pop("exactness")  # v2 serializers never wrote it
        payload_v1 = dict(payload_v2, version=1)
        planner = Planner()
        keys_v3 = planner.cache_keys(PlanSpec.from_dict(payload_v3))
        keys_v2 = planner.cache_keys(PlanSpec.from_dict(payload_v2))
        keys_v1 = planner.cache_keys(PlanSpec.from_dict(payload_v1))
        assert keys_v1 == keys_v2 == keys_v3

    def test_homogeneous_tuple_matches_single_name(self):
        planner = Planner()
        single = planner.cache_keys(SMALL)
        tupled = planner.cache_keys(SMALL.replace(gpu=("a100", "a100")))
        aliased = planner.cache_keys(SMALL.replace(gpu="a100-pcie"))
        assert tupled == single
        assert aliased == single
        # and planning did not re-profile for the aliases
        assert planner.stats["profile"] == 1

    def test_mixed_tuple_gets_its_own_keys(self):
        planner = Planner()
        assert planner.cache_keys(MIXED) != planner.cache_keys(SMALL)

    def test_same_keys_across_planner_instances(self):
        assert Planner().cache_keys(SMALL) == Planner().cache_keys(SMALL)


class TestStoreAddressPins:
    """Store addresses recorded before the canonicalizer stopped using
    ``dataclasses.asdict``: a key that moves orphans every store."""

    DAG_4x8 = "a61cfc0f6797b1c6af8f81870d9420982b0e13ce705798012f2b75bddbf8fa3b"

    @pytest.mark.parametrize("spec, keys", [
        (PlanSpec("gpt3-xl", stages=4, microbatches=8), {
            "partition": "7136857892c85a7630a46229c521092d"
                         "265408f2c9c8c71b2b356ff8fdb20f17",
            "profile": "37196093174a2e66b8b2a848315c6cf9"
                       "cde1203a959e4aebd779b205eabf6b4e",
            "dag": DAG_4x8,
            "frontier": "a4b9fb9fd5095c2c7ced1486f062ef6d"
                        "8d8d50a69af89bb9275bdb5fc3e79710",
        }),
        (PlanSpec("gpt3-xl", stages=4, microbatches=8,
                  gpu=["a100", "h100", "a100", "h100"]), {
            "partition": "d9dee0b712167a3e2fccff9bfaedbd6c"
                         "69780bda9bb89e61a1455c9257cad48d",
            "profile": "f679fec9f6f31a902a36dc71093dad63"
                       "985a574e20929dbd9af429cd924e2937",
            "dag": DAG_4x8,
            "frontier": "17f3adb05364006d5c2a783716753f3e"
                        "30643950c296f25699a66c1285a87021",
        }),
        (PlanSpec("bert-large", stages=4, microbatches=6, freq_stride=8,
                  exactness="fast"), {
            "partition": "727bca6602147e7244577033b74e6e67"
                         "b4748a9d4fd7474e2077984b6679dabc",
            "profile": "951901f3149729de2e6bffd72a27ddb3"
                       "a834d837d8b89290d75955487bba0681",
            "dag": "bd0a0651ccfbeba3bf2507398e3d12f8"
                   "b87c643984c65a8868d1a1797290dd25",
            "frontier": "b17d3b5361d0bcee5499757decb14d2e"
                        "7c059415c3e78d73d5eff8190dbbf75b",
        }),
    ], ids=["gpt3-xl-pp4", "mixed-pp4", "fast"])
    def test_cache_keys_are_pinned(self, spec, keys):
        assert Planner().cache_keys(spec) == keys
        # A second planner re-canonicalizes fresh ModelSpec instances.
        assert Planner().cache_keys(spec) == keys

    def test_memo_does_not_outlive_a_mutated_mutable_dataclass(self):
        import dataclasses

        @dataclasses.dataclass
        class Box:
            value: float

        box = Box(1.0)
        before = stable_key(box)
        box.value = 2.0
        assert stable_key(box) != before
        assert stable_key(box) == stable_key(Box(2.0))

    def test_nested_dataclasses_hash_by_fields_only(self):
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class Inner:
            x: float

        @dataclasses.dataclass(frozen=True)
        class Outer:
            inner: Inner
            items: tuple
            table: dict

        value = Outer(Inner(0.5), (Inner(1.0), 2), {2: Inner(3.0), 1: None})
        expected = ["Outer", {"inner": {"x": (0.5).hex()},
                              "items": [{"x": (1.0).hex()}, 2],
                              "table": {"1": None, "2": {"x": (3.0).hex()}}}]
        digest = stable_key(value)
        assert digest == hashlib.sha256(json.dumps(
            expected, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert stable_key(value) == digest  # memoized form is the same


class TestMemoryCache:
    def test_miss_is_not_none(self):
        cache = MemoryCache()
        assert cache.get("ns", ("k",)) is MISS
        cache.put("ns", ("k",), None)
        assert cache.get("ns", ("k",)) is None


class TestPlanStore:
    def test_persists_across_instances(self, tmp_path):
        first = Planner(cache=tmp_path / "store")
        report = first.plan(SMALL)
        assert expensive_work(first) == {"profile": 1, "stage_profile": 0,
                                         "tau": 1, "frontier": 1}

        second = Planner(cache=tmp_path / "store")
        warm = second.plan(SMALL)
        assert expensive_work(second) == {"profile": 0, "stage_profile": 0,
                                          "tau": 0, "frontier": 0}
        assert warm.plan == report.plan
        assert warm.iteration_time_s == report.iteration_time_s
        assert warm.energy_j == report.energy_j

    def test_warm_frontier_is_bit_identical(self, tmp_path):
        cold = Planner(cache=tmp_path / "store")
        warm = Planner(cache=tmp_path / "store")
        a = frontier_to_dict(cold.frontier_for(SMALL))
        b = frontier_to_dict(warm.frontier_for(SMALL))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert warm.stats["frontier"] == 0
        assert warm.cache.counters["disk_hits"] > 0

    def test_warm_profile_is_bit_identical(self, tmp_path):
        cold = Planner(cache=tmp_path / "store")
        warm = Planner(cache=tmp_path / "store")
        a = profile_to_dict(cold.result(MIXED).profile)
        b = profile_to_dict(warm.result(MIXED).profile)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_mixed_specs_share_persisted_stage_sweeps(self, tmp_path):
        cold = Planner(cache=tmp_path / "store")
        cold.result(MIXED)
        assert cold.stats["stage_profile"] > 0

        warm = Planner(cache=tmp_path / "store")
        # A *different* mix over the same devices and partition slices
        # must warm-start entirely from the persisted per-stage sweeps.
        warm.result(MIXED)
        assert warm.stats["stage_profile"] == 0

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        root = tmp_path / "store"
        planner = Planner(cache=root)
        planner.plan(SMALL)
        for name in os.listdir(root / "profile"):
            (root / "profile" / name).write_text("{not json", "utf-8")
        recovered = Planner(cache=root)
        recovered.plan(SMALL)
        assert recovered.stats["profile"] == 1  # recomputed, no crash

    def test_corrupt_entry_is_repaired_not_recomputed_forever(self, tmp_path):
        root = tmp_path / "store"
        Planner(cache=root).plan(SMALL)
        for name in os.listdir(root / "profile"):
            (root / "profile" / name).write_text("{not json", "utf-8")
        Planner(cache=root).plan(SMALL)  # recomputes AND rewrites the file
        healed = Planner(cache=root)
        healed.plan(SMALL)
        assert healed.stats["profile"] == 0

    def test_layout_mismatch_raises(self, tmp_path):
        root = tmp_path / "store"
        PlanStore(root)
        (root / "store-format.json").write_text(
            json.dumps({"kind": "plan_store", "layout_version": 99}), "utf-8"
        )
        with pytest.raises(StoreError, match="layout"):
            PlanStore(root)

    def test_clear_keeps_disk(self, tmp_path):
        planner = Planner(cache=tmp_path / "store")
        planner.plan(SMALL)
        planner.clear()
        planner.plan(SMALL)
        assert planner.stats["profile"] == 1  # second pass hit the disk

    @staticmethod
    def _count_hashes(monkeypatch) -> list:
        import repro.api.planner as planner_module
        import repro.core.store as store_module

        hashed = []
        for module in (planner_module, store_module):
            monkeypatch.setattr(
                module, "stable_key",
                lambda key, hash_=module.stable_key:
                    hashed.append(key) or hash_(key))
        return hashed

    def test_warm_plan_hashes_each_key_once(self, tmp_path, monkeypatch):
        Planner(cache=tmp_path / "store").plan(SMALL)
        hashed = self._count_hashes(monkeypatch)
        planner = Planner(cache=tmp_path / "store")
        report = planner.plan(SMALL)
        # One hash per distinct key: store paths and provenance digests
        # share the backend's memo (the optimizer and frontier stages
        # share a key).
        assert len(hashed) == len(set(report.provenance["digests"].values()))
        for namespace, path in report.provenance["paths"].items():
            assert path == os.path.join(
                str(tmp_path / "store"), namespace,
                report.provenance["digests"][namespace] + ".json")
            assert os.path.exists(path)
        hashed.clear()
        planner.plan(SMALL)
        assert hashed == []  # a warm in-memory plan hashes nothing

    def test_fresh_planner_on_warm_store_hashes_six_keys(self, tmp_path,
                                                         monkeypatch):
        spec = PlanSpec("gpt3-xl", stages=4, microbatches=8, freq_stride=4)
        Planner(cache=tmp_path / "store").plan(spec)
        hashed = self._count_hashes(monkeypatch)
        planner = Planner(cache=tmp_path / "store")
        planner.plan(spec)
        # model, partition, profile, dag, tau and frontier: one each.
        assert len(hashed) == 6
        assert planner.stats["frontier"] == 0
        hashed.clear()
        planner.plan(spec)
        assert hashed == []

    def test_warm_plan_builds_one_stored_point(self, tmp_path, monkeypatch):
        import repro.core.serialization as serialization

        spec = PlanSpec("gpt3-xl", stages=4, microbatches=8, freq_stride=4)
        Planner(cache=tmp_path / "store").plan(spec)
        built = []

        class Counted(serialization.EnergySchedule):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.iteration_time)

        monkeypatch.setattr(serialization, "EnergySchedule", Counted)
        planner = Planner(cache=tmp_path / "store")
        planner.plan(spec, straggler_time=None)
        frontier = planner.frontier_for(spec)
        assert planner.stats["frontier"] == 0
        # The T_min point only, and no list of every point.
        assert built == [frontier.t_min]
        assert "points" not in vars(frontier)

    def test_cache_argument_forms(self, tmp_path):
        assert isinstance(Planner().cache, MemoryCache)
        assert isinstance(Planner(cache=str(tmp_path / "s")).cache, PlanStore)
        shared = PlanStore(tmp_path / "s2")
        assert Planner(cache=shared).cache is shared
        with pytest.raises(TypeError):
            Planner(cache=42)


class TestWarmPathMemo:
    """What a warm plan reuses instead of recomputing."""

    SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

    def _python(self, code: str, hash_seed: str, *args) -> None:
        subprocess.run(
            [sys.executable, "-c", code] + list(args),
            env=dict(os.environ, PYTHONHASHSEED=hash_seed,
                     PYTHONPATH=self.SRC),
            check=True, capture_output=True, text=True)

    def test_model_hash_does_not_survive_pickling(self, tmp_path):
        # The cached hash of a string-keyed value is per process; a
        # sweep worker unpickling a model must rehash it.
        path = str(tmp_path / "model.pickle")
        self._python(
            "import pickle, sys\n"
            "from repro.models.registry import build_model\n"
            "model = build_model('bert-large', None)\n"
            "hash(model)\n"
            "with open(sys.argv[1], 'wb') as fp:\n"
            "    pickle.dump(model, fp)\n", "0", path)
        self._python(
            "import pickle, sys\n"
            "from repro.models.registry import build_model\n"
            "with open(sys.argv[1], 'rb') as fp:\n"
            "    loaded = pickle.load(fp)\n"
            "fresh = build_model('bert-large', None)\n"
            "assert loaded in {fresh: 1}\n"
            "assert fresh in {loaded: 1}\n", "1", path)

    def test_memoized_energy_is_eq3_bit_for_bit(self):
        def blocking(execution):
            return execution.price().blocking_until(execution.iteration_time)

        planner = Planner()
        for report in (planner.plan(SMALL), planner.plan(SMALL)):
            execution = report.execution
            assert report.energy_j == (execution.compute_energy()
                                       + blocking(execution))
            baseline = planner.baseline_execution(SMALL)
            assert report.baseline_energy_j == (
                baseline.compute_energy() + blocking(baseline))

    def test_warm_plan_sums_no_energy(self, monkeypatch):
        from repro.sim.executor import PipelineExecution

        planner = Planner()
        cold = planner.plan(SMALL)
        sums = []
        energy_at = PipelineExecution.energy_at
        monkeypatch.setattr(
            PipelineExecution, "energy_at",
            lambda self, *a: sums.append(self) or energy_at(self, *a))
        warm = planner.plan(SMALL)
        assert sums == []
        assert reports_equal(warm, cold)


def scalar_bits(report) -> tuple:
    return tuple(value.hex() for value in (
        report.iteration_time_s, report.energy_j, report.baseline_time_s,
        report.baseline_energy_j))


#: The frontier payloads older builds wrote, by version.
OLD_FRONTIERS = {
    1: lambda frontier: {
        "version": 1, "kind": "frontier", "tau": frontier.tau,
        "optimizer_runtime_s": frontier.optimizer_runtime_s,
        "steps": frontier.steps, "stats": frontier.stats,
        "points": [schedule_to_dict(p) for p in frontier.points]},
    2: frontier_to_dict_v2,
    3: frontier_to_dict_v3,
    4: frontier_to_dict_v4,
}


class TestWarmBaseline:
    """A warm plan prices the all-max baseline from the tau record."""

    SPECS = [SMALL, SMALL.replace(strategy="envpipe"),
             SMALL.replace(strategy="zeus-global"), MIXED]

    @staticmethod
    def _count(monkeypatch, name):
        import repro.api.planner as planner_module

        calls = []
        original = getattr(planner_module, name)
        monkeypatch.setattr(planner_module, name,
                            lambda *a: calls.append(a) or original(*a))
        return calls

    def test_warm_perseus_plan_simulates_only_its_plan(self, tmp_path,
                                                       monkeypatch):
        cold = Planner(cache=tmp_path / "store")
        reference = cold.plan(SMALL)
        assert cold.stats["baseline"] == 1
        simulated = self._count(monkeypatch, "execute_frequency_plan")
        all_max = self._count(monkeypatch, "max_frequency_plan")
        warm = Planner(cache=tmp_path / "store")
        report = warm.plan(SMALL)
        assert len(simulated) == 1 and all_max == []
        assert warm.stats["baseline"] == 0
        assert scalar_bits(report) == scalar_bits(reference)
        assert report.plan == reference.plan

    @pytest.mark.parametrize("straggler", [None, 1.3])
    def test_warm_scalars_are_hex_identical(self, tmp_path, straggler):
        cold = Planner(cache=tmp_path / "store")
        reports = []
        for spec in self.SPECS:
            t_prime = (None if straggler is None else straggler
                       * cold.baseline_execution(spec).iteration_time)
            reports.append((spec, t_prime, cold.plan(spec, t_prime)))
        warm = Planner(cache=tmp_path / "store")
        for spec, t_prime, reference in reports:
            assert scalar_bits(warm.plan(spec, t_prime)) == \
                scalar_bits(reference)
        assert warm.stats["baseline"] == 0

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_older_files_are_rewritten(self, tmp_path, version):
        root = tmp_path / "store"
        filler = Planner(cache=root)
        cold = {spec: filler.plan(spec) for spec in self.SPECS}
        # The store as an older build left it: version-1 to -4
        # frontiers, tau records that carry the value alone, and
        # profiles and stage sweeps with measurement rows.
        frontiers = os.listdir(root / "frontier")
        taus = os.listdir(root / "tau")
        profiles = os.listdir(root / "profile")
        sweeps = os.listdir(root / "stage_sweep")
        assert len(profiles) == 2 and sweeps
        for namespace, names in (("profile", profiles),
                                 ("stage_sweep", sweeps)):
            for name in names:
                path = root / namespace / name
                path.write_text(json.dumps(as_old_payload(
                    json.loads(path.read_text("utf-8")))), "utf-8")
        for name in frontiers:
            path = root / "frontier" / name
            frontier = payload_from_dict(json.loads(path.read_text("utf-8")))
            path.write_text(json.dumps(OLD_FRONTIERS[version](frontier)),
                            "utf-8")
        for name in taus:
            path = root / "tau" / name
            payload = json.loads(path.read_text("utf-8"))
            path.write_text(json.dumps(
                {"version": 1, "kind": "tau", "value": payload["value"]}),
                "utf-8")
        old = Planner(cache=root)
        for spec in self.SPECS:
            report = old.plan(spec)
            assert scalar_bits(report) == scalar_bits(cold[spec])
            assert report.plan == cold[spec].plan
        # Each older file is a miss, recomputed and rewritten in place
        # at the current version.
        assert (old.stats["frontier"], old.stats["tau"],
                old.stats["profile"], old.stats["stage_profile"]) == \
            (len(frontiers), len(taus), len(profiles), len(sweeps))
        assert old.cache.counters["disk_misses"] >= len(frontiers) + len(
            taus) + len(profiles) + len(sweeps)
        assert sorted(os.listdir(root / "frontier")) == sorted(frontiers)
        assert sorted(os.listdir(root / "tau")) == sorted(taus)
        assert sorted(os.listdir(root / "profile")) == sorted(profiles)
        assert sorted(os.listdir(root / "stage_sweep")) == sorted(sweeps)
        for namespace, current in (("frontier", 5), ("tau", 2),
                                   ("profile", 3), ("stage_sweep", 2)):
            for name in os.listdir(root / namespace):
                payload = json.loads(
                    (root / namespace / name).read_text("utf-8"))
                assert payload["version"] == current
        warm = Planner(cache=root)
        for spec in self.SPECS:
            assert scalar_bits(warm.plan(spec)) == scalar_bits(cold[spec])
        assert expensive_work(warm) == dict.fromkeys(expensive_work(warm), 0)
        assert warm.stats["baseline"] == 0

    def test_explicit_tau_simulates_the_baseline(self, tmp_path):
        spec = SMALL.replace(tau=0.002)
        reference = Planner(cache=tmp_path / "store").plan(spec)
        warm = Planner(cache=tmp_path / "store")
        assert scalar_bits(warm.plan(spec)) == scalar_bits(reference)
        assert warm.stats["baseline"] == 1

    def test_baseline_execution_is_still_simulated(self, tmp_path):
        Planner(cache=tmp_path / "store").plan(SMALL)
        warm = Planner(cache=tmp_path / "store")
        report = warm.plan(SMALL)
        baseline = warm.baseline_execution(SMALL)
        assert isinstance(baseline, PipelineExecution)
        assert warm.stats["baseline"] == 1
        assert baseline.iteration_time == report.baseline_time_s
        assert baseline.energy_at().hex() == report.baseline_energy_j.hex()


class TestMalformedEntries:
    """A store file of the right kind but the wrong shape is a miss."""

    STAT = {"partition": "partition", "profile": "profile", "tau": "tau",
            "frontier": "frontier", "stage_sweep": "stage_profile"}

    def _corrupt_and_replan(self, root, spec, namespace, rewrite):
        cold = Planner(cache=root)
        report = cold.plan(spec)
        names = os.listdir(root / namespace)
        assert names
        for name in names:
            path = root / namespace / name
            path.write_text(rewrite(json.loads(path.read_text("utf-8"))),
                            "utf-8")
        if namespace == "stage_sweep":
            # Sweeps are read only to compose a profile the store lacks.
            for name in os.listdir(root / "profile"):
                os.unlink(root / "profile" / name)
        recovered = Planner(cache=root)
        assert reports_equal(recovered.plan(spec), report)
        assert recovered.stats[self.STAT[namespace]] >= 1
        assert recovered.cache.counters["disk_misses"] >= len(names)
        healed = Planner(cache=root)
        healed.plan(spec)
        assert healed.stats[self.STAT[namespace]] == 0

    @pytest.mark.parametrize("namespace", sorted(STAT))
    def test_missing_field_is_a_miss(self, tmp_path, namespace):
        def drop_field(payload):
            field = next(k for k in payload
                         if k not in ("kind", "version", "steps", "stats",
                                      "optimizer_runtime_s"))
            del payload[field]
            return json.dumps(payload)

        spec = MIXED if namespace == "stage_sweep" else SMALL
        self._corrupt_and_replan(tmp_path / "store", spec, namespace,
                                 drop_field)

    def test_kind_and_version_only_is_a_miss(self, tmp_path):
        self._corrupt_and_replan(
            tmp_path / "store", SMALL, "partition",
            lambda _: json.dumps({"kind": "partition", "version": 1}))

    def test_profile_failing_validation_is_a_miss(self, tmp_path):
        self._corrupt_and_replan(
            tmp_path / "store", SMALL, "profile",
            lambda payload: json.dumps(dict(payload, p_blocking_w=0.0)))

    def test_deeply_nested_file_is_a_miss(self, tmp_path):
        self._corrupt_and_replan(tmp_path / "store", SMALL, "frontier",
                                 lambda _: "[" * 100_000)

    # The hostile-file tests keep the names and case ids of the
    # version-2 and version-3 layouts their faults were first written
    # for; each corrupts a version-5 file, through the version-3 lists
    # it packs or (a string where a number belongs) its packed text.

    @staticmethod
    def _rewrite(corrupt):
        def rewrite(payload):
            assert v3_lists(payload)["delta_index"]
            corrupt(payload)
            return json.dumps(payload)
        return rewrite

    @pytest.mark.parametrize("corrupt", [
        repack(lambda p: p["delta_index"].__setitem__(-1, 10 ** 6)),
        lambda p: p.__setitem__("delta_duration", "x"),
        repack(lambda p: p["delta_frequency"].pop()),
        repack(lambda p: p["effective_energy"].append(1.0)),
    ], ids=["delta-index-out-of-range", "delta-string-duration",
            "short-last-delta", "column-lengths-differ"])
    def test_hostile_v2_frontier_is_a_miss(self, tmp_path, corrupt):
        self._corrupt_and_replan(tmp_path / "store", MIXED, "frontier",
                                 self._rewrite(corrupt))

    @pytest.mark.parametrize("corrupt", [
        repack(lambda p: p["delta_index"].__setitem__(-1, 10 ** 6)),
        lambda p: p.__setitem__("delta_duration",
                                p["delta_duration"][:-4] + "*!*="),
        repack(lambda p: p["delta_frequency"].pop()),
        repack(lambda p: p["effective_energy"].append(1.0)),
        repack(lambda p: p["delta_offsets"].__setitem__(1, 1)),
    ], ids=["delta-index-out-of-range", "delta-string-duration",
            "short-clock-column", "column-lengths-differ",
            "full-row-with-deltas"])
    def test_hostile_v3_frontier_is_a_miss(self, tmp_path, corrupt):
        self._corrupt_and_replan(tmp_path / "store", SMALL, "frontier",
                                 self._rewrite(corrupt))


class TestSweepErrorIsolation:
    """Satellite: one bad spec must not abort a batch."""

    def test_bad_spec_reports_instead_of_raising(self):
        planner = Planner()
        rows = planner.sweep([
            SMALL,
            SMALL.replace(strategy="not-a-strategy"),
            SMALL.replace(model="not-a-model"),
            SMALL.replace(strategy="envpipe"),
        ])
        assert [r.ok for r in rows] == [True, False, False, True]
        assert "not-a-strategy" in rows[1].error
        assert "not-a-model" in rows[2].error
        assert rows[1].iteration_time_s != rows[1].iteration_time_s  # NaN
        assert rows[1].to_dict()["error"] == rows[1].error

    def test_error_rows_serialize_to_strict_json(self):
        rows = Planner().sweep([SMALL.replace(strategy="not-a-strategy")])

        def reject(_):
            raise ValueError("non-finite constant in payload")

        payload = json.dumps([r.to_dict() for r in rows])
        parsed = json.loads(payload, parse_constant=reject)  # no NaN/Inf
        assert parsed[0]["iteration_time_s"] is None
        assert parsed[0]["error"]

    def test_errors_raise_restores_fail_fast(self):
        with pytest.raises(ConfigurationError):
            Planner().sweep([SMALL.replace(model="not-a-model")],
                            errors="raise")

    def test_bad_errors_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            Planner().sweep([SMALL], errors="ignore")


class TestParallelSweep:
    SPECS = [SMALL.replace(strategy=s)
             for s in ("perseus", "envpipe", "max-freq", "min-energy")]
    SPECS += [SMALL.replace(microbatches=4), MIXED,
              SMALL.replace(strategy="broken")]

    def test_parallel_rows_match_serial(self):
        serial = Planner().sweep(self.SPECS)
        parallel = Planner().sweep(self.SPECS, jobs=3)
        # error rows carry NaN scalars (NaN != NaN), so compare them by
        # their error text and everything else by full row equality
        assert [r.ok for r in parallel] == [r.ok for r in serial]
        assert [r.error for r in parallel] == [r.error for r in serial]
        assert [r for r in parallel if r.ok] == [r for r in serial if r.ok]

    def test_parallel_merges_back_into_shared_cache(self):
        planner = Planner()
        planner.sweep(self.SPECS, jobs=2)
        merged_profiles = planner.stats["profile"]
        planner.plan(SMALL)  # must be served from the merged cache
        assert planner.stats["profile"] == merged_profiles

    def test_jobs_one_is_serial(self):
        planner = Planner()
        assert planner.sweep([SMALL], jobs=1)[0].ok

    def test_post_sweep_characterization_records_in_parent(self):
        # Frontier-free strategies leave the optimizer lazy; a later
        # characterization must land in *this* planner's backend and
        # stats.
        planner = Planner()
        planner.sweep([SMALL.replace(strategy="max-freq"),
                       SMALL.replace(strategy="min-energy")], jobs=2)
        assert planner.stats["frontier"] == 0
        planner.frontier_for(SMALL)
        assert planner.stats["frontier"] == 1
        planner.frontier_for(SMALL)  # served from the backend
        assert planner.stats["frontier"] == 1

    def test_parallel_with_shared_store(self, tmp_path):
        Planner(cache=tmp_path / "store").sweep(self.SPECS[:4], jobs=2)
        warm = Planner(cache=tmp_path / "store")
        warm.sweep(self.SPECS[:4], jobs=2)
        assert expensive_work(warm) == {"profile": 0, "stage_profile": 0,
                                        "tau": 0, "frontier": 0}


class TestMixedClusterSpecsValidation:
    """Satellite: GPU names are validated eagerly, with helpful errors."""

    def test_unknown_pool_name_fails_fast(self):
        with pytest.raises(ConfigurationError) as err:
            mixed_cluster_specs(SMALL, ["a100", "a41"])
        assert "a41" in str(err.value)
        assert "known" in str(err.value)  # lists the registry

    def test_unknown_per_stage_name_reports_stage(self):
        with pytest.raises(ConfigurationError, match="stage 1"):
            mixed_cluster_specs(SMALL, [["a100"], ["h1000"]])

    def test_valid_pool_still_expands(self):
        specs = mixed_cluster_specs(SMALL, ["a100", "a40"])
        assert len(specs) == 4  # 2 choices ** 2 stages


class TestServerSweep:
    def test_submit_sweep_registers_and_serves_rows(self, tmp_path):
        deployed = []
        planner = Planner(cache=tmp_path / "store")
        server = PerseusServer(deploy_callback=lambda j, p: deployed.append(j),
                               planner=planner)
        specs = [SMALL, SMALL.replace(strategy="envpipe"),
                 SMALL.replace(model="not-a-model")]
        rows = server.submit_sweep(specs, prefix="batch")
        assert list(rows) == ["batch-0", "batch-1", "batch-2"]
        assert [r.ok for r in rows.values()] == [True, True, False]
        # only the healthy Perseus spec is deployable
        assert deployed == ["batch-0"]
        assert server.frontier_of("batch-0").t_min > 0
        assert server.report_of("batch-2").error is not None
        assert server.sweep_reports() == rows
        # the whole batch characterized exactly one frontier
        assert planner.stats["frontier"] == 1

    def test_submit_sweep_reuses_cached_frontiers(self, tmp_path):
        Planner(cache=tmp_path / "store").frontier_for(SMALL)
        planner = Planner(cache=tmp_path / "store")
        server = PerseusServer(planner=planner)
        server.submit_sweep([SMALL])
        assert planner.stats["frontier"] == 0  # adopted, not re-crawled

    def test_duplicate_prefix_rejected(self):
        from repro.exceptions import ServerError

        server = PerseusServer()
        server.submit_sweep([SMALL])
        with pytest.raises(ServerError, match="prefix"):
            server.submit_sweep([SMALL])

    def test_register_spec_adopts_planner_frontier(self, tmp_path):
        planner = Planner(cache=tmp_path / "store")
        planner.frontier_for(SMALL)
        warm = Planner(cache=tmp_path / "store")
        server = PerseusServer(planner=warm)
        server.register_spec("job", SMALL, blocking=True)
        assert warm.stats["frontier"] == 0
        assert server.frontier_of("job").t_min > 0


class TestTwoProcessDemo:
    """Acceptance: a second *process* reuses everything bit-for-bit."""

    CMD = ["sweep", "bert-large", "--stages", "2", "--microbatches", "3",
           "--freq-stride", "24", "--strategies", "perseus,envpipe"]

    def _run(self, cache_dir, extra=()):
        return subprocess.run(
            [sys.executable, "-m", "repro"] + self.CMD
            + ["--cache-dir", str(cache_dir)] + list(extra),
            capture_output=True, text=True,
            env=dict(os.environ,
                     PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                             os.pardir, "src")),
            check=True,
        )

    def test_second_process_does_zero_expensive_work(self, tmp_path):
        store = tmp_path / "store"
        first = self._run(store, ["--format", "json",
                                  "-o", str(tmp_path / "a.json")])
        assert "profiles=1" in first.stdout
        second = self._run(store, ["--format", "json",
                                   "-o", str(tmp_path / "b.json")])
        assert "profiles=0 stage_sweeps=0 taus=0 frontiers=0" in second.stdout
        a = json.loads((tmp_path / "a.json").read_text("utf-8"))
        b = json.loads((tmp_path / "b.json").read_text("utf-8"))
        assert a == b  # bit-identical rows across processes


class TestProcessSweep:
    """jobs>1 + PlanStore = multi-process sweep (workers publish via the
    store, the parent adopts)."""

    # An unknown model cannot resolve its stack key: it is a sweep
    # group of its own and errors inside its worker.
    SPECS = [SMALL.replace(strategy=s)
             for s in ("perseus", "max-freq", "broken")]
    SPECS += [SMALL.replace(model="no-such-model")]

    def test_process_rows_match_serial(self, tmp_path):
        serial = Planner().sweep(self.SPECS)
        store_planner = Planner(cache=tmp_path / "store")
        assert isinstance(store_planner.cache, PlanStore)
        rows = store_planner.sweep(self.SPECS, jobs=2)
        assert [r.ok for r in rows] == [r.ok for r in serial]
        assert [r.error for r in rows] == [r.error for r in serial]
        for ours, ref in zip(rows, serial):
            if ours.ok:
                assert ours.iteration_time_s == ref.iteration_time_s
                assert ours.energy_j == ref.energy_j
                assert ours.plan == ref.plan

    def test_worker_work_is_accounted_and_persisted(self, tmp_path):
        planner = Planner(cache=tmp_path / "store")
        planner.sweep(self.SPECS, jobs=2)
        # The expensive work happened (in the workers) exactly once ...
        assert planner.stats["profile"] == 1
        assert planner.stats["frontier"] == 1
        # ... and landed on disk, so a fresh planner warm-starts.
        warm = Planner(cache=tmp_path / "store")
        warm.sweep(self.SPECS, jobs=2)
        assert expensive_work(warm) == {"profile": 0, "stage_profile": 0,
                                        "tau": 0, "frontier": 0}


class TestEviction:
    def _fill(self, root):
        """A store with real artifacts on disk."""
        planner = Planner(cache=root)
        planner.frontier_for(SMALL)
        store = planner.cache
        assert store.disk_bytes() > 0
        return store

    def test_gc_prunes_lru_by_mtime_down_to_cap(self, tmp_path):
        store = self._fill(tmp_path / "store")
        entries = store._disk_entries()
        assert len(entries) >= 3
        # Age two entries far into the past; they must be pruned first.
        paths = sorted(path for _, _, path in entries)
        old = paths[:2]
        for i, path in enumerate(old):
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        total = store.disk_bytes()
        old_bytes = sum(os.path.getsize(p) for p in old)
        result = store.gc(total - old_bytes)
        assert result["removed"] == 2
        assert result["freed_bytes"] == old_bytes
        assert not any(os.path.exists(p) for p in old)

    def test_gc_zero_clears_everything(self, tmp_path):
        store = self._fill(tmp_path / "store")
        result = store.gc(0)
        assert result["kept_bytes"] == 0
        assert store.disk_bytes() == 0
        # the layout stamp survives: the directory is still a valid store
        assert os.path.exists(os.path.join(store.root, "store-format.json"))

    def test_max_bytes_cap_prunes_on_write(self, tmp_path):
        store = self._fill(tmp_path / "uncapped")
        footprint = store.disk_bytes()
        capped = Planner(cache=PlanStore(tmp_path / "capped",
                                         max_bytes=footprint // 2))
        capped.frontier_for(SMALL)
        assert capped.cache.disk_bytes() <= footprint // 2

    def test_gc_without_cap_is_an_error(self, tmp_path):
        store = PlanStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.gc()
        with pytest.raises(StoreError):
            store.gc(-1)

    def test_disk_hits_refresh_recency(self, tmp_path):
        store = self._fill(tmp_path / "store")
        entries = sorted(store._disk_entries())
        _, _, oldest = entries[0]
        os.utime(oldest, (1, 1))
        fresh = PlanStore(store.root)  # cold memory tier, hits disk
        planner = Planner(cache=fresh)
        planner.frontier_for(SMALL)
        newest_mtime = os.path.getmtime(oldest)
        assert newest_mtime > 1  # the read refreshed the file's recency

    def test_sweep_workers_carry_no_cap(self, tmp_path, monkeypatch):
        # Worker processes inherit the cap's env var; honouring it would
        # let them prune entries the parent is about to read.  Only the
        # owning store garbage collects.
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "1")
        root = str(tmp_path / "store")
        _sweep_store_worker(root, [SMALL.to_dict()])
        assert PlanStore(root).entries("frontier")  # nothing pruned


class TestParseSize:
    def test_suffixes(self):
        from repro.core.store import parse_size

        assert parse_size("1024") == 1024
        assert parse_size("2K") == 2048
        assert parse_size("1.5M") == int(1.5 * 1024 ** 2)
        assert parse_size("1G") == 1024 ** 3
        assert parse_size("200MB") == 200 * 1024 ** 2
        assert parse_size(42) == 42

    def test_rejects_garbage(self):
        from repro.core.store import parse_size

        with pytest.raises(StoreError):
            parse_size("lots")
        with pytest.raises(StoreError):
            parse_size("-1M")


class TestStoreGcLocking:
    """Regression: ``gc`` vs a concurrent writer / second gc.

    Before the store-level lockfile, an eviction scan could unlink a
    file whose ``os.replace`` was mid-flight in another process, and
    two concurrent gcs raced one mtime ordering.  ``put`` now holds the
    shared :func:`repro.core.store.store_lock` while ``gc`` holds it
    exclusive -- proven here with real second processes.
    """

    HOLD_SHARED = (
        "import sys, time\n"
        "from repro.core.store import store_lock\n"
        "with store_lock(sys.argv[1], exclusive=False):\n"
        "    print('HELD', flush=True)\n"
        "    time.sleep(float(sys.argv[2]))\n"
        "print('RELEASED', flush=True)\n"
    )

    GC_ONCE = (
        "import json, sys\n"
        "from repro.core.store import PlanStore\n"
        "print(json.dumps(PlanStore(sys.argv[1]).gc(0)), flush=True)\n"
    )

    def _fill(self, root):
        planner = Planner(cache=root)
        planner.frontier_for(SMALL)
        store = planner.cache
        assert store.disk_bytes() > 0
        return store

    def _spawn(self, code, *args):
        return subprocess.Popen(
            [sys.executable, "-c", code, *map(str, args)],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ,
                     PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                             os.pardir, "src")),
        )

    def test_gc_blocks_while_a_writer_holds_the_store(self, tmp_path):
        import time

        store = self._fill(tmp_path / "store")
        writer = self._spawn(self.HOLD_SHARED, store.root, 1.0)
        try:
            assert writer.stdout.readline().strip() == "HELD"
            started = time.monotonic()
            result = store.gc(0)
            elapsed = time.monotonic() - started
        finally:
            writer.wait(timeout=30.0)
        # gc could not start until the writer's shared lock was
        # released -- the unlink scan can never interleave with a put.
        assert elapsed >= 0.8
        assert result["kept_bytes"] == 0
        assert store.disk_bytes() == 0

    def test_two_process_gcs_never_double_prune(self, tmp_path):
        store = self._fill(tmp_path / "store")
        n_entries = len(store._disk_entries())
        assert n_entries >= 3
        other = self._spawn(self.GC_ONCE, store.root)
        try:
            mine = store.gc(0)
            theirs = json.loads(other.stdout.readline())
        finally:
            other.wait(timeout=60.0)
        # Exclusive locking serializes the two scans: every entry is
        # unlinked (and counted) exactly once between the two processes.
        assert mine["removed"] + theirs["removed"] == n_entries
        assert store.disk_bytes() == 0
        # and the store is still a valid, usable root afterwards
        recovered = Planner(cache=store.root)
        recovered.plan(SMALL)
        assert recovered.stats["profile"] == 1


class TestCacheGcCli:
    def test_gc_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        planner = Planner(cache=tmp_path / "store")
        planner.frontier_for(SMALL)
        assert main(["cache", "gc", "--cache-dir", str(tmp_path / "store"),
                     "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out
        assert planner.cache.disk_bytes() == 0

    def test_gc_needs_a_store(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "gc", "--max-bytes", "1M"]) == 2
        assert "cache gc needs a store" in capsys.readouterr().err


class TestCrashDurability:
    """``_atomic_write`` fsync discipline and torn-write recovery.

    A crash between ``os.replace`` reaching disk and the payload data
    doing so leaves a zero-length (or truncated) file under the final
    name.  The store must treat any such payload exactly like the
    garbage-bytes case above: a recorded miss that heals on rewrite,
    never a crash at read time.
    """

    def test_truncated_payload_is_a_miss_and_heals(self, tmp_path):
        root = tmp_path / "store"
        Planner(cache=root).plan(SMALL)
        for name in os.listdir(root / "frontier"):
            (root / "frontier" / name).write_text("", "utf-8")
        recovered = Planner(cache=root)
        recovered.plan(SMALL)
        assert recovered.stats["frontier"] == 1  # recomputed, no crash
        healed = Planner(cache=root)  # the recompute rewrote the file
        healed.plan(SMALL)
        assert healed.stats["frontier"] == 0

    def test_half_written_payload_is_a_miss(self, tmp_path):
        root = tmp_path / "store"
        Planner(cache=root).plan(SMALL)
        for name in os.listdir(root / "frontier"):
            path = root / "frontier" / name
            text = path.read_text("utf-8")
            path.write_text(text[: len(text) // 2], "utf-8")
        recovered = Planner(cache=root)
        recovered.plan(SMALL)
        assert recovered.stats["frontier"] == 1

    def test_fsyncs_file_and_directory_by_default(self, tmp_path,
                                                  monkeypatch):
        store = PlanStore(tmp_path / "store")  # init writes its format file
        real_fsync = os.fsync
        fds = []

        def counting(fd):
            fds.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        path = tmp_path / "store" / "frontier" / "x.json"
        store._atomic_write(str(path), "{}")
        assert len(fds) == 2  # the temp file, then the parent dir
        assert path.read_text("utf-8") == "{}"

    def test_interrupted_write_keeps_old_value_and_no_temp(self, tmp_path,
                                                           monkeypatch):
        store = PlanStore(tmp_path / "store")
        path = tmp_path / "store" / "frontier" / "x.json"
        store._atomic_write(str(path), '{"old": true}')

        def torn(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", torn)
        with pytest.raises(OSError, match="simulated crash"):
            store._atomic_write(str(path), '{"new": true}')
        monkeypatch.undo()
        assert json.loads(path.read_text("utf-8")) == {"old": True}
        leftovers = [n for n in os.listdir(path.parent)
                     if n.endswith(".tmp")]
        assert leftovers == []
