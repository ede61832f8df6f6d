"""Serialization round-trips and the CLI."""

import io
import json
import random
import struct
import sys
import threading
from dataclasses import replace

import pytest
from reference.frontier_v2 import frontier_to_dict_v2
from reference.frontier_v3 import (COLUMNS, frontier_to_dict_v3,
                                   frontier_to_dict_v4, pack, repack,
                                   unpack, v3_lists)
from reference.measurements_v1 import as_old_payload

from repro.api import PlanSpec, Planner
from repro.cli import main
from repro.core import serialization
from repro.core.frontier import Frontier
from repro.core.schedule import EnergySchedule
from repro.exceptions import ProfilingError, ReproError
from repro.core.serialization import (
    FRONTIER_FORMAT_VERSION,
    SerializationError,
    TauRecord,
    frontier_from_dict,
    frontier_to_dict,
    load_json,
    payload_from_dict,
    payload_to_dict,
    profile_from_dict,
    profile_to_dict,
    save_json,
    schedule_to_dict,
)
from repro.sim.executor import execute_frequency_plan, max_frequency_plan


class TestProfileRoundTrip:
    def test_round_trip_preserves_measurements(self, small_profile):
        payload = profile_to_dict(small_profile)
        restored = profile_from_dict(json.loads(json.dumps(payload)))
        assert restored.p_blocking_w == small_profile.p_blocking_w
        assert set(restored.ops) == set(small_profile.ops)
        for op in small_profile.ops:
            assert restored.ops[op].measurements == small_profile.ops[op].measurements

    def test_kind_checked(self, small_profile):
        payload = profile_to_dict(small_profile)
        payload["kind"] = "frontier"
        with pytest.raises(SerializationError):
            profile_from_dict(payload)

    def test_version_checked(self, small_profile):
        payload = profile_to_dict(small_profile)
        payload["version"] = 999
        with pytest.raises(SerializationError):
            profile_from_dict(payload)


class TestPackedMeasurements:
    """Profiles (version 3) and stage sweeps (version 2) share one packed
    measurement layout: a clock, a time and an energy column."""

    @pytest.fixture
    def mixed_profile(self):
        return Planner().result(PlanSpec(
            "bert-large", gpu=("a100", "a40"), stages=2, microbatches=3,
            freq_stride=24)).profile

    def test_homogeneous_and_mixed_profiles_round_trip(self, small_profile,
                                                       mixed_profile):
        for profile in (small_profile, mixed_profile):
            payload = json.loads(json.dumps(profile_to_dict(profile)))
            assert payload["version"] == 3
            assert set(payload["ops"][0]["measurements"]) == \
                {"freq_mhz", "time_s", "energy_j"}
            restored = profile_from_dict(payload)
            assert restored.stage_blocking_w == profile.stage_blocking_w
            assert list(restored.ops) == list(profile.ops)
            for op, op_profile in profile.ops.items():
                assert restored.ops[op].fixed == op_profile.fixed
                assert [(m.freq_mhz, m.time_s.hex(), m.energy_j.hex())
                        for m in restored.ops[op].measurements] == \
                    [(m.freq_mhz, m.time_s.hex(), m.energy_j.hex())
                     for m in op_profile.measurements]
        assert "stage_blocking_w" in profile_to_dict(mixed_profile)

    def test_stage_sweep_round_trip(self, small_profile):
        sweep = next(iter(small_profile.ops.values())).measurements
        payload = json.loads(json.dumps(payload_to_dict(sweep)))
        assert (payload["kind"], payload["version"]) == ("stage_sweep", 2)
        assert payload_from_dict(payload) == sweep

    def test_older_versions_are_rejected(self, small_profile, mixed_profile):
        sweep = next(iter(small_profile.ops.values())).measurements
        for obj, kind, version, current in (
                (small_profile, "pipeline_profile", 1, 3),
                (mixed_profile, "pipeline_profile", 2, 3),
                (sweep, "stage_sweep", 1, 2)):
            old = as_old_payload(payload_to_dict(obj))
            assert old["version"] == version
            with pytest.raises(SerializationError, match=(
                    f"unsupported {kind} format version {version}; "
                    f"this build reads {current}")):
                payload_from_dict(json.loads(json.dumps(old)))

    @pytest.mark.parametrize("column, edit, message", [
        ("freq_mhz", lambda text: text[:-1] + "g", "non-hexadecimal"),
        ("time_s", lambda text: text[:-1], "malformed"),
        ("time_s", lambda text: text[:-2], "whole number"),
        ("energy_j", lambda text: text[:-16], "differ in length"),
        ("freq_mhz", lambda text: text + "00000000", "differ in length"),
        ("time_s", lambda text: text[:2] + " " + text[2:],
         "more than hex digits"),
        ("energy_j", lambda text: [1.0], "malformed"),
    ], ids=["bad-hex", "odd-length", "partial-item", "short-column",
            "long-column", "spaced-hex", "json-list"])
    def test_hostile_measurement_columns(self, small_profile, column, edit,
                                         message):
        sweep = next(iter(small_profile.ops.values())).measurements
        for payload in (profile_to_dict(small_profile),
                        payload_to_dict(sweep)):
            columns = (payload["measurements"]
                       if payload["kind"] == "stage_sweep"
                       else payload["ops"][-1]["measurements"])
            columns[column] = edit(columns[column])
            with pytest.raises(SerializationError, match=message):
                payload_from_dict(payload)
            with pytest.raises(SerializationError):
                load_json(io.StringIO(json.dumps(payload)))

    def test_non_positive_measurement_is_a_profiling_error(
            self, small_profile):
        payload = profile_to_dict(small_profile)
        columns = payload["ops"][0]["measurements"]
        times = unpack(columns["time_s"], "d")
        columns["time_s"] = pack([0.0] + times[1:], "d")
        with pytest.raises(ProfilingError, match="non-positive time"):
            payload_from_dict(payload)


class TestFrontierRoundTrip:
    def test_round_trip_preserves_lookup(self, small_optimizer):
        frontier = small_optimizer.frontier
        restored = frontier_from_dict(
            json.loads(json.dumps(frontier_to_dict(frontier)))
        )
        assert restored.t_min == pytest.approx(frontier.t_min)
        assert restored.t_star == pytest.approx(frontier.t_star)
        assert len(restored.points) == len(frontier.points)
        target = (frontier.t_min + frontier.t_star) / 2
        assert restored.schedule_for(target).iteration_time == pytest.approx(
            frontier.schedule_for(target).iteration_time
        )

    def test_frequencies_survive(self, small_optimizer):
        frontier = small_optimizer.frontier
        restored = frontier_from_dict(frontier_to_dict(frontier))
        assert restored.points[0].frequencies == frontier.points[0].frequencies

    def test_save_load_json_dispatch(self, small_optimizer, small_profile):
        for obj in (small_optimizer.frontier, small_profile):
            buf = io.StringIO()
            save_json(obj, buf)
            buf.seek(0)
            restored = load_json(buf)
            assert type(restored).__name__ == type(obj).__name__

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            load_json(io.StringIO('{"kind": "mystery"}'))


def point_bits(p):
    """A point's floats as ``float.hex`` and its dict items in order."""
    def items(mapping, fmt):
        return [(type(k), k, fmt(v)) for k, v in mapping.items()]

    return (p.iteration_time.hex(), p.effective_energy.hex(),
            p.compute_energy.hex(), items(p.durations, float.hex),
            items(p.frequencies, lambda f: (type(f), f)))


def frontier_bits(frontier):
    """Everything a frontier carries, so equality means bit- and
    order-identical."""
    return {
        "tau": frontier.tau.hex(),
        "steps": frontier.steps,
        "points": [point_bits(p) for p in frontier.points],
    }


def json_round_trip(frontier):
    payload = json.loads(json.dumps(frontier_to_dict(frontier)))
    assert payload["version"] == FRONTIER_FORMAT_VERSION == 5
    return frontier_from_dict(payload)


def point(durations, frequencies, t):
    return EnergySchedule(durations=durations, iteration_time=t,
                          effective_energy=10.0 * t, compute_energy=11.0 * t,
                          frequencies=frequencies)


def delta_span(payload, k):
    """``(lo, hi)``: where point ``k``'s entries sit in the delta columns."""
    offsets = payload["delta_offsets"]
    k = range(len(offsets) - 1)[k]
    return offsets[k], offsets[k + 1]


def deltas(payload, k):
    """Point ``k``'s ``(index, duration, frequency)`` delta entries."""
    lo, hi = delta_span(payload, k)
    return list(zip(*(payload[column][lo:hi] for column in (
        "delta_index", "delta_duration", "delta_frequency"))))


def set_delta(column, k, value, last=False):
    """A corruption setting point ``k``'s first (or ``last``) entry of
    one delta column to ``value``."""
    def corrupt(payload):
        lo, hi = delta_span(payload, k)
        payload[column][hi - 1 if last else lo] = value
    return corrupt


class TestFrontierV2:
    """Columnar frontier payloads round-trip bit for bit, in order."""

    @pytest.mark.parametrize("exactness", ["exact", "fast"])
    def test_planner_frontiers(self, exactness):
        spec = PlanSpec("bert-large", stages=2, microbatches=3,
                        freq_stride=24, exactness=exactness)
        frontier = Planner().frontier_for(spec)
        assert len(frontier.points) > 10
        restored = json_round_trip(frontier)
        assert frontier_bits(restored) == frontier_bits(frontier)
        assert restored.stats == json.loads(json.dumps(frontier.stats))

    def test_deltas_carry_only_changed_entries(self, small_optimizer):
        frontier = small_optimizer.frontier
        packed_payload = frontier_to_dict(frontier)
        payload = v3_lists(packed_payload)
        [first] = payload["rows"]
        assert set(first) == {"at", "ids", "durations", "frequencies"}
        assert first["at"] == 0
        offsets = payload["delta_offsets"]
        assert len(offsets) == len(frontier.points) + 1
        assert offsets[:2] == [0, 0]  # the full row's point has no deltas
        changed = len(payload["delta_index"])
        assert offsets[-1] == changed == len(payload["delta_duration"]) \
            == len(payload["delta_frequency"])
        assert changed < len(first["ids"]) * (len(offsets) - 2) / 4
        assert len(json.dumps(packed_payload)) * 5 < len(json.dumps(
            [schedule_to_dict(p) for p in frontier.points]))
        # Hex packing: two digits per byte of a column's items.
        for name, code in COLUMNS.items():
            assert len(packed_payload[name]) == \
                2 * struct.calcsize(code) * len(payload[name])

    def test_unrealized_points_without_frequencies(self, small_optimizer):
        points = [replace(p, frequencies={})
                  for p in small_optimizer.frontier.points[:5]]
        assert all(p.frequencies == {} for p in points)
        frontier = Frontier(points=points, tau=0.01)
        restored = json_round_trip(frontier)
        assert frontier_bits(restored) == frontier_bits(frontier)

    def test_single_point(self):
        frontier = Frontier(points=[point({3: 0.5, 1: 0.25}, {3: 1410, 1: 705},
                                          1.0)], tau=0.1)
        assert frontier_bits(json_round_trip(frontier)) == \
            frontier_bits(frontier)

    def test_key_set_and_order_changes_between_points(self):
        points = [
            point({1: 0.5, 2: 0.25}, {1: 1410, 2: 705}, 1.0),
            point({1: 0.5, 2: 0.5}, {1: 1410, 2: 900}, 1.1),      # delta
            point({2: 0.5, 1: 0.5}, {2: 900, 1: 1410}, 1.2),      # order
            point({2: 0.5, 1: 0.5, 7: 0.1}, {2: 900, 1: 1410, 7: 1}, 1.3),
            point({2: 0.5, 1: 0.5, 7: 0.1}, {}, 1.4),             # no freqs
            point({2: 0.5, 1: -0.0, 7: 0.1}, {}, 1.5),            # -0.0
            point({2: 0.5, 1: 0.0, 7: 0.1}, {7: 1, 2: 900}, 1.6),  # irregular
            point({2: 0.5, 1: 0.0, 7: 0.1}, {7: 1, 2: 900}, 1.7),
        ]
        frontier = Frontier(points=points, tau=0.1)
        payload = v3_lists(frontier_to_dict(frontier))
        assert [row["at"] for row in payload["rows"]] == [0, 2, 3, 4, 6, 7]
        assert [row.get("frequency_ids") for row in payload["rows"]] == [
            None, None, None, None, [7, 2], [7, 2]]
        assert deltas(payload, 1) == [(1, 0.5, 900)]
        assert deltas(payload, 5) == [(1, -0.0, None)]
        assert payload["delta_offsets"] == [0, 0, 1, 1, 1, 1, 2, 2, 2]
        assert frontier_bits(json_round_trip(frontier)) == \
            frontier_bits(frontier)

    def test_older_versions_are_rejected(self, small_optimizer):
        frontier = small_optimizer.frontier
        v1 = {"version": 1, "kind": "frontier", "tau": frontier.tau,
              "optimizer_runtime_s": frontier.optimizer_runtime_s,
              "steps": frontier.steps, "stats": dict(frontier.stats),
              "points": [schedule_to_dict(p) for p in frontier.points]}
        for version, payload in ((1, v1), (2, frontier_to_dict_v2(frontier)),
                                 (3, frontier_to_dict_v3(frontier)),
                                 (4, frontier_to_dict_v4(frontier))):
            payload = json.loads(json.dumps(payload))
            assert payload["version"] == version
            message = (f"unsupported frontier format version {version}; "
                       f"this build reads 5")
            with pytest.raises(SerializationError, match=message):
                frontier_from_dict(payload)
            with pytest.raises(SerializationError, match=message):
                load_json(io.StringIO(json.dumps(payload)))


class TestLazyDecode:
    """A decoded frontier builds only the points it is asked for, and
    each equals the eager crawl's point bit for bit."""

    @pytest.fixture(scope="class", params=[
        PlanSpec("bert-large", stages=2, microbatches=3, freq_stride=24),
        PlanSpec("bert-large", stages=2, microbatches=3, freq_stride=24,
                 exactness="fast"),
        PlanSpec("gpt3-xl", stages=4, microbatches=8, freq_stride=4),
    ], ids=["bert-exact", "bert-fast", "gpt3-xl-pp4"])
    def crawled(self, request):
        frontier = Planner().frontier_for(request.param)
        return frontier, json.loads(json.dumps(frontier_to_dict(frontier)))

    def test_every_index_in_random_order(self, crawled):
        frontier, payload = crawled
        expected = [point_bits(p) for p in frontier.points]
        order = list(range(len(expected)))
        random.Random(7).shuffle(order)
        looked_up = frontier_from_dict(payload)
        listed = frontier_from_dict(payload)
        for k in order:
            t = frontier.points[k].iteration_time
            assert looked_up.index_for(t) == k
            assert point_bits(looked_up.schedule_for(t)) == expected[k]
            assert point_bits(listed.points[k]) == expected[k]
        assert "points" not in vars(looked_up)
        assert point_bits(looked_up.min_energy_schedule) == expected[-1]
        assert (looked_up.t_min, looked_up.t_star) == \
            (frontier.t_min, frontier.t_star)

    def test_points_is_built_once(self, crawled):
        restored = frontier_from_dict(crawled[1])
        assert restored.points is restored.points
        assert isinstance(restored.points, list)

    def test_writer_packs_the_version_3_columns(self, crawled):
        # The reference version-3 writer (regrouping version 2's rows)
        # is the oracle for the one-pass writer's columns.
        frontier, v5 = crawled
        v3 = json.loads(json.dumps(frontier_to_dict_v3(frontier)))
        assert v3_lists(v5) == dict(v3, version=5)
        restored = frontier_from_dict(v5)
        for k, point in enumerate(frontier.points):
            assert point_bits(restored._lookup[k]) == point_bits(point)
        assert frontier_to_dict(restored) == v5

    def test_iteration_applies_each_delta_entry_once(self, monkeypatch):
        spec = PlanSpec("gpt3-13b", stages=8, microbatches=32,
                        freq_stride=4, exactness="fast")
        frontier = Planner().frontier_for(spec)
        payload = json.loads(json.dumps(frontier_to_dict(frontier)))
        read = []

        class Column(list):
            """An unpacked column recording each slice read from it."""

            def __getitem__(self, item):
                if isinstance(item, slice):
                    read.append((self, item.start, item.stop))
                return super().__getitem__(item)

        unpack = serialization._unpack
        monkeypatch.setattr(serialization, "_unpack",
                            lambda text, code: Column(unpack(text, code)))
        restored = frontier_from_dict(payload)
        stored = restored._lookup
        del read[:]  # the whole-payload checks
        assert frontier_bits(restored) == frontier_bits(frontier)
        n = len(stored._index)
        assert n > 1000
        for column in (stored._index, stored._durations, stored._clocks):
            spans = sorted((lo, hi) for seen, lo, hi in read
                           if seen is column)
            assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]]
            assert (spans[0][0], spans[-1][1]) == (0, n)

    def test_concurrent_lookups(self, crawled):
        frontier, payload = crawled
        restored = frontier_from_dict(payload)
        lo, hi = frontier.t_min, frontier.t_star
        failures, lists = [], []
        start = threading.Barrier(8)

        def look_up(seed):
            rng = random.Random(seed)
            start.wait()
            for _ in range(40):
                t = rng.uniform(lo - 0.01 * lo, hi + 0.01 * hi)
                got = restored.schedule_for(t)
                if point_bits(got) != point_bits(frontier.schedule_for(t)):
                    failures.append(t)
            lists.append(restored.points)

        threads = [threading.Thread(target=look_up, args=(seed,))
                   for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(lists) == 8
        assert all(points is restored.points for points in lists)


def replace_column(column, text, row=None):
    """A corruption replacing one packed column's text."""
    def corrupt(payload):
        (payload if row is None else payload["rows"][row])[column] = text
    return corrupt


def retype(column, code):
    """A corruption packing one column's items as another item type."""
    def corrupt(payload):
        payload[column] = pack(v3_lists(payload)[column], code)
    return corrupt


def garble(column):
    """A corruption putting text that is no hex in a packed column's
    last item."""
    def corrupt(payload):
        payload[column] = payload[column][:-4] + "*!*="
    return corrupt


#: Three layouts: clocked deltas after the full rows at points 0 and 3,
#: clockless ones after the full row at point 5, the last point a delta.
LAYOUTS = Frontier(points=[
    point({1: 0.5, 2: 0.25}, {1: 1410, 2: 705}, 1.0),
    point({1: 0.5, 2: 0.5}, {1: 1410, 2: 900}, 1.1),
    point({1: 0.25, 2: 0.5}, {1: 705, 2: 900}, 1.2),
    point({2: 0.5, 1: 0.25}, {2: 900, 1: 705}, 1.3),
    point({2: 0.25, 1: 0.25}, {2: 705, 1: 705}, 1.4),
    point({2: 0.25, 1: 0.25, 7: 0.1}, {}, 1.5),
    point({2: 0.25, 1: 0.5, 7: 0.1}, {}, 1.6),
], tau=0.1)


class TestMalformedPayloads:
    """Wrong-shape payloads end in SerializationError, never a traceback."""

    @pytest.fixture
    def payloads(self, small_optimizer, small_profile, small_partition):
        dag = small_optimizer.dag
        baseline = execute_frequency_plan(
            dag, max_frequency_plan(dag, small_profile), small_profile)
        return {
            "frontier": payload_to_dict(small_optimizer.frontier),
            "pipeline_profile": payload_to_dict(small_profile),
            "partition": payload_to_dict(small_partition),
            "stage_sweep": payload_to_dict(
                small_profile.ops[next(iter(small_profile.ops))].measurements),
            "tau": payload_to_dict(TauRecord(0.25, baseline.price())),
        }

    def test_every_kind_with_each_field_missing(self, payloads):
        for kind, payload in payloads.items():
            assert type(payload_from_dict(payload)).__name__  # intact
            for field in set(payload) - {"kind", "version", "stats",
                                         "steps", "optimizer_runtime_s",
                                         "stage_blocking_w"}:
                broken = {k: v for k, v in payload.items() if k != field}
                with pytest.raises(SerializationError, match="malformed"):
                    payload_from_dict(broken)
                with pytest.raises(SerializationError):
                    load_json(io.StringIO(json.dumps(broken)))

    def test_wrong_field_types_raise_only_serialization_errors(
            self, payloads):
        for kind, payload in payloads.items():
            for field in set(payload) - {"kind", "version"}:
                broken = dict(payload, **{field: "x"})
                try:
                    payload_from_dict(broken)
                except SerializationError:
                    pass  # anything else fails the test

    def test_deeply_nested_file(self):
        with pytest.raises(SerializationError, match="nested too deeply"):
            load_json(io.StringIO("[" * 100_000))

    def test_not_json(self):
        with pytest.raises(SerializationError, match="not valid JSON"):
            load_json(io.StringIO("{not json"))

    # The hostile-payload tests keep the names and case ids of the
    # version-2 and version-3 layouts their faults were first written
    # for.  Every case now corrupts a version-5 payload: a structural
    # fault through the version-3 lists it packs (``repack``), a type
    # fault through the packed text itself, since a packed column
    # holds items of its own type only.

    @pytest.mark.parametrize("corrupt", [
        repack(set_delta("delta_index", 1, 10 ** 6)),
        repack(set_delta("delta_index", 1, -1)),
        retype("delta_index", "d"),
        repack(lambda p: p["delta_index"].insert(1, 0)),
        lambda p: p["rows"].pop(0),
        repack(lambda p: p["iteration_time"].pop()),
        repack(lambda p: p["rows"][0]["durations"].pop()),
        repack(lambda p: p["rows"][0]["frequencies"].pop()),
        repack(lambda p: p["rows"][0]["ids"].__setitem__(
            1, p["rows"][0]["ids"][0])),
        lambda p: p["rows"].__setitem__(1, "oops"),
        lambda p: p.__setitem__("rows", []),
        replace_column("compute_energy", None),
        # The T_min lookup never replays the last point's (clockless)
        # deltas: decoding must still reject them.
        repack(set_delta("delta_index", -1, 10 ** 6, last=True)),
        garble("delta_duration"),
        repack(lambda p: p["delta_frequency"].pop()),
        repack(lambda p: p["iteration_time"].reverse()),
    ], ids=["index-high", "index-negative", "index-float", "short-delta",
            "leading-delta", "short-column", "short-durations",
            "short-frequencies", "repeated-id", "string-row", "no-rows",
            "null-column", "last-index-high", "last-string-duration",
            "last-short-delta", "unsorted-times"])
    def test_hostile_v2_frontiers(self, corrupt):
        payload = json.loads(json.dumps(frontier_to_dict(LAYOUTS)))
        lists = v3_lists(payload)
        assert [row["at"] for row in payload["rows"]] == [0, 3, 5]
        assert deltas(lists, -1) == [(1, 0.5, None)]
        assert frontier_bits(frontier_from_dict(json.loads(json.dumps(
            payload)))) == frontier_bits(LAYOUTS)  # intact
        self._assert_rejected(payload, corrupt)

    @staticmethod
    def _assert_rejected(payload, corrupt):
        corrupt(payload)
        with pytest.raises(SerializationError):
            frontier_from_dict(payload)
        with pytest.raises(SerializationError):
            payload_from_dict(payload)
        with pytest.raises(SerializationError):
            load_json(io.StringIO(json.dumps(payload)))

    @pytest.mark.parametrize("corrupt", [
        repack(set_delta("delta_index", 1, 10 ** 6)),
        repack(set_delta("delta_index", 1, -1)),
        retype("delta_index", "d"),
        replace_column("delta_index", True),
        repack(lambda p: p["delta_index"].append(0)),
        lambda p: p["rows"][0].__setitem__("at", 1),
        repack(lambda p: p["iteration_time"].pop()),
        repack(lambda p: p["rows"][0]["durations"].pop()),
        repack(lambda p: p["rows"][0]["frequencies"].pop()),
        repack(lambda p: p["rows"][0]["ids"].__setitem__(
            1, p["rows"][0]["ids"][0])),
        lambda p: p["rows"].__setitem__(0, "oops"),
        lambda p: p.__setitem__("rows", []),
        replace_column("compute_energy", None),
        # The T_min lookup never replays the last point's deltas:
        # decoding must still reject them.
        repack(set_delta("delta_index", -1, 10 ** 6, last=True)),
        garble("delta_duration"),
        repack(set_delta("delta_frequency", -1, None, last=True)),
        retype("delta_frequency", "d"),
        repack(lambda p: p["delta_duration"].pop()),
        repack(lambda p: p["iteration_time"].reverse()),
        repack(lambda p: p["delta_offsets"].pop()),
        repack(lambda p: p["delta_offsets"].__setitem__(0, 1)),
        repack(lambda p: p["delta_offsets"].__setitem__(
            -2, p["delta_offsets"][-1] + 1)),
        repack(lambda p: p["delta_offsets"].__setitem__(1, 1)),
        lambda p: p["rows"].append(dict(p["rows"][0], at=0)),
        lambda p: p["rows"].append(dict(p["rows"][0], at=10 ** 6)),
        lambda p: p["rows"].append(dict(p["rows"][0], at=2)),
        lambda p: p["rows"][0].__setitem__("frequency_ids",
                                           p["rows"][0]["ids"]),
        replace_column("delta_offsets", "x"),
        replace_column("delta_offsets", False),
        repack(lambda p: p["delta_offsets"].__setitem__(
            slice(0, 2), [-1, -1])),
        repack(lambda p: [p[column].append(p[column][-1]) for column in (
            "delta_index", "delta_duration", "delta_frequency")]),
        replace_column("delta_duration", "0.5"),
    ], ids=["index-high", "index-negative", "index-float", "index-bool",
            "long-index-column", "leading-delta", "short-column",
            "short-durations", "short-frequencies", "repeated-id",
            "string-row", "no-rows", "null-column", "last-index-high",
            "last-string-duration", "last-null-clock", "last-float-clock",
            "short-duration-column", "unsorted-times", "short-offsets",
            "offsets-start-late", "offsets-decrease", "full-row-with-deltas",
            "repeated-full-row", "full-row-out-of-range",
            "full-row-over-deltas", "deltas-after-irregular-row",
            "string-offsets", "bool-offset", "negative-offsets",
            "trailing-deltas", "numeric-string-duration"])
    def test_hostile_v3_frontiers(self, small_optimizer, corrupt):
        payload = json.loads(json.dumps(
            frontier_to_dict(small_optimizer.frontier)))
        lists = v3_lists(payload)
        assert len(payload["rows"]) == 1
        assert deltas(lists, 1) and deltas(lists, 2) and deltas(lists, -1)
        assert frontier_from_dict(json.loads(json.dumps(payload)))  # intact
        self._assert_rejected(payload, corrupt)

    @pytest.mark.parametrize("corrupt", [
        lambda p: p["rows"].pop(0),
        lambda p: p["rows"][0].__setitem__("at", False),
        lambda p: p["rows"][1].__setitem__("at", 1),
        lambda p: p["rows"].reverse(),
    ], ids=["first-full-row-missing", "bool-at", "full-row-over-deltas",
            "rows-out-of-order"])
    def test_hostile_v3_full_rows(self, corrupt):
        frontier = Frontier(points=[
            point({1: 0.5, 2: 0.25}, {1: 1410, 2: 705}, 1.0),
            point({1: 0.5, 2: 0.5}, {1: 1410, 2: 900}, 1.1),
            point({2: 0.5, 1: 0.5}, {2: 900, 1: 1410}, 1.2),
            point({2: 0.5, 1: 0.25}, {2: 900, 1: 705}, 1.3),
        ], tau=0.1)
        payload = json.loads(json.dumps(frontier_to_dict(frontier)))
        assert [row["at"] for row in payload["rows"]] == [0, 2]
        assert frontier_from_dict(json.loads(json.dumps(payload)))  # intact
        self._assert_rejected(payload, corrupt)


class TestPackedFrontiers:
    """Version 5 packs version 3's columns as hex: a packing fault, and
    every fault version 3 rejects, ends in SerializationError.  (The
    test keeps the name it had when version 4 packed them as base64.)"""

    @pytest.mark.parametrize("corrupt", [
        replace_column("delta_index", "0000*000"),
        replace_column("iteration_time", "00000"),
        replace_column("ids", "not hex!", row=0),
        replace_column("iteration_time", [0.5, 1.0]),
        replace_column("delta_duration", None),
        replace_column("delta_duration", pack([1, 2, 3], "i")),
        replace_column("frequencies", pack([1.0], "d")[:-2], row=0),
        repack(lambda p: p["delta_index"].append(0)),
        repack(lambda p: p["delta_frequency"].pop()),
        repack(lambda p: p["delta_offsets"].pop()),
        repack(lambda p: p["delta_index"].__setitem__(-1, 10 ** 6)),
        repack(lambda p: p["delta_index"].__setitem__(0, -1)),
        repack(lambda p: p["delta_frequency"].__setitem__(-1, None)),
        repack(lambda p: p["delta_offsets"].__setitem__(1, 1)),
        repack(lambda p: p["iteration_time"].reverse()),
        repack(lambda p: p["rows"][0]["ids"].__setitem__(
            1, p["rows"][0]["ids"][0])),
        repack(lambda p: p["rows"][0]["frequencies"].pop()),
        lambda p: p.__setitem__("iteration_time", " ".join(
            p["iteration_time"][i:i + 2]
            for i in range(0, len(p["iteration_time"]), 2))),
        lambda p: p.__setitem__("iteration_time",
                                p["iteration_time"] + "\n"),
    ], ids=["bad-hex", "odd-length", "not-hex", "json-list",
            "null-column", "doubles-of-ints-length", "short-last-item",
            "index-count-vs-offsets", "clock-count-vs-offsets",
            "short-offsets", "last-index-high", "index-negative",
            "missing-clock", "full-row-with-deltas", "unsorted-times",
            "repeated-id", "short-frequencies", "spaced-hex",
            "trailing-newline"])
    def test_hostile_v4_frontiers(self, small_optimizer, corrupt):
        payload = json.loads(json.dumps(
            frontier_to_dict(small_optimizer.frontier)))
        assert payload["version"] == 5
        intact = frontier_from_dict(json.loads(json.dumps(payload)))
        assert frontier_bits(intact) == frontier_bits(
            small_optimizer.frontier)
        TestMalformedPayloads._assert_rejected(payload, corrupt)

    def test_byte_length_must_be_whole_items(self, small_optimizer):
        payload = frontier_to_dict(small_optimizer.frontier)
        replace_column("delta_duration", pack([1, 2, 3], "i"))(payload)
        with pytest.raises(SerializationError, match="whole number"):
            frontier_from_dict(payload)

    def test_unrealized_layout_packs_clockless_deltas(self):
        frontier = Frontier(points=[
            point({1: 0.5, 2: 0.25}, {}, 1.0),
            point({1: 0.5, 2: 0.5}, {}, 1.1),
        ], tau=0.1)
        payload = frontier_to_dict(frontier)
        assert v3_lists(payload)["delta_frequency"] == [None]
        assert frontier_bits(json_round_trip(frontier)) == \
            frontier_bits(frontier)


class TestTauRecord:
    """Tau payload version 2 carries the all-max baseline's price."""

    @pytest.fixture
    def record(self, small_optimizer, small_profile):
        dag = small_optimizer.dag
        baseline = execute_frequency_plan(
            dag, max_frequency_plan(dag, small_profile), small_profile)
        return TauRecord(0.25, baseline.price()), baseline

    def test_round_trip_prices_bit_for_bit(self, record):
        record, baseline = record
        payload = json.loads(json.dumps(payload_to_dict(record)))
        assert payload["version"] == 2
        restored = payload_from_dict(payload)
        assert restored == record
        assert list(restored.baseline.stage_busy) == \
            list(record.baseline.stage_busy)
        for floor in (None, 0.0, baseline.iteration_time * 1.3):
            assert restored.baseline.energy_at(floor).hex() == \
                baseline.energy_at(floor).hex()

    def test_mixed_blocking_powers_round_trip(self, record):
        record, _ = record
        price = record.baseline._replace(stage_blocking_w={0: 90.0, 3: 70.5})
        restored = payload_from_dict(json.loads(json.dumps(
            payload_to_dict(TauRecord(0.5, price)))))
        assert restored.baseline == price
        assert restored.baseline.energy_at(2.0).hex() == \
            price.energy_at(2.0).hex()

    def test_version_1_is_rejected(self):
        with pytest.raises(SerializationError, match=(
                "unsupported tau format version 1; this build reads 2")):
            payload_from_dict({"version": 1, "kind": "tau", "value": 0.25})

    @pytest.mark.parametrize("corrupt", [
        lambda b: b.pop("stage_busy"),
        lambda b: b.__setitem__("stage_busy", [[0, 1.0, 2.0]]),
        lambda b: b.__setitem__("stage_busy", [[0, 1.0], [0, 2.0]]),
        lambda b: b.__setitem__("stage_busy", [["0", 1.0]]),
        lambda b: b.__setitem__("stage_busy", {"0": 1.0}),
        lambda b: b.__setitem__("iteration_time", "0.5"),
        lambda b: b.__setitem__("compute_energy", None),
        lambda b: b.__setitem__("num_devices", 0),
        lambda b: b.__setitem__("num_devices", 4.0),
        lambda b: b.__setitem__("p_blocking_w", True),
        lambda b: b.__setitem__("stage_blocking_w", [[-1, 90.0]]),
        lambda b: b.__setitem__("stage_blocking_w", 90.0),
        lambda b: b.clear(),
    ], ids=["no-busy", "busy-triple", "repeated-stage", "string-stage",
            "busy-object", "string-time", "null-energy", "no-devices",
            "float-devices", "bool-power", "negative-stage",
            "scalar-blocking", "empty-block"])
    def test_malformed_price_block(self, record, corrupt):
        payload = json.loads(json.dumps(payload_to_dict(record[0])))
        corrupt(payload["baseline"])
        with pytest.raises(SerializationError):
            payload_from_dict(payload)
        with pytest.raises(SerializationError):
            load_json(io.StringIO(json.dumps(payload)))

    def test_price_block_must_be_an_object(self, record):
        payload = payload_to_dict(record[0])
        for block in (None, [], "x", 1.0):
            with pytest.raises(SerializationError):
                payload_from_dict(dict(payload, baseline=block))


class TestCLI:
    def test_models_and_gpus(self, capsys):
        assert main(["models"]) == 0
        assert "gpt3-xl" in capsys.readouterr().out
        assert main(["gpus"]) == 0
        assert "a100-pcie-80g" in capsys.readouterr().out

    def test_plan_and_straggler(self, tmp_path, capsys):
        out = tmp_path / "frontier.json"
        rc = main([
            "plan", "bert-large", "--gpu", "a100", "--stages", "2",
            "--microbatches", "3", "--freq-stride", "24",
            "-o", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "frontier" in text and "intrinsic" in text
        assert out.exists()

        rc = main(["straggler", str(out), "--degrees", "1.1", "1.4"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "degree 1.10" in text and "degree 1.40" in text

    def test_straggler_rejects_degree_below_one(self, tmp_path, capsys):
        out = tmp_path / "frontier.json"
        assert main([
            "plan", "bert-large", "--stages", "2", "--microbatches", "3",
            "--freq-stride", "24", "-o", str(out),
        ]) == 0
        capsys.readouterr()
        for degrees in (["0", "-1"], ["1.2", "0.5"]):
            assert main(["straggler", str(out), "--degrees", *degrees]) == 2
            captured = capsys.readouterr()
            assert "degree" not in captured.out  # no row printed
            assert captured.err.startswith("error: ")

    def test_straggler_names_a_file_that_is_no_frontier(
            self, tmp_path, capsys, small_optimizer, small_profile):
        missing = tmp_path / "missing.json"
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        old = tmp_path / "old.json"
        old.write_text(json.dumps(frontier_to_dict_v3(
            small_optimizer.frontier)), encoding="utf-8")
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(profile_to_dict(small_profile)),
                           encoding="utf-8")
        for path, message in (
                (missing, f"cannot read frontier {missing}: "),
                (bad, f"{bad} is not valid JSON: "),
                (old, f"{old} is not a valid frontier: unsupported "
                      f"frontier format version 3; this build reads 5\n"),
                (profile, f"{profile} is not a valid frontier: expected "
                          f"kind 'frontier', got 'pipeline_profile'\n")):
            assert main(["straggler", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv, what", [
        (["plan", "--output"], "frontier"),
        (["plan", "--trace"], "trace"),
        (["sweep", "--format", "json", "-o"], "report"),
        (["fleet", "--count", "1", "--models", "bert-large", "--trace-out"],
         "timeline"),
    ], ids=["plan-output", "plan-trace", "report", "fleet-trace-out"])
    def test_unwritable_outputs_are_named(self, tmp_path, capsys, argv,
                                          what):
        target = tmp_path / "no-such-dir" / "out.json"
        if argv[0] != "fleet":
            argv = [argv[0], "bert-large", "--stages", "2",
                    "--microbatches", "3", "--freq-stride", "24", *argv[1:]]
        assert main([*argv, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: cannot write {what} {target}: ")
        # The target is checked before any planning: no summary, table
        # or counters were printed.
        assert captured.out == ""

    @pytest.mark.parametrize("option", ["--output", "--trace"])
    def test_a_failed_plan_leaves_its_outputs_alone(self, tmp_path, capsys,
                                                    monkeypatch, option):
        import repro.cli as cli
        import repro.obs.trace as trace

        class Failing:
            def result(self, spec):
                raise ReproError("planning failed")

        monkeypatch.setattr(cli, "default_planner", Failing)
        # ``--trace`` turns recording on before the plan fails; restore
        # the process-wide switch afterwards.
        monkeypatch.setattr(trace, "_enabled", trace._enabled)
        monkeypatch.setattr(trace, "_recorder", trace._recorder)
        kept = tmp_path / "kept.json"
        kept.write_text("earlier output", encoding="utf-8")
        fresh = tmp_path / "fresh.json"
        for target in (kept, fresh):
            assert main(["plan", "bert-large", "--stages", "2",
                         "--microbatches", "3", "--freq-stride", "24",
                         option, str(target)]) == 2
            assert capsys.readouterr().err == "error: planning failed\n"
        assert kept.read_text(encoding="utf-8") == "earlier output"
        assert not fresh.exists()

    def test_trace_view_names_a_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        assert main(["trace", "view", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not valid JSON: ")

    def test_trace_view_names_a_json_file_that_is_not_a_trace(
            self, tmp_path, capsys):
        notrace = tmp_path / "notrace.json"
        notrace.write_text('{"a": 1}', encoding="utf-8")
        assert main(["trace", "view", str(notrace)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {notrace} is not a valid trace: not a "
                       f"Chrome trace-event document\n")

    @pytest.mark.parametrize("jobs, events, reason", [
        ([{"spec": {"kind": "plan_spec", "version": 3,
                    "model": "bert-large"}, "arrival_s": "soon"}], [],
         "could not convert string to float: 'soon'"),
        ([{"id": "j", "spec": {"kind": "plan_spec", "version": 3,
                               "model": "bert-large"},
           "iterations": 10}], ["x"],
         "straggler event payload must be an object"),
        ([{"id": "j", "spec": {"kind": "plan_spec", "version": 3,
                               "model": "bert-large"}, "cost": 1}], [],
         "unknown fleet job fields: ['cost']"),
    ], ids=["string-arrival", "string-event", "unknown-field"])
    def test_fleet_names_a_mis_shaped_trace_once(self, tmp_path, capsys,
                                                 jobs, events, reason):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"kind": "fleet_trace", "version": 1,
                                     "jobs": jobs, "events": events}),
                         encoding="utf-8")
        assert main(["fleet", "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {trace} is not a valid trace: {reason}\n"

    @pytest.mark.parametrize("points, reason", [
        ([1], "step_trace points must be a list of [time, value] pairs"),
        ({"0": 1}, "step_trace points must be a list of [time, value] "
                   "pairs"),
        ([[0, "high"]], "could not convert string to float: 'high'"),
    ], ids=["bare-number", "object", "string-value"])
    def test_fleet_names_a_mis_shaped_cap_trace_once(self, tmp_path, capsys,
                                                     points, reason):
        cap = tmp_path / "cap.json"
        cap.write_text(json.dumps({"kind": "step_trace", "version": 1,
                                   "points": points}), encoding="utf-8")
        assert main(["fleet", "--count", "1", "--models", "bert-large",
                     "--cap-trace", str(cap)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cap} is not a valid cap trace: {reason}\n"

    def test_timeline(self, capsys):
        rc = main([
            "timeline", "bert-large", "--stages", "2", "--microbatches", "3",
            "--freq-stride", "24", "--width", "60",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "(a)" in text and "(b)" in text and "S1 |" in text
