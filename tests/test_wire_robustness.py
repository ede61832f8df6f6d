"""Wire-format robustness: non-finite scalars, unicode tenants,
version skew, hostile ``/rpc`` bodies, and the full error-envelope
taxonomy.

The daemon's bit-identity guarantee is only as strong as the wire
codecs' worst case, so this module feeds them the corners: every
NaN/±inf combination a scalar row can hold (round-tripped through
*strict* JSON -- no ``NaN``/``Infinity`` literals on the wire),
tenant ids that cannot travel in an HTTP header, payloads from the
wrong wire version, and one envelope per :class:`ReproError` subclass
in the live tree.
"""

from __future__ import annotations

import itertools
import json
import math
import socket
import time

import pytest

from repro.api import PlanSpec, Planner
from repro.api.planner import PlanReport
from repro.api.spec import SPEC_FORMAT_VERSION
from repro.exceptions import (
    ConfigurationError,
    QuotaExceeded,
    ReproError,
    ServiceError,
    ServiceUnavailable,
)
from repro.service import PlanningDaemon, ServiceClient
from repro.service import daemon as daemon_module
from repro.service.daemon import MAX_RPC_BODY_BYTES
from repro.service.wire import (
    REPORT_WIRE_VERSION,
    error_from_wire,
    error_kinds,
    error_to_wire,
    report_from_wire,
    report_to_wire,
    reports_equal,
    spec_from_wire,
)

TINY = dict(gpu="a100", stages=2, microbatches=2, freq_stride=24)


def tiny_spec(model="gpt3-xl", **overrides):
    merged = dict(TINY)
    merged.update(overrides)
    return PlanSpec(model, **merged)


def synthetic_report(it, en, bt, be, error=None) -> PlanReport:
    return PlanReport(
        spec=tiny_spec(),
        strategy="perseus",
        iteration_time_s=it,
        energy_j=en,
        baseline_time_s=bt,
        baseline_energy_j=be,
        plan={0: 1410, 1: 1200},
        error=error,
    )


def bit_same(x: float, y: float) -> bool:
    """NaN==NaN, +inf!=-inf, 0.25==0.25 -- scalar bit identity."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


# ------------------------------------------------------------- scalar corners
NASTY = (1.25, float("nan"), float("inf"), float("-inf"), 1e308, 5e-324)


class TestNonFiniteRoundTrip:
    @pytest.mark.parametrize("values", [
        # every pairing of one nasty value against a sane row, plus the
        # all-nasty diagonal -- 25 combos, all through strict JSON
        *itertools.product(NASTY[:5], [2.5]),
        *((v, v) for v in NASTY),
    ])
    def test_scalar_pair_round_trips_bit_exactly(self, values):
        scalar, other = values
        report = synthetic_report(scalar, other, other, scalar,
                                  error="synthetic row")
        payload = report_to_wire(report)

        def reject(_):
            raise AssertionError("non-strict JSON constant on the wire")

        # The wire payload must survive *strict* JSON: no NaN/Infinity
        # literals, ever (they would break non-Python peers).
        text = json.dumps(payload, allow_nan=False)
        back = report_from_wire(json.loads(text, parse_constant=reject))
        assert reports_equal(report, back)
        for name in ("iteration_time_s", "energy_j",
                     "baseline_time_s", "baseline_energy_j"):
            assert bit_same(getattr(report, name), getattr(back, name))

    def test_infinities_use_the_side_channel_nan_stays_null(self):
        report = synthetic_report(float("inf"), float("nan"),
                                  float("-inf"), 3.5, error="x")
        payload = report_to_wire(report)
        assert payload["nonfinite"] == {"iteration_time_s": "inf",
                                        "baseline_time_s": "-inf"}
        assert payload["row"]["iteration_time_s"] is None
        assert payload["row"]["energy_j"] is None  # NaN needs no channel

    def test_finite_reports_have_no_side_channel(self):
        payload = report_to_wire(Planner().plan(tiny_spec()))
        assert "nonfinite" not in payload

    def test_real_error_row_round_trips_through_daemon(self):
        planner = Planner()
        row = planner.sweep([tiny_spec(model="no-such-model")],
                            errors="report")[0]
        back = report_from_wire(
            json.loads(json.dumps(report_to_wire(row), allow_nan=False)))
        assert reports_equal(row, back)
        assert math.isnan(back.energy_j)


# ------------------------------------------------------------- version skew
class TestVersionSkew:
    def test_wrong_report_version_rejected_loudly(self):
        payload = report_to_wire(synthetic_report(1.0, 2.0, 3.0, 4.0))
        payload["version"] = REPORT_WIRE_VERSION + 1
        with pytest.raises(ServiceError, match="version"):
            report_from_wire(payload)
        payload.pop("version")
        with pytest.raises(ServiceError, match="version"):
            report_from_wire(payload)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ServiceError, match="plan_report"):
            report_from_wire({"kind": "plan_spec", "version": 1})
        with pytest.raises(ServiceError):
            report_from_wire("not even a dict")

    def test_v1_spec_payload_plans_identically_over_the_wire(self):
        spec = tiny_spec()
        payload_v1 = dict(spec.to_dict(), version=1)
        assert SPEC_FORMAT_VERSION != 1  # the skew is real
        assert spec_from_wire(payload_v1) == spec
        with PlanningDaemon(planner=Planner(), port=0) as daemon:
            client = ServiceClient(daemon.url, tenant="team-a")
            remote = client.call("plan", {"spec": payload_v1})
        assert reports_equal(report_from_wire(remote),
                             Planner().plan(spec))

    def test_bare_spec_payload_is_stamped(self):
        spec = spec_from_wire({"model": "gpt3-xl", "gpu": "a100",
                               "stages": 2, "microbatches": 2})
        assert spec.model == "gpt3-xl"


# -------------------------------------------------------- malformed reports
def finite_payload() -> dict:
    return report_to_wire(synthetic_report(1.0, 2.0, 3.0, 4.0))


def without(payload: dict, path: tuple) -> dict:
    parent = payload
    for name in path[:-1]:
        parent = parent[name]
    del parent[path[-1]]
    return payload


def replaced(payload: dict, path: tuple, value) -> dict:
    parent = payload
    for name in path[:-1]:
        parent = parent[name]
    parent[path[-1]] = value
    return payload


#: Every field ``report_from_wire`` reads (``nonfinite`` is optional:
#: only rows with an infinite scalar carry it).
REQUIRED_FIELDS = [
    ("spec",), ("row",), ("plan",), ("row", "strategy"),
    ("row", "iteration_time_s"), ("row", "energy_j"),
    ("row", "baseline_time_s"), ("row", "baseline_energy_j"),
    ("row", "error"),
]

WRONG_TYPES = [
    (("spec",), 5),
    (("row",), "row"),
    (("plan",), [1410]),
    (("plan",), {"zero": 1410}),
    (("plan",), {"0": "1410"}),
    (("nonfinite",), ["energy_j"]),
    (("nonfinite",), {"energy_j": 5}),
    (("nonfinite",), {"energy_j": "banana"}),
    (("row", "strategy"), 5),
    (("row", "iteration_time_s"), "1.0"),
    (("row", "energy_j"), True),
    (("row", "baseline_time_s"), [3.0]),
    (("row", "baseline_energy_j"), {"value": 4.0}),
    (("row", "error"), 5),
]


class TestMalformedReports:
    def test_envelope_without_a_body(self):
        with pytest.raises(ServiceError, match="malformed"):
            report_from_wire({"kind": "plan_report",
                              "version": REPORT_WIRE_VERSION})

    @pytest.mark.parametrize("path", REQUIRED_FIELDS,
                             ids=".".join)
    def test_each_field_missing(self, path):
        with pytest.raises(ServiceError, match="malformed"):
            report_from_wire(without(finite_payload(), path))

    @pytest.mark.parametrize(
        "path,value", WRONG_TYPES,
        ids=[f"{'.'.join(p)}={v!r}" for p, v in WRONG_TYPES])
    def test_each_field_of_the_wrong_type(self, path, value):
        # The spec has its own typed validation (ConfigurationError);
        # every other field fails as a malformed-payload ServiceError.
        expected = ReproError if path == ("spec",) else ServiceError
        with pytest.raises(expected):
            report_from_wire(replaced(finite_payload(), path, value))

    def test_optional_side_channel_may_be_absent(self):
        payload = report_to_wire(synthetic_report(float("inf"), 2.0,
                                                  3.0, 4.0))
        payload.pop("nonfinite")
        back = report_from_wire(payload)
        assert math.isnan(back.iteration_time_s)  # row value was null


# ------------------------------------------------------------ unicode tenants
class TestUnicodeTenants:
    @pytest.mark.parametrize("tenant", [
        "équipe-α",          # not latin-1-safe: must travel in the body
        "café",              # latin-1-safe but non-ascii: header path
        "租户-0",             # CJK
    ])
    def test_unicode_tenant_round_trips_over_http(self, tenant):
        with PlanningDaemon(planner=Planner(), port=0) as daemon:
            client = ServiceClient(daemon.url, tenant=tenant)
            assert client.ping()["tenant"] == tenant
            # Tenancy really keys on the full unicode name: jobs are
            # invisible to an ascii-mangled sibling.
            client.register_spec("job", tiny_spec())
            assert client.jobs() == ["job"]
            other = ServiceClient(daemon.url, tenant="ascii-tenant")
            assert other.jobs() == []


# ------------------------------------------------------------ hostile bodies
def _raw_post(daemon, content_length: str, body: bytes = b""):
    """POST /rpc over a raw keep-alive socket; (status, headers, error,
    whether the daemon then closed the connection).

    The socket is never half-closed, so a daemon that waits for more
    body bytes (or for EOF) fails the test on the socket timeout
    instead of answering.
    """
    host, port = daemon.address
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(
            b"POST /rpc HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode()
            + body)
        reader = sock.makefile("rb")
        status = int(reader.readline().split()[1])
        headers = {}
        for line in iter(reader.readline, b"\r\n"):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = json.loads(reader.read(int(headers["content-length"])))
        sock.settimeout(1.0)
        try:
            closed = reader.read(1) == b""
        except socket.timeout:
            closed = False
        return status, headers, error_from_wire(payload["error"]), closed


class TestHostileRpcBodies:
    """Every malformed body ends in a typed ServiceError reply."""

    @pytest.mark.parametrize("length", ["-1", "many"])
    def test_bad_content_length_is_400_without_reading(self, length):
        with PlanningDaemon(planner=Planner(), port=0) as daemon:
            status, headers, err, closed = _raw_post(daemon, length)
        assert status == 400
        assert type(err) is ServiceError
        assert "Content-Length" in str(err)
        assert headers["connection"] == "close" and closed

    def test_oversized_body_is_413_before_reading(self):
        with PlanningDaemon(planner=Planner(), port=0) as daemon:
            status, headers, err, closed = _raw_post(
                daemon, str(MAX_RPC_BODY_BYTES + 1), b"{")
            # The daemon keeps serving other connections.
            assert ServiceClient(daemon.url).ping()["ok"]
        assert status == 413
        assert type(err) is ServiceError
        assert str(MAX_RPC_BODY_BYTES) in str(err)
        assert headers["connection"] == "close" and closed

    def test_deeply_nested_json_is_400(self):
        depth = 100_000
        body = b"[" * depth + b"]" * depth
        with PlanningDaemon(planner=Planner(), port=0) as daemon:
            status, _, err, closed = _raw_post(daemon, str(len(body)), body)
        assert status == 400
        assert type(err) is ServiceError
        assert "nests too deeply" in str(err)
        assert not closed  # the body was consumed: keep-alive survives


class TestStalledClients:
    """A client that stops mid-request cannot pin a handler thread."""

    def test_half_a_request_line_is_dropped_within_the_timeout(
            self, monkeypatch):
        monkeypatch.setattr(daemon_module, "READ_TIMEOUT_S", 0.5)
        with PlanningDaemon(planner=Planner(), port=0) as daemon:
            with socket.create_connection(daemon.address,
                                          timeout=10.0) as stalled:
                stalled.sendall(b"POST /rp")  # ...and nothing more
                started = time.monotonic()
                # Another client is served while the first one stalls.
                assert ServiceClient(daemon.url).ping()["ok"]
                try:
                    dropped = stalled.recv(1) == b""
                except ConnectionResetError:
                    dropped = True
                waited = time.monotonic() - started
        assert dropped
        assert waited < 0.5 + 2.0

    def test_the_bound_is_a_fixed_constant(self):
        assert daemon_module.READ_TIMEOUT_S == 30.0
        with PlanningDaemon(planner=Planner(), port=0) as daemon:
            handler = daemon._httpd.RequestHandlerClass
            assert handler.timeout == daemon_module.READ_TIMEOUT_S


# ------------------------------------------------------------ typed params
class TestTypedRpcParams:
    """A wrongly typed param is the caller's error (HTTP 422), never a
    500: a client reads a 500 as a sick replica and fails over, so one
    malformed call would eject every healthy replica in turn."""

    @pytest.mark.parametrize("method, params", [
        ("recent_events", {"limit": "ten"}),
        ("set_straggler", {"job_id": "j", "accelerator_id": "abc",
                           "delay_s": 0.0, "degree": 1.2}),
        ("wait_ready", {"job_id": "j", "timeout_s": "soon"}),
        ("report_measurement", {"job_id": "j", "time_s": None}),
        ("report_measurement", {"job_id": "j", "time_s": 1.0,
                                "stage_time_s": "abc"}),
        ("set_straggler", {"job_id": "j", "accelerator_id": 0,
                           "delay_s": 10 ** 400, "degree": 1.2}),
    ])
    def test_wrong_type_is_422(self, method, params):
        with PlanningDaemon(planner=Planner(), port=0) as daemon:
            status, body, _ = daemon.handle_rpc(
                {"method": method, "params": params, "id": "x"}, "ci")
        assert status == 422
        assert type(error_from_wire(body["error"])) is ConfigurationError

    @pytest.mark.parametrize("method, params, name", [
        ("report_measurement", '{"job_id": "j", "time_s": NaN}', "time_s"),
        ("report_measurement",
         '{"job_id": "j", "time_s": 1.0, "energy_j": Infinity}',
         "energy_j"),
        ("report_measurement",
         '{"job_id": "j", "time_s": 1.0, "stage_time_s": [1.0, -Infinity]}',
         "stage_time_s[1]"),
        ("set_straggler", '{"job_id": "j", "accelerator_id": 0, '
         '"delay_s": 0.0, "degree": Infinity}', "degree"),
        ("wait_ready", '{"job_id": "j", "timeout_s": NaN}', "timeout_s"),
    ], ids=["time-nan", "energy-inf", "stage-neg-inf", "degree-inf",
            "timeout-nan"])
    def test_non_finite_number_is_422_naming_the_param(
            self, method, params, name):
        # json.loads reads NaN and Infinity; the daemon must not pass
        # them on as floats (three inf reports once re-planned a job to
        # an infinite drift floor).
        body = (f'{{"method": "{method}", "params": {params}, '
                f'"id": "x"}}').encode()
        with PlanningDaemon(planner=Planner(), port=0) as daemon:
            status, _, err, _ = _raw_post(daemon, str(len(body)), body)
        assert status == 422
        assert type(err) is ConfigurationError
        assert f"param {name!r} must be a finite number" in str(err)

    @pytest.mark.parametrize("field, value", [
        ("tau", "abc"),
        ("tau", [1]),
        ("tau", 10 ** 400),
        ("tau", True),
        ("fidelity", ["x"]),
        ("stages", True),
        ("freq_stride", True),
        ("microbatch_size", True),
    ], ids=["tau-str", "tau-list", "tau-huge-int", "tau-bool",
            "fidelity-list", "stages-bool", "freq_stride-bool",
            "microbatch_size-bool"])
    def test_malformed_spec_field_is_422(self, field, value):
        spec = dict(model="gpt3-xl", **TINY)
        spec[field] = value
        with PlanningDaemon(planner=Planner(), port=0) as daemon:
            status, body, _ = daemon.handle_rpc(
                {"method": "plan", "params": {"spec": spec},
                 "id": f"bad-{field}-{type(value).__name__}"}, "ci")
        assert status == 422
        assert type(error_from_wire(body["error"])) is ConfigurationError


# -------------------------------------------------------------- error taxonomy
class TestErrorEnvelopes:
    def test_every_repro_error_subclass_re_raises_as_itself(self):
        kinds = error_kinds()
        assert "StoreError" in kinds          # defined outside exceptions.py
        assert "SerializationError" in kinds
        assert len(kinds) > 15
        for kind, cls in kinds.items():
            err = error_from_wire({"kind": kind,
                                   "message": f"remote {kind}",
                                   "retry_after_s": 1.5})
            assert type(err) is cls, kind
            assert f"remote {kind}" in str(err)
            assert isinstance(err, ReproError)

    def test_round_trip_through_to_wire(self):
        for kind, cls in error_kinds().items():
            back = error_from_wire(error_to_wire(cls(f"boom {kind}")))
            assert type(back) is cls

    def test_retry_hints_survive(self):
        for cls in (QuotaExceeded, ServiceUnavailable):
            back = error_from_wire(error_to_wire(
                cls("wait", retry_after_s=2.5)))
            assert type(back) is cls
            assert back.retry_after_s == 2.5

    def test_unknown_kind_degrades_to_service_error(self):
        err = error_from_wire({"kind": "FromTheFuture", "message": "hi"})
        assert type(err) is ServiceError
        assert "FromTheFuture" in str(err)

    def test_late_defined_subclasses_are_not_missed(self):
        class PopUpError(ServiceError):
            pass

        try:
            err = error_from_wire({"kind": "PopUpError", "message": "x"})
            assert type(err) is PopUpError
        finally:
            pass  # test-local class; the registry walk is live, no cleanup
