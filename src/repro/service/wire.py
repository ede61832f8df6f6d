"""Wire formats for the planning daemon (shared by daemon and client).

Everything crossing the HTTP boundary is plain versioned JSON, built on
the same ``core.serialization`` payloads the plan store persists:
profiles, frontiers and schedules reuse their existing codecs verbatim,
so a frontier fetched over the wire is bit-identical to one loaded from
disk.  The ``frontier`` RPC therefore carries the columnar, delta-encoded
version 4 frontier payload, its numeric columns packed
(``core.serialization.frontier_to_dict``).
This module adds the two shapes that had no serialized form:

* :class:`~repro.api.planner.PlanReport` rows (kind ``plan_report``) --
  the spec, the scalar row, and the frequency plan.  The simulated
  ``execution`` and crawl ``timings`` deliberately do not travel: they
  are diagnostics, and reports must stay bit-identical whether planned
  in-process or behind a daemon (floats survive JSON exactly:
  ``json.dumps`` emits the shortest round-tripping repr).
* error envelopes -- a remote :class:`~repro.exceptions.ReproError`
  re-raises client-side as the same exception class, so code written
  against the in-process ``PerseusServer`` keeps its ``except`` clauses
  when pointed at a daemon.
"""

from __future__ import annotations

import math
from typing import Dict, Type

from ..api.planner import PlanReport
from ..api.spec import SPEC_FORMAT_VERSION, PlanSpec
from ..exceptions import (
    ConfigurationError,
    QuotaExceeded,
    ReproError,
    ServiceError,
    ServiceUnavailable,
)

REPORT_WIRE_VERSION = 1


def error_kinds() -> Dict[str, Type[ReproError]]:
    """Error ``kind`` -> exception class raised client-side.

    Walks the live :class:`ReproError` subclass tree, so *every*
    library error -- including ones defined outside ``repro.exceptions``
    (``StoreError``, ``SerializationError``) and ones registered by
    plugins -- re-raises as its own class on the client.  An unknown
    kind (a newer server speaking to an older client) degrades to
    :class:`ServiceError`, still a ReproError.
    """
    kinds: Dict[str, Type[ReproError]] = {}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        kinds.setdefault(cls.__name__, cls)
        stack.extend(cls.__subclasses__())
    return kinds


def spec_from_wire(payload: dict) -> PlanSpec:
    """A tolerant :meth:`PlanSpec.from_dict`: fills kind/version.

    Hand-written RPC params (``repro call``) should not need the
    ``plan_spec`` envelope boilerplate; fully stamped payloads pass
    through unchanged.  Because the stamp is the *current* format
    version, newer optional fields -- e.g. ``"exactness": "fast"`` --
    work in hand-written params without any envelope ceremony.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("spec must be a JSON object")
    stamped = dict(payload)
    stamped.setdefault("kind", "plan_spec")
    stamped.setdefault("version", SPEC_FORMAT_VERSION)
    return PlanSpec.from_dict(stamped)


#: Scalar row fields that may be non-finite (error rows are NaN; a
#: degenerate profile could in principle yield an infinity).  They
#:  serialize as ``null`` in the strict-JSON row, with the exact value
#: recorded in a ``nonfinite`` side channel so the round trip stays
#: bit-exact.
_SCALAR_FIELDS = ("iteration_time_s", "energy_j", "baseline_time_s",
                  "baseline_energy_j")


def report_to_wire(report: PlanReport) -> dict:
    """JSON-ready ``plan_report`` payload (spec + scalars + plan)."""
    payload = {
        "kind": "plan_report",
        "version": REPORT_WIRE_VERSION,
        "spec": report.spec.to_dict(),
        "row": report.to_dict(),
        "plan": {str(node): freq for node, freq in report.plan.items()},
    }
    nonfinite = {
        name: repr(getattr(report, name))
        for name in _SCALAR_FIELDS
        if not math.isfinite(getattr(report, name))
        and not math.isnan(getattr(report, name))
    }
    if nonfinite:  # only infinities need the side channel (null == NaN)
        payload["nonfinite"] = nonfinite
    return payload


def _checked(value, types: tuple, name: str):
    """``value`` if it is an instance of ``types`` (never a bool)."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"{name} has type {type(value).__name__}")
    return value


def report_from_wire(payload: dict) -> PlanReport:
    """Inverse of :func:`report_to_wire`.

    The reconstructed report carries no ``execution``/``timings`` (they
    never travel); every other field -- including NaN scalars on error
    rows, serialized as ``null`` -- round-trips bit-exactly.  A payload
    with a missing or wrongly typed field raises :class:`ServiceError`.
    """
    if not isinstance(payload, dict) or payload.get("kind") != "plan_report":
        raise ServiceError(
            f"expected a plan_report payload, got "
            f"{payload.get('kind') if isinstance(payload, dict) else payload!r}"
        )
    if payload.get("version") != REPORT_WIRE_VERSION:
        raise ServiceError(
            f"unsupported plan_report version {payload.get('version')!r}"
        )
    try:
        row = _checked(payload["row"], (dict,), "row")
        nonfinite = _checked(payload.get("nonfinite", {}), (dict,),
                             "nonfinite")

        def num(name: str) -> float:
            if name in nonfinite:
                return float(_checked(nonfinite[name], (str,),
                                      f"nonfinite.{name}"))
            value = _checked(row[name], (int, float, type(None)),
                             f"row.{name}")
            return float("nan") if value is None else value

        return PlanReport(
            spec=PlanSpec.from_dict(payload["spec"]),
            strategy=_checked(row["strategy"], (str,), "row.strategy"),
            iteration_time_s=num("iteration_time_s"),
            energy_j=num("energy_j"),
            baseline_time_s=num("baseline_time_s"),
            baseline_energy_j=num("baseline_energy_j"),
            plan={int(node): _checked(freq, (int, float), f"plan[{node}]")
                  for node, freq in
                  _checked(payload["plan"], (dict,), "plan").items()},
            error=_checked(row["error"], (str, type(None)), "row.error"),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ServiceError(
            f"malformed plan_report payload: {type(exc).__name__}: {exc}"
        ) from exc


def reports_equal(a: PlanReport, b: PlanReport) -> bool:
    """Bit-identity for wire purposes: spec, scalars and plan match.

    NaN scalars (error rows) compare equal to NaN -- two failed rows
    with the same message are the same row.
    """
    def same(x: float, y: float) -> bool:
        return (x == y) or (math.isnan(x) and math.isnan(y))

    return (
        a.spec == b.spec
        and a.strategy == b.strategy
        and a.error == b.error
        and a.plan == b.plan
        and same(a.iteration_time_s, b.iteration_time_s)
        and same(a.energy_j, b.energy_j)
        and same(a.baseline_time_s, b.baseline_time_s)
        and same(a.baseline_energy_j, b.baseline_energy_j)
    )


def error_to_wire(exc: BaseException) -> dict:
    """The error envelope of a failed RPC."""
    payload = {"kind": type(exc).__name__, "message": str(exc)}
    retry = getattr(exc, "retry_after_s", None)
    if retry is not None:
        payload["retry_after_s"] = retry
    return payload


def error_from_wire(payload: dict) -> ReproError:
    """Reconstruct the remote exception (degrading to ServiceError)."""
    kind = payload.get("kind", "ServiceError")
    message = payload.get("message", "remote error")
    cls = error_kinds().get(kind)
    if cls in (QuotaExceeded, ServiceUnavailable):
        return cls(message, retry_after_s=payload.get("retry_after_s", 0.0))
    if cls is not None:
        try:
            return cls(message)
        except Exception:  # exotic constructor signature
            return ServiceError(f"{kind}: {message}")
    return ServiceError(f"{kind}: {message}")
