"""Continuous relaxation: exponential time-energy fit (§4.1, Appendix D).

The discrete PEM problem is NP-hard, so Perseus relaxes each computation's
Pareto-optimal (time, energy) measurements to a continuous function
``e(t) = a * exp(b * t) + c`` with ``a > 0, b < 0`` -- decreasing and
convex, capturing the diminishing return of slowing down.

The fit is linear in ``(a, c)`` for fixed ``b``, so we solve a 1-D search
over ``b`` with closed-form least squares inside -- deterministic, robust
to the 2-3 point profiles constant-ish ops give, and stdlib-only: a cold
``repro plan`` fits every op, and importing numpy for it would cost more
than the fits.  Sums run left to right in explicit loops (not ``sum()``,
which compensates since CPython 3.12), so the floats do not depend on the
interpreter version.  The numpy version this replaced is the oracle in
``tests/reference/fit.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..exceptions import FitError
from .measurement import Measurement


def _geomspace(start: float, stop: float, num: int) -> tuple:
    """``numpy.geomspace(start, stop, num)``: ``10 ** linspace`` of the
    logs, with both ends pinned to the exact inputs."""
    lo, hi = math.log10(start), math.log10(stop)
    step = (hi - lo) / (num - 1)
    grid = [10.0 ** (i * step + lo) for i in range(num)]
    grid[0], grid[-1] = start, stop
    return tuple(grid)


#: Curvatures ``k`` of the search grid ``b = -k / (t_max - t_min)``.
CURVATURES = _geomspace(0.05, 50.0, 120)


@dataclass(frozen=True)
class ExponentialFit:
    """``e(t) = a * exp(b * t) + c`` plus the fitted domain bounds."""

    a: float
    b: float
    c: float
    t_min: float  # fastest profiled duration
    t_max: float  # duration at the min-energy frequency

    def __call__(self, t: float) -> float:
        return self.a * math.exp(self.b * t) + self.c

    def speedup_cost(self, t: float, tau: float) -> float:
        """Extra energy to run in ``t - tau`` instead of ``t`` (``e+``)."""
        return self(t - tau) - self(t)

    def slowdown_gain(self, t: float, tau: float) -> float:
        """Energy saved by running in ``t + tau`` instead of ``t`` (``e-``)."""
        return self(t) - self(t + tau)


def fit_exponential(measurements: Sequence[Measurement]) -> ExponentialFit:
    """Fit ``a * exp(b * t) + c`` to Pareto-optimal measurements.

    Requires at least two points.  With exactly two, every grid ``b``
    interpolates them exactly, so the residuals that pick ``b`` are
    rounding noise.

    For each ``b`` of the grid the least squares in ``(a, c)`` is a
    2-unknown system with closed-form normal equations; the candidate
    with the smallest squared residual wins (the first on ties).
    """
    if len(measurements) < 2:
        raise FitError("need at least two Pareto points to fit")
    pts = sorted(measurements, key=lambda m: m.time_s)
    times = [float(m.time_s) for m in pts]
    energies = [float(m.energy_j) for m in pts]
    t_lo, t_hi = times[0], times[-1]
    if t_hi <= t_lo:
        raise FitError("degenerate time range in measurements")

    # Scale-aware sweep: b ~ -k / time_range for k in a wide log grid.
    span = t_hi - t_lo
    n = float(len(times))
    y_sum = 0.0
    for y in energies:
        y_sum += y
    exp = math.exp
    best = None
    best_resid = math.inf
    for k in CURVATURES:
        b = -k / span
        basis = [exp(b * t) for t in times]
        s1 = s2 = sy = 0.0
        for x, y in zip(basis, energies):
            s1 += x
            s2 += x * x
            sy += x * y
        det = s2 * n - s1 * s1
        # Must be decreasing in t (a > 0); singular rows (det == 0) and
        # non-finite residuals are rejected the same way.
        if det == 0:
            continue
        a = (sy * n - s1 * y_sum) / det
        if not a > 0:
            continue
        c = (s2 * y_sum - s1 * sy) / det
        resid = 0.0
        for x, y in zip(basis, energies):
            r = a * x + c - y
            resid += r * r
        if resid < best_resid:
            best_resid = resid
            best = (a, b, c)
    if best is None:
        raise FitError("no decreasing exponential fits the measurements")
    a, b, c = best
    return ExponentialFit(a=a, b=b, c=c, t_min=t_lo, t_max=t_hi)


def fit_quality(fit: ExponentialFit, measurements: Sequence[Measurement]) -> float:
    """R^2 of the fit over the given measurements (1.0 = perfect)."""
    energies = [float(m.energy_j) for m in measurements]
    ss_res = 0.0
    total = 0.0
    for m, y in zip(measurements, energies):
        r = y - fit(m.time_s)
        ss_res += r * r
        total += y
    mean = total / len(energies) if energies else 0.0
    ss_tot = 0.0
    for y in energies:
        r = y - mean
        ss_tot += r * r
    if ss_tot == 0:
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot
