"""Continuous relaxation: exponential time-energy fit (§4.1, Appendix D).

The discrete PEM problem is NP-hard, so Perseus relaxes each computation's
Pareto-optimal (time, energy) measurements to a continuous function
``e(t) = a * exp(b * t) + c`` with ``a > 0, b < 0`` -- decreasing and
convex, capturing the diminishing return of slowing down.

The fit is linear in ``(a, c)`` for fixed ``b``, so we solve a 1-D search
over ``b`` with closed-form least squares inside -- no SciPy dependency,
deterministic, and robust to the 2-3 point profiles constant-ish ops give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import FitError
from .measurement import Measurement


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

    Requires at least two points.  With exactly two, the fit becomes an
    exact interpolation with a mild default curvature.

    The 1-D sweep over ``b`` evaluates every candidate at once: the
    per-``b`` least squares is a 2-unknown system, so the whole grid
    reduces to batched closed-form normal equations -- one ``exp``
    matrix and a handful of reductions instead of 120 LAPACK ``lstsq``
    dispatches.  (A cold frontier characterization fits every op; the
    dispatch overhead alone used to be a visible slice of it.)
    """
    if len(measurements) < 2:
        raise FitError("need at least two Pareto points to fit")
    pts = sorted(measurements, key=lambda m: m.time_s)
    times = np.array([m.time_s for m in pts], dtype=float)
    energies = np.array([m.energy_j for m in pts], dtype=float)
    t_lo, t_hi = float(times[0]), float(times[-1])
    if t_hi <= t_lo:
        raise FitError("degenerate time range in measurements")

    # Scale-aware sweep: b ~ -k / time_range for k in a wide log grid.
    span = t_hi - t_lo
    bs = -np.geomspace(0.05, 50.0, 120) / span
    basis = np.exp(bs[:, None] * times[None, :])  # one row per candidate b
    n = float(len(times))
    s1 = basis.sum(axis=1)
    s2 = (basis * basis).sum(axis=1)
    sy = basis @ energies
    y_sum = float(energies.sum())
    det = s2 * n - s1 * s1
    with np.errstate(divide="ignore", invalid="ignore"):
        a_all = (sy * n - s1 * y_sum) / det
        c_all = (s2 * y_sum - s1 * sy) / det
        resid_all = (
            (a_all[:, None] * basis + c_all[:, None] - energies[None, :]) ** 2
        ).sum(axis=1)
    # Must be decreasing in t (a > 0); degenerate/singular rows (det ~ 0,
    # NaN residuals) are rejected the same way.
    valid = (a_all > 0) & np.isfinite(resid_all)
    if not bool(valid.any()):
        raise FitError("no decreasing exponential fits the measurements")
    resid_all = np.where(valid, resid_all, np.inf)
    best = int(np.argmin(resid_all))
    return ExponentialFit(
        a=float(a_all[best]), b=float(bs[best]), c=float(c_all[best]),
        t_min=t_lo, t_max=t_hi,
    )


def fit_quality(fit: ExponentialFit, measurements: Sequence[Measurement]) -> float:
    """R^2 of the fit over the given measurements (1.0 = perfect)."""
    energies = np.array([m.energy_j for m in measurements], dtype=float)
    predicted = np.array([fit(m.time_s) for m in measurements], dtype=float)
    ss_res = float(np.sum((energies - predicted) ** 2))
    ss_tot = float(np.sum((energies - energies.mean()) ** 2))
    if ss_tot == 0:
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot

