"""Seed exponential fit (numpy), kept as the oracle of ``repro.profiler.fit``.

The product fit runs the same 120-point search over ``b`` with the same
closed-form ``(a, c)`` in plain Python; this is the vectorized numpy
version it replaced.  ``tests/test_fit_oracle.py`` checks that both pick
the same grid point on real profiles and agree on ``(a, c)`` to within
rounding, and ``tests/test_fast_mode.py`` patches it into
``repro.core.costmodel`` to re-check fast-mode fingerprints recorded
with it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import FitError
from repro.profiler.fit import ExponentialFit
from repro.profiler.measurement import Measurement


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

