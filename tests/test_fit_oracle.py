"""The stdlib exponential fit against the numpy fit it replaced.

``repro.profiler.fit`` runs the seed's search (the same 120-point grid
over ``b``, the same closed-form ``(a, c)``, the same residual) without
numpy; ``reference.fit`` is the seed's vectorized version.  Sums are
accumulated in a different order and ``exp`` comes from a different
library, so ``(a, c)`` may differ in the last bits, but on real profiles
both must pick the same grid point.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import Planner, PlanSpec
from repro.exceptions import FitError
from repro.profiler import fit as product
from repro.profiler.measurement import Measurement
from reference import fit as seed

#: The pp4 specs a user plans at a shell and the large crawl specs
#: (the benchmark's cli-cold and crawl-large pools).
POOL = ([PlanSpec(m, stages=4, microbatches=mb, freq_stride=4)
         for m in ("gpt3-xl", "bert-huge", "t5-3b", "bloom-3b")
         for mb in (8, 12)]
        + [PlanSpec(m, stages=pp, microbatches=mb)
           for m, pp, mb in (("gpt3-175b", 16, 16), ("bloom-176b", 16, 16),
                             ("gpt3-13b", 8, 32))])

REL_TOL = 1e-12


def _pool_ops():
    planner = Planner()
    for spec in POOL:
        profile = planner.result(spec).profile
        for op, op_profile in profile.ops.items():
            pareto = op_profile.pareto()
            if not op_profile.fixed and len(pareto) > 1:
                yield pareto


def _grid_index(fit, grid) -> int:
    span = fit.t_max - fit.t_min
    hits = [i for i, k in enumerate(grid) if -k / span == fit.b]
    assert len(hits) == 1, hits
    return hits[0]


def _m(t, e):
    return Measurement(freq_mhz=1000, time_s=t, energy_j=e)


def test_grid_matches_geomspace_within_one_ulp():
    expected = np.geomspace(0.05, 50.0, 120)
    assert len(product.CURVATURES) == len(expected)
    assert product.CURVATURES[0] == 0.05 and product.CURVATURES[-1] == 50.0
    for got, want in zip(product.CURVATURES, expected.tolist()):
        assert abs(got - want) <= math.ulp(want)


def test_pool_fits_pick_the_same_grid_point():
    ops = 0
    for pareto in _pool_ops():
        got = product.fit_exponential(pareto)
        want = seed.fit_exponential(pareto)
        assert _grid_index(got, product.CURVATURES) == \
            _grid_index(want, np.geomspace(0.05, 50.0, 120).tolist())
        assert got.b == want.b
        assert (got.t_min, got.t_max) == (want.t_min, want.t_max)
        assert got.a == pytest.approx(want.a, rel=REL_TOL, abs=0)
        assert got.c == pytest.approx(want.c, rel=REL_TOL, abs=0)
        assert product.fit_quality(got, pareto) == pytest.approx(
            seed.fit_quality(want, pareto), rel=REL_TOL)
        ops += 1
    assert ops == 144


@pytest.mark.parametrize("points", [
    [(1.0, 2.0)],
    [(1.0, 3.0), (1.0, 2.0)],
    [(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)],
    [(1.0, 1.0), (2.0, 2.0), (3.0, 4.0)],
], ids=["one-point", "equal-times", "flat", "rising"])
def test_degenerate_inputs_raise_on_both_sides(points):
    pts = [_m(t, e) for t, e in points]
    with pytest.raises(FitError):
        seed.fit_exponential(pts)
    with pytest.raises(FitError):
        product.fit_exponential(pts)


def test_fit_quality_agrees_on_flat_measurements():
    pts = [_m(t, 2.0 * math.exp(-t) + 1.0) for t in (0.5, 1.0, 2.0, 4.0)]
    fit = product.fit_exponential(pts)
    flat = [_m(t, 1.5) for t in (0.5, 1.0)]
    assert product.fit_quality(fit, flat) == seed.fit_quality(fit, flat) == 0.0
