"""Profiler: Pareto filtering, exponential fits, sweep termination."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FitError, ProfilingError
from repro.gpu.energy_model import ComputationEnergyModel, WorkProfile
from repro.gpu.specs import A100_PCIE
from repro.models.registry import build_model
from repro.partition.algorithms import partition_model
from repro.profiler.fit import fit_exponential, fit_quality
from repro.profiler.measurement import Measurement, OpProfile, pareto_filter
from repro.profiler.online import (
    profile_constant_op,
    profile_pipeline,
    sweep_frequencies,
)
from reference.noisy import NoisyEnergyModel, noisy_profile_pipeline


def m(freq, t, e):
    return Measurement(freq_mhz=freq, time_s=t, energy_j=e)


class TestParetoFilter:
    def test_removes_dominated(self):
        points = [m(3, 1.0, 10.0), m(2, 2.0, 12.0), m(1, 3.0, 8.0)]
        front = pareto_filter(points)
        assert [p.freq_mhz for p in front] == [3, 1]

    def test_sorted_by_time(self):
        points = [m(1, 3.0, 1.0), m(3, 1.0, 3.0), m(2, 2.0, 2.0)]
        front = pareto_filter(points)
        times = [p.time_s for p in front]
        assert times == sorted(times)

    def test_empty(self):
        assert pareto_filter([]) == []

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10),
                st.floats(min_value=0.01, max_value=10),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_front_is_mutually_nondominated(self, pts):
        points = [m(i, t, e) for i, (t, e) in enumerate(pts)]
        front = pareto_filter(points)
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (
                    a.time_s <= b.time_s
                    and a.energy_j <= b.energy_j
                    and (a.time_s < b.time_s or a.energy_j < b.energy_j)
                )
                assert not dominates

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10),
                st.floats(min_value=0.01, max_value=10),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_every_point_dominated_by_front(self, pts):
        points = [m(i, t, e) for i, (t, e) in enumerate(pts)]
        front = pareto_filter(points)
        for p in points:
            assert any(
                f.time_s <= p.time_s + 1e-12 and f.energy_j <= p.energy_j + 1e-9
                for f in front
            )


class TestExponentialFit:
    def test_recovers_exact_exponential(self):
        a, b, c = 5.0, -2.0, 1.0
        pts = [m(i, t, a * math.exp(b * t) + c) for i, t in enumerate(
            [0.5, 0.8, 1.1, 1.5, 2.0]
        )]
        fit = fit_exponential(pts)
        for p in pts:
            assert fit(p.time_s) == pytest.approx(p.energy_j, rel=0.02)
        assert fit_quality(fit, pts) > 0.999

    def test_fit_is_decreasing_and_convex(self):
        pts = [m(i, t, 10 * math.exp(-1.5 * t) + 2) for i, t in enumerate(
            [1.0, 1.3, 1.7, 2.2]
        )]
        fit = fit_exponential(pts)
        assert fit.a > 0 and fit.b < 0
        ts = [1.0 + 0.1 * i for i in range(13)]
        vals = [fit(t) for t in ts]
        assert all(x >= y - 1e-9 for x, y in zip(vals, vals[1:]))
        # convexity: increments shrink in magnitude
        diffs = [x - y for x, y in zip(vals, vals[1:])]
        assert all(d1 >= d2 - 1e-9 for d1, d2 in zip(diffs, diffs[1:]))

    def test_speedup_costs_exceed_slowdown_gains(self):
        pts = [m(i, t, 8 * math.exp(-1.0 * t) + 3) for i, t in enumerate(
            [1.0, 1.5, 2.0, 2.5]
        )]
        fit = fit_exponential(pts)
        t, tau = 1.7, 0.1
        assert fit.speedup_cost(t, tau) >= fit.slowdown_gain(t, tau)

    def test_needs_two_points(self):
        with pytest.raises(FitError):
            fit_exponential([m(0, 1.0, 2.0)])

    def test_real_profile_fits_well(self):
        """Appendix D: the exponential is a natural fit to model data."""
        model = ComputationEnergyModel(A100_PCIE)
        work = WorkProfile(flops=5e12, mem_bytes=1e9)
        pts = pareto_filter(sweep_frequencies(model, work, freq_stride=4))
        fit = fit_exponential(pts)
        assert fit_quality(fit, pts) > 0.95


class TestSweep:
    def test_sweep_starts_at_max_clock(self):
        model = ComputationEnergyModel(A100_PCIE)
        work = WorkProfile(flops=5e12, mem_bytes=1e9)
        ms = sweep_frequencies(model, work, freq_stride=4)
        assert ms[0].freq_mhz == A100_PCIE.max_freq

    def test_sweep_terminates_early(self):
        """§5: profiling stops below the min-energy clock."""
        model = ComputationEnergyModel(A100_PCIE)
        work = WorkProfile(flops=5e12, mem_bytes=1e9)
        ms = sweep_frequencies(model, work)
        assert len(ms) < len(A100_PCIE.freq)
        assert min(ms, key=lambda x: x.energy_j).freq_mhz > ms[-1].freq_mhz

    def test_noise_is_reproducible(self):
        import numpy as np

        model = ComputationEnergyModel(A100_PCIE)
        work = WorkProfile(flops=5e12, mem_bytes=1e9)
        a = sweep_frequencies(
            NoisyEnergyModel(model, 0.02, np.random.default_rng(7)), work,
            freq_stride=8)
        b = sweep_frequencies(
            NoisyEnergyModel(model, 0.02, np.random.default_rng(7)), work,
            freq_stride=8)
        assert a == b

    def test_noiseless_reference_profile_is_the_product_profile(self):
        model = build_model("gpt3-xl", 2)
        part = partition_model(model, 2, A100_PCIE)
        assert noisy_profile_pipeline(model, part, A100_PCIE,
                                      freq_stride=8) == \
            profile_pipeline(model, part, A100_PCIE, freq_stride=8)


class TestPipelineProfile:
    def test_profile_covers_all_ops(self):
        model = build_model("gpt3-xl", 2)
        part = partition_model(model, 4, A100_PCIE)
        profile = profile_pipeline(model, part, A100_PCIE, freq_stride=16)
        keys = set(profile.op_keys())
        assert {(s, k) for s in range(4) for k in ("forward", "backward")} == keys

    def test_constant_op_registration(self):
        model = build_model("gpt3-xl", 2)
        part = partition_model(model, 4, A100_PCIE)
        profile = profile_pipeline(model, part, A100_PCIE, freq_stride=16)
        profile_constant_op(profile, 0, "dataload", duration_s=0.02)
        op = profile.get((0, "const", "dataload"))
        assert op.fixed
        assert len(op.measurements) == 1

    def test_frequency_for_time_never_slower(self):
        model = build_model("gpt3-xl", 2)
        part = partition_model(model, 4, A100_PCIE)
        profile = profile_pipeline(model, part, A100_PCIE, freq_stride=16)
        op = profile.get((0, "forward"))
        fastest = op.fastest
        slowest = max(op.pareto(), key=lambda x: x.time_s)
        mid = (fastest.time_s + slowest.time_s) / 2
        chosen = op.frequency_for_time(mid)
        assert chosen.time_s <= mid + 1e-9
        # asking for an impossible time falls back to fastest
        assert op.frequency_for_time(fastest.time_s / 2) == fastest

    def test_validation_requires_p_blocking(self):
        from repro.profiler.measurement import PipelineProfile

        profile = PipelineProfile(p_blocking_w=0.0)
        with pytest.raises(ProfilingError):
            profile.validate()
