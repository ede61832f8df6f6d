"""GPU power/time/energy model: the calibrated DVFS substrate."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.gpu.energy_model import ComputationEnergyModel, WorkProfile
from repro.gpu.power import PowerModel
from repro.gpu.specs import A40, A100_PCIE, get_gpu, list_gpus


@pytest.fixture(scope="module")
def work():
    return WorkProfile(flops=5e12, mem_bytes=2e9)


@pytest.fixture(scope="module")
def model():
    return ComputationEnergyModel(A100_PCIE)


class TestWorkProfile:
    def test_rejects_empty_work(self):
        with pytest.raises(ConfigurationError):
            WorkProfile(flops=0, mem_bytes=0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            WorkProfile(flops=-1, mem_bytes=0)

    def test_scaled(self, work):
        half = work.scaled(0.5)
        assert half.flops == work.flops / 2
        assert half.mem_bytes == work.mem_bytes / 2
        with pytest.raises(ConfigurationError):
            work.scaled(0)

    def test_add_preserves_effective_flops(self):
        a = WorkProfile(flops=1e12, mem_bytes=1e9, compute_efficiency=0.5)
        b = WorkProfile(flops=1e12, mem_bytes=1e9, compute_efficiency=1.0)
        total = a + b
        assert total.flops == 2e12
        assert total.effective_flops == pytest.approx(
            a.effective_flops + b.effective_flops
        )

    def test_efficiency_inflates_effective_flops(self):
        w = WorkProfile(flops=1e12, mem_bytes=0.0, compute_efficiency=0.5)
        assert w.effective_flops == pytest.approx(2e12)


class TestPowerModel:
    def test_power_at_max_is_tdp(self):
        pm = PowerModel(A100_PCIE)
        assert pm.compute_power(A100_PCIE.max_freq) == pytest.approx(
            A100_PCIE.tdp_w
        )

    def test_power_monotone_in_clock(self):
        pm = PowerModel(A100_PCIE)
        powers = [pm.compute_power(f) for f in A100_PCIE.freq]
        assert all(a <= b + 1e-9 for a, b in zip(powers, powers[1:]))

    def test_utilization_scales_dynamic_only(self):
        pm = PowerModel(A100_PCIE)
        full = pm.compute_power(A100_PCIE.max_freq, 1.0)
        half = pm.compute_power(A100_PCIE.max_freq, 0.5)
        floor = A100_PCIE.active_floor_w
        assert half == pytest.approx(floor + (full - floor) / 2)

    def test_rejects_bad_utilization(self):
        pm = PowerModel(A100_PCIE)
        with pytest.raises(ConfigurationError):
            pm.compute_power(1410, 0.0)


class TestEnergyModel:
    def test_duration_decreases_with_clock(self, model, work):
        durs = [model.duration(work, f) for f in A100_PCIE.freq]
        assert all(a >= b - 1e-12 for a, b in zip(durs, durs[1:]))

    def test_duration_deterministic(self, model, work):
        assert model.duration(work, 1005) == model.duration(work, 1005)

    def test_memory_term_clock_independent(self, model):
        w = WorkProfile(flops=1.0, mem_bytes=4e9)
        lo = model.duration(w, A100_PCIE.min_freq)
        hi = model.duration(w, A100_PCIE.max_freq)
        # almost pure memory work: duration barely moves with clock
        assert lo / hi < 1.001

    def test_min_energy_frequency_is_interior(self, model, work):
        """Paper footnote 4: the min-energy clock is not the lowest."""
        f = min(A100_PCIE.freq, key=lambda f: model.energy(work, f))
        assert A100_PCIE.min_freq < f < A100_PCIE.max_freq

    def test_calibration_against_figure_11(self, work):
        """Min-energy point near ~1.2x time / ~0.7-0.8x energy (A100)."""
        model = ComputationEnergyModel(A100_PCIE)
        t1, e1 = model.time_energy(work, A100_PCIE.max_freq)
        f_star = min(A100_PCIE.freq, key=lambda f: model.energy(work, f))
        t_star, e_star = model.time_energy(work, f_star)
        assert 1.1 < t_star / t1 < 1.4
        assert 0.6 < e_star / e1 < 0.9

    def test_a40_saves_more_than_a100(self, work):
        """§6.2.1: A40's wider clock range yields deeper energy cuts."""
        ratios = {}
        for spec in (A100_PCIE, A40):
            m = ComputationEnergyModel(spec)
            _, e1 = m.time_energy(work, spec.max_freq)
            e_star = min(m.energy(work, f) for f in spec.freq)
            ratios[spec.name] = e_star / e1
        assert ratios[A40.name] < ratios[A100_PCIE.name]

    def test_effective_min_slower_or_equal_raw_min(self, model, work):
        """Subtracting P_blocking*t never favours a faster clock (Eq. 4)."""

        def effective(f):
            t, e = model.time_energy(work, f)
            return e - A100_PCIE.blocking_w * t

        raw = min(A100_PCIE.freq, key=lambda f: model.energy(work, f))
        eff = min(A100_PCIE.freq, key=effective)
        assert eff <= raw

    @given(st.integers(min_value=210, max_value=1410))
    def test_energy_is_power_times_time(self, freq):
        model = ComputationEnergyModel(A100_PCIE)
        w = WorkProfile(flops=1e12, mem_bytes=1e8)
        t, e = model.time_energy(w, freq)
        assert e == pytest.approx(model.power(w, freq) * t)


def test_registry_round_trip():
    for name in list_gpus():
        assert get_gpu(name).name.lower() == name


def test_registry_aliases():
    assert get_gpu("a100") is A100_PCIE
    assert get_gpu("A40") is A40
    with pytest.raises(ConfigurationError):
        get_gpu("tpu-v4")
