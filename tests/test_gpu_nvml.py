"""Simulated NVML: clock latency, activity accounting, energy counters."""

import pytest

from repro.exceptions import NVMLError
from repro.gpu.nvml import SimulatedNVML
from repro.gpu.specs import A100_PCIE


@pytest.fixture()
def nvml():
    return SimulatedNVML(A100_PCIE, num_devices=2, clock_apply_latency_s=0.010)


def test_boot_clock_is_max(nvml):
    assert nvml.device(0).sm_clock(0.0) == A100_PCIE.max_freq


def test_clock_lock_applies_after_latency(nvml):
    dev = nvml.device(0)
    dev.lock_sm_clock(900, now=1.0)
    assert dev.sm_clock(1.005) == A100_PCIE.max_freq  # not yet applied
    assert dev.sm_clock(1.011) == 900


def test_clock_must_be_supported(nvml):
    with pytest.raises(NVMLError):
        nvml.device(0).lock_sm_clock(907, now=0.0)  # off-grid


def test_clock_requests_time_ordered(nvml):
    dev = nvml.device(0)
    dev.lock_sm_clock(900, now=5.0)
    with pytest.raises(NVMLError):
        dev.lock_sm_clock(600, now=1.0)


def test_reset_returns_to_max(nvml):
    dev = nvml.device(0)
    dev.lock_sm_clock(600, now=0.0)
    dev.reset_sm_clock(now=1.0)
    assert dev.sm_clock(2.0) == A100_PCIE.max_freq


def test_activity_energy_integration(nvml):
    dev = nvml.device(0)
    dev.record_activity(0.0, 2.0, 200.0)
    assert dev.energy_counter(2.0) == pytest.approx(400.0)


def test_idle_gaps_use_idle_power(nvml):
    dev = nvml.device(0)
    dev.record_activity(1.0, 2.0, 200.0)
    expected = A100_PCIE.idle_w * 1.0 + 200.0 * 1.0 + A100_PCIE.idle_w * 1.0
    assert dev.energy_counter(3.0) == pytest.approx(expected)


def test_energy_counter_windowed(nvml):
    dev = nvml.device(0)
    dev.record_activity(0.0, 4.0, 100.0)
    assert dev.energy_counter(3.0, since=1.0) == pytest.approx(200.0)


def test_overlapping_activity_rejected(nvml):
    dev = nvml.device(0)
    dev.record_activity(0.0, 2.0, 100.0)
    with pytest.raises(NVMLError):
        dev.record_activity(1.0, 3.0, 100.0)


def test_power_draw_inside_and_outside_activity(nvml):
    # Average power over a window is the windowed counter over its length.
    dev = nvml.device(0)
    dev.record_activity(1.0, 2.0, 250.0)
    assert dev.energy_counter(1.6, since=1.4) / 0.2 == pytest.approx(250.0)
    assert dev.energy_counter(0.6, since=0.4) / 0.2 == pytest.approx(
        A100_PCIE.idle_w)


def test_total_energy_sums_devices(nvml):
    nvml.device(0).record_activity(0.0, 1.0, 100.0)
    nvml.device(1).record_activity(0.0, 1.0, 50.0)
    expected = 150.0
    total = sum(device.energy_counter(1.0) for device in nvml.devices)
    assert total == pytest.approx(expected)


def test_bad_device_index(nvml):
    with pytest.raises(NVMLError):
        nvml.device(7)
