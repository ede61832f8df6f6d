"""Simulated NVML: clock latency, activity accounting, energy counters."""

import random

import pytest

from repro.exceptions import NVMLError
from repro.gpu.nvml import SimDevice, SimulatedNVML
from repro.gpu.specs import A100_PCIE
from repro.units import TIME_EPS


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


def full_scan(device, now, since=0.0):
    """The counter read as a scan of every segment since boot."""
    energy = 0.0
    covered = 0.0
    for seg in device._segments:
        lo = max(seg.start, since)
        hi = min(seg.end, now)
        if hi > lo:
            energy += seg.power_w * (hi - lo)
            covered += hi - lo
    energy += device.spec.idle_w * max(0.0, (now - since) - covered)
    return energy


def random_log(rng, device, count):
    """Segments in time order with gaps, touches within TIME_EPS
    (starts before the previous end, ends before their start) and
    zero-length ones; returns the last end."""
    t = 0.0
    for _ in range(count):
        kind = rng.random()
        if kind < 0.3:  # touch: start up to TIME_EPS before the last end
            start = t - rng.random() * TIME_EPS
        elif kind < 0.4:
            start = t
        else:
            start = t + rng.random() * 0.01
        length = rng.choice([0.0, -rng.random() * TIME_EPS,
                             rng.random() * 0.02, rng.random() * 1e-6])
        end = start + length
        device.record_activity(start, end, rng.uniform(50.0, 300.0))
        t = end
    return t


@pytest.mark.parametrize("seed", range(6))
def test_counter_reads_equal_a_full_scan(seed):
    rng = random.Random(seed)
    device = SimDevice(0, A100_PCIE)
    horizon = random_log(rng, device, 400)
    ends = [seg.end for seg in device._segments]
    assert any(b < a for a, b in zip(ends, ends[1:]))  # ends not monotone
    probes = [seg.start for seg in device._segments] + ends
    for _ in range(600):
        a = rng.choice([rng.uniform(-0.01, horizon + 0.01),
                        rng.choice(probes),
                        rng.choice(probes) + rng.uniform(-2, 2) * TIME_EPS])
        b = rng.choice([rng.uniform(a, horizon + 0.01), a,
                        rng.choice(probes)])
        since, now = min(a, b), max(a, b)
        assert device.energy_counter(now, since).hex() == \
            full_scan(device, now, since).hex()
        if now >= 0.0:
            assert device.energy_counter(now).hex() == \
                full_scan(device, now).hex()


class CountingSegments(list):
    """A segment log that counts the segments each read visits."""

    visited = 0

    def __getitem__(self, item):
        found = super().__getitem__(item)
        if isinstance(item, slice):
            self.visited += len(found)
        return found


def test_counter_read_visits_only_overlapping_segments():
    device = SimDevice(0, A100_PCIE)
    device._segments = log = CountingSegments()
    iteration = 16  # segments per "iteration": busy, then a bubble
    for k in range(200 * iteration):
        t = k * 0.01
        device.record_activity(t, t + 0.007, 250.0)
        device.record_activity(t + 0.007, t + 0.01, 90.0)
    for step in (1, 50, 199):
        since, now = step * iteration * 0.01, (step + 1) * iteration * 0.01
        log.visited = 0
        energy = device.energy_counter(now, since)
        assert energy.hex() == full_scan(device, now, since).hex()
        # The window's 32 segments plus at most one touching each edge.
        assert log.visited <= 2 * iteration + 2


def test_clock_reads_follow_the_event_log(nvml):
    dev = nvml.device(0)
    for k in range(50):
        dev.lock_sm_clock(A100_PCIE.freq.descending()[k % 7], now=k * 1.0)
    assert dev._clock_times == [t for t, _ in dev._clock_events]
    for k in range(50):
        assert dev.sm_clock(k + 0.5) == A100_PCIE.freq.descending()[k % 7]
