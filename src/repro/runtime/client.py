"""Perseus client (§5, Table 2): one process per accelerator.

The client wraps the training engine's instruction boundaries
(Appendix G):

* ``profiler.begin(type)`` / ``profiler.end(type)`` -- in-vivo time/energy
  profiling during the first iterations, sweeping clocks from the highest
  downward and stopping once lower clocks are strictly suboptimal;
* ``controller.set_speed(type)`` -- realize the deployed energy schedule
  by locking the planned SM clock for each computation.

The client is engine-driven: the simulated training engine calls these
hooks with the current simulated timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..exceptions import ClientError
from ..gpu.nvml import SimDevice
from ..profiler.measurement import Measurement, OpProfile, PipelineProfile
from .controller import AsyncFrequencyController

#: Consecutive energy regressions before the sweep stops (§5).
SWEEP_PATIENCE = 3


@dataclass
class InVivoProfiler:
    """Client-side profiler: measures each computation type per clock.

    One sweep clock is held for ``iterations_per_freq`` iterations; the
    mean (time, energy) per op type becomes one measurement.  Sweeping
    stops after ``SWEEP_PATIENCE`` consecutive clocks whose *summed* energy
    regressed -- below the min-energy clock everything is strictly
    suboptimal.
    """

    device: SimDevice
    stage: int
    freqs_descending: List[int]
    iterations_per_freq: int = 5
    _freq_idx: int = 0
    _iter_in_freq: int = 0
    _acc: Dict[tuple, List[float]] = field(default_factory=dict)
    _open: Dict[tuple, tuple] = field(default_factory=dict)
    measurements: Dict[tuple, List[Measurement]] = field(default_factory=dict)
    _energy_per_freq: List[float] = field(default_factory=list)
    done: bool = False

    @property
    def current_freq(self) -> Optional[int]:
        if self.done or self._freq_idx >= len(self.freqs_descending):
            return None
        return self.freqs_descending[self._freq_idx]

    def begin(self, op_key: tuple, now: float) -> None:
        """Table 2 ``profiler.begin``: mark a computation's start."""
        if op_key in self._open:
            raise ClientError(f"begin({op_key}) while already profiling it")
        self._open[op_key] = (now, self.device.energy_counter(now))

    def end(self, op_key: tuple, now: float) -> None:
        """Table 2 ``profiler.end``: record elapsed time and energy."""
        if op_key not in self._open:
            raise ClientError(f"end({op_key}) without begin")
        start, energy0 = self._open.pop(op_key)
        self._acc.setdefault(op_key, []).append(now - start)
        self._acc.setdefault((op_key, "energy"), []).append(
            self.device.energy_counter(now) - energy0
        )

    def end_iteration(self) -> None:
        """Advance the sweep; called by the engine after each iteration."""
        if self.done:
            return
        self._iter_in_freq += 1
        if self._iter_in_freq < self.iterations_per_freq:
            return
        freq = self.freqs_descending[self._freq_idx]
        iteration_energy = 0.0
        for op_key, times in list(self._acc.items()):
            if isinstance(op_key, tuple) and len(op_key) == 2 and op_key[1] == "energy":
                continue
            energies = self._acc.get((op_key, "energy"), [])
            if not times or not energies:
                continue
            mean_t = sum(times) / len(times)
            mean_e = sum(energies) / len(energies)
            iteration_energy += sum(energies)
            self.measurements.setdefault(op_key, []).append(
                Measurement(freq_mhz=freq, time_s=max(mean_t, 1e-9),
                            energy_j=max(mean_e, 1e-9))
            )
        self._acc.clear()
        self._energy_per_freq.append(iteration_energy)
        best = min(self._energy_per_freq)
        regressions = 0
        for e in reversed(self._energy_per_freq):
            if e > best:
                regressions += 1
            else:
                break
        self._freq_idx += 1
        self._iter_in_freq = 0
        if regressions >= SWEEP_PATIENCE or self._freq_idx >= len(
            self.freqs_descending
        ):
            self.done = True

    def build_profile(self, p_blocking_w: float) -> PipelineProfile:
        """Assemble this stage's measurements into a pipeline profile."""
        profile = PipelineProfile(p_blocking_w=p_blocking_w)
        for op_key, ms in self.measurements.items():
            profile.ops[op_key] = OpProfile(op=op_key, measurements=list(ms))
        return profile


@dataclass
class PerseusClient:
    """Table 2 client for one accelerator (one pipeline stage).

    Lifecycle: profile in vivo -> submit profile -> receive schedule ->
    realize it through the async frequency controller.
    """

    device: SimDevice
    stage: int
    profiler: InVivoProfiler
    controller: AsyncFrequencyController

    @classmethod
    def create(
        cls,
        device: SimDevice,
        stage: int,
        freq_stride: int = 1,
        iterations_per_freq: int = 5,
    ) -> "PerseusClient":
        table = (
            device.spec.freq
            if freq_stride == 1
            else device.spec.freq.subsample(freq_stride)
        )
        profiler = InVivoProfiler(
            device=device,
            stage=stage,
            freqs_descending=table.descending(),
            iterations_per_freq=iterations_per_freq,
        )
        return cls(
            device=device,
            stage=stage,
            profiler=profiler,
            controller=AsyncFrequencyController(device=device),
        )

    @property
    def profiling(self) -> bool:
        return not self.profiler.done

    def deploy_schedule(self, frequencies: List[int], now: float) -> None:
        """Server pushed a new energy schedule for this stage."""
        self.controller.load_plan(frequencies, now)

    def on_instruction_start(self, op_key: tuple, now: float) -> None:
        """Engine hook: ``controller.set_speed`` + ``profiler.begin``."""
        if self.profiling:
            freq = self.profiler.current_freq
            if freq is not None:
                self.device.lock_sm_clock(freq, now)
            self.profiler.begin(op_key, now)
        else:
            self.controller.set_speed(now)

    def on_instruction_end(self, op_key: tuple, now: float) -> None:
        """Engine hook: ``profiler.end``."""
        if self.profiling:
            self.profiler.end(op_key, now)

    def on_iteration_end(self) -> None:
        if self.profiling:
            self.profiler.end_iteration()

    def begin_iteration(self, now: float) -> None:
        if not self.profiling and self.controller.plan:
            self.controller.begin_iteration(now)
