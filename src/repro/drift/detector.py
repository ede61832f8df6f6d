"""Hysteresis drift detection over realized step measurements.

The planned :class:`~repro.core.frontier.EnergySchedule` predicts one
iteration time and, through Eq. 3, one iteration energy.  The runtime
counts realized energy the same way (bubbles at ``P_blocking``), so the
detector compares what the job *realizes* against both and decides
when the departure is drift rather than noise:

* **Hysteresis band.** A sample is out-of-band when its relative
  deviation exceeds ``band.enter``; once the detector has flagged
  drift, the job is considered drifted until the deviation falls back
  below the tighter ``band.exit``.  The gap is what keeps a job
  hovering at the threshold from flapping the controller.
* **Patience.** Only ``patience`` *consecutive* out-of-band samples
  flag drift (and only ``patience`` consecutive in-band samples clear
  it), so a single straggling iteration -- a garbage-collection pause,
  one slow allreduce -- never triggers a re-plan.

The detector is pure arithmetic: no clocks, no I/O, deterministic for
a given sample sequence.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from ..exceptions import ConfigurationError

#: Signal kinds (which metric left the band).
TIME_DRIFT = "time"
ENERGY_DRIFT = "energy"


@dataclass(frozen=True)
class DriftBand:
    """Relative-deviation hysteresis thresholds.

    ``enter`` is the deviation that begins to count toward a drift
    flag; ``exit`` is the (tighter) deviation below which a flagged
    job begins to count as recovered.  ``enter > exit`` is what makes
    the band a hysteresis, not a line.
    """

    enter: float = 0.08
    exit: float = 0.03

    def __post_init__(self) -> None:
        if not (0.0 < self.exit < self.enter):
            raise ConfigurationError(
                f"drift band needs 0 < exit < enter, got "
                f"enter={self.enter!r} exit={self.exit!r}"
            )


@dataclass(frozen=True)
class DriftSignal:
    """An active drift flag, re-emitted every step while flagged.

    ``time_factor`` / ``energy_factor`` are windowed estimates of
    observed / planned -- a ``time_factor`` of 1.3 means iterations
    are realizing 30% slower than the deployed plan predicts, i.e.
    the job behaves as if floored at ``1.3 x`` its planned time.
    """

    kind: str
    time_factor: float
    energy_factor: float
    deviation: float
    steps: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "time_factor": self.time_factor,
            "energy_factor": self.energy_factor,
            "deviation": self.deviation,
            "steps": self.steps,
        }


class DriftDetector:
    """Flags sustained departure from a planned operating point.

    :meth:`observe` returns a :class:`DriftSignal` while the job is
    flagged as drifted and ``None`` otherwise; :meth:`rebase` resets
    the reference after a re-plan is adopted (the new plan's predicted
    point becomes "normal").
    """

    def __init__(
        self,
        planned_time_s: float,
        planned_energy_j: float,
        band: Optional[DriftBand] = None,
        patience: int = 3,
        window: int = 8,
    ) -> None:
        if patience < 1:
            raise ConfigurationError("detector patience must be >= 1")
        if window < patience:
            raise ConfigurationError(
                f"detector window ({window}) must hold at least "
                f"patience ({patience}) samples"
            )
        self.band = band or DriftBand()
        self.patience = patience
        self.window = window
        self._samples: Deque[Tuple[float, Optional[float]]] = deque(
            maxlen=window)
        self.rebase(planned_time_s, planned_energy_j)

    # -- reference management ------------------------------------------------
    def rebase(self, planned_time_s: float, planned_energy_j: float) -> None:
        """Adopt a new planned reference; forget all drift state."""
        _check_positive("planned iteration time", planned_time_s)
        _check_positive("planned iteration energy", planned_energy_j)
        self.planned_time_s = float(planned_time_s)
        self.planned_energy_j = float(planned_energy_j)
        self._samples.clear()
        self._out_streak = 0
        self._calm_streak = 0
        self._flagged = False
        self.steps = 0

    # -- observation ---------------------------------------------------------
    def observe(
        self,
        time_s: float,
        energy_j: Optional[float] = None,
    ) -> Optional[DriftSignal]:
        """Feed one realized iteration; returns the active signal.

        ``energy_j=None`` is a time-only report."""
        _check_positive("observed iteration time", time_s)
        if energy_j is not None:
            _check_positive("observed iteration energy", energy_j)
        self.steps += 1
        self._samples.append((float(time_s), energy_j))

        tdev = time_s / self.planned_time_s - 1.0
        edev = 0.0
        if energy_j is not None:
            edev = energy_j / self.planned_energy_j - 1.0

        threshold = self.band.exit if self._flagged else self.band.enter
        out = abs(tdev) > threshold or abs(edev) > threshold
        if out:
            self._out_streak += 1
            self._calm_streak = 0
        else:
            self._calm_streak += 1
            self._out_streak = 0
        if not self._flagged and self._out_streak >= self.patience:
            self._flagged = True
        elif self._flagged and self._calm_streak >= self.patience:
            self._flagged = False

        if not self._flagged:
            return None
        tf = self.time_factor
        ef = self.energy_factor
        kind = TIME_DRIFT if abs(tf - 1.0) >= abs(ef - 1.0) else ENERGY_DRIFT
        return DriftSignal(
            kind=kind,
            time_factor=tf,
            energy_factor=ef,
            deviation=max(abs(tf - 1.0), abs(ef - 1.0)),
            steps=self.steps,
        )

    # -- windowed estimates --------------------------------------------------
    @property
    def flagged(self) -> bool:
        return self._flagged

    @property
    def time_factor(self) -> float:
        """Windowed mean observed/planned iteration-time ratio."""
        recent = list(self._samples)[-self.patience:]
        if not recent:
            return 1.0
        mean = sum(t for t, _ in recent) / len(recent)
        return mean / self.planned_time_s

    @property
    def energy_factor(self) -> float:
        """Windowed mean observed/planned iteration-energy ratio."""
        recent = [e for _, e in list(self._samples)[-self.patience:]
                  if e is not None]
        if not recent:
            return 1.0
        return (sum(recent) / len(recent)) / self.planned_energy_j


def _check_positive(what: str, value: float) -> None:
    """A finite, positive time or energy, else :class:`ConfigurationError`
    (a NaN or infinite report would otherwise re-plan to a NaN floor)."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(
            f"{what} must be finite and > 0, got {value!r}")
