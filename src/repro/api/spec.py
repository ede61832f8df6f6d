"""The :class:`PlanSpec` planning configuration (one plan = one spec).

A spec is a frozen, hashable value object naming everything the
:class:`~repro.api.planner.Planner` needs to produce a frequency plan:
the workload (model, gpu, parallelism), the profiling fidelity, the
optimizer granularity, and which registered strategy should do the
planning.  Because it is a value object it doubles as the memoization
key for the planner's staged pipeline and round-trips through JSON for
sweep manifests and the server API.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from typing import IO, Optional, Tuple, Union

from ..exceptions import ConfigurationError

#: Serialized-payload schema version (bumped on incompatible changes).
#: Version 2 added the per-stage ``gpu`` tuple form; version 3 added the
#: ``exactness`` field.  Older payloads (which cannot carry the newer
#: fields) still load.
SPEC_FORMAT_VERSION = 3

#: Payload versions :meth:`PlanSpec.from_dict` accepts.
SUPPORTED_SPEC_VERSIONS = (1, 2, 3)

#: Named profiling-fidelity presets -> default frequency-ladder stride.
#: ``full`` profiles the complete 15 MHz grid (paper fidelity); ``fast``
#: is the experiment default; ``smoke`` is for CI and quick sanity runs.
FIDELITY_STRIDES = {"full": 1, "fast": 4, "smoke": 16}

DEFAULT_FIDELITY = "fast"
DEFAULT_STRATEGY = "perseus"

#: Optimizer exactness modes: ``"exact"`` reproduces the reference
#: crawl bit-for-bit; ``"fast"`` solves min cuts with warm starts and
#: series-parallel contraction (results stay within the documented
#: tolerance of exact).
EXACTNESS_MODES = ("exact", "fast")
DEFAULT_EXACTNESS = "exact"


def _positive_int(value) -> bool:
    """A positive ``int`` that is not a ``bool`` (JSON ``true`` is no 1)."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 1)


@dataclass(frozen=True)
class PlanSpec:
    """Complete, validated description of one planning request.

    Attributes:
        model: Model-zoo variant, e.g. ``"gpt3-xl"``
            (see :func:`repro.models.list_models`).
        gpu: GPU name or alias, e.g. ``"a100"``, ``"a40"`` (see
            :func:`repro.gpu.specs.list_gpus`), or a tuple naming one GPU
            per stage (e.g. ``("a100", "a100", "a40", "a40")``) for
            mixed-cluster pipelines.  A tuple must have exactly
            ``stages`` entries; a homogeneous tuple is equivalent to the
            single name.
        stages: Pipeline-parallel degree.
        microbatches: Microbatches per training iteration.
        microbatch_size: Per-microbatch batch size (zoo default if None).
        tensor_parallel: Operator-parallel degree within each stage.
        freq_stride: Frequency-ladder subsampling for profiling
            (1 = full 15 MHz grid).  ``None`` defers to the fidelity
            preset's default stride.
        tau: Frontier planning granularity in seconds (auto-derived from
            the frontier span if None).
        strategy: Registered strategy name doing the planning (see
            :func:`repro.api.list_strategies`).
        fidelity: Profiling-fidelity preset: ``"full"``, ``"fast"`` or
            ``"smoke"``; only consulted while ``freq_stride`` is None.
        exactness: Optimizer exactness mode: ``"exact"`` (bit-identical
            to the reference crawl) or ``"fast"`` (warm-started min-cuts
            plus series-parallel contraction, within tolerance).
    """

    model: str
    gpu: Union[str, Tuple[str, ...]] = "a100"
    stages: int = 4
    microbatches: int = 8
    microbatch_size: Optional[int] = None
    tensor_parallel: int = 1
    freq_stride: Optional[int] = None
    tau: Optional[float] = None
    strategy: str = DEFAULT_STRATEGY
    fidelity: str = DEFAULT_FIDELITY
    exactness: str = DEFAULT_EXACTNESS

    def __post_init__(self) -> None:
        if not self.model or not isinstance(self.model, str):
            raise ConfigurationError("PlanSpec.model must be a model name")
        if isinstance(self.gpu, list):
            # Accept lists (e.g. from JSON) but store the hashable form.
            object.__setattr__(self, "gpu", tuple(self.gpu))
        if isinstance(self.gpu, tuple):
            if not self.gpu or not all(
                g and isinstance(g, str) for g in self.gpu
            ):
                raise ConfigurationError(
                    "PlanSpec.gpu tuple entries must be GPU names"
                )
        elif not self.gpu or not isinstance(self.gpu, str):
            raise ConfigurationError(
                "PlanSpec.gpu must be a GPU name or a per-stage tuple "
                "of GPU names"
            )
        if not self.strategy or not isinstance(self.strategy, str):
            raise ConfigurationError(
                "PlanSpec.strategy must be a strategy name"
            )
        for attr in ("stages", "microbatches", "tensor_parallel"):
            value = getattr(self, attr)
            if not _positive_int(value):
                raise ConfigurationError(
                    f"PlanSpec.{attr} must be a positive int, got {value!r}"
                )
        if isinstance(self.gpu, tuple) and len(self.gpu) != self.stages:
            raise ConfigurationError(
                f"PlanSpec.gpu names {len(self.gpu)} GPUs for "
                f"{self.stages} stages; a per-stage tuple must have "
                f"exactly one entry per stage"
            )
        if self.microbatch_size is not None and not _positive_int(
            self.microbatch_size
        ):
            raise ConfigurationError(
                f"PlanSpec.microbatch_size must be a positive int or None, "
                f"got {self.microbatch_size!r}"
            )
        if self.freq_stride is not None and not _positive_int(
            self.freq_stride
        ):
            raise ConfigurationError(
                f"PlanSpec.freq_stride must be a positive int or None, "
                f"got {self.freq_stride!r}"
            )
        if self.tau is not None:
            real = (isinstance(self.tau, numbers.Real)
                    and not isinstance(self.tau, bool))
            try:
                tau = float(self.tau) if real else math.nan
            except OverflowError:  # an int past the float range
                tau = math.inf
            if not 0 < tau < math.inf:
                raise ConfigurationError(
                    f"PlanSpec.tau must be a positive finite number or "
                    f"None, got {self.tau!r}"
                )
            # An int tau keys the same store entries as its float.
            object.__setattr__(self, "tau", tau)
        if (not isinstance(self.fidelity, str)
                or self.fidelity not in FIDELITY_STRIDES):
            raise ConfigurationError(
                f"PlanSpec.fidelity must be one of "
                f"{sorted(FIDELITY_STRIDES)}, got {self.fidelity!r}"
            )
        if self.exactness not in EXACTNESS_MODES:
            raise ConfigurationError(
                f"PlanSpec.exactness must be one of "
                f"{list(EXACTNESS_MODES)}, got {self.exactness!r}"
            )

    # -- derived values ------------------------------------------------------
    @property
    def gpu_names(self) -> Tuple[str, ...]:
        """One GPU name per stage (single names are broadcast)."""
        if isinstance(self.gpu, tuple):
            return self.gpu
        return (self.gpu,) * self.stages

    @property
    def is_heterogeneous(self) -> bool:
        """Whether the spec *names* more than one GPU type.

        Purely syntactic: distinct aliases of the same device (e.g.
        ``"a100"`` and ``"a100-pcie"``) count as heterogeneous here; the
        planner resolves aliases and treats such mixes as homogeneous.
        """
        return len(set(self.gpu_names)) > 1

    @property
    def effective_freq_stride(self) -> int:
        """The profiling stride actually used (explicit wins over preset)."""
        if self.freq_stride is not None:
            return self.freq_stride
        return FIDELITY_STRIDES[self.fidelity]

    def replace(self, **changes) -> "PlanSpec":
        """A copy with some fields changed (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    # -- JSON round-trip -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation (versioned, flat).

        A per-stage ``gpu`` tuple serializes as a JSON list; a single
        name stays a string (version-1 payloads are exactly this form).
        """
        # Every field is a scalar or a tuple of names, so the fields are
        # copied directly: ``dataclasses.asdict`` deep-copies each value.
        payload = {"version": SPEC_FORMAT_VERSION, "kind": "plan_spec"}
        for field in dataclasses.fields(self):
            payload[field.name] = getattr(self, field.name)
        if isinstance(self.gpu, tuple):
            payload["gpu"] = list(self.gpu)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PlanSpec":
        """Inverse of :meth:`to_dict` (validates the result)."""
        if not isinstance(payload, dict):
            raise ConfigurationError("plan spec payload must be an object")
        if payload.get("kind") != "plan_spec":
            raise ConfigurationError(
                f"expected kind 'plan_spec', got {payload.get('kind')!r}"
            )
        version = payload.get("version")
        if version not in SUPPORTED_SPEC_VERSIONS:
            raise ConfigurationError(
                f"unsupported plan spec version {version!r}; supported: "
                f"{list(SUPPORTED_SPEC_VERSIONS)}"
            )
        if version == 1 and not isinstance(payload.get("gpu", "a100"), str):
            raise ConfigurationError(
                "version-1 plan specs name a single GPU; per-stage GPU "
                "lists require version 2"
            )
        if (
            version < 3
            and payload.get("exactness", DEFAULT_EXACTNESS)
            != DEFAULT_EXACTNESS
        ):
            raise ConfigurationError(
                "plan spec versions below 3 cannot carry a non-default "
                "exactness; re-serialize with version 3"
            )
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - fields - {"version", "kind"}
        if unknown:
            raise ConfigurationError(
                f"unknown plan spec fields: {sorted(unknown)}"
            )
        return cls(**{k: v for k, v in payload.items() if k in fields})

    def to_json(self, fp: Optional[IO[str]] = None) -> str:
        """Serialize to a JSON string (and optionally an open file)."""
        text = json.dumps(self.to_dict(), sort_keys=True)
        if fp is not None:
            fp.write(text)
        return text

    @classmethod
    def from_json(cls, source: Union[str, IO[str]]) -> "PlanSpec":
        """Parse a spec from a JSON string or open file."""
        text = source if isinstance(source, str) else source.read()
        return cls.from_dict(json.loads(text))
