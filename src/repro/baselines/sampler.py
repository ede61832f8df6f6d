"""Random-sampling bounds baseline: best-of-N uniform random plans.

The frontier crawl is a *search*; this module is the null hypothesis
against which the search earns its runtime.  ``random-sampler`` draws N
complete frequency plans uniformly at random from the profiled
feasible set (every computation independently picks one of its
Pareto-optimal clocks; fixed-duration ops keep their single clock),
evaluates each with the honest execution simulator, and returns the
best draw.  With a straggler target ``T'`` in the context, "best"
means the lowest-energy sample meeting the target; otherwise it is the
lowest-energy sample outright.

The stream is seeded, so the strategy is deterministic: the same
(dag, profile, seed, samples) always returns the same plan, which is
what lets sweep rows and fleet baselines reproduce bit-for-bit.  As a
*bounds* device it answers "what would N shots of blind sampling
achieve?" -- a cheap lower bound on attainable quality that fleet
policies (and ablation tables) can cite without paying for a crawl.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..api.strategies import FrequencyPlan, PlanContext, register_strategy
from ..exceptions import ConfigurationError
from ..sim.executor import execute_frequency_plan

#: Defaults for the registry instance (``PlanSpec(strategy=...)`` has no
#: argument channel; instantiate the class directly to override).
DEFAULT_SAMPLES = 32
DEFAULT_SEED = 0

__all__ = ["RandomSamplerStrategy", "DEFAULT_SAMPLES", "DEFAULT_SEED"]


@register_strategy("random-sampler")
class RandomSamplerStrategy:
    """Best-of-N seeded uniform random plans (cheap lower-bound baseline)."""

    def __init__(self, samples: int = DEFAULT_SAMPLES,
                 seed: int = DEFAULT_SEED) -> None:
        if samples < 1:
            raise ConfigurationError(
                f"random-sampler needs at least one sample, got {samples}"
            )
        self.samples = samples
        self.seed = seed

    def plan(self, ctx: PlanContext) -> FrequencyPlan:
        rng = random.Random(self.seed)
        choices = self._choices(ctx)
        best_plan: Optional[FrequencyPlan] = None
        best_key: Optional[Tuple[int, float, float]] = None
        target = ctx.target_time
        for _ in range(self.samples):
            plan = {
                node: freqs[rng.randrange(len(freqs))]
                for node, freqs in choices
            }
            execution = execute_frequency_plan(ctx.dag, plan, ctx.profile)
            meets = (target is None
                     or execution.iteration_time <= target + 1e-9)
            # Rank: target-meeting samples first, then by Eq. 3 energy,
            # then by time (a deterministic total order over draws).
            key = (0 if meets else 1, execution.energy_at(),
                   execution.iteration_time)
            if best_key is None or key < best_key:
                best_plan, best_key = plan, key
        assert best_plan is not None  # samples >= 1
        return best_plan

    @staticmethod
    def _choices(ctx: PlanContext) -> List[tuple]:
        """Per-node feasible clock lists, in deterministic node order.

        Sampling from each op's *Pareto* front keeps every draw
        undominated per-computation (uniform over the feasible
        schedules that could conceivably compete), and fixed ops
        contribute their single profiled clock.
        """
        out = []
        for node in sorted(ctx.dag.nodes):
            op_profile = ctx.profile.get(ctx.dag.nodes[node].op_key)
            if op_profile.fixed:
                freqs = [op_profile.measurements[0].freq_mhz]
            else:
                freqs = [m.freq_mhz for m in op_profile.pareto()]
            out.append((node, freqs))
        return out
