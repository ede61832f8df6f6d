"""Pluggable planning strategies: one protocol, one registry.

Perseus's core observation is that *one* frontier characterization
serves many scheduling policies; this module is the API expression of
that: every scheduler -- Perseus itself and each baseline -- is a
:class:`Strategy` with a single ``plan(ctx) -> {node: freq_mhz}``
signature, registered by name so callers (CLI ``compare``, sweeps, the
server) can enumerate and swap them without touching call sites.

Registering a new strategy::

    from repro.api import PlanContext, register_strategy

    @register_strategy("my-policy")
    class MyPolicy:
        def plan(self, ctx: PlanContext):
            return {n: ...  for n in ctx.dag.nodes}

Plain functions work too: ``@register_strategy("f")`` on
``def f(ctx): ...`` wraps it into a strategy object.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..exceptions import ConfigurationError
from ..pipeline.dag import ComputationDag
from ..profiler.measurement import PipelineProfile

#: A frequency plan: DAG node id -> locked SM clock in MHz.
FrequencyPlan = Dict[int, int]


@dataclass
class PlanContext:
    """Everything a strategy may consult when planning.

    The expensive members (profile, dag) are built once by the
    :class:`~repro.api.planner.Planner` and shared across every strategy
    planning the same pipeline; the frontier-backed ``optimizer`` is
    materialized lazily so frontier-free strategies never pay for it.
    Only the planner builds contexts: ``_optimizer_factory`` returns the
    stack's memoized optimizer, whose frontier is filed by
    :meth:`~repro.api.planner.Planner.frontier_at`.
    """

    dag: ComputationDag
    profile: PipelineProfile
    tau: float
    _optimizer_factory: Callable[[], object] = field(repr=False)
    _target_time: Optional[float] = None
    _optimizer: Optional[object] = field(default=None, repr=False)
    #: Whether the strategy read :attr:`target_time`: a plan made
    #: without reading it is the plan at every ``T'``, so the planner
    #: re-prices it instead of re-running the strategy.
    target_read: bool = field(default=False, init=False, repr=False)

    @property
    def target_time(self) -> Optional[float]:
        """Anticipated straggler iteration time ``T'`` (None = no straggler)."""
        self.target_read = True
        return self._target_time

    @property
    def optimizer(self):
        """The (lazily characterized) Perseus frontier optimizer."""
        if self._optimizer is None:
            self._optimizer = self._optimizer_factory()
        return self._optimizer


class Strategy:
    """Protocol for planning strategies (duck-typed; subclassing optional).

    A strategy maps a :class:`PlanContext` to a complete frequency plan
    covering every DAG node.  ``name`` is injected at registration.
    """

    name: str = ""

    def plan(self, ctx: PlanContext) -> FrequencyPlan:
        raise NotImplementedError

    @property
    def description(self) -> str:
        """One-line summary: the first line of the strategy's docstring.

        What ``repro strategies`` prints next to each name; write the
        docstring's first line for that audience.
        """
        return strategy_description(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<strategy {self.name!r}>"


def strategy_description(strategy: object) -> str:
    """First docstring line of a registered strategy (duck-typed).

    Works for ``Strategy`` subclasses, plain registered classes and
    wrapped functions alike -- whatever the registry stores.
    """
    doc = (getattr(strategy, "__doc__", None) or "").strip()
    return doc.splitlines()[0] if doc else "(no description)"


class Registry:
    """Name -> instance table for one duck-typed plugin protocol.

    Strategies (``plan``) and fleet policies (``allocate``,
    :mod:`repro.fleet.policy`) both register through one.  What is
    stored is an *instance*: classes are instantiated with no
    arguments, a ready-made object with the protocol method (e.g. a
    pre-configured plugin) is stored as-is, and a plain function is
    wrapped in ``base``.  Re-registering a name overwrites it, which is
    how plugins shadow built-ins.  ``kind`` and ``label`` name the
    protocol in registration and lookup errors.
    """

    def __init__(self, kind: str, method: str, base: type,
                 label: str = "") -> None:
        self.kind, self.method, self.base = kind, method, base
        self.label = label or kind
        self.entries: Dict[str, object] = {}

    def register(
        self, name: str
    ) -> Callable[[Union[type, Callable]], Union[type, Callable]]:
        if not name or not isinstance(name, str):
            raise ConfigurationError(
                f"{self.kind} name must be a non-empty string")

        def decorator(obj: Union[type, Callable]) -> Union[type, Callable]:
            if inspect.isclass(obj):
                instance = obj()
                if not callable(getattr(instance, self.method, None)):
                    raise ConfigurationError(
                        f"{self.kind} class {obj.__name__} must define "
                        f"{self.method}(ctx)")
            elif callable(getattr(obj, self.method, None)):
                instance = obj
            elif callable(obj):
                instance = self.base()
                setattr(instance, self.method, obj)
                instance.__doc__ = obj.__doc__
            else:
                raise ConfigurationError(
                    f"cannot register {obj!r} as a {self.kind}")
            instance.name = name
            self.entries[name] = instance
            return obj

        return decorator

    def lookup(self, name: str):
        """The named instance; unknown names list what is registered."""
        load_plugins()
        if name not in self.entries:
            raise ConfigurationError(
                f"unknown {self.label} {name!r}; registered: {self.names()}")
        return self.entries[name]

    def names(self) -> List[str]:
        load_plugins()
        return sorted(self.entries)


_STRATEGIES = Registry("strategy", "plan", Strategy)
_REGISTRY: Dict[str, Strategy] = _STRATEGIES.entries

#: Modules whose import registers the built-in strategies.  Imported
#: lazily on first lookup so ``repro.api`` never circularly imports the
#: baselines package at module-import time.
_BUILTIN_MODULES = (
    "repro.baselines.static",
    "repro.baselines.envpipe",
    "repro.baselines.zeus_global",
    "repro.baselines.zeus_perstage",
    "repro.baselines.sampler",
)

#: Entry-point group third-party distributions use to publish planning
#: strategies *and* fleet allocation policies::
#:
#:     [project.entry-points."repro.strategies"]
#:     my-planner = my_pkg.planners:MyStrategy      # has plan(ctx)
#:     my-capper  = my_pkg.policies:MyFleetPolicy   # has allocate(ctx)
#:     my-bundle  = my_pkg.register_all             # module/callable that
#:                                                  # self-registers
PLUGIN_GROUP = "repro.strategies"

_PLUGINS_LOADED = False


def _entry_points(group: str):
    """The installed entry points of one group, across Python versions.

    3.10+ has ``entry_points().select(group=...)``; 3.9 returns a plain
    ``{group: [eps]}`` mapping.  Any metadata failure yields an empty
    list -- plugin discovery must never break the registry.
    """
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - py<3.8 never runs this
        return []
    try:
        eps = entry_points()
        if hasattr(eps, "select"):
            return list(eps.select(group=group))
        return list(eps.get(group, []))
    except Exception as exc:  # pragma: no cover - corrupt metadata
        warnings.warn(f"cannot scan {group!r} entry points: {exc}")
        return []


def _import_builtins() -> None:
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def load_plugins(reload: bool = False) -> List[str]:
    """Discover third-party strategies and fleet policies (idempotent).

    Built-in strategy modules import first, so a plugin shadowing a
    built-in name wins regardless of which registry (strategies or
    fleet policies) is touched first.  Every entry point in the
    :data:`PLUGIN_GROUP` group is then loaded once, on first registry
    lookup.  What the entry point resolves to decides how it registers,
    under the entry point's *name*:

    * an object with ``allocate`` -> fleet policy
      (:func:`repro.fleet.register_policy`);
    * an object with ``plan``, or a plain callable -> strategy
      (:func:`register_strategy`);
    * a module -> assumed to have self-registered at import (its
      decorators ran); nothing further happens.

    A plugin that fails to load or register is reported as a warning
    and skipped; built-ins are never at risk.  Returns the names that
    registered something (mostly for tests); ``reload=True`` rescans,
    which is how a test installs a stub distribution mid-process.
    """
    global _PLUGINS_LOADED
    if _PLUGINS_LOADED and not reload:
        return []
    _PLUGINS_LOADED = True
    _import_builtins()  # plugins must land *after* the built-ins
    registered: List[str] = []
    for ep in _entry_points(PLUGIN_GROUP):
        try:
            obj = ep.load()
        except Exception as exc:
            warnings.warn(
                f"plugin {ep.name!r} ({ep.value}) failed to load: {exc}"
            )
            continue
        try:
            if inspect.ismodule(obj):
                registered.append(ep.name)  # self-registered via import
            elif callable(getattr(obj, "allocate", None)):
                from ..fleet.policy import register_policy

                register_policy(ep.name)(obj)
                registered.append(ep.name)
            elif hasattr(obj, "plan") or callable(obj):
                register_strategy(ep.name)(obj)
                registered.append(ep.name)
            else:
                warnings.warn(
                    f"plugin {ep.name!r} is neither a strategy, a fleet "
                    f"policy nor a module; skipped"
                )
        except Exception as exc:
            warnings.warn(f"plugin {ep.name!r} failed to register: {exc}")
    return registered


def register_strategy(
    name: str,
) -> Callable[[Union[type, Callable]], Union[type, Callable]]:
    """Class/function decorator adding a strategy to the registry.

    The decorated object is returned unchanged; what is stored is an
    *instance* (classes are instantiated with no arguments, functions
    are wrapped, and a ready-made instance with ``plan(ctx)`` -- e.g. a
    pre-configured plugin object -- is stored as-is).  Re-registering a
    name overwrites it, which is how plugins can shadow a built-in.
    """
    return _STRATEGIES.register(name)


def get_strategy(name: str) -> Strategy:
    """Look up a registered strategy by name.

    Raises :class:`~repro.exceptions.ConfigurationError` for unknown
    names, listing what *is* registered.
    """
    return _STRATEGIES.lookup(name)


def list_strategies() -> List[str]:
    """Sorted names of every registered strategy (builtins included)."""
    return _STRATEGIES.names()


# ---------------------------------------------------------------------------
# Built-in: Perseus (the paper's planner).  The baselines register
# themselves from their own modules in ``repro.baselines``.
# ---------------------------------------------------------------------------


@register_strategy("perseus")
class PerseusStrategy:
    """Graph-cut frontier planner (§3-§4): ``T_opt = min(T*, T')`` lookup."""

    def plan(self, ctx: PlanContext) -> FrequencyPlan:
        schedule = ctx.optimizer.schedule_for_straggler(ctx.target_time)
        return dict(schedule.frequencies)
