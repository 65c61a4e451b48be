"""Per-tenant model registry: named pools -> fitted model + cost set.

One daemon serves many cycle-harvesting pools.  Each pool registers the
availability model its fitters produced (see
:mod:`repro.serve.models`) together with the checkpoint costs in effect
on its link, and solve queries then name the pool instead of shipping
the model per request.  Registration is replace-on-conflict: a tenant
pushing a refreshed fit simply re-registers under the same name, and
in-flight queries against the old model finish against the old model
(the query captured the distribution object at dispatch time).

The registry is a plain in-process dict -- the daemon is single-loop
asyncio, so no locking is needed; mutations report through the metrics
registry (``serve.registry.*``), and it is also where the per-tenant
label partition starts: every mutation records a
``serve.tenant.registry`` event labeled with the pool name and action,
so the labeled series for a tenant exists from the moment it registers
(cardinality is bounded by the metrics registry's label cap).

:data:`DEMO_POOLS` is the demo tenant set ``repro serve --demo`` and
``repro bench-serve`` preload: :func:`demo_registry` for one process,
:func:`distribution_specs` as registration payloads (worker pools,
``--connect``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.markov import CheckpointCosts
from repro.distributions.base import AvailabilityDistribution
from repro.distributions.exponential import Exponential
from repro.distributions.hyperexponential import Hyperexponential
from repro.distributions.weibull import Weibull
from repro.obs.metrics import active as _metrics
from repro.serve.models import distribution_to_spec

__all__ = [
    "DEMO_POOLS",
    "PoolEntry",
    "TenantRegistry",
    "UnknownPoolError",
    "demo_registry",
    "distribution_specs",
]


class UnknownPoolError(KeyError):
    """A query or admin op named a pool that is not registered."""

    def __init__(self, name: str, known: list[str]) -> None:
        hint = ", ".join(sorted(known)) if known else "none registered"
        super().__init__(f"unknown pool {name!r} (known: {hint})")
        self.pool = name

    def __str__(self) -> str:
        # KeyError repr()s its argument; keep the message readable
        return str(self.args[0])


@dataclass(frozen=True)
class PoolEntry:
    """One registered tenant pool."""

    name: str
    distribution: AvailabilityDistribution
    costs: CheckpointCosts


class TenantRegistry:
    """Named pools -> :class:`PoolEntry`, replace-on-conflict."""

    def __init__(self) -> None:
        self._pools: dict[str, PoolEntry] = {}

    def register(
        self,
        name: str,
        distribution: AvailabilityDistribution,
        costs: CheckpointCosts,
    ) -> bool:
        """Register (or replace) a pool; returns ``True`` on replace."""
        if not name or not isinstance(name, str):
            raise ValueError(f"pool name must be a non-empty string, got {name!r}")
        replaced = name in self._pools
        self._pools[name] = PoolEntry(name=name, distribution=distribution, costs=costs)
        reg = _metrics()
        if reg is not None:
            reg.inc("serve.registry.updated" if replaced else "serve.registry.registered")
            reg.inc(
                "serve.tenant.registry",
                labels={"tenant": name, "action": "replace" if replaced else "register"},
            )
            reg.set_gauge("serve.registry.pools", len(self._pools))
        return replaced

    def unregister(self, name: str) -> None:
        if name not in self._pools:
            raise UnknownPoolError(name, list(self._pools))
        del self._pools[name]
        reg = _metrics()
        if reg is not None:
            reg.inc("serve.registry.unregistered")
            reg.inc(
                "serve.tenant.registry",
                labels={"tenant": name, "action": "unregister"},
            )
            reg.set_gauge("serve.registry.pools", len(self._pools))

    def get(self, name: str) -> PoolEntry:
        entry = self._pools.get(name)
        if entry is None:
            raise UnknownPoolError(name, list(self._pools))
        return entry

    def entries(self) -> list[PoolEntry]:
        """All registered pools, sorted by name."""
        return [self._pools[k] for k in sorted(self._pools)]

    def __len__(self) -> int:
        return len(self._pools)

    def __contains__(self, name: object) -> bool:
        return name in self._pools


#: the demo tenant set: the paper's three model families at campus costs
DEMO_POOLS: tuple[tuple[str, AvailabilityDistribution, CheckpointCosts], ...] = (
    ("campus-exp", Exponential(1.0 / 5000.0), CheckpointCosts(110.0, 110.0, 0.0)),
    ("campus-weibull", Weibull(0.43, 3409.0), CheckpointCosts(110.0, 110.0, 0.0)),
    (
        "campus-hyper2",
        Hyperexponential([0.5, 0.5], [1.0 / 100.0, 1.0 / 9000.0]),
        CheckpointCosts(110.0, 110.0, 10.0),
    ),
)


def demo_registry() -> TenantRegistry:
    """A registry preloaded with the paper's model families."""
    registry = TenantRegistry()
    for name, dist, costs in DEMO_POOLS:
        registry.register(name, dist, costs)
    return registry


def distribution_specs() -> list[dict[str, Any]]:
    """The demo pool definitions as JSON-ready registration payloads."""
    return [
        {
            "pool": name,
            "model": distribution_to_spec(dist),
            "costs": {
                "checkpoint": costs.checkpoint,
                "recovery": costs.recovery,
                "latency": costs.latency,
            },
        }
        for name, dist, costs in DEMO_POOLS
    ]
