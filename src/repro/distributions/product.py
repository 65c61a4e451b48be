"""Gang availability: the minimum of independent machine lifetimes.

A gang-scheduled parallel job runs on ``W`` machines at once and is
interrupted the moment *any* of them is reclaimed, so the relevant
availability variable is ``min(X_1, ..., X_W)``.  For independent
members the survival function is the product of the members' survival
functions::

    S_gang(x) = prod_i S_i(x)        h_gang(x) = sum_i h_i(x)

which is everything the checkpoint optimizer needs: the density follows
from the hazard sum, conditioning distributes over the members (each at
its own elapsed uptime), and the moments and the partial expectation
come from the generic survival-only quadrature of the base class
(``PE(x) = int_0^x S - x S(x)``) -- this class is the library's
demonstration that the Markov machinery genuinely works for *any*
family, as Section 3.5 claims.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.distributions.base import ArrayLike, AvailabilityDistribution, FloatArray, ScalarOrArray

__all__ = ["ProductAvailability"]


class ProductAvailability(AvailabilityDistribution):
    """Distribution of ``min(X_1, .., X_W)`` over independent members."""

    name = "product"

    __slots__ = ("members",)

    def __init__(self, members: Iterable[AvailabilityDistribution]) -> None:
        members = tuple(members)
        if not members:
            raise ValueError("a gang needs at least one member")
        for m in members:
            if not isinstance(m, AvailabilityDistribution):
                raise TypeError(f"not an availability distribution: {m!r}")
        self.members = members

    @property
    def width(self) -> int:
        return len(self.members)

    # -- primitives ----------------------------------------------------
    def sf(self, x: ArrayLike) -> ScalarOrArray:
        arr = np.asarray(x, dtype=np.float64)
        out = np.ones(arr.shape, dtype=np.float64)
        for m in self.members:
            out = out * np.asarray(m.sf(arr))
        return float(out) if arr.ndim == 0 else out

    def _cdf(self, x: FloatArray) -> FloatArray:
        return 1.0 - np.asarray(self.sf(x))

    def _pdf(self, x: FloatArray) -> FloatArray:
        # f = S * sum_i h_i, formed only where S > 0: once the survival has
        # vanished a member hazard may be infinite and S * h would be 0 * inf
        surv = np.asarray(self.sf(x))
        alive = surv > 0.0
        hazard = np.zeros(np.count_nonzero(alive), dtype=np.float64)
        for m in self.members:
            hazard = hazard + np.asarray(m.hazard(x[alive]))
        out = np.zeros(surv.shape, dtype=np.float64)
        out[alive] = surv[alive] * hazard
        return out

    def cdf_one(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        surv = 1.0
        for m in self.members:
            surv *= float(m.sf(x))
        return 1.0 - surv

    def mean(self) -> float:
        """``E[min] = int_0^inf S_gang(x) dx``."""
        return self._survival_moment(0)

    def variance(self) -> float:
        """``2 int_0^inf x S_gang(x) dx - E[min]^2``."""
        mu = self.mean()
        return max(2.0 * self._survival_moment(1) - mu * mu, 0.0)

    @property
    def n_params(self) -> int:
        return sum(m.n_params for m in self.members)

    def params(self) -> dict[str, float | tuple[float, ...]]:
        return {
            f"member{i}_{k}": v
            for i, m in enumerate(self.members)
            for k, v in m.params().items()
        }

    # -- conditioning distributes over members --------------------------
    def conditional(self, age: float) -> "ProductAvailability":
        """Every member has survived ``age``: condition each of them."""
        if age < 0:
            raise ValueError(f"age must be non-negative, got {age}")
        if age == 0:
            return self
        return ProductAvailability(tuple(m.conditional(age) for m in self.members))

    def at_ages(self, ages: Iterable[float]) -> "ProductAvailability":
        """Condition each member at its *own* uptime (ranks placed at
        different times)."""
        ages = tuple(ages)
        if len(ages) != self.width:
            raise ValueError(f"need {self.width} ages, got {len(ages)}")
        return ProductAvailability(
            tuple(m.conditional(a) if a > 0 else m for m, a in zip(self.members, ages))
        )

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> FloatArray:
        draws = np.stack([np.asarray(m.sample(size, rng)) for m in self.members])
        return draws.min(axis=0)
