"""Generic future-lifetime (conditional) distributions -- eq. (8).

Given an availability model ``F`` and the knowledge that the resource has
already been up for ``age`` seconds, the distribution of the *additional*
time until failure is::

    F_age(x) = (F(age + x) - F(age)) / (1 - F(age))

The exponential (memoryless) and hyperexponential (phase-reweighting)
families override :meth:`AvailabilityDistribution.conditional` with
closed forms; this wrapper serves the Weibull and any user-supplied
family.  All quantities (pdf, cdf, partial expectation, quantile,
sampling) reduce to calls on the base distribution, so the closed-form
partial expectations of the base family are preserved.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import ArrayLike, AvailabilityDistribution, FloatArray, ScalarOrArray

__all__ = ["ConditionalDistribution"]

#: below this survival mass at ``age`` the difference forms
#: ``F(age + x) - F(age)`` / ``PE(age + x) - PE(age)`` have fewer
#: significant digits than the quantities they are meant to resolve, so
#: the wrapper switches to survival-ratio (by-parts integral) formulas
_DEEP_TAIL_SURV = 1e-9


class ConditionalDistribution(AvailabilityDistribution):
    """Future-lifetime distribution of ``base`` at elapsed age ``age``."""

    name = "conditional"

    __slots__ = ("base", "age", "_surv_age", "_cdf_age", "_pe_age")

    def __init__(self, base: AvailabilityDistribution, age: float) -> None:
        if age < 0:
            raise ValueError(f"age must be non-negative, got {age}")
        surv = float(base.sf(age))
        if surv <= 0.0:
            raise ValueError(
                f"conditional distribution undefined: S({age}) = 0 under {base!r}"
            )
        self.base = base
        self.age = float(age)
        self._surv_age = surv
        self._cdf_age = float(base.cdf(age))
        self._pe_age = float(base.partial_expectation(age))

    # -- primitives ----------------------------------------------------
    def _pdf(self, x: FloatArray) -> FloatArray:
        return np.asarray(self.base.pdf(self.age + x)) / self._surv_age

    def _cdf(self, x: FloatArray) -> FloatArray:
        if self._surv_age < 0.5:
            # deep in the tail F(age + x) - F(age) cancels catastrophically
            # (both round to 1.0 once S(age) ~ eps); the survival ratio is
            # exact there because sf works with small magnitudes directly
            return 1.0 - np.asarray(self.base.sf(self.age + x)) / self._surv_age
        return (np.asarray(self.base.cdf(self.age + x)) - self._cdf_age) / self._surv_age

    def sf(self, x: ArrayLike) -> ScalarOrArray:
        arr = np.asarray(x, dtype=np.float64)
        xp = np.maximum(arr, 0.0)
        out = np.asarray(self.base.sf(self.age + xp)) / self._surv_age
        out = np.where(arr >= 0.0, out, 1.0)
        out = np.clip(out, 0.0, 1.0)
        return float(out) if arr.ndim == 0 else out

    def mean(self) -> float:
        """``E[X - age | X > age]`` via the base partial expectation."""
        if self._surv_age < _DEEP_TAIL_SURV:
            # the difference form below degenerates to noise/S(age) in the
            # deep tail; integrate the stable conditional survival instead
            return self._survival_moment(0)
        return max(
            (self.base.mean() - self._pe_age) / self._surv_age - self.age, 0.0
        )

    def variance(self) -> float:
        # Var = 2 int_0^inf x S_c(x) dx - mean^2 on the conditional survival
        m = self.mean()
        return max(2.0 * self._survival_moment(1) - m * m, 0.0)

    @property
    def n_params(self) -> int:
        return self.base.n_params

    def params(self) -> dict[str, float | tuple[float, ...]]:
        return {"age": self.age, **{f"base_{k}": v for k, v in self.base.params().items()}}

    # -- scalar fast paths ------------------------------------------------
    def cdf_one(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if self._surv_age < 0.5:
            # stable in the deep tail, where the cdf difference cancels
            out = 1.0 - float(self.base.sf(self.age + x)) / self._surv_age
        else:
            out = (self.base.cdf_one(self.age + x) - self._cdf_age) / self._surv_age
        # round-off in the ratio can stray a few ulps outside [0, 1]
        return min(max(out, 0.0), 1.0)

    def partial_expectation_one(self, x: float) -> float:
        if self._surv_age < _DEEP_TAIL_SURV:
            return float(self.partial_expectation(x))
        if x <= 0.0:
            return 0.0
        pe_shift = self.base.partial_expectation_one(self.age + x)
        cdf_shift = self.base.cdf_one(self.age + x)
        out = (
            pe_shift - self._pe_age - self.age * (cdf_shift - self._cdf_age)
        ) / self._surv_age
        return max(out, 0.0)

    # -- closed-form reductions -----------------------------------------
    def partial_expectation(self, x: ArrayLike) -> ScalarOrArray:
        """``int_0^x t f_age(t) dt`` in terms of the base's ``PE``:

        ``[PE(age + x) - PE(age) - age * (F(age + x) - F(age))] / S(age)``.

        That difference form loses all its significant digits once
        ``S(age)`` drops below machine epsilon relative to the mean (both
        partial expectations saturate at ``E[X]``); there the generic
        by-parts form ``int_0^x S_age(t) dt - x S_age(x)`` takes over,
        which only touches the well-conditioned conditional survival.
        """
        if self._surv_age < _DEEP_TAIL_SURV:
            return super().partial_expectation(x)
        arr = np.asarray(x, dtype=np.float64)
        xp = np.maximum(arr, 0.0)
        pe_shift = np.asarray(self.base.partial_expectation(self.age + xp))
        cdf_shift = np.asarray(self.base.cdf(self.age + xp))
        out = (pe_shift - self._pe_age - self.age * (cdf_shift - self._cdf_age)) / self._surv_age
        out = np.where(arr <= 0.0, 0.0, np.maximum(out, 0.0))
        return float(out) if arr.ndim == 0 else out

    def quantile(self, q: ArrayLike) -> ScalarOrArray:
        """Inverse transform through the base quantile function."""
        arr = np.asarray(q, dtype=np.float64)
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        base_q = self._cdf_age + arr * self._surv_age
        out = np.asarray(self.base.quantile(np.clip(base_q, 0.0, 1.0))) - self.age
        out = np.maximum(out, 0.0)
        return float(out) if arr.ndim == 0 else out

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> FloatArray:
        return np.asarray(self.quantile(rng.random(size)))

    def conditional(self, age: float) -> AvailabilityDistribution:
        """Conditioning composes: ``(F_a)_b = F_{a+b}``."""
        if age < 0:
            raise ValueError(f"age must be non-negative, got {age}")
        if age == 0:
            return self
        return self.base.conditional(self.age + age)
