"""The exponential availability model (eqs. 1-2 of the paper).

The exponential is the baseline every prior checkpoint-interval study
used: a single rate parameter ``lambda``, and the *memoryless* property
``F_t = F`` for every age ``t``, which is what makes a single periodic
checkpoint interval optimal under this model.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Sequence
from typing import cast

import numpy as np

from repro.distributions.base import (
    ArrayLike,
    AvailabilityDistribution,
    CdfPeKernel,
    FloatArray,
    ScalarOrArray,
)

__all__ = ["Exponential", "exp_partial_expectation_one"]

#: below this value of ``u = lam * x`` the closed form
#: ``1/lam - (x + 1/lam) e^{-lam x}`` loses all digits to cancellation
#: (the result is O(lam x^2) but the terms are O(1/lam)); switch to the
#: Taylor series ``lam x^2 (1/2 - u/3 + u^2/8 - u^3/30)``
_SERIES_CUTOFF = 1e-4


def exp_partial_expectation_one(lam: float, x: float) -> float:
    """Numerically robust ``int_0^x t lam e^{-lam t} dt`` (scalar)."""
    if x <= 0.0:
        return 0.0
    if not math.isfinite(x):
        return 1.0 / lam
    u = lam * x
    if u < _SERIES_CUTOFF:
        return lam * x * x * (0.5 - u / 3.0 + u * u / 8.0 - u * u * u / 30.0)
    inv = 1.0 / lam
    return inv - (x + inv) * math.exp(-u)


def _exp_partial_expectation(lam: float, x: FloatArray) -> FloatArray:
    """Vectorised, series-protected exponential partial expectation."""
    xp = np.maximum(x, 0.0)
    u = lam * xp
    inv = 1.0 / lam
    with np.errstate(invalid="ignore"):  # inf * 0 / inf - inf at x = inf, masked below
        closed = inv - (xp + inv) * np.exp(-u)
        series = lam * xp * xp * (0.5 - u / 3.0 + u * u / 8.0 - u**3 / 30.0)
    out = np.where(u < _SERIES_CUTOFF, series, closed)
    out = np.where(np.isfinite(x), out, inv)
    return np.where(x <= 0.0, 0.0, out)


class Exponential(AvailabilityDistribution):
    """Exponential distribution with rate ``lam`` (mean ``1/lam``)."""

    name = "exponential"
    elementwise_mrl = True

    __slots__ = ("lam",)

    def __init__(self, lam: float) -> None:
        if not (lam > 0.0) or not np.isfinite(lam):
            raise ValueError(f"rate must be positive and finite, got {lam}")
        self.lam = float(lam)

    # -- primitives ----------------------------------------------------
    def _pdf(self, x: FloatArray) -> FloatArray:
        return self.lam * np.exp(-self.lam * x)

    def _cdf(self, x: FloatArray) -> FloatArray:
        return -np.expm1(-self.lam * x)

    def sf(self, x: ArrayLike) -> ScalarOrArray:
        arr = np.asarray(x, dtype=np.float64)
        out = np.where(arr >= 0.0, np.exp(-self.lam * np.maximum(arr, 0.0)), 1.0)
        return float(out) if arr.ndim == 0 else out

    def mean(self) -> float:
        return 1.0 / self.lam

    def variance(self) -> float:
        return 1.0 / self.lam**2

    @property
    def n_params(self) -> int:
        return 1

    def params(self) -> dict[str, float]:
        return {"lam": self.lam}

    # -- scalar fast paths ------------------------------------------------
    def cdf_one(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-self.lam * x)

    def partial_expectation_one(self, x: float) -> float:
        return exp_partial_expectation_one(self.lam, x)

    # -- closed forms ---------------------------------------------------
    def partial_expectation(self, x: ArrayLike) -> ScalarOrArray:
        """``int_0^x t lam e^{-lam t} dt = 1/lam - (x + 1/lam) e^{-lam x}``
        (series-protected for ``lam * x`` near zero)."""
        arr = np.asarray(x, dtype=np.float64)
        out = _exp_partial_expectation(self.lam, arr)
        return float(out) if arr.ndim == 0 else out

    def kernel_family(self) -> Hashable:
        return Exponential

    @classmethod
    def family_kernel(cls, dists: Sequence[AvailabilityDistribution], ages: FloatArray) -> CdfPeKernel:
        """Fused ``(F, PE)`` from one ``expm1(-lam x)``; by memorylessness
        every row's kernel is the unconditional one, at its own rate (a
        scalar for one instance, a ``(rows, 1)`` column for many).

        ``PE = F / lam - x (1 - F)`` loses digits below the series cutoff
        like the closed form does, so the same Taylor series takes over
        there.
        """
        exps = cast("Sequence[Exponential]", dists)
        if len(exps) == 1:
            neg_lam: float | FloatArray = -exps[0].lam
            lam: float | FloatArray = exps[0].lam
            slowest = exps[0].lam
        else:
            lam = np.array([e.lam for e in exps]).reshape(-1, 1)
            neg_lam, slowest = -lam, float(lam.min())

        def kernel(x: FloatArray) -> tuple[FloatArray, FloatArray]:
            neg_u = x * neg_lam
            em1 = np.expm1(neg_u)
            F = -em1
            PE = F / lam - x * (1.0 + em1)
            # lam x is monotone in x: no element is below the series
            # cutoff unless the smallest abscissa at the smallest rate is
            if float(x.min()) * slowest < _SERIES_CUTOFF:
                u = -neg_u
                PE = np.where(u < _SERIES_CUTOFF, u * x * (0.5 - u / 3.0 + u * u / 8.0 - u * u * u / 30.0), PE)
            return F, PE

        return kernel

    def quantile(self, q: ArrayLike) -> ScalarOrArray:
        arr = np.asarray(q, dtype=np.float64)
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            out = -np.log1p(-arr) / self.lam
        return float(out) if arr.ndim == 0 else out

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> FloatArray:
        return rng.exponential(scale=1.0 / self.lam, size=size)

    def conditional(self, age: float) -> "Exponential":
        """Memorylessness: the future-lifetime distribution is itself."""
        if age < 0:
            raise ValueError(f"age must be non-negative, got {age}")
        return self

    def mean_residual_life(self, t: ArrayLike) -> ScalarOrArray:
        arr = np.asarray(t, dtype=np.float64)
        out = np.full_like(arr, 1.0 / self.lam)
        return float(out) if arr.ndim == 0 else out
