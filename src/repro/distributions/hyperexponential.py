"""The k-phase hyperexponential availability model (eqs. 5-7, 10).

A hyperexponential is a probability-weighted mixture of exponentials
with distinct rates.  It captures the "some sessions are short, some are
very long" bimodality of desktop availability, and -- because each phase
is individually memoryless -- its future-lifetime distribution is again
a hyperexponential with the *same* rates but reweighted mixing
probabilities::

    p_i(t) = p_i e^{-lam_i t} / sum_j p_j e^{-lam_j t}

This closed-form ageing is what makes hyperexponential checkpoint
schedules cheap to compute: surviving for a while shifts the weight onto
the slow phases, lengthening the optimal interval.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import (
    ArrayLike,
    AvailabilityDistribution,
    CdfPeKernel,
    FloatArray,
    ScalarOrArray,
)
from repro.distributions.exponential import (
    _SERIES_CUTOFF,
    _exp_partial_expectation,
    exp_partial_expectation_one,
)

__all__ = ["Hyperexponential"]


class Hyperexponential(AvailabilityDistribution):
    """Mixture of exponentials with weights ``probs`` and rates ``rates``."""

    name = "hyperexponential"

    __slots__ = ("probs", "rates")

    def __init__(self, probs: ArrayLike, rates: ArrayLike) -> None:
        p = np.asarray(probs, dtype=np.float64).ravel()
        lam = np.asarray(rates, dtype=np.float64).ravel()
        if p.shape != lam.shape or p.size == 0:
            raise ValueError("probs and rates must be non-empty and of equal length")
        if np.any(p < 0) or not np.isclose(p.sum(), 1.0, atol=1e-8):
            raise ValueError(f"mixing probabilities must be >= 0 and sum to 1, got {p}")
        if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
            raise ValueError(f"rates must be positive and finite, got {lam}")
        # Keep phases sorted by rate for deterministic repr/equality; the
        # paper requires pairwise-distinct rates, which the EM fitter
        # enforces by merging near-duplicates.
        order = np.argsort(lam)
        self.probs = p[order] / p.sum()
        self.rates = lam[order]
        self.probs.setflags(write=False)
        self.rates.setflags(write=False)

    @property
    def k(self) -> int:
        """Number of phases."""
        return int(self.rates.size)

    # -- primitives ----------------------------------------------------
    def _pdf(self, x: FloatArray) -> FloatArray:
        # broadcast: (..., k)
        e = np.exp(-np.multiply.outer(x, self.rates))
        return e @ (self.probs * self.rates)

    def _cdf(self, x: FloatArray) -> FloatArray:
        e = np.exp(-np.multiply.outer(x, self.rates))
        return 1.0 - e @ self.probs

    def sf(self, x: ArrayLike) -> ScalarOrArray:
        arr = np.asarray(x, dtype=np.float64)
        xp = np.maximum(arr, 0.0)
        e = np.exp(-np.multiply.outer(xp, self.rates))
        out = np.where(arr >= 0.0, e @ self.probs, 1.0)
        return float(out) if arr.ndim == 0 else out

    def mean(self) -> float:
        return float(np.sum(self.probs / self.rates))

    def variance(self) -> float:
        m1 = self.mean()
        m2 = float(np.sum(2.0 * self.probs / self.rates**2))
        return m2 - m1 * m1

    @property
    def n_params(self) -> int:
        # k rates plus k-1 free mixing probabilities
        return 2 * self.k - 1

    def params(self) -> dict[str, tuple[float, ...]]:
        return {"probs": tuple(self.probs), "rates": tuple(self.rates)}

    # -- scalar fast paths ------------------------------------------------
    def cdf_one(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        surv = 0.0
        for p, lam in zip(self.probs, self.rates):
            surv += p * math.exp(-lam * x)
        return 1.0 - surv

    def partial_expectation_one(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if not math.isfinite(x):
            return self.mean()
        total = 0.0
        for p, lam in zip(self.probs, self.rates):
            total += p * exp_partial_expectation_one(lam, x)
        return total

    # -- closed forms ---------------------------------------------------
    def partial_expectation(self, x: ArrayLike) -> ScalarOrArray:
        """Weighted sum of the exponential partial expectations."""
        arr = np.asarray(x, dtype=np.float64)
        out = np.zeros(arr.shape, dtype=np.float64)
        for p, lam in zip(self.probs, self.rates):
            out = out + p * _exp_partial_expectation(float(lam), arr)
        return float(out) if arr.ndim == 0 else out

    def conditional(self, age: float) -> "Hyperexponential":
        """Closed-form ageing: same rates, reweighted probabilities."""
        if age < 0:
            raise ValueError(f"age must be non-negative, got {age}")
        if age == 0:
            return self
        # log-sum-exp for numerical stability at large ages
        with np.errstate(divide="ignore"):
            logw = np.log(self.probs) - self.rates * age
        logw = logw - np.max(logw)
        w = np.exp(logw)
        total = w.sum()
        if total <= 0.0 or not np.isfinite(total):  # pragma: no cover - defensive
            w = np.zeros_like(w)
            w[np.argmin(self.rates)] = 1.0
            total = 1.0
        return Hyperexponential(w / total, self.rates)

    def cdf_pe_kernel(self, ages: ArrayLike) -> CdfPeKernel:
        """Fused ``(F_age, PE_age)``: the phase exponentials ``e^{-lam x}``
        evaluated once, mixed with each row's reweighted probabilities
        (the same log-sum-exp reweighting as :meth:`conditional`).

        ``F = 1 - sum_i p_i e^{-lam_i x}`` and the series-protected phase
        partial expectations are the formulas of :meth:`cdf_one` and
        :meth:`partial_expectation`.
        """
        a = np.asarray(ages, dtype=np.float64).reshape(-1, 1)
        with np.errstate(divide="ignore"):
            logw = np.log(self.probs) - self.rates * a
        w = np.exp(logw - logw.max(axis=1, keepdims=True))
        weights = (w / w.sum(axis=1, keepdims=True))[:, None, :]
        rates, inv = self.rates, 1.0 / self.rates

        def kernel(x: FloatArray) -> tuple[FloatArray, FloatArray]:
            x3 = x[..., None]
            u = x3 * rates
            e = np.exp(-u)
            PE = inv - (x3 + inv) * e
            small = u < _SERIES_CUTOFF
            if bool(small.any()):
                PE = np.where(small, u * x3 * (0.5 - u / 3.0 + u * u / 8.0 - u * u * u / 30.0), PE)
            return 1.0 - (e * weights).sum(axis=2), (PE * weights).sum(axis=2)

        return kernel

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> FloatArray:
        idx = rng.choice(self.k, size=size, p=self.probs)
        scales = 1.0 / self.rates
        return rng.exponential(scale=scales[idx])
