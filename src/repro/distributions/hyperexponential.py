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
from repro.distributions.exponential import (
    _SERIES_CUTOFF,
    _exp_partial_expectation,
    exp_partial_expectation_one,
)

__all__ = ["Hyperexponential"]


class Hyperexponential(AvailabilityDistribution):
    """Mixture of exponentials with weights ``probs`` and rates ``rates``."""

    name = "hyperexponential"
    elementwise_mrl = True

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

    def mean_residual_life(self, t: ArrayLike) -> ScalarOrArray:
        """``E[X - t | X > t]`` in the floats of the generic survival /
        partial-expectation form, element by element.

        The survival mixes each age's phase exponentials with one dot
        product per age, as the scalar call does: a matrix-vector product
        over many ages sums in another order.  So an array of ages gives
        bitwise the scalar calls (the optimizer resolves a solve call's
        search bounds in one call).
        """
        arr = np.asarray(t, dtype=np.float64)
        e = np.exp(-np.multiply.outer(np.maximum(arr, 0.0), self.rates))
        mixed = (
            e @ self.probs
            if arr.ndim == 0
            else np.array([row @ self.probs for row in e.reshape(-1, self.k)]).reshape(arr.shape)
        )
        surv = np.where(arr >= 0.0, mixed, 1.0)
        pe = np.asarray(self.partial_expectation(arr))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.maximum(np.where(surv > 0.0, (self.mean() - pe) / surv - arr, 0.0), 0.0)
        return float(out) if arr.ndim == 0 else out

    def kernel_family(self) -> Hashable:
        return Hyperexponential

    @classmethod
    def family_kernel(cls, dists: Sequence[AvailabilityDistribution], ages: FloatArray) -> CdfPeKernel:
        """Fused ``(F_age, PE_age)``: the phase exponentials ``e^{-lam x}``
        evaluated once, mixed with each row's reweighted probabilities
        (the same log-sum-exp reweighting as :meth:`conditional`).

        ``F = 1 - sum_i p_i e^{-lam_i x}`` and the series-protected phase
        partial expectations are the formulas of :meth:`cdf_one` and
        :meth:`partial_expectation`.  Rows of many instances carry
        ``(rows, k)`` probabilities and rates, padded to the largest ``k``
        with zero-probability phases at the end; a padded phase repeats
        its row's last rate, so it adds exact zeros to every sum and no
        inf or NaN enters them.
        """
        hypers = cast("Sequence[Hyperexponential]", dists)
        a = np.asarray(ages, dtype=np.float64).reshape(-1, 1)
        k = hypers[0].k if len(hypers) == 1 else max(h.k for h in hypers)
        logp, rates, inv = (
            hypers[0]._phase_params(k)
            if len(hypers) == 1
            else (np.array(col) for col in zip(*(h._phase_params(k) for h in hypers)))
        )
        logw = logp - rates * a
        w = np.exp(logw - logw.max(axis=1, keepdims=True))
        weights = w / w.sum(axis=1, keepdims=True)
        # one (-rate, 1/rate, weight) per phase: scalars for one instance,
        # (rows, 1) columns for many
        if rates.ndim == 1:
            phases = [
                (-r, v, weights[:, j : j + 1])
                for j, (r, v) in enumerate(zip(rates.tolist(), inv.tolist(), strict=True))
            ]
        else:
            neg_rates = -rates
            phases = [(neg_rates[:, j : j + 1], inv[:, j : j + 1], weights[:, j : j + 1]) for j in range(k)]
        slowest = float(rates.min())

        def phase(
            x: FloatArray, series: bool, neg_rate: float | FloatArray, inv_rate: float | FloatArray
        ) -> tuple[FloatArray, FloatArray]:
            neg_u = x * neg_rate
            e = np.exp(neg_u)
            PE = inv_rate - (x + inv_rate) * e
            if series:
                u = -neg_u
                PE = np.where(u < _SERIES_CUTOFF, u * x * (0.5 - u / 3.0 + u * u / 8.0 - u * u * u / 30.0), PE)
            return e, PE

        def kernel(x: FloatArray) -> tuple[FloatArray, FloatArray]:
            # phase by phase on (rows, n) arrays, the mixtures added in
            # phase order, as a sum over a trailing phase axis adds them.
            # lam x is monotone in x: no element is below the series
            # cutoff unless the smallest abscissa at the smallest rate is
            series = float(x.min()) * slowest < _SERIES_CUTOFF
            (neg_rate, inv_rate, weight), *rest = phases
            e, PE = phase(x, series, neg_rate, inv_rate)
            surv, pe = e * weight, PE * weight
            for neg_rate, inv_rate, weight in rest:
                e, PE = phase(x, series, neg_rate, inv_rate)
                surv = surv + e * weight
                pe = pe + PE * weight
            return 1.0 - surv, pe

        return kernel

    def _phase_params(self, k: int) -> tuple[FloatArray, FloatArray, FloatArray]:
        """``(log probs, rates, 1 / rates)`` of the family kernel, padded to
        ``k`` phases with zero-probability ones that repeat the last rate
        (kept per ``k``)."""
        padded: dict[int, tuple[FloatArray, FloatArray, FloatArray]] = self.__dict__.setdefault("_padded_phases", {})
        params = padded.get(k)
        if params is None:
            with np.errstate(divide="ignore"):
                logp = np.log(self.probs)
            extra = k - self.k
            params = padded[k] = (
                np.concatenate([logp, np.full(extra, -np.inf)]),
                np.concatenate([self.rates, np.full(extra, self.rates[-1])]),
                np.concatenate([1.0 / self.rates, np.full(extra, 1.0 / self.rates[-1])]),
            )
        return params

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> FloatArray:
        idx = rng.choice(self.k, size=size, p=self.probs)
        scales = 1.0 / self.rates
        return rng.exponential(scale=scales[idx])
