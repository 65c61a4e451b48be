"""The Weibull availability model (eqs. 3-4, 9 of the paper).

With shape ``alpha < 1`` the Weibull is heavy-tailed with a *decreasing*
hazard rate: the longer a machine has already been available, the longer
it is expected to remain available.  This is exactly the regime the
paper's Condor traces live in (the published example machine has
``alpha = 0.43``, ``beta = 3409``), and it is why a non-memoryless model
produces an aperiodic, lengthening checkpoint schedule.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Sequence
from functools import cached_property
from typing import cast

import numpy as np
from scipy import special

from repro.distributions.base import (
    ArrayLike,
    AvailabilityDistribution,
    CdfPeKernel,
    FloatArray,
    ScalarOrArray,
    _per_row,
    _conditional_rows_kernel,
)
from repro.distributions.conditional import _DEEP_TAIL_SURV

__all__ = ["Weibull"]


class Weibull(AvailabilityDistribution):
    """Weibull distribution with ``shape`` (alpha) and ``scale`` (beta)."""

    name = "weibull"
    elementwise_mrl = True

    __slots__ = ("shape", "scale")

    def __init__(self, shape: float, scale: float) -> None:
        if not (shape > 0.0) or not np.isfinite(shape):
            raise ValueError(f"shape must be positive and finite, got {shape}")
        if not (scale > 0.0) or not np.isfinite(scale):
            raise ValueError(f"scale must be positive and finite, got {scale}")
        self.shape = float(shape)
        self.scale = float(scale)

    # -- primitives ----------------------------------------------------
    def _pdf(self, x: FloatArray) -> FloatArray:
        a, b = self.shape, self.scale
        z = x / b
        with np.errstate(divide="ignore", invalid="ignore"):
            # z**(a-1) diverges at 0 for a < 1; the density is still
            # integrable, and callers never evaluate the pdf exactly at 0
            # on the hot path.
            out = (a / b) * z ** (a - 1.0) * np.exp(-(z**a))
        return np.where(x > 0.0, out, np.inf if a < 1.0 else (0.0 if a > 1.0 else 1.0 / b))

    def _cdf(self, x: FloatArray) -> FloatArray:
        return -np.expm1(-((x / self.scale) ** self.shape))

    def sf(self, x: ArrayLike) -> ScalarOrArray:
        arr = np.asarray(x, dtype=np.float64)
        xp = np.maximum(arr, 0.0)
        out = np.where(arr >= 0.0, np.exp(-((xp / self.scale) ** self.shape)), 1.0)
        return float(out) if arr.ndim == 0 else out

    def hazard(self, x: ArrayLike) -> ScalarOrArray:
        """``h(x) = (alpha/beta) (x/beta)^(alpha-1)`` -- monotone in ``x``."""
        arr = np.asarray(x, dtype=np.float64)
        a, b = self.shape, self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (a / b) * (np.maximum(arr, 0.0) / b) ** (a - 1.0)
        out = np.where(arr > 0.0, out, np.inf if a < 1.0 else (0.0 if a > 1.0 else 1.0 / b))
        return float(out) if arr.ndim == 0 else out

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def variance(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.shape)
        g2 = math.gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1 * g1)

    @property
    def n_params(self) -> int:
        return 2

    def params(self) -> dict[str, float]:
        return {"shape": self.shape, "scale": self.scale}

    # -- scalar fast paths ------------------------------------------------
    def cdf_one(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-((x / self.scale) ** self.shape))

    def partial_expectation_one(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if not math.isfinite(x):
            return self.mean()
        z = (x / self.scale) ** self.shape
        return self.mean() * float(special.gammainc(1.0 + 1.0 / self.shape, z))

    # -- closed forms ---------------------------------------------------
    def partial_expectation(self, x: ArrayLike) -> ScalarOrArray:
        """``int_0^x t f(t) dt = beta * Gamma(1 + 1/alpha) * P(1 + 1/alpha, (x/beta)^alpha)``

        where ``P`` is the regularised lower incomplete gamma function
        (substitute ``u = (t/beta)^alpha``).
        """
        arr = np.asarray(x, dtype=np.float64)
        a1 = 1.0 + 1.0 / self.shape
        z = (np.maximum(arr, 0.0) / self.scale) ** self.shape
        out = self.mean() * special.gammainc(a1, z)
        out = np.where(arr <= 0.0, 0.0, out)
        out = np.where(np.isfinite(arr), out, self.mean())
        return float(out) if arr.ndim == 0 else out

    def mean_residual_life(self, t: ArrayLike) -> ScalarOrArray:
        """``E[X - t | X > t]`` from one shared ``z = (t / beta)^alpha``.

        The floats of the generic survival / partial-expectation form,
        element by element: ``z`` is taken with the C library's ``pow``
        on each age, which is what numpy uses for a scalar, while its
        vectorised ``pow`` differs in the last place on a few percent of
        inputs.  So an array of ages gives bitwise the scalar calls (the
        optimizer resolves a solve call's search bounds in one call).
        """
        arr = np.asarray(t, dtype=np.float64)
        alpha, _, mean, s = self._kernel_params
        u = np.maximum(arr, 0.0) / self.scale
        z = u**alpha if arr.ndim == 0 else np.array([v**alpha for v in u.ravel()]).reshape(arr.shape)
        surv = np.exp(-z)
        pe = mean * special.gammainc(s, z)
        pe = np.where(arr <= 0.0, 0.0, pe)
        pe = np.where(np.isfinite(arr), pe, mean)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.maximum(np.where(surv > 0.0, (mean - pe) / surv - arr, 0.0), 0.0)
        return float(out) if arr.ndim == 0 else out

    def kernel_family(self) -> Hashable:
        # numpy's ``pow`` squares or square-roots for a scalar exponent of
        # exactly 2 or 1/2, so such a shape is never a per-row exponent
        return id(self) if self.shape in (0.5, 2.0) else Weibull

    @classmethod
    def family_kernel(cls, dists: Sequence[AvailabilityDistribution], ages: FloatArray) -> CdfPeKernel:
        """Fused ``(F_a, PE_a)`` from one shared ``z = ((a + x) / beta)^alpha``.

        With ``s = 1 + 1/alpha``, ``z_a = (a / beta)^alpha`` and the
        regularised incomplete gamma functions ``P`` / ``Q = 1 - P``::

            F_a(x)  = -expm1(-(z_{a+x} - z_a))
            PE_a(x) = mean * [Q(s, z_a) - Q(s, z_{a+x})] / S(a) - a F_a(x)

        The mass term ``Q(s, z_a) - Q(s, z_{a+x})`` is taken from upper
        tails on aged rows (``Q(s, z_a) <= 1/2``) and as
        ``P(s, z_{a+x}) - P(s, z_a)`` on young ones, so the difference
        never cancels against a saturated term.  The generic conditional's
        difference form ``PE(a+x) - PE(a) - a (F(a+x) - F(a))`` amplifies
        round-off by ``1/S(a)``, which puts ``T_opt`` off by up to half a
        percent just above the deep-tail switch.  Rows beyond the switch
        (``S(a) < 1e-9``) take the generic by-parts path.

        ``alpha``, ``1/beta``, the mean and ``s`` are scalars for one
        instance and ``(rows, 1)`` columns for many; every operation is
        elementwise, so a row's floats are the same either way.  Which
        mass form each row takes and which rows are deep is settled here,
        once, not on every evaluation.
        """
        weibulls = cast("Sequence[Weibull]", dists)
        a = np.asarray(ages, dtype=np.float64).reshape(-1, 1)
        if len(weibulls) == 1:
            alpha, inv_beta, mean, s = weibulls[0]._kernel_params
        else:
            params = np.array([w._kernel_params for w in weibulls])
            alpha, inv_beta, mean, s = (params[:, j : j + 1] for j in range(4))
        if not bool(np.any(a)):
            # the unconditional pair: F = -expm1(-z), PE = mean * P(s, z)
            def fresh(x: FloatArray) -> tuple[FloatArray, FloatArray]:
                z = (x * inv_beta) ** alpha
                return -np.expm1(-z), mean * special.gammainc(s, z)

            return fresh
        za = (a * inv_beta) ** alpha
        surv = np.exp(-za)
        deep = (surv < _DEEP_TAIL_SURV).ravel()
        rows = zip(_per_row(weibulls, a.size), a.ravel().tolist(), deep.tolist(), strict=True)
        generic = _conditional_rows_kernel([w.conditional(r) for w, r, d in rows if d])
        if bool(deep.all()):
            return generic
        live = ~deep
        mixed = bool(deep.any())
        if mixed:
            a, za, surv = a[live], za[live], surv[live]
            if len(weibulls) > 1:
                alpha, inv_beta, mean, s = alpha[live], inv_beta[live], mean[live], s[live]
        q_a = special.gammaincc(s, za)
        aged = (q_a <= 0.5).ravel()
        weight = mean / surv
        if bool(aged.all()):
            ref = q_a

            def mass(z: FloatArray) -> FloatArray:
                out: FloatArray = ref - special.gammaincc(s, z)
                return out
        elif not bool(aged.any()):
            ref = special.gammainc(s, za)

            def mass(z: FloatArray) -> FloatArray:
                out: FloatArray = special.gammainc(s, z) - ref
                return out
        else:
            ref = np.where(aged[:, None], q_a, special.gammainc(s, za))
            young = ~aged
            s_old = s[aged] if np.ndim(s) else s
            s_young = s[young] if np.ndim(s) else s

            def mass(z: FloatArray) -> FloatArray:
                out = np.empty_like(z)
                out[aged] = ref[aged] - special.gammaincc(s_old, z[aged])
                out[young] = special.gammainc(s_young, z[young]) - ref[young]
                return out

        def fused(x: FloatArray) -> tuple[FloatArray, FloatArray]:
            z = ((a + x) * inv_beta) ** alpha
            F = -np.expm1(za - z)
            return F, np.maximum(mass(z) * weight - a * F, 0.0)

        if not mixed:
            return fused

        def split(x: FloatArray) -> tuple[FloatArray, FloatArray]:
            F = np.empty_like(x)
            PE = np.empty_like(x)
            F[live], PE[live] = fused(x[live])
            F[deep], PE[deep] = generic(x[deep])
            return F, PE

        return split

    @cached_property
    def _kernel_params(self) -> tuple[float, float, float, float]:
        """``(alpha, 1/beta, mean, s = 1 + 1/alpha)`` of the family kernel."""
        return self.shape, 1.0 / self.scale, self.mean(), 1.0 + 1.0 / self.shape

    def quantile(self, q: ArrayLike) -> ScalarOrArray:
        arr = np.asarray(q, dtype=np.float64)
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            out = self.scale * (-np.log1p(-arr)) ** (1.0 / self.shape)
        return float(out) if arr.ndim == 0 else out

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> FloatArray:
        return self.scale * rng.weibull(self.shape, size=size)
