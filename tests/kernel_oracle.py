"""The per-instance ``(F, PE)`` kernels the family kernels replaced.

Each distribution's :meth:`cdf_pe_kernel` used to be its own fused
evaluator for one instance; it now delegates to the family's
:meth:`~repro.distributions.base.AvailabilityDistribution.family_kernel`,
which evaluates rows of many instances from per-row parameter arrays.
These are the per-instance kernels as they were, the oracle the family
kernels are held to bitwise (``tests/test_family_kernels.py``).
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray
from scipy import special

from repro.distributions.base import ArrayLike, CdfPeKernel, FloatArray
from repro.distributions.conditional import _DEEP_TAIL_SURV
from repro.distributions.exponential import _SERIES_CUTOFF

__all__ = ["exponential_kernel", "generic_kernel", "hyperexponential_kernel", "weibull_kernel"]


def generic_kernel(dist, ages: ArrayLike) -> CdfPeKernel:
    """A fused evaluator of the future-lifetime ``(F_age, PE_age)``.

    ``ages`` holds one elapsed uptime per row (or a single age shared
    by every row); the returned kernel maps a ``(rows, n)`` array of
    non-negative abscissae to the conditional distribution function
    and partial expectation of each row's age.  This is the Markov
    row objective's only contact with the distribution
    (:class:`~repro.core.markov.MarkovRows`).

    The default conditions once per row and evaluates the array-form
    :meth:`cdf` / :meth:`partial_expectation` row by row (a row is
    never mixed with another in one call, so its values do not depend
    on its neighbours).  The paper families override it with one
    fused pass that shares the intermediate both quantities need.
    """
    conds = [dist.conditional(float(a)) for a in np.ravel(ages)]

    def kernel(x: FloatArray) -> tuple[FloatArray, FloatArray]:
        F = np.empty_like(x)
        PE = np.empty_like(x)
        for i in range(x.shape[0]):
            cond = conds[i] if len(conds) > 1 else conds[0]
            F[i] = cond.cdf(x[i])
            PE[i] = cond.partial_expectation(x[i])
        return F, PE

    return kernel


def weibull_kernel(dist, ages: ArrayLike) -> CdfPeKernel:
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
    """
    a = np.asarray(ages, dtype=np.float64).reshape(-1, 1)
    alpha, mean = dist.shape, dist.mean()
    inv_beta = 1.0 / dist.scale
    s = 1.0 + 1.0 / alpha
    if not bool(np.any(a)):
        # the unconditional pair: F = -expm1(-z), PE = mean * P(s, z)
        def fresh(x: FloatArray) -> tuple[FloatArray, FloatArray]:
            z = (x * inv_beta) ** alpha
            return -np.expm1(-z), mean * special.gammainc(s, z)

        return fresh
    za = (a * inv_beta) ** alpha
    surv = np.exp(-za)
    q_a = special.gammaincc(s, za)
    aged = q_a <= 0.5
    ref = q_a if bool(aged.all()) else np.where(aged, q_a, special.gammainc(s, za))

    def fused(
        x: FloatArray, a: FloatArray, za: FloatArray, weight: FloatArray,
        ref: FloatArray, aged: NDArray[np.bool_],
    ) -> tuple[FloatArray, FloatArray]:
        z = ((a + x) * inv_beta) ** alpha
        F = -np.expm1(za - z)
        if bool(aged.all()):
            mass = ref - special.gammaincc(s, z)
        elif not bool(aged.any()):
            mass = special.gammainc(s, z) - ref
        else:
            rows = aged.ravel()
            mass = np.empty_like(z)
            mass[rows] = ref[rows] - special.gammaincc(s, z[rows])
            mass[~rows] = special.gammainc(s, z[~rows]) - ref[~rows]
        return F, np.maximum(mass * weight - a * F, 0.0)

    with np.errstate(divide="ignore"):
        weight = mean / surv
    deep = (surv < _DEEP_TAIL_SURV).ravel()
    if not bool(deep.any()):
        return lambda x: fused(x, a, za, weight, ref, aged)
    live = ~deep
    args = (a[live], za[live], weight[live], ref[live], aged[live])
    generic = generic_kernel(dist, a[deep])
    if not bool(live.any()):
        return generic

    def mixed(x: FloatArray) -> tuple[FloatArray, FloatArray]:
        F = np.empty_like(x)
        PE = np.empty_like(x)
        F[live], PE[live] = fused(x[live], *args)
        F[deep], PE[deep] = generic(x[deep])
        return F, PE

    return mixed


def exponential_kernel(dist, ages: ArrayLike) -> CdfPeKernel:
    """Fused ``(F, PE)`` from one ``expm1(-lam x)``; by memorylessness
    every row's kernel is the unconditional one.

    ``PE = F / lam - x (1 - F)`` loses digits below the series cutoff
    like the closed form does, so the same Taylor series takes over
    there.
    """
    lam = dist.lam

    def kernel(x: FloatArray) -> tuple[FloatArray, FloatArray]:
        u = x * lam
        em1 = np.expm1(-u)
        F = -em1
        PE = F / lam - x * (1.0 + em1)
        small = u < _SERIES_CUTOFF
        if bool(small.any()):
            PE = np.where(small, u * x * (0.5 - u / 3.0 + u * u / 8.0 - u * u * u / 30.0), PE)
        return F, PE

    return kernel


def hyperexponential_kernel(dist, ages: ArrayLike) -> CdfPeKernel:
    """Fused ``(F_age, PE_age)``: the phase exponentials ``e^{-lam x}``
    evaluated once, mixed with each row's reweighted probabilities
    (the same log-sum-exp reweighting as :meth:`conditional`).

    ``F = 1 - sum_i p_i e^{-lam_i x}`` and the series-protected phase
    partial expectations are the formulas of :meth:`cdf_one` and
    :meth:`partial_expectation`.
    """
    a = np.asarray(ages, dtype=np.float64).reshape(-1, 1)
    with np.errstate(divide="ignore"):
        logw = np.log(dist.probs) - dist.rates * a
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    weights = (w / w.sum(axis=1, keepdims=True))[:, None, :]
    rates, inv = dist.rates, 1.0 / dist.rates

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
