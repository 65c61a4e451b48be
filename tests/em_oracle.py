"""The scalar EM loop, kept as a test oracle.

This is the per-init loop ``fit_hyperexponential`` ran before the
lock-step lane kernel (``repro.distributions.fitting.em._em_lanes``)
replaced it: each init iterates alone, and every iteration rebuilds the
component log-density twice, once for the E-step and once more in
``_log_likelihood`` for the stop test.  :func:`oracle_fit` drives it
with the same restart draws and best-init selection as the library, so
the two fits must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.distributions.base import FloatArray
from repro.distributions.fitting.em import (
    _MAX_RATE,
    _MIN_DURATION,
    _MIN_RATE,
    EMResult,
    _merge_duplicate_rates,
    _quantile_init,
)
from repro.distributions.hyperexponential import Hyperexponential


def _log_likelihood(probs: FloatArray, rates: FloatArray, x: FloatArray, cens: npt.NDArray[np.bool_]) -> float:
    # stable mixture log-likelihood via log-sum-exp
    with np.errstate(divide="ignore"):
        log_p = np.log(probs)
        log_lam = np.log(rates)
    expo = -np.multiply.outer(x, rates)  # (n, k)
    comp = log_p + expo
    comp_unc = comp + log_lam
    logs = np.where(cens[:, None], comp, comp_unc)
    m = logs.max(axis=1, keepdims=True)
    return float(np.sum(m.ravel() + np.log(np.sum(np.exp(logs - m), axis=1))))


def _em_iterate(
    x: np.ndarray,
    cens: np.ndarray,
    probs: np.ndarray,
    rates: np.ndarray,
    *,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, float, int, bool]:
    ll_prev = _log_likelihood(probs, rates, x, cens)
    n = x.size
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        # E-step: responsibilities in log space
        with np.errstate(divide="ignore"):
            log_p = np.log(probs)
            log_lam = np.log(rates)
        comp = log_p - np.multiply.outer(x, rates)
        comp = np.where(cens[:, None], comp, comp + log_lam)
        comp -= comp.max(axis=1, keepdims=True)
        resp = np.exp(comp)
        resp /= resp.sum(axis=1, keepdims=True)

        # M-step
        nk = resp.sum(axis=0)
        probs_new = nk / n
        # expected total lifetime attributed to phase k
        exposure = resp.T @ x  # (k,)
        if np.any(cens):
            exposure = exposure + (resp[cens].sum(axis=0)) / np.maximum(rates, _MIN_RATE)
        with np.errstate(divide="ignore", invalid="ignore"):
            rates_new = np.where(exposure > 0.0, nk / exposure, rates)
        rates_new = np.clip(rates_new, _MIN_RATE, _MAX_RATE)
        # guard collapsed phases (zero weight)
        dead = probs_new < 1e-300
        if np.any(dead):
            probs_new = np.where(dead, 1e-300, probs_new)
            probs_new /= probs_new.sum()
        probs, rates = probs_new, rates_new
        ll = _log_likelihood(probs, rates, x, cens)
        if ll + 1e-9 < ll_prev:  # EM must ascend up to round-off
            break
        if abs(ll - ll_prev) <= tol * (1.0 + abs(ll)):
            ll_prev = ll
            converged = True
            break
        ll_prev = ll
    return probs, rates, ll_prev, it, converged


def oracle_fit(
    data: FloatArray,
    k: int = 2,
    censored: npt.NDArray[np.bool_] | None = None,
    *,
    max_iter: int = 500,
    tol: float = 1e-10,
    n_restarts: int = 2,
    rng: np.random.Generator | None = None,
) -> EMResult:
    """``fit_hyperexponential`` with each init run through the scalar loop.

    Input validation is left to the library; callers pass valid data.
    """
    x = np.maximum(np.asarray(data, dtype=np.float64).ravel(), _MIN_DURATION)
    cens = np.zeros(x.shape, dtype=bool) if censored is None else np.asarray(censored, dtype=bool).ravel()
    if rng is None:
        rng = np.random.default_rng(20050926)
    best = None
    restarts_used = 0
    p0, r0 = _quantile_init(x, k)
    inits = [(p0, r0)]
    for _ in range(n_restarts):
        jitter = np.exp(rng.normal(0.0, 0.75, size=k))
        pr = rng.dirichlet(np.ones(k))
        inits.append((pr, np.clip(r0 * jitter, _MIN_RATE, _MAX_RATE)))
    for i, (p_init, r_init) in enumerate(inits):
        probs, rates, ll, iters, conv = _em_iterate(
            x, cens, p_init.copy(), r_init.copy(), max_iter=max_iter, tol=tol
        )
        if best is None or ll > best[2]:
            best = (probs, rates, ll, iters, conv)
            restarts_used = i
    assert best is not None
    probs, rates, ll, iters, conv = best
    probs, rates = _merge_duplicate_rates(probs, rates)
    return EMResult(
        distribution=Hyperexponential(probs, rates),
        log_likelihood=ll,
        iterations=iters,
        converged=conv,
        restarts_used=restarts_used,
    )
