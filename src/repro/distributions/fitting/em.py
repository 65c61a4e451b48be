"""Expectation-maximisation for k-phase hyperexponential models.

The paper fits hyperexponentials with the EMPht package because "it is
numerically difficult to find estimators which have statistically
desirable properties for their parameters".  A k-phase hyperexponential
is a mixture of exponentials, for which EM is the standard estimator:

E-step (responsibilities, uncensored observation ``x_i``)::

    r_ik = p_k lam_k e^{-lam_k x_i} / sum_j p_j lam_j e^{-lam_j x_i}

E-step (right-censored observation, survival contributions)::

    r_ik = p_k e^{-lam_k x_i} / sum_j p_j e^{-lam_j x_i}

M-step (complete-data MLE in expectation; censored lifetimes have
conditional expectation ``x_i + 1/lam_k`` under phase ``k``)::

    p_k   = mean_i r_ik
    lam_k = sum_i r_ik / ( sum_{unc} r_ik x_i + sum_{cens} r_ik (x_i + 1/lam_k) )

All of a fit's inits -- the deterministic quantile split plus
``n_restarts`` random perturbations -- run in lock-step as the rows
("lanes") of ``(L, k)`` parameter arrays.  One fused log-sum-exp pass
yields both the responsibilities and the log-likelihood of the current
parameters, so no step evaluates the likelihood twice.  Each lane stops
on its own: at convergence (relative change ``<= tol``), at ``max_iter``,
or at a step that *lowers* its log-likelihood by more than 1e-9.  EM
ascends in exact arithmetic, so that last stop is a silent guard against
round-off and the rate clip, not an assertion; such a lane returns its
post-step parameters with the pre-step log-likelihood.  The best lane
wins; near-duplicate rates are then merged so the returned model
satisfies the paper's ``lam_i != lam_j`` condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.distributions.base import ArrayLike, FloatArray

from repro.distributions.hyperexponential import Hyperexponential

__all__ = ["EMResult", "fit_hyperexponential"]

_MIN_DURATION = 1e-9
_MIN_RATE = 1e-12
_MAX_RATE = 1e12

#: one lane's outcome: probs, rates, log-likelihood, iterations, converged
_Lane = tuple[FloatArray, FloatArray, float, int, bool]


@dataclass(frozen=True)
class EMResult:
    """Outcome of one EM fit."""

    distribution: Hyperexponential
    log_likelihood: float
    iterations: int
    converged: bool
    #: index of the winning init (0 is the quantile init, ``i >= 1`` the
    #: ``i``-th random restart) -- not a count of restarts run
    restarts_used: int


def _quantile_init(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic initialisation: split the sorted data into k groups."""
    xs = np.sort(x)
    groups = np.array_split(xs, k)
    rates = np.empty(k)
    probs = np.full(k, 1.0 / k)
    for i, grp in enumerate(groups):
        mean = float(np.mean(grp)) if grp.size else float(np.mean(xs))
        rates[i] = 1.0 / max(mean, _MIN_DURATION)
    # jitter exactly equal rates apart
    for i in range(1, k):
        if rates[i] >= rates[i - 1]:
            rates[i] = rates[i - 1] * 0.5
    return probs, rates


def _e_step(
    x_col: FloatArray, unc: npt.NDArray[np.bool_] | None, probs: FloatArray, rates: FloatArray
) -> tuple[FloatArray, FloatArray]:
    """Responsibilities ``(L, n, k)`` and log-likelihood ``(L,)`` of each lane.

    One log-sum-exp pass: ``comp = log p - x lam (+ log lam if
    uncensored)``, ``m = max_k comp``, ``s = sum_k e^{comp - m}``; the
    responsibilities are ``e^{comp - m} / s`` and the lane's
    log-likelihood is ``sum_i (m_i + log s_i)``.  ``unc`` is ``None``
    when no observation is censored.
    """
    comp = np.log(probs)[:, None, :] - x_col * rates[:, None, :]
    log_lam = np.log(rates)[:, None, :]
    comp = comp + log_lam if unc is None else np.where(unc, comp + log_lam, comp)
    m = np.maximum.reduce(comp, axis=2, keepdims=True)
    resp = np.exp(comp - m)
    s = np.add.reduce(resp, axis=2, keepdims=True)
    ll = np.add.reduce((m + np.log(s))[:, :, 0], axis=1)
    return resp / s, ll


def _m_step(
    x: FloatArray, cens_idx: npt.NDArray[np.intp] | None, resp: FloatArray, rates: FloatArray
) -> tuple[FloatArray, FloatArray]:
    """Complete-data MLE of every lane from its responsibilities.

    ``resp`` is C-contiguous ``(L, n, k)``: its ``n``-sums then add row
    by row, and ``matmul`` makes one ``resp_l.T @ x`` BLAS call per lane,
    so every lane rounds exactly as a single-init fit does.
    """
    nk = np.add.reduce(resp, axis=1)
    probs = nk / x.size
    # expected total lifetime attributed to each phase
    exposure = np.matmul(resp.transpose(0, 2, 1), x)
    if cens_idx is not None:
        exposure = exposure + np.add.reduce(resp[:, cens_idx], axis=1) / np.maximum(rates, _MIN_RATE)
    rates_new = np.where(exposure > 0.0, nk / exposure, rates)
    # np.clip, without its per-call Python overhead
    rates_new = np.minimum(np.maximum(rates_new, _MIN_RATE), _MAX_RATE)
    # guard collapsed phases (zero weight)
    dead = probs < 1e-300
    if dead.any():
        rows = dead.any(axis=1)
        revived = np.where(dead[rows], 1e-300, probs[rows])
        probs[rows] = revived / revived.sum(axis=1, keepdims=True)
    return probs, rates_new


def _em_lanes(
    x: FloatArray,
    cens: npt.NDArray[np.bool_],
    probs: FloatArray,
    rates: FloatArray,
    *,
    max_iter: int,
    tol: float,
) -> list[_Lane]:
    """Run EM from each row of ``probs``/``rates`` ``(L, k)`` in lock-step.

    Every step is one M-step and one fused E-step over the active lanes;
    each lane's reductions run over its own ``n`` or ``k`` axis only, so
    a lane's result does not depend on the other lanes.  A lane stops at
    the first step that

    * lowers its log-likelihood by more than 1e-9 (the lane returns the
      post-step parameters with the *pre-step* log-likelihood),
    * changes it by at most ``tol * (1 + |ll|)`` (converged), or
    * is step ``max_iter``.

    Returns one ``(probs, rates, log_likelihood, iterations, converged)``
    per lane, in row order.  Callers hold ``np.errstate``.
    """
    x_col = x[:, None]
    any_cens = bool(cens.any())
    unc = ~cens[:, None] if any_cens else None
    cens_idx = np.flatnonzero(cens) if any_cens else None

    resp, ll = _e_step(x_col, unc, probs, rates)
    ll_prev: list[float] = ll.tolist()
    lanes: list[_Lane] = [(probs[j], rates[j], ll_prev[j], 0, False) for j in range(len(ll_prev))]
    active = list(range(len(ll_prev)))
    for it in range(1, max_iter + 1):
        probs, rates = _m_step(x, cens_idx, resp, rates)
        resp, ll = _e_step(x_col, unc, probs, rates)
        lls: list[float] = ll.tolist()
        keep: list[int] = []
        for j, (new, old) in enumerate(zip(lls, ll_prev)):
            if new + 1e-9 < old:
                lanes[active[j]] = (probs[j], rates[j], old, it, False)
            elif abs(new - old) <= tol * (1.0 + abs(new)):
                lanes[active[j]] = (probs[j], rates[j], new, it, True)
            elif it == max_iter:
                lanes[active[j]] = (probs[j], rates[j], new, it, False)
            else:
                keep.append(j)
        if len(keep) < len(lls):
            if not keep:
                break
            active = [active[j] for j in keep]
            probs, rates, resp = probs[keep], rates[keep], resp[keep]
            lls = [lls[j] for j in keep]
        ll_prev = lls
    return lanes


def _merge_duplicate_rates(
    probs: FloatArray, rates: FloatArray, rel_tol: float = 1e-6
) -> tuple[FloatArray, FloatArray]:
    """Merge phases whose rates coincide (paper requires distinct rates)."""
    order = np.argsort(rates)
    probs, rates = probs[order], rates[order]
    out_p, out_r = [probs[0]], [rates[0]]
    for p, r in zip(probs[1:], rates[1:]):
        if abs(r - out_r[-1]) <= rel_tol * max(abs(r), abs(out_r[-1])):
            out_p[-1] += p
        else:
            out_p.append(p)
            out_r.append(r)
    return np.asarray(out_p), np.asarray(out_r)


def fit_hyperexponential(
    data: ArrayLike,
    k: int = 2,
    censored: ArrayLike | None = None,
    *,
    max_iter: int = 500,
    tol: float = 1e-10,
    n_restarts: int = 2,
    rng: np.random.Generator | None = None,
) -> EMResult:
    """Fit a ``k``-phase hyperexponential to ``data`` by EM.

    Parameters
    ----------
    data, censored:
        Durations and optional right-censoring mask.
    k:
        Number of phases (the paper uses 2 and 3).
    max_iter, tol:
        EM iteration cap and relative log-likelihood tolerance.
    n_restarts:
        Number of additional randomly-perturbed initialisations, all
        drawn before EM starts and run in lock-step with the quantile
        init; the best (highest log-likelihood, earliest on a tie) fit
        wins and ``EMResult.restarts_used`` is its index.  ``0`` keeps
        only the deterministic quantile initialisation.
    rng:
        Generator used for restart perturbations; defaults to a fixed
        seed so fitting is reproducible.
    """
    if k < 1:
        raise ValueError(f"number of phases must be >= 1, got {k}")
    x = np.asarray(data, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("cannot fit a distribution to an empty trace")
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise ValueError("availability durations must be non-negative and finite")
    x = np.maximum(x, _MIN_DURATION)
    if censored is None:
        cens = np.zeros(x.shape, dtype=bool)
    else:
        cens = np.asarray(censored, dtype=bool).ravel()
        if cens.shape != x.shape:
            raise ValueError("censored mask must match data shape")
        if np.all(cens):
            raise ValueError("at least one uncensored observation is required")
    if rng is None:
        rng = np.random.default_rng(20050926)  # CLUSTER 2005 conference date

    p0, r0 = _quantile_init(x, k)
    init_p, init_r = [p0], [r0]
    for _ in range(n_restarts):
        jitter = np.exp(rng.normal(0.0, 0.75, size=k))
        init_p.append(rng.dirichlet(np.ones(k)))
        init_r.append(np.clip(r0 * jitter, _MIN_RATE, _MAX_RATE))
    with np.errstate(divide="ignore", invalid="ignore"):
        lanes = _em_lanes(x, cens, np.stack(init_p), np.stack(init_r), max_iter=max_iter, tol=tol)
    # the first init with the strictly highest log-likelihood wins
    best = 0
    for i in range(1, len(lanes)):
        if lanes[i][2] > lanes[best][2]:
            best = i
    lane_p, lane_r, ll, iters, conv = lanes[best]
    probs, rates = _merge_duplicate_rates(lane_p, lane_r)
    return EMResult(
        distribution=Hyperexponential(probs, rates),
        log_likelihood=ll,
        iterations=iters,
        converged=conv,
        restarts_used=best,
    )
