"""Numerical quadrature used by the checkpoint-interval Markov model.

The cost terms ``K02`` and ``K22`` of the Markov model are truncated
first moments ``int_0^x t f(t) dt``.  For the three families the paper
uses (exponential, Weibull, hyperexponential) we have closed forms, but
the library accepts *any* :class:`~repro.distributions.base.AvailabilityDistribution`,
so a generic quadrature fallback is required.  Two methods are provided:

* :func:`adaptive_simpson` -- recursive adaptive Simpson's rule with a
  per-panel error estimate; robust on smooth densities with localized
  mass.
* :func:`gauss_legendre` -- fixed-order composite Gauss-Legendre,
  vectorised over NumPy arrays of integrand evaluations; given a sorted
  array of upper limits it returns every running integral from one
  integrand call, which is how many partial expectations are evaluated
  at once.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from typing import overload

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "QuadratureError",
    "adaptive_simpson",
    "gauss_legendre",
    "gauss_legendre_nodes",
]


class QuadratureError(RuntimeError):
    """Raised when an adaptive quadrature fails to converge."""


def adaptive_simpson(
    func: Callable[[float], float],
    a: float,
    b: float,
    *,
    tol: float = 1e-10,
    max_depth: int = 48,
) -> float:
    """Integrate ``func`` over ``[a, b]`` with adaptive Simpson's rule.

    The classic recursive scheme: each panel is split in half until the
    Richardson error estimate ``|S_left + S_right - S_whole| / 15`` drops
    below the panel's share of ``tol``.

    Raises
    ------
    QuadratureError
        If the recursion exceeds ``max_depth`` without meeting the
        tolerance (usually a sign of a non-integrable singularity).
    """
    # reprolint: ignore[RL002] - identical endpoints give an exactly-empty interval; close-but-unequal ones integrate normally
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(func, b, a, tol=tol, max_depth=max_depth)
    fa, fb = func(a), func(b)
    m = 0.5 * (a + b)
    fm = func(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_recurse(func, a, b, fa, fb, m, fm, whole, tol, max_depth)


def _simpson_recurse(
    func: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fb: float,
    m: float,
    fm: float,
    whole: float,
    tol: float,
    depth: int,
) -> float:
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = func(lm), func(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson failed to converge on [{a}, {b}] (residual {err:.3e})"
        )
    half = tol / 2.0
    return _simpson_recurse(func, a, m, fa, fm, lm, flm, left, half, depth - 1) + _simpson_recurse(
        func, m, b, fm, fb, rm, frm, right, half, depth - 1
    )


@lru_cache(maxsize=32)
def gauss_legendre_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the ``order``-point Gauss-Legendre nodes/weights on [-1, 1].

    Cached because the checkpoint optimizer calls this for every generic
    partial-expectation evaluation.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@overload
def gauss_legendre(
    func: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    order: int = ...,
    panels: int = ...,
) -> float: ...


@overload
def gauss_legendre(
    func: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: NDArray[np.float64],
    *,
    order: int = ...,
    panels: int = ...,
) -> NDArray[np.float64]: ...


def gauss_legendre(
    func: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float | NDArray[np.float64],
    *,
    order: int = 40,
    panels: int = 4,
) -> float | NDArray[np.float64]:
    """Composite Gauss-Legendre quadrature of a vectorised integrand.

    ``func`` must accept and return NumPy arrays.  For a scalar ``b`` the
    interval is split into ``panels`` equal panels, each integrated with
    an ``order``-point rule; all integrand evaluations happen in a single
    vectorised call.

    ``b`` may instead be a sorted 1-D array of upper limits, all at or
    above ``a``: the result is then the array of running integrals
    ``int_a^{b_k} func``, still from a single integrand call.
    ``[a, b_0]`` is split into ``panels`` equal panels and each later gap
    ``[b_{k-1}, b_k]`` is one more panel, so callers keep the gaps narrow
    enough for one ``order``-point rule to resolve the integrand there.
    """
    if np.ndim(b) == 0:
        lo, hi = a, float(b)
        # reprolint: ignore[RL002] - identical endpoints give an exactly-empty interval; close-but-unequal ones integrate normally
        if lo == hi:
            return 0.0
        sign = 1.0
        if lo > hi:
            lo, hi = hi, lo
            sign = -1.0
        return sign * float(np.sum(_panel_integrals(func, np.linspace(lo, hi, panels + 1), order)))
    limits = np.asarray(b, dtype=np.float64)
    if limits.ndim != 1:
        raise ValueError(f"upper limits must be scalar or 1-D, got shape {limits.shape}")
    if limits.size == 0:
        return np.zeros(0)
    if limits[0] < a or np.any(np.diff(limits) < 0.0):
        raise ValueError("upper limits must be sorted and no smaller than the lower limit")
    edges = np.concatenate([np.linspace(a, limits[0], panels + 1), limits[1:]])
    running = np.cumsum(_panel_integrals(func, edges, order))
    out: NDArray[np.float64] = running[panels - 1 :]
    return out


def _panel_integrals(
    func: Callable[[np.ndarray], np.ndarray], edges: NDArray[np.float64], order: int
) -> NDArray[np.float64]:
    """The ``order``-point rule on every panel ``[edges[i], edges[i+1]]``."""
    nodes, weights = gauss_legendre_nodes(order)
    lows = edges[:-1]
    half_widths = 0.5 * (edges[1:] - lows)
    mids = lows + half_widths
    # shape (panels, order): all abscissae at once
    xs = mids[:, None] + half_widths[:, None] * nodes[None, :]
    values = func(xs.ravel()).reshape(xs.shape)
    out: NDArray[np.float64] = half_widths * (values @ weights)
    return out
