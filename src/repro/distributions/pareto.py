"""The Pareto (Lomax) availability model.

A Lomax distribution -- a Pareto shifted onto ``[0, inf)`` -- is the
classic power-law lifetime model the availability literature reaches for
when even the Weibull's stretched-exponential tail is too light.  Its
algebra is all closed form, and its future-lifetime distribution is
again Lomax with the same shape and a grown scale::

    (F_L)_t  =  Lomax(shape, scale + t)

so the mean residual life is *linear* in the uptime, the most aggressive
"older machines keep going" behaviour in the library.

The shape must exceed 1 for a finite mean (the Markov cost terms need
``E[X] < inf``); the fitter enforces a slightly stronger floor.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import ArrayLike, AvailabilityDistribution, FloatArray, ScalarOrArray

__all__ = ["Pareto", "fit_pareto"]

#: the fitter's lower bound on the shape (keeps means comfortably finite)
MIN_SHAPE = 1.05


class Pareto(AvailabilityDistribution):
    """Lomax distribution with ``shape`` (alpha > 1) and ``scale`` (lambda)."""

    name = "pareto"

    __slots__ = ("shape", "scale")

    def __init__(self, shape: float, scale: float) -> None:
        if not (shape > 1.0) or not np.isfinite(shape):
            raise ValueError(
                f"shape must be > 1 for a finite mean, got {shape}"
            )
        if not (scale > 0.0) or not np.isfinite(scale):
            raise ValueError(f"scale must be positive and finite, got {scale}")
        self.shape = float(shape)
        self.scale = float(scale)

    # -- primitives ----------------------------------------------------
    def _pdf(self, x: FloatArray) -> FloatArray:
        a, lam = self.shape, self.scale
        return (a / lam) * (1.0 + x / lam) ** (-(a + 1.0))

    def _cdf(self, x: FloatArray) -> FloatArray:
        return 1.0 - (1.0 + x / self.scale) ** (-self.shape)

    def sf(self, x: ArrayLike) -> ScalarOrArray:
        arr = np.asarray(x, dtype=np.float64)
        xp = np.maximum(arr, 0.0)
        out = (1.0 + xp / self.scale) ** (-self.shape)
        out = np.where(arr >= 0.0, out, 1.0)
        return float(out) if arr.ndim == 0 else out

    def mean(self) -> float:
        return self.scale / (self.shape - 1.0)

    def variance(self) -> float:
        a = self.shape
        if a <= 2.0:
            return math.inf
        return self.scale**2 * a / ((a - 1.0) ** 2 * (a - 2.0))

    @property
    def n_params(self) -> int:
        return 2

    def params(self) -> dict[str, float]:
        return {"shape": self.shape, "scale": self.scale}

    # -- scalar fast paths ------------------------------------------------
    def cdf_one(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return 1.0 - (1.0 + x / self.scale) ** (-self.shape)

    def partial_expectation_one(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if not math.isfinite(x):
            return self.mean()
        a, lam = self.shape, self.scale
        U = 1.0 + x / lam
        return lam * a * (1.0 - U ** (1.0 - a)) / (a - 1.0) - lam * (1.0 - U**-a)

    # -- closed forms ---------------------------------------------------
    def partial_expectation(self, x: ArrayLike) -> ScalarOrArray:
        arr = np.asarray(x, dtype=np.float64)
        a, lam = self.shape, self.scale
        U = 1.0 + np.maximum(arr, 0.0) / lam
        with np.errstate(invalid="ignore"):
            out = lam * a * (1.0 - U ** (1.0 - a)) / (a - 1.0) - lam * (1.0 - U**-a)
        out = np.where(arr <= 0.0, 0.0, out)
        out = np.where(np.isfinite(arr), out, self.mean())
        return float(out) if arr.ndim == 0 else out

    def quantile(self, q: ArrayLike) -> ScalarOrArray:
        arr = np.asarray(q, dtype=np.float64)
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            out = self.scale * ((1.0 - arr) ** (-1.0 / self.shape) - 1.0)
        return float(out) if arr.ndim == 0 else out

    def conditional(self, age: float) -> "Pareto":
        """Closed-form ageing: Lomax(shape, scale + age)."""
        if age < 0:
            raise ValueError(f"age must be non-negative, got {age}")
        if age == 0:
            return self
        return Pareto(shape=self.shape, scale=self.scale + age)

    def mean_residual_life(self, t: ArrayLike) -> ScalarOrArray:
        """Linear MRL: ``(scale + t) / (shape - 1)``."""
        arr = np.asarray(t, dtype=np.float64)
        out = (self.scale + np.maximum(arr, 0.0)) / (self.shape - 1.0)
        return float(out) if arr.ndim == 0 else out

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> FloatArray:
        u = rng.random(size)
        return self.scale * ((1.0 - u) ** (-1.0 / self.shape) - 1.0)


def fit_pareto(
    data: ArrayLike, censored: ArrayLike | None = None, *, min_shape: float = MIN_SHAPE
) -> Pareto:
    """MLE Lomax fit (numerical, censoring-aware).

    The likelihood is maximised over ``(log shape, log scale)`` with
    Nelder-Mead from a moment-matched start; the shape is floored at
    ``min_shape`` so the fitted model always has a finite mean.
    """
    x = np.asarray(data, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("cannot fit a distribution to an empty trace")
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise ValueError("availability durations must be non-negative and finite")
    x = np.maximum(x, 1e-9)
    if censored is None:
        cens = np.zeros(x.shape, dtype=bool)
    else:
        cens = np.asarray(censored, dtype=bool).ravel()
        if cens.shape != x.shape:
            raise ValueError("censored mask must match data shape")
        if np.all(cens):
            raise ValueError("at least one uncensored observation is required")

    mean = float(np.mean(x))
    # moment-matched start: for Lomax, mean = lam/(a-1); take a = 2.5
    a0, lam0 = 2.5, 1.5 * mean

    def neg_ll(theta: FloatArray) -> float:
        log_a, log_lam = theta
        a = math.exp(log_a)
        lam = math.exp(log_lam)
        if a <= min_shape - 1e-12:
            return 1e300
        u = np.log1p(x / lam)
        ll = 0.0
        n_obs = int(np.sum(~cens))
        ll += n_obs * (math.log(a) - math.log(lam)) - (a + 1.0) * float(np.sum(u[~cens]))
        ll += -a * float(np.sum(u[cens]))
        return -ll

    # imported here so that loading the model costs no scipy.optimize
    from scipy import optimize as spo

    res = spo.minimize(
        neg_ll,
        x0=[math.log(a0), math.log(lam0)],
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-11, "maxiter": 4000},
    )
    a = max(float(math.exp(res.x[0])), min_shape)
    lam = float(math.exp(res.x[1]))
    return Pareto(shape=a, scale=lam)
