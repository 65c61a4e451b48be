"""Base interface for resource-availability distributions.

The paper models machine availability durations as draws from a
parametric family (exponential, Weibull or hyperexponential).  The
checkpoint-interval optimizer only needs a small algebra of operations on
those families, which this abstract base class pins down:

* density / distribution / survival / hazard functions (vectorised),
* the *partial expectation* ``PE(x) = int_0^x t f(t) dt`` that appears in
  the Markov cost terms ``K02`` and ``K22``,
* the *future-lifetime* (conditional) distribution ``F_t`` of eq. (8),
* sampling, quantiles, and (censoring-aware) log-likelihood for fitting
  and goodness-of-fit.

All array-facing methods accept anything :func:`numpy.asarray` accepts
and return a scalar ``float`` for scalar input or an ``ndarray``
otherwise, so the hot paths of the trace simulator can stay vectorised.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Hashable, Sequence
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from repro.numerics.quadrature import gauss_legendre

if TYPE_CHECKING:
    from repro.distributions.conditional import ConditionalDistribution

#: the concrete array type every vectorised method traffics in
FloatArray = NDArray[np.float64]

ArrayLike = float | int | FloatArray | list[float] | tuple[float, ...]

#: return type of the array-facing methods: scalar in, float out;
#: array in, array out
ScalarOrArray = float | FloatArray

#: a fused future-lifetime evaluator (see
#: :meth:`AvailabilityDistribution.cdf_pe_kernel`): maps a ``(rows, n)``
#: array of non-negative abscissae to ``(F_age(x), PE_age(x))``
CdfPeKernel = Callable[[FloatArray], tuple[FloatArray, FloatArray]]

#: panel edges of the generic survival quadratures: one Gauss-Legendre
#: panel per doubling from 2^-20 s (about a microsecond) to 2^50 s, so a
#: survival curve is resolved whatever its time scale
_DOUBLINGS = 2.0 ** np.arange(-20.0, 51.0)

__all__ = [
    "ArrayLike",
    "AvailabilityDistribution",
    "CdfPeKernel",
    "FloatArray",
    "ScalarOrArray",
]


def _prepare(x: ArrayLike) -> tuple[FloatArray, bool]:
    """Coerce input to a float array, reporting whether it was scalar."""
    arr = np.asarray(x, dtype=np.float64)
    return arr, arr.ndim == 0


def _finish(arr: FloatArray, scalar: bool) -> ScalarOrArray:
    return float(arr) if scalar else arr


def _per_row(dists: Sequence[AvailabilityDistribution], rows: int) -> Sequence[AvailabilityDistribution]:
    """``dists`` with one instance standing for every row expanded."""
    return list(dists) * rows if len(dists) == 1 else dists


def _conditional_rows_kernel(conds: Sequence[AvailabilityDistribution]) -> CdfPeKernel:
    """The generic kernel: row ``i`` evaluates the array-form ``cdf`` and
    ``partial_expectation`` of ``conds[i]`` (one row's future-lifetime
    distribution)."""

    def kernel(x: FloatArray) -> tuple[FloatArray, FloatArray]:
        F = np.empty_like(x)
        PE = np.empty_like(x)
        for i in range(x.shape[0]):
            cond = conds[i] if len(conds) > 1 else conds[0]
            F[i] = cond.cdf(x[i])
            PE[i] = cond.partial_expectation(x[i])
        return F, PE

    return kernel


class AvailabilityDistribution(abc.ABC):
    """A parametric model of machine-availability durations on ``[0, inf)``."""

    #: short identifier used in tables ("exponential", "weibull", ...)
    name: str = "abstract"

    #: whether :meth:`mean_residual_life` on an array gives, element by
    #: element, bitwise the scalar calls (so the optimizer may resolve a
    #: call's search bounds in one array call)
    elementwise_mrl: bool = False

    # ------------------------------------------------------------------
    # primitives each family must provide (array-in / array-out)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _pdf(self, x: FloatArray) -> FloatArray:
        """Density, assuming ``x >= 0`` elementwise."""

    @abc.abstractmethod
    def _cdf(self, x: FloatArray) -> FloatArray:
        """Distribution function, assuming ``x >= 0`` elementwise."""

    @abc.abstractmethod
    def mean(self) -> float:
        """First moment ``E[X]``."""

    @abc.abstractmethod
    def variance(self) -> float:
        """Second central moment ``Var[X]``."""

    @property
    @abc.abstractmethod
    def n_params(self) -> int:
        """Number of free parameters (for AIC/BIC model selection)."""

    @abc.abstractmethod
    def params(self) -> dict[str, float | tuple[float, ...]]:
        """The fitted/constructed parameters, keyed by name."""

    def fingerprint(self) -> tuple[object, ...]:
        """A hashable identity of this distribution: family + parameters.

        Two instances with equal fingerprints represent the same
        mathematical distribution, so solver-cache entries keyed on the
        fingerprint are shared across instances (and across processes,
        once worker snapshots are merged).  Families whose behaviour is
        not fully determined by :meth:`params` (e.g. the empirical
        distribution, parameterised by a whole data vector) must
        override this.  Distributions are treated as immutable after
        construction; the fingerprint is memoised on first use.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached  # type: ignore[no-any-return]
        items = tuple(
            (k, tuple(float(x) for x in v) if isinstance(v, tuple) else float(v))
            for k, v in sorted(self.params().items())
        )
        fp = (type(self).__name__, items)
        self.__dict__["_fingerprint"] = fp
        return fp

    # ------------------------------------------------------------------
    # derived quantities with sensible defaults
    # ------------------------------------------------------------------
    def pdf(self, x: ArrayLike) -> ScalarOrArray:
        """Probability density ``f(x)``; zero for negative ``x``."""
        arr, scalar = _prepare(x)
        out = np.where(arr >= 0.0, self._pdf(np.maximum(arr, 0.0)), 0.0)
        return _finish(out, scalar)

    def cdf(self, x: ArrayLike) -> ScalarOrArray:
        """Distribution function ``F(x) = P(X <= x)``; zero for ``x < 0``."""
        arr, scalar = _prepare(x)
        out = np.where(arr >= 0.0, self._cdf(np.maximum(arr, 0.0)), 0.0)
        return _finish(np.clip(out, 0.0, 1.0), scalar)

    def sf(self, x: ArrayLike) -> ScalarOrArray:
        """Survival function ``S(x) = 1 - F(x)``.

        Subclasses override when a numerically superior form exists
        (e.g. ``exp(-(x/beta)^alpha)`` for the Weibull).
        """
        arr, scalar = _prepare(x)
        out = np.where(arr >= 0.0, 1.0 - self._cdf(np.maximum(arr, 0.0)), 1.0)
        return _finish(np.clip(out, 0.0, 1.0), scalar)

    def hazard(self, x: ArrayLike) -> ScalarOrArray:
        """Hazard rate ``h(x) = f(x) / S(x)``."""
        arr, scalar = _prepare(x)
        dens = np.where(arr >= 0.0, self._pdf(np.maximum(arr, 0.0)), 0.0)
        surv = np.asarray(self.sf(arr))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(surv > 0.0, dens / surv, np.inf)
        return _finish(out, scalar)

    def partial_expectation(self, x: ArrayLike) -> ScalarOrArray:
        """Truncated first moment ``PE(x) = int_0^x t f(t) dt``.

        The generic implementation integrates by parts,
        ``PE(x) = int_0^x S(t) dt - x S(x)``, so it touches only the
        survival function: no density, hence no ``0 * inf`` where the
        survival has vanished.  Every finite positive abscissa of one
        call shares a single running Gauss-Legendre pass over the sorted
        distinct abscissae merged with the doubling knots, so no panel
        spans more than a factor of two.  The paper families override
        this with closed forms.
        """
        arr, scalar = _prepare(x)
        out = np.where(np.isnan(arr), np.nan, 0.0)
        live = (arr > 0.0) & np.isfinite(arr)
        if np.any(live):
            xs, where = np.unique(arr[live], return_inverse=True)
            knots = np.union1d(xs, _DOUBLINGS[_DOUBLINGS < xs[-1]])
            running = gauss_legendre(self._sf_array, 0.0, knots, order=32, panels=1)
            integral = running[np.searchsorted(knots, xs)]
            pe = np.maximum(integral - xs * self._sf_array(xs), 0.0)
            out[live] = pe[where.ravel()]
        infinite = arr == np.inf
        if np.any(infinite):
            out[infinite] = self.mean()
        return _finish(out, scalar)

    def _sf_array(self, x: FloatArray) -> FloatArray:
        return np.asarray(self.sf(x), dtype=np.float64)

    def _survival_moment(self, power: int) -> float:
        """``int_0^inf t^power S(t) dt`` (``E[X]`` for 0, ``E[X^2] / 2`` for 1).

        The same doubling panels as :meth:`partial_expectation`, out to
        the first knot where ``S < 1e-12``: the rule adapts to the
        distribution's time scale without a quantile search.
        """
        (vanished,) = np.nonzero(self._sf_array(_DOUBLINGS) < 1e-12)
        knots = _DOUBLINGS[: vanished[0] + 1] if vanished.size else _DOUBLINGS
        running = gauss_legendre(
            lambda t: t**power * self._sf_array(t), 0.0, knots, order=32, panels=1
        )
        return float(running[-1])

    # -- scalar fast paths (hot loop of the interval optimizer) ---------
    def cdf_one(self, x: float) -> float:
        """Scalar ``F(x)`` without array overhead.

        The golden-section objective evaluates the CDF and partial
        expectation thousands of times per schedule on scalar arguments;
        the three paper families override these with pure-``math``
        implementations (an order of magnitude faster than the ndarray
        path for size-1 inputs).
        """
        return float(self.cdf(x))

    def partial_expectation_one(self, x: float) -> float:
        """Scalar ``PE(x)`` without array overhead."""
        return float(self.partial_expectation(x))

    def cdf_pe_kernel(self, ages: ArrayLike) -> CdfPeKernel:
        """A fused evaluator of the future-lifetime ``(F_age, PE_age)``.

        ``ages`` holds one elapsed uptime per row (or a single age shared
        by every row); the returned kernel maps a ``(rows, n)`` array of
        non-negative abscissae to the conditional distribution function
        and partial expectation of each row's age.  This is this
        instance's :meth:`family_kernel`, the same code that evaluates
        rows of many instances of one family together.
        """
        return self.family_kernel([self], np.ravel(np.asarray(ages, dtype=np.float64)))

    @classmethod
    def family_kernel(
        cls, dists: Sequence[AvailabilityDistribution], ages: FloatArray
    ) -> CdfPeKernel:
        """``(F_age, PE_age)`` over rows of many instances of this family.

        Row ``i`` of the kernel's ``(rows, n)`` input is evaluated under
        ``dists[i]`` at ``ages[i]`` (one instance may stand for every row).
        This is the Markov row objective's only contact with the
        distributions (:class:`~repro.core.markov.MarkovRows`); rows whose
        distributions share a :meth:`kernel_family` key share one call.

        The default conditions once per row and evaluates the array-form
        :meth:`cdf` / :meth:`partial_expectation` row by row (a row is
        never mixed with another in one call, so its values do not depend
        on its neighbours).  The paper families override it with one
        fused pass over per-row parameter arrays.
        """
        return _conditional_rows_kernel(
            [d.conditional(float(a)) for d, a in zip(_per_row(dists, len(ages)), ages, strict=True)]
        )

    def kernel_family(self) -> Hashable:
        """The key under which rows of this distribution share one
        :meth:`family_kernel` call: the instance itself by default, the
        class for the closed-form families."""
        return id(self)

    def kernel_row(self, age: float) -> tuple[AvailabilityDistribution, float]:
        """The ``(distribution, age)`` whose :meth:`family_kernel` row
        evaluates this distribution's ``F_age``: itself, except that a
        conditional distribution is its base at the summed age."""
        return self, age

    def truncated_mean(self, x: ArrayLike) -> ScalarOrArray:
        """``E[X | X <= x] = PE(x) / F(x)`` (the ``K02``/``K22`` cost form)."""
        arr, scalar = _prepare(x)
        pe = np.asarray(self.partial_expectation(arr))
        prob = np.asarray(self.cdf(arr))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(prob > 0.0, pe / prob, 0.0)
        return _finish(out, scalar)

    def mean_residual_life(self, t: ArrayLike) -> ScalarOrArray:
        """``E[X - t | X > t]``: expected remaining availability at age ``t``."""
        arr, scalar = _prepare(t)
        surv = np.asarray(self.sf(arr))
        pe = np.asarray(self.partial_expectation(arr))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(surv > 0.0, (self.mean() - pe) / surv - arr, 0.0)
        return _finish(np.maximum(out, 0.0), scalar)

    def quantile(self, q: ArrayLike) -> ScalarOrArray:
        """Inverse CDF; the generic implementation bisects on ``cdf``."""
        arr, scalar = _prepare(q)
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        flat = np.atleast_1d(arr).astype(np.float64).ravel()
        out = np.empty_like(flat)
        hi0 = max(self.mean() * 4.0, 1.0)
        for i, qi in enumerate(flat):
            if qi <= 0.0:
                out[i] = 0.0
                continue
            if qi >= 1.0:
                out[i] = np.inf
                continue
            lo, hi = 0.0, hi0
            while self.cdf(hi) < qi:
                hi *= 2.0
                if hi > 1e300:
                    break
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if self.cdf(mid) < qi:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-12 * (1.0 + hi):
                    break
            out[i] = 0.5 * (lo + hi)
        out = out.reshape(np.shape(arr)) if not scalar else np.asarray(out[0])
        return _finish(out, scalar)

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> FloatArray:
        """Draw samples by inverse transform (overridden where faster)."""
        u = rng.random(size)
        return np.asarray(self.quantile(u))

    def conditional(self, age: float) -> "AvailabilityDistribution":
        """The future-lifetime distribution ``F_age`` of eq. (8).

        Given that the resource has already been available for ``age``
        seconds, returns the distribution of the *additional* time until
        it fails.  The exponential's memorylessness and the
        hyperexponential's reweighting property give closed-form results;
        the generic fallback wraps this distribution in a
        :class:`~repro.distributions.conditional.ConditionalDistribution`.
        """
        from repro.distributions.conditional import ConditionalDistribution

        if age < 0:
            raise ValueError(f"age must be non-negative, got {age}")
        if age == 0:
            return self
        return ConditionalDistribution(self, age)

    # ------------------------------------------------------------------
    # likelihood (with optional right censoring)
    # ------------------------------------------------------------------
    def log_likelihood(
        self,
        data: ArrayLike,
        censored: ArrayLike | None = None,
    ) -> float:
        """Log-likelihood of ``data`` under this distribution.

        Parameters
        ----------
        data:
            Observed availability durations (non-negative).
        censored:
            Optional boolean mask; ``True`` marks a *right-censored*
            observation (the resource was still available when
            observation stopped), which contributes ``log S(x)`` instead
            of ``log f(x)``.
        """
        x = np.asarray(data, dtype=np.float64).ravel()
        if x.size == 0:
            return 0.0
        if np.any(x < 0):
            raise ValueError("availability durations must be non-negative")
        if censored is None:
            cens = np.zeros(x.shape, dtype=bool)
        else:
            cens = np.asarray(censored, dtype=bool).ravel()
            if cens.shape != x.shape:
                raise ValueError("censored mask must match data shape")
        total = 0.0
        obs = x[~cens]
        if obs.size:
            with np.errstate(divide="ignore"):
                total += float(np.sum(np.log(np.asarray(self.pdf(obs)))))
        cen = x[cens]
        if cen.size:
            with np.errstate(divide="ignore"):
                total += float(np.sum(np.log(np.asarray(self.sf(cen)))))
        return total

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"
