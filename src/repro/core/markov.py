"""Vaidya's three-state Markov model of a checkpoint interval (Section 3.5).

The execution of one checkpoint interval is modelled with three states:

* **state 0** -- start of the interval (the previous checkpoint, if any,
  is committed); the job computes for ``T`` seconds then checkpoints for
  ``C`` seconds;
* **state 1** -- the interval completed: ``T`` seconds of work are
  durable;
* **state 2** -- the resource failed (owner reclamation) somewhere in
  the interval; leaving state 2 requires surviving checkpoint latency
  ``L``, recovery ``R`` and a fresh work interval ``T``.

Transition probabilities and expected sojourn costs (the paper's
``P_ij`` / ``K_ij``)::

    P01 = 1 - F(C + T)            K01 = C + T
    P02 = F(C + T)                K02 = E[t | t < C + T]
    P21 = 1 - F(L + R + T)        K21 = L + R + T
    P22 = F(L + R + T)            K22 = E[t | t < L + R + T]

and the expected time to travel from state 0 to state 1 (eq. 11)::

    Gamma = P01 * K01 + P02 * (K02 + K22 * P22 / P21 + K21)

(The paper's eq. 11 prints ``K20``; by the first-step analysis of the
geometric number of retries out of state 2 the term is ``K21``, matching
Vaidya's original derivation.)

Two distributions appear: the 0-state transitions must use the
*future-lifetime* distribution conditioned on the resource's elapsed
uptime ``age`` (eq. 8), while the 2-state transitions use the
unconditional distribution, because a failure has just occurred and the
resource restarts fresh.  ``Gamma / T`` is the expected overhead ratio
minimised by the optimizer; its reciprocal ``T / Gamma`` is the expected
efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.distributions.base import ArrayLike, AvailabilityDistribution, CdfPeKernel, FloatArray
from repro.distributions.exponential import Exponential

__all__ = ["CheckpointCosts", "IntervalTransitions", "MarkovIntervalModel", "MarkovRows"]


@dataclass(frozen=True)
class CheckpointCosts:
    """Constant per-interval costs of the Markov model.

    Attributes
    ----------
    checkpoint:
        ``C`` -- seconds to write one checkpoint over the network.
    recovery:
        ``R`` -- seconds to restore the last checkpoint.  The paper's
        experiments set ``R = C`` (both are 500 MB transfers over the
        same link).
    latency:
        ``L`` -- checkpoint latency: time after a checkpoint completes
        before it is safely committed at the storage site.  With the
        paper's strictly sequential recovery/compute/checkpoint phases
        the checkpoint is committed the moment it finishes, so ``L``
        defaults to ``0``; Vaidya's general model allows ``L > 0``.
    """

    checkpoint: float
    recovery: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if not (
            0 <= self.checkpoint < math.inf
            and 0 <= self.recovery < math.inf
            and 0 <= self.latency < math.inf
        ):
            raise ValueError(f"costs must be finite and non-negative: {self}")

    @classmethod
    def symmetric(cls, cost: float, *, latency: float = 0.0) -> "CheckpointCosts":
        """The paper's ``C = R`` convention."""
        return cls(checkpoint=cost, recovery=cost, latency=latency)


@dataclass(frozen=True)
class IntervalTransitions:
    """The eight ``P_ij`` / ``K_ij`` quantities for one work interval ``T``."""

    T: float
    p01: float
    k01: float
    p02: float
    k02: float
    p21: float
    k21: float
    p22: float
    k22: float


@dataclass
class MarkovIntervalModel:
    """Evaluator of the three-state model for one (distribution, costs, age).

    Parameters
    ----------
    distribution:
        The fitted availability model (unconditional).
    costs:
        Constant ``C``/``R``/``L`` values.
    age:
        ``T_elapsed`` -- how long the resource has already been
        available; the 0-state transitions condition on it (for the
        exponential this is a no-op by memorylessness).
    """

    distribution: AvailabilityDistribution
    costs: CheckpointCosts
    age: float = 0.0
    _cond: AvailabilityDistribution = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.age < 0:
            raise ValueError(f"age must be non-negative, got {self.age}")
        self._cond = self.distribution.conditional(self.age)

    # ------------------------------------------------------------------
    def transitions(self, T: float) -> IntervalTransitions:
        """All transition probabilities and costs for work interval ``T``."""
        if T <= 0:
            raise ValueError(f"work interval must be positive, got {T}")
        C, R, L = self.costs.checkpoint, self.costs.recovery, self.costs.latency
        horizon0 = C + T
        horizon2 = L + R + T

        # state-0 transitions: future-lifetime distribution at `age`
        # (clamped: round-off in conditional ratios can stray a few ulps
        # outside [0, 1], which would make the probabilities negative)
        f0 = min(max(self._cond.cdf_one(horizon0), 0.0), 1.0)
        p01 = 1.0 - f0
        p02 = f0
        if f0 > 0.0:
            k02 = min(self._cond.partial_expectation_one(horizon0) / f0, horizon0)
        else:
            k02 = 0.0

        # state-2 transitions: unconditional distribution (fresh resource)
        f2 = min(max(self.distribution.cdf_one(horizon2), 0.0), 1.0)
        p21 = 1.0 - f2
        p22 = f2
        if f2 > 0.0:
            k22 = min(self.distribution.partial_expectation_one(horizon2) / f2, horizon2)
        else:
            k22 = 0.0

        return IntervalTransitions(
            T=T,
            p01=p01,
            k01=horizon0,
            p02=p02,
            k02=k02,
            p21=p21,
            k21=horizon2,
            p22=p22,
            k22=k22,
        )

    def gamma(self, T: float) -> float:
        """Expected time from state 0 to state 1 (eq. 11)."""
        tr = self.transitions(T)
        if tr.p02 <= 0.0:
            return tr.k01
        if tr.p21 <= 0.0:
            # a failure is certain to recur before any retry completes:
            # the job can never commit this interval
            return math.inf
        retry_cost = tr.k22 * tr.p22 / tr.p21 + tr.k21
        return tr.p01 * tr.k01 + tr.p02 * (tr.k02 + retry_cost)

    def overhead_ratio(self, T: float) -> float:
        """``Gamma(T) / T`` -- the quantity the paper minimises."""
        return self.gamma(T) / T

    def expected_efficiency(self, T: float) -> float:
        """``T / Gamma(T)`` -- expected fraction of time doing useful work."""
        g = self.gamma(T)
        return T / g if math.isfinite(g) and g > 0.0 else 0.0


class MarkovRows:
    """Eq. 11 on ``(rows x abscissae)`` arrays: one (age, C, R, L) per row.

    The row solver's objective.  Row ``i`` of :meth:`gamma` evaluates
    the three-state model of ``(distribution, costs[i], ages[i])`` at
    every work interval in ``T[i]``.  The distribution is touched only
    through two fused kernels built once
    (:meth:`~repro.distributions.base.AvailabilityDistribution.cdf_pe_kernel`):
    the future-lifetime ``(F, PE)`` at each row's age for the state-0
    transitions, and the unconditional pair for the state-2 ones.  Every
    operation is elementwise within a row, so a row's values do not depend
    on the rows beside it.
    """

    __slots__ = ("_checkpoint", "_restart", "_state0", "_state2")

    _checkpoint: FloatArray
    _restart: FloatArray
    _state0: CdfPeKernel
    _state2: CdfPeKernel | None

    def __init__(
        self,
        distribution: AvailabilityDistribution,
        ages: ArrayLike,
        checkpoint: ArrayLike,
        recovery: ArrayLike,
        latency: ArrayLike,
    ) -> None:
        a = np.asarray(ages, dtype=np.float64).ravel()
        if np.any(a < 0.0):
            raise ValueError("ages must be non-negative")
        self._checkpoint = np.asarray(checkpoint, dtype=np.float64).reshape(-1, 1)
        self._restart = (
            np.asarray(latency, dtype=np.float64) + np.asarray(recovery, dtype=np.float64)
        ).reshape(-1, 1)
        self._state0 = distribution.cdf_pe_kernel(a)
        # when the restart horizon L + R equals the checkpoint horizon C,
        # a fresh resource (age 0) or a memoryless one sees the same pair
        # in both states -- every gang solve, every exponential solve and
        # the first interval of any schedule with C = R
        fresh = isinstance(distribution, Exponential) or not bool(np.any(a))
        same = fresh and bool(np.array_equal(self._checkpoint, self._restart))
        self._state2 = None if same else distribution.cdf_pe_kernel(np.zeros(1))

    def gamma(self, T: FloatArray) -> FloatArray:
        """Expected time from state 0 to state 1 for each row's candidates."""
        h0 = self._checkpoint + T
        f0, pe0 = self._state0(h0)
        if self._state2 is None:
            h2, f2, pe2 = h0, f0, pe0
        else:
            h2 = self._restart + T
            f2, pe2 = self._state2(h2)
        # K02 * P02 = min(PE0, F0 * h0): the truncated mean never exceeds
        # its horizon (round-off in PE could push it past).  P21 = 0 (a
        # failure is certain before any retry completes) leaves an
        # infinite or NaN retry cost: the interval can never commit.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            retry = np.minimum(pe2, f2 * h2) / (1.0 - f2) + h2
            inner = (1.0 - f0) * h0 + np.minimum(pe0, f0 * h0) + f0 * retry
        out: FloatArray = np.where(f0 <= 0.0, h0, inner)
        return out

    def overhead_ratio(self, T: FloatArray) -> FloatArray:
        """``Gamma(T) / T`` for each row's candidates."""
        out: FloatArray = self.gamma(T) / T
        return out
