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
from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.distributions.base import (
    ArrayLike,
    AvailabilityDistribution,
    CdfPeKernel,
    FloatArray,
    _per_row,
)
from repro.distributions.conditional import ConditionalDistribution
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
    """Eq. 11 on ``(rows x abscissae)`` arrays: one (distribution, age, C,
    R, L) per row.

    The row solver's objective.  Row ``i`` of :meth:`gamma` evaluates
    the three-state model of ``(distributions[i], costs[i], ages[i])`` at
    every work interval in ``T[i]``; ``distributions`` is one
    distribution shared by every row or one per row.  The distributions
    are touched only through fused kernels built once
    (:meth:`~repro.distributions.base.AvailabilityDistribution.family_kernel`):
    rows are grouped into one block per
    :meth:`~repro.distributions.base.AvailabilityDistribution.kernel_family`
    (all Weibull fits, say), wherever they sit in the input, and each
    block gets the future-lifetime ``(F, PE)`` at its rows' ages for the
    state-0 transitions and the unconditional pair for the state-2 ones.  Every operation is
    elementwise within a row, so a row's values do not depend on the rows
    beside it, nor on which block holds it.
    """

    __slots__ = ("_blocks", "_checkpoint", "_restart", "_same_horizon", "_whole")

    _checkpoint: FloatArray
    _restart: FloatArray
    #: (rows, state-0 kernel, state-2 kernel or None when it equals state
    #: 0); the rows are every row for a lone block, else their indices
    _blocks: list[tuple[slice | NDArray[np.intp], CdfPeKernel, CdfPeKernel | None]]
    #: L + R equals C on every row, so the two horizons are one array
    _same_horizon: bool
    _whole: bool

    def __init__(
        self,
        distributions: AvailabilityDistribution | Sequence[AvailabilityDistribution],
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
        self._same_horizon = bool((self._checkpoint == self._restart).all())
        if isinstance(distributions, AvailabilityDistribution):
            self._blocks = [self._block([distributions], a, slice(None))]
        else:
            rows = list(distributions)
            if len(rows) != a.size:
                raise ValueError(f"got {len(rows)} distributions for {a.size} ages")
            # one block per kernel family, its rows in input order
            families: dict[int, Hashable] = {}
            groups: dict[Hashable, list[int]] = {}
            for i, d in enumerate(rows):
                if id(d) not in families:
                    families[id(d)] = d.kernel_row(0.0)[0].kernel_family()
                groups.setdefault(families[id(d)], []).append(i)
            self._blocks = []
            for members in groups.values():
                block = [rows[i] for i in members]
                if all(d is block[0] for d in block):
                    block = block[:1]
                at: slice | NDArray[np.intp] = slice(None) if len(groups) == 1 else np.array(members)
                self._blocks.append(self._block(block, a[at], at))
        self._whole = len(self._blocks) == 1

    def _block(
        self, dists: list[AvailabilityDistribution], ages: FloatArray, rows: slice | NDArray[np.intp]
    ) -> tuple[slice | NDArray[np.intp], CdfPeKernel, CdfPeKernel | None]:
        """The state-0 and state-2 kernels of one family block; ``dists``
        is one distribution per row, or one standing for every row."""
        if any(isinstance(d, ConditionalDistribution) for d in dists):
            # a conditional distribution's rows are its base's at the
            # summed ages
            rows0 = [d.kernel_row(float(x)) for d, x in zip(_per_row(dists, ages.size), ages, strict=True)]
            rows2 = [d.kernel_row(0.0) for d in _per_row(dists, ages.size)]
            dists = [d for d, _ in rows0]
            if all(d is dists[0] for d in dists):
                dists = dists[:1]
            ages0 = np.array([x for _, x in rows0])
            ages2 = np.array([x for _, x in rows2])
        else:
            ages0, ages2 = ages, np.zeros(len(dists))
        family = type(dists[0])
        state0 = family.family_kernel(dists, ages0)
        # when the restart horizon L + R equals the checkpoint horizon C,
        # a fresh resource (state-0 age = state-2 age) or a memoryless one
        # sees the same pair in both states -- every gang solve, every
        # exponential solve and the first interval of any schedule with
        # C = R
        fresh = issubclass(family, Exponential) or bool((ages0 == ages2).all())
        if fresh and (self._same_horizon or bool((self._checkpoint[rows] == self._restart[rows]).all())):
            return rows, state0, None
        return rows, state0, family.family_kernel(dists, ages2)

    def evaluate(self, T: FloatArray) -> FloatArray:
        """:meth:`gamma` without its ``np.errstate``: the solver enters
        that once per solve call, not once per pass."""
        h0 = self._checkpoint + T
        h2 = h0 if self._same_horizon else self._restart + T
        if self._whole:
            _, state0, state2 = self._blocks[0]
            f0, pe0 = state0(h0)
            f2, pe2 = (f0, pe0) if state2 is None else state2(h2)
        else:
            f0, pe0 = np.empty_like(h0), np.empty_like(h0)
            f2, pe2 = np.empty_like(h0), np.empty_like(h0)
            for rows, state0, state2 in self._blocks:
                f0[rows], pe0[rows] = state0(h0[rows])
                if state2 is None:
                    # the block's L + R equals its C: h2 is h0 on its rows
                    f2[rows], pe2[rows] = f0[rows], pe0[rows]
                else:
                    f2[rows], pe2[rows] = state2(h2[rows])
        # K02 * P02 = min(PE0, F0 * h0): the truncated mean never exceeds
        # its horizon (round-off in PE could push it past).  P21 = 0 (a
        # failure is certain before any retry completes) leaves an
        # infinite or NaN retry cost: the interval can never commit.
        # (in place where an operand is a fresh temporary: the same
        # floats, in fewer live arrays on a wide solve)
        k0 = f0 * h0
        np.minimum(pe0, k0, out=k0)
        p01 = 1.0 - f0
        if f2 is f0:
            # one pair for both states (so h2 is h0): K22 P22 and P21 are
            # K02 P02 and P01
            retry = k0 / p01
        else:
            k2 = f2 * h2
            np.minimum(pe2, k2, out=k2)
            retry = np.divide(k2, 1.0 - f2, out=k2)
        retry += h2
        retry *= f0
        inner: FloatArray = np.multiply(p01, h0, out=p01)
        inner += k0
        inner += retry
        # F0 = 0: the interval cannot fail, Gamma = K01 = h0
        certain = f0 <= 0.0
        if certain.any():
            np.copyto(inner, h0, where=certain)
        return inner

    def gamma(self, T: FloatArray) -> FloatArray:
        """Expected time from state 0 to state 1 for each row's candidates."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self.evaluate(T)

    def overhead_ratio(self, T: FloatArray) -> FloatArray:
        """``Gamma(T) / T`` for each row's candidates."""
        out: FloatArray = self.gamma(T) / T
        return out
