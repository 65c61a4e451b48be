"""Mean estimates with Student-t confidence intervals.

Tables 1 and 3 of the paper report, per (model, checkpoint-cost) cell,
the across-machine mean of the metric together with its 95 % confidence
half-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = ["MeanCI", "check_finite", "mean_ci"]


def check_finite(x: np.ndarray, name: str) -> None:
    """Raise :class:`ValueError` naming ``name`` and the first NaN or
    infinite entry of ``x``."""
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{name} must be finite: {float(x[i])} at index {i} "
            f"({bad.size} non-finite of {x.size})"
        )


@dataclass(frozen=True)
class MeanCI:
    """A mean with its symmetric confidence half-width."""

    mean: float
    half_width: float
    n: int
    level: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:  # the paper's "m ± h" cell format
        return f"{self.mean:.3f} ± {self.half_width:.3f}"


def mean_ci(values, level: float = 0.95) -> MeanCI:
    """Student-t confidence interval for the mean of ``values``.

    A single observation yields an infinite half-width (no variance
    estimate); the experiment drivers require n >= 2 anyway.  A NaN or
    infinite value raises :class:`ValueError`.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    n = x.size
    if n == 0:
        raise ValueError("cannot form a confidence interval from no data")
    check_finite(x, "mean_ci values")
    if not (0.0 < level < 1.0):
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    m = float(np.mean(x))
    if n == 1:
        return MeanCI(mean=m, half_width=math.inf, n=1, level=level)
    sem = float(np.std(x, ddof=1)) / math.sqrt(n)
    # the quantile scipy.stats.t.ppf computes, without importing
    # scipy.stats (the slowest import of a cold start)
    t_crit = float(special.stdtrit(n - 1, 0.5 + level / 2.0))
    return MeanCI(mean=m, half_width=t_crit * sem, n=n, level=level)
