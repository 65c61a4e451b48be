"""Numerical substrate for the checkpoint-scheduling reproduction.

The paper relies on three numerical building blocks, all of which are
implemented here from scratch (the paper cites Numerical Recipes for the
Golden Section Search):

* :mod:`repro.numerics.optimize` -- minimum bracketing (``mnbrak``-style)
  and Golden Section Search used to minimise the expected overhead ratio
  ``Gamma(T)/T`` with respect to the work interval ``T``, plus the
  vectorised row minimiser that solves many such problems at once.
* :mod:`repro.numerics.quadrature` -- adaptive Simpson and fixed-order
  Gauss-Legendre quadrature, used as the generic fallback for partial
  expectations of distribution families without a closed form.
* :mod:`repro.numerics.rootfind` -- safeguarded Newton iteration and
  bisection, used by the Weibull maximum-likelihood estimator.
"""

from repro.numerics.optimize import (
    BatchObjective,
    Bracket,
    BracketError,
    GoldenSectionResult,
    RowMinima,
    bracket_minimum,
    golden_section_minimize,
    minimize_positive_scalar,
    minimize_rows,
)
from repro.numerics.quadrature import (
    QuadratureError,
    adaptive_simpson,
    gauss_legendre,
    gauss_legendre_nodes,
)
from repro.numerics.rootfind import (
    RootFindError,
    bisect,
    newton_safeguarded,
)

__all__ = [
    "BatchObjective",
    "Bracket",
    "BracketError",
    "GoldenSectionResult",
    "QuadratureError",
    "RootFindError",
    "RowMinima",
    "adaptive_simpson",
    "bisect",
    "bracket_minimum",
    "gauss_legendre",
    "gauss_legendre_nodes",
    "golden_section_minimize",
    "minimize_positive_scalar",
    "minimize_rows",
    "newton_safeguarded",
]
