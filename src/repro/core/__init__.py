"""The paper's primary contribution: model-driven checkpoint scheduling.

* :mod:`repro.core.markov` -- Vaidya's three-state Markov model with
  arbitrary availability distributions and future-lifetime conditioning.
* :mod:`repro.core.optimizer` -- ``T_opt`` minimising ``Gamma(T)/T``: a
  vectorised row solver with a Golden Section Search fallback.
* :mod:`repro.core.schedule` -- aperiodic ``T_opt(i)`` schedules.
* :mod:`repro.core.planner` -- the high-level fit -> schedule API.
"""

from repro.core.completion import (
    CompletionEstimate,
    expected_completion_time,
    simulate_completion_time,
)
from repro.core.markov import CheckpointCosts, IntervalTransitions, MarkovIntervalModel
from repro.core.optimizer import (
    OptimalInterval,
    optimize_interval,
    optimize_intervals_batch,
    young_approximation,
)
from repro.core.planner import CheckpointPlanner
from repro.core.schedule import CheckpointSchedule
from repro.core.solver_cache import (
    SolverCache,
    active_cache,
    configure_cache,
    use_solver_cache,
)

__all__ = [
    "CheckpointCosts",
    "CheckpointPlanner",
    "CheckpointSchedule",
    "CompletionEstimate",
    "expected_completion_time",
    "simulate_completion_time",
    "IntervalTransitions",
    "MarkovIntervalModel",
    "OptimalInterval",
    "SolverCache",
    "active_cache",
    "configure_cache",
    "optimize_interval",
    "optimize_intervals_batch",
    "use_solver_cache",
    "young_approximation",
]
