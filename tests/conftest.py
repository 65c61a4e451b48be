"""Shared test configuration.

A bounded hypothesis profile keeps the property-based suite fast and
deterministic on CI-class machines; set ``HYPOTHESIS_PROFILE=thorough``
for a deeper run.  The ``schema_1_snapshot`` fixture is a solver-cache
snapshot in the retired ``/1`` format, which every loader must refuse.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.register_profile(
    "thorough",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def schema_1_snapshot():
    """A solver-cache snapshot in the retired ``/1`` format: its keys
    also carry ``t_min``, ``t_max``, ``rel_tol`` and the solver method."""
    return {
        "schema": "repro.opt.solver_cache/1",
        "version": 1,
        "capacity": 8,
        "hits": 3,
        "misses": 1,
        "evictions": 0,
        "entries": [
            [
                [["Exponential", [["rate", 0.001]]], 100.0, 100.0, 10.0, 0.0, 1e-3, 1e7, 1e-6, "hybrid"],
                {
                    "T_opt": 100.0,
                    "gamma": 110.0,
                    "overhead_ratio": 1.1,
                    "expected_efficiency": 1.0 / 1.1,
                    "age": 0.0,
                    "converged": True,
                },
            ]
        ],
    }
