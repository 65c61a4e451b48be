"""The lock-step EM lane kernel against the scalar oracle.

``fit_hyperexponential`` runs every init of a fit as one lane array
(``repro.distributions.fitting.em._em_lanes``).  Its result must equal,
bit for bit, the fit that runs each init through the scalar loop it
replaced (``tests/em_oracle.py``), and a lane must not see its batch.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distributions import fit_hyperexponential
from repro.distributions.fitting.em import _MAX_RATE, _MIN_RATE, EMResult, _em_lanes, _quantile_init
from tests.em_oracle import oracle_fit


def _assert_bitwise_equal(got: EMResult, want: EMResult) -> None:
    assert np.array_equal(got.distribution.probs, want.distribution.probs)
    assert np.array_equal(got.distribution.rates, want.distribution.rates)
    assert got.log_likelihood == want.log_likelihood
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.restarts_used == want.restarts_used


def _data(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "constant":  # every phase sees the same data; phases merge
        return np.full(n, 1234.5)
    if kind == "exponential":
        return rng.exponential(900.0, n)
    # bimodal: 5-minute and 3-hour phases
    fast = rng.random(n) < 0.6
    return np.where(fast, rng.exponential(300.0, n), rng.exponential(10800.0, n))


def _censor(n: int, rng: np.random.Generator) -> np.ndarray:
    cens = rng.random(n) < 0.3
    cens[0] = False  # at least one uncensored observation
    return cens


def _both(x, k, cens, *, seed, **kw) -> tuple[EMResult, EMResult]:
    got = fit_hyperexponential(x, k, cens, rng=np.random.default_rng(seed), **kw)
    want = oracle_fit(x, k, cens, rng=np.random.default_rng(seed), **kw)
    return got, want


GRID = list(itertools.product((1, 2, 3, 4), (False, True), (1, 5, 500), (0, 2, 3)))


@pytest.mark.parametrize(("k", "censored", "max_iter", "n_restarts"), GRID)
def test_lanes_equal_scalar_oracle_grid(k, censored, max_iter, n_restarts):
    """Every (k, censoring, max_iter, n_restarts) cell, on constant,
    exponential and bimodal data at sizes from 2 to 400."""
    rng = np.random.default_rng([k, censored, max_iter, n_restarts])
    for kind, n in (("constant", 7), ("exponential", 2), ("bimodal", 25), ("bimodal", 400)):
        x = _data(kind, n, rng)
        cens = _censor(n, rng) if censored else None
        got, want = _both(x, k, cens, seed=int(rng.integers(2**31)), max_iter=max_iter, n_restarts=n_restarts)
        _assert_bitwise_equal(got, want)


@given(
    seed=st.integers(0, 2**31 - 1),
    k=st.integers(1, 4),
    n=st.integers(2, 400),
    kind=st.sampled_from(["constant", "exponential", "bimodal"]),
    censored=st.booleans(),
    max_iter=st.sampled_from([1, 5, 500]),
    n_restarts=st.sampled_from([0, 2, 3]),
)
def test_lanes_equal_scalar_oracle_random(seed, k, n, kind, censored, max_iter, n_restarts):
    rng = np.random.default_rng(seed)
    x = _data(kind, n, rng)
    cens = _censor(n, rng) if censored else None
    got, want = _both(x, k, cens, seed=seed, max_iter=max_iter, n_restarts=n_restarts)
    _assert_bitwise_equal(got, want)


def test_default_rng_matches_oracle():
    x = _data("bimodal", 25, np.random.default_rng(3))
    _assert_bitwise_equal(fit_hyperexponential(x, 3), oracle_fit(x, 3))


def test_descending_step_keeps_pre_step_loglik():
    """Durations of ~1e15 s put the MLE rate below the 1e-12 clip: the
    first M-step lowers the likelihood, so the lane stops there with the
    clipped (post-step) rate and the pre-step log-likelihood."""
    x = np.array([1e15, 2e15, 3e15])
    got, want = _both(x, 1, None, seed=0)
    _assert_bitwise_equal(got, want)
    assert got.iterations == 1
    assert not got.converged
    assert got.distribution.rates[0] == _MIN_RATE
    assert got.log_likelihood > got.distribution.log_likelihood(x)


@pytest.mark.parametrize("censored", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lane_result_does_not_depend_on_its_batch(k, censored):
    """Each init alone gives the same bits as inside the 4-lane batch;
    lane 0 alone is exactly what an ``n_restarts=0`` fit runs."""
    rng = np.random.default_rng(11 + k)
    x = _data("bimodal", 60, rng)
    cens = _censor(x.size, rng) if censored else np.zeros(x.size, dtype=bool)
    p0, r0 = _quantile_init(x, k)
    probs = np.stack([p0] + [rng.dirichlet(np.ones(k)) for _ in range(3)])
    rates = np.stack([r0] + [np.clip(r0 * np.exp(rng.normal(0.0, 0.75, k)), _MIN_RATE, _MAX_RATE) for _ in range(3)])
    with np.errstate(divide="ignore", invalid="ignore"):
        batch = _em_lanes(x, cens, probs, rates, max_iter=500, tol=1e-10)
        alone = [_em_lanes(x, cens, probs[i : i + 1], rates[i : i + 1], max_iter=500, tol=1e-10)[0] for i in range(4)]
    assert len({lane[3] for lane in batch}) > 1, "lanes should stop at different steps"
    for one, lane in zip(alone, batch):
        assert np.array_equal(one[0], lane[0])
        assert np.array_equal(one[1], lane[1])
        assert one[2:] == lane[2:]

    single = fit_hyperexponential(x, k, cens, n_restarts=0)
    assert single.log_likelihood == batch[0][2]
    assert single.iterations == batch[0][3]
