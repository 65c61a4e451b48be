"""Family ``(F, PE)`` kernels against the per-instance oracle, bitwise.

The Weibull, exponential and hyperexponential families each evaluate rows
of many fitted instances in one kernel, from per-row parameter arrays;
an instance's own :meth:`cdf_pe_kernel` is that family kernel over one
instance.  Every row must equal, float for float, what the per-instance
kernel it replaced (``tests/kernel_oracle.py``) computes for that row's
instance and age, whatever rows share its block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Exponential, Hyperexponential, Weibull
from tests.kernel_oracle import exponential_kernel, hyperexponential_kernel, weibull_kernel

ORACLE = {Weibull: weibull_kernel, Exponential: exponential_kernel, Hyperexponential: hyperexponential_kernel}

WEIBULLS = [
    Weibull(0.43, 3409.0),
    Weibull(0.34861678622050735, 834.6982882412103),
    Weibull(0.5693085326516375, 1238.135164633769),
    Weibull(1.7, 500.0),
]
HYPERS = [
    Hyperexponential([0.5, 0.5], [1.0 / 100.0, 1.0 / 9000.0]),
    Hyperexponential([0.3, 0.5, 0.2], [1.0 / 50.0, 1.0 / 2000.0, 1.0 / 20000.0]),
    Hyperexponential([0.9, 0.1], [1.0 / 30.0, 1.0 / 5e4]),
]
EXPS = [Exponential(1.0 / 5000.0), Exponential(1.0 / 37.0)]


def _ages(dist):
    """Ages from job start into the deep tail (S(age) < 1e-9, where the
    Weibull rows take the generic by-parts path)."""
    if isinstance(dist, Weibull):
        b, a = dist.scale, dist.shape
        return [0.0, 0.1 * b, b, b * 3.0 ** (1.0 / a), b * 19.0 ** (1.0 / a), b * 25.0 ** (1.0 / a)]
    return [0.0, 90.0, 9000.0, 2e5]


def _abscissae(rng, rows, n):
    return np.exp(rng.uniform(np.log(1e-3), np.log(1e9), (rows, n)))


def _assert_rows_match(F, PE, dists, ages, x):
    for i, (dist, age) in enumerate(zip(dists, ages, strict=True)):
        F_i, PE_i = ORACLE[type(dist)](dist, [age])(x[i : i + 1])
        assert np.array_equal(F[i : i + 1], F_i), (dist, age)
        assert np.array_equal(PE[i : i + 1], PE_i), (dist, age)


@pytest.mark.parametrize("dist", WEIBULLS + HYPERS + EXPS, ids=repr)
class TestInstanceKernel:
    @pytest.mark.parametrize("n", [1, 2, 48, 62])
    def test_matches_oracle(self, dist, n):
        rng = np.random.default_rng(n)
        ages = np.array(_ages(dist))
        x = _abscissae(rng, ages.size, n)
        F, PE = dist.cdf_pe_kernel(ages)(x)
        F_o, PE_o = ORACLE[type(dist)](dist, ages)(x)
        assert np.array_equal(F, F_o)
        assert np.array_equal(PE, PE_o)

    def test_one_age_stands_for_every_row(self, dist):
        x = _abscissae(np.random.default_rng(0), 5, 48)
        for age in _ages(dist):
            F, PE = dist.cdf_pe_kernel([age])(x)
            F_o, PE_o = ORACLE[type(dist)](dist, [age])(x)
            assert np.array_equal(F, F_o)
            assert np.array_equal(PE, PE_o)


@pytest.mark.parametrize(
    "family,members", [(Weibull, WEIBULLS), (Hyperexponential, HYPERS), (Exponential, EXPS)], ids=lambda v: getattr(v, "__name__", "")
)
class TestFamilyBlock:
    """Rows of many instances in one family kernel, each row against its
    own instance's oracle (hyperexponential rows of k = 2 and k = 3
    share one padded block)."""

    def test_every_instance_and_age(self, family, members):
        dists = [d for d in members for _ in _ages(d)]
        ages = [age for d in members for age in _ages(d)]
        x = _abscissae(np.random.default_rng(1), len(ages), 62)
        F, PE = family.family_kernel(dists, np.array(ages))(x)
        _assert_rows_match(F, PE, dists, ages, x)

    @given(rows=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 5)), min_size=1, max_size=8), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_any_mix_of_rows(self, family, members, rows, seed):
        dists = [members[i % len(members)] for i, _ in rows]
        ages = [_ages(d)[j % len(_ages(d))] for d, (_, j) in zip(dists, rows, strict=True)]
        x = _abscissae(np.random.default_rng(seed), len(rows), 7)
        F, PE = family.family_kernel(dists, np.array(ages))(x)
        _assert_rows_match(F, PE, dists, ages, x)

    def test_unconditional_rows(self, family, members):
        """The state-2 (age 0) block of many instances."""
        x = _abscissae(np.random.default_rng(2), len(members), 48)
        F, PE = family.family_kernel(members, np.zeros(len(members)))(x)
        _assert_rows_match(F, PE, members, [0.0] * len(members), x)


def test_special_weibull_shapes_keep_their_own_block():
    """numpy's ``pow`` takes a square / square-root loop for a scalar
    exponent of exactly 2 or 1/2, so those shapes never share a block
    (their rows would not be the lone solve's floats)."""
    assert Weibull(2.0, 10.0).kernel_family() != Weibull(2.0, 10.0).kernel_family()
    assert Weibull(0.5, 10.0).kernel_family() != Weibull(0.6, 10.0).kernel_family()
    assert Weibull(0.43, 10.0).kernel_family() == Weibull(0.6, 10.0).kernel_family() == Weibull
