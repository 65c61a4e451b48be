"""Tests for CIs, paired t-tests and significance markers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps

from repro.stats import holm_adjust, mean_ci, paired_ttest, significance_markers
from repro.stats.significance import two_sided_p

#: confidence levels the bitwise oracle checks cover
ORACLE_LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)


class TestMeanCI:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(10.0, 2.0, size=40)
        ci = mean_ci(x, level=0.95)
        lo, hi = sps.t.interval(0.95, len(x) - 1, loc=x.mean(), scale=sps.sem(x))
        assert ci.low == pytest.approx(lo)
        assert ci.high == pytest.approx(hi)
        assert ci.n == 40

    def test_single_observation_infinite(self):
        ci = mean_ci([5.0])
        assert ci.mean == 5.0
        assert np.isinf(ci.half_width)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            mean_ci([1.0, 2.0], level=1.5)

    def test_narrower_with_more_data(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 1000)
        assert mean_ci(x[:10]).half_width > mean_ci(x).half_width

    def test_str_format(self):
        s = str(mean_ci([1.0, 2.0, 3.0]))
        assert "±" in s

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"mean_ci values.*nan at index 1"):
            mean_ci([1.0, float("nan"), 2.0])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match=r"mean_ci values.*inf at index 1"):
            mean_ci([1.0, math.inf, 2.0])


class TestScipyStatsOracle:
    """The runtime takes its t quantiles and tails from scipy.special;
    scipy.stats stays here, as the oracle they must equal bit for bit."""

    def test_half_width_bitwise(self):
        rng = np.random.default_rng(5)
        for df in range(1, 401):
            x = rng.normal(3.0, 1.5, size=df + 1)
            sem = float(np.std(x, ddof=1)) / math.sqrt(x.size)
            for level in ORACLE_LEVELS:
                t_crit = float(sps.t.ppf(0.5 + level / 2.0, df=df))
                assert mean_ci(x, level=level).half_width == t_crit * sem, (df, level)

    def test_p_value_bitwise(self):
        rng = np.random.default_rng(6)
        for df in range(1, 401):
            a = rng.normal(5.0, 1.0, size=df + 1)
            b = a + rng.normal(rng.uniform(-0.5, 0.5), 0.5, size=df + 1)
            r = paired_ttest(a, b)
            assert r.p_value == 2.0 * float(sps.t.sf(abs(r.t_statistic), df=df)), df

    @given(
        t=st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-300, 50.0, 1e3, 1e300, math.inf]),
            st.floats(allow_nan=False),
        ),
        df=st.integers(min_value=1, max_value=400),
    )
    def test_two_sided_p_bitwise(self, t, df):
        assert two_sided_p(t, df) == 2.0 * float(sps.t.sf(abs(t), df=df))
        assert two_sided_p(-t, df) == two_sided_p(t, df)


class TestPairedTTest:
    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        a = rng.normal(5.0, 1.0, 30)
        b = a + rng.normal(0.3, 0.5, 30)
        mine = paired_ttest(a, b)
        ref = sps.ttest_rel(a, b)
        assert mine.t_statistic == pytest.approx(ref.statistic)
        assert mine.p_value == pytest.approx(ref.pvalue)
        assert mine.mean_difference == pytest.approx(float(np.mean(a - b)))

    def test_identical_samples(self):
        r = paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.p_value == 1.0
        assert not r.significant()

    def test_constant_offset_is_infinitely_significant(self):
        r = paired_ttest([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert r.p_value == 0.0
        assert r.significant()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_ttest([1.0], [1.0, 2.0])

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            paired_ttest([1.0], [2.0])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match=r"sample a.*inf at index 2"):
            paired_ttest([1.0, 2.0, math.inf], [0.0, 1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"sample b.*nan at index 0"):
            paired_ttest([1.0, 2.0, 3.0], [float("nan"), 1.0, 2.0])


class TestSignificanceMarkers:
    def test_paper_notation(self):
        rng = np.random.default_rng(3)
        n = 60
        base = rng.normal(0.6, 0.02, n)
        samples = {
            "exponential": base,
            "weibull": base + 0.05,  # clearly larger than everything
            "hyperexp2": base + 0.001 * rng.normal(size=n),  # ties exponential
            "hyperexp3": base + 0.02,  # between
        }
        row = significance_markers(samples)
        assert row["weibull"] == "e,2,3"
        assert row["hyperexp3"] == "e,2"
        assert row["exponential"] == ""
        assert row.cell_suffix("weibull") == " (e,2,3)"

    def test_cell_suffix_empty(self):
        samples = {"exponential": [1.0, 2.0, 3.0], "weibull": [1.0, 2.0, 3.0]}
        row = significance_markers(samples)
        assert row.cell_suffix("exponential") == ""
        assert row.cell_suffix("weibull") == ""

    def test_markers_are_other_models_only(self):
        rng = np.random.default_rng(4)
        n = 40
        samples = {
            "exponential": rng.normal(1.0, 0.01, n),
            "weibull": rng.normal(2.0, 0.01, n),
        }
        row = significance_markers(samples)
        assert row["weibull"] == "e"
        assert "w" not in row["weibull"]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            significance_markers({"a": [1.0, 2.0], "b": [1.0, 2.0]}, method="fdr")


class TestHolm:
    def test_adjustment_values(self):
        # classic example: p = (0.01, 0.04, 0.03) -> (0.03, 0.04, 0.06)... compute
        adj = holm_adjust([0.01, 0.04, 0.03])
        assert adj[0] == pytest.approx(0.03)   # 3 * 0.01
        assert adj[2] == pytest.approx(0.06)   # max(0.03, 2 * 0.03)
        assert adj[1] == pytest.approx(0.06)   # max(0.06, 1 * 0.04) = monotone
        assert all(a >= p for a, p in zip(adj, [0.01, 0.04, 0.03]))

    def test_monotone_and_capped(self):
        adj = holm_adjust([0.5, 0.9, 0.2])
        assert max(adj) <= 1.0

    def test_holm_is_more_conservative(self):
        rng = np.random.default_rng(7)
        n = 25
        base = rng.normal(0.5, 0.05, n)
        samples = {
            "exponential": base,
            "weibull": base + 0.022 + 0.01 * rng.normal(size=n),
            "hyperexp2": base + 0.005 * rng.normal(size=n),
            "hyperexp3": base + 0.01 + 0.02 * rng.normal(size=n),
        }
        plain = significance_markers(samples, method="unadjusted")
        holm = significance_markers(samples, method="holm")
        for model in samples:
            plain_set = set(plain[model].split(",")) - {""}
            holm_set = set(holm[model].split(",")) - {""}
            assert holm_set <= plain_set  # correction can only remove markers
