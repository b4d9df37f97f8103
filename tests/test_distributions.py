"""Distribution helpers against direct-summation oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import pdtr

from pgsynth.errors import DomainError
from pgsynth.distributions import log_negbin_kernel, poisson_quantile_vec

from _oracles import poisson_cdf_direct, poisson_quantile_direct


# far above every quantile these tests ask for
TOP = 10**9


def quantile(p: float, mu: float) -> int:
    return int(poisson_quantile_vec(p, mu, TOP))


class TestPoissonCdf:
    """The cdf that poisson_quantile_vec brackets and bisects on.

    The quantile's exactness rests on scipy's pdtr (the regularized upper
    incomplete gamma route), so its accuracy is pinned here against
    direct summation, including the far tail at a large mean.
    """

    @pytest.mark.parametrize("mu", [0.01, 0.5, 1.0, 15.0, 85.0, 1234.5])
    def test_matches_direct_summation(self, mu):
        for k in range(0, int(mu + 6 * math.sqrt(mu) + 10)):
            direct = float(poisson_cdf_direct(k, mu))
            if direct < 1e-200:
                # far left tail at large mean underflows inside the
                # incomplete-gamma route; nothing queries mass that deep
                continue
            assert pdtr(k, mu) == pytest.approx(direct, rel=1e-12)

    def test_negative_k_is_zero(self):
        # F(-1) = 0 < p for every p, so no quantile is ever negative
        assert quantile(1e-12, 3.0) == 0
        assert poisson_quantile_vec([1e-12, 0.5], [0.0, 1e-9], TOP).tolist() == [0, 0]

    def test_large_mean_far_tail(self):
        # pmf summation would lose this; the incomplete-gamma route keeps it
        assert pdtr(900_000, 1_000_000.0) == pytest.approx(
            float(mp.gammainc(900_001, 1_000_000, mp.inf, regularized=True)),
            rel=1e-9,
        )


class TestPoissonQuantile:
    @given(
        q=st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
        mu=st.floats(min_value=1e-3, max_value=500.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_min_k_property(self, q, mu):
        k = quantile(q, mu)
        assert pdtr(k, mu) >= q
        if k > 0:
            assert pdtr(k - 1, mu) < q

    @pytest.mark.parametrize(
        "q,mu", [(0.0001, 15.0), (0.5, 85.0), (0.9998, 15.0), (0.99995, 15.0)]
    )
    def test_agrees_with_scan(self, q, mu):
        assert quantile(q, mu) == poisson_quantile_direct(q, mu)

    def test_walkthrough_anchor_levels(self):
        # at mean 15 the 0.9998 quantile is 30; one more half-alpha of tail
        # pushes it to 32, which is why the box level matters
        assert quantile(1.0 - 2e-4, 15.0) == 30
        assert quantile(1.0 - 5e-5, 15.0) == 32

    def test_vectorized_matches_scalar(self):
        q = np.array([0.01, 0.5, 0.99])
        mu = np.array([2.0, 15.0, 85.0])
        vec = poisson_quantile_vec(q, mu, TOP)
        assert vec.tolist() == [quantile(a, b) for a, b in zip(q, mu)]
        assert vec.tolist() == [poisson_quantile_direct(a, b) for a, b in zip(q, mu)]

    def test_zero_mean(self):
        assert quantile(0.999, 0.0) == 0

    def test_capped_at_top(self):
        assert [int(poisson_quantile_vec(1.0 - 2e-4, 15.0, top))
                for top in (0, 29, 30, 31)] == [0, 29, 30, 30]

    def test_huge_means_end(self):
        # above 2^53 a float search can no longer step by one; an infinite
        # mean's quantile lies past every cap
        mu = [2e17, 1e20, 1e308, np.inf]
        assert poisson_quantile_vec(1.0 - 2e-4, mu, 26116).tolist() == [26116] * 4
        top = np.iinfo(np.int64).max
        k = poisson_quantile_vec(1.0 - 2e-4, mu, top)
        assert k[2:].tolist() == [top, top]
        assert 2e17 < k[0] < 2e17 + 1e10 and pdtr(k[0], 2e17) >= 1.0 - 2e-4

    def test_negative_top_is_refused(self):
        with pytest.raises(DomainError, match="cap must be nonnegative"):
            poisson_quantile_vec(0.5, 1.0, -1)


class TestNegbinKernel:
    @given(
        z=st.integers(min_value=0, max_value=200),
        shape=st.floats(min_value=1e-3, max_value=300.0),
        p=st.floats(min_value=1e-6, max_value=0.5),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_direct(self, z, shape, p):
        got = log_negbin_kernel(np.array([z]), shape, math.log(p))[0]
        want = float(
            mp.loggamma(z + mp.mpf(shape)) - mp.loggamma(z + 1) + z * mp.log(mp.mpf(p))
        )
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_impossible_category_is_point_mass_at_zero(self):
        out = log_negbin_kernel(np.array([0, 1, 5]), 2.0, -np.inf)
        assert out[0] == pytest.approx(math.lgamma(2.0))
        assert out[1] == -np.inf and out[2] == -np.inf
