"""Distribution helpers against direct-summation, scipy and mpmath oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp, pdtr

from pgsynth.errors import DomainError
from pgsynth.distributions import (
    _log_gamma,
    _logsumexp,
    _poisson_cdf,
    log_negbin_kernel,
    poisson_quantile_vec,
)

from _oracles import poisson_cdf_direct, poisson_quantile_direct


# far above every quantile these tests ask for
TOP = 10**9


def quantile(p: float, mu: float) -> int:
    return int(poisson_quantile_vec(p, mu, TOP))


def cdf(k: float, mu: float) -> float:
    return float(_poisson_cdf(np.array([float(k)]), np.array([float(mu)]))[0])


def upper_gamma(a: int, x: float) -> float:
    """Q(a, x) = F(a - 1 | x), the regularized upper incomplete gamma."""
    return float(mp.gammainc(a, x, mp.inf, regularized=True))


class TestPoissonCdf:
    """The cdf that poisson_quantile_vec brackets and bisects on.

    The quantile's exactness rests on _poisson_cdf (Loader's pmf times the
    near tail's series, and Temme's expansion near the mean from
    k + 1 = 1e5), so its accuracy is pinned here against direct summation
    and mpmath, including the far tail at a large mean.
    """

    @pytest.mark.parametrize("mu", [0.01, 0.5, 1.0, 15.0, 85.0, 1234.5])
    def test_matches_direct_summation(self, mu):
        ks = np.arange(0, int(mu + 6 * math.sqrt(mu) + 10))
        got = _poisson_cdf(ks, np.full(len(ks), mu))
        for value, direct in zip(got.tolist(), poisson_cdf_direct(mu)):
            direct = float(direct)
            if direct < 1e-200:
                # far left tail at large mean: nothing queries mass that deep
                continue
            assert value == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("k, mu", [
        # scipy's pdtr is 3.2e-11 off here (0.999997163687103)
        (1_004_541, 1e6),
        (10_003_000, 1e7),
        (9_995_000, 1e7),
        # both sides of the switch to Temme's expansion at k + 1 = 1e5
        (99_998, 1e5), (99_998, 1e5 + 3.0), (99_998, 99_990.0),
        (99_999, 1e5), (99_999, 1e5 + 3.0), (99_999, 99_990.0),
        (100_000, 1e5), (100_000, 1e5 + 3.0), (100_000, 99_990.0),
        # the band's edges, |mu - k - 1| against 0.3 (k + 1)
        (99_999, 1.2999e5), (99_999, 1.3001e5),
        (99_999, 0.7001e5), (99_999, 0.6999e5),
    ])
    def test_large_means_match_mpmath(self, k, mu):
        assert cdf(k, mu) == pytest.approx(upper_gamma(k + 1, mu), rel=1e-12)

    def test_negative_k_is_zero(self):
        # F(-1) = 0 < p for every p, so no quantile is ever negative
        assert quantile(1e-12, 3.0) == 0
        assert poisson_quantile_vec([1e-12, 0.5], [0.0, 1e-9], TOP).tolist() == [0, 0]

    def test_large_mean_far_tail(self):
        # pmf summation would lose this; the saddle-point pmf keeps it
        assert cdf(900_000, 1_000_000.0) == pytest.approx(
            upper_gamma(900_001, 1_000_000), rel=1e-9
        )

    def test_infinite_mean_puts_no_mass_below(self):
        got = _poisson_cdf(np.array([0.0, 5.0, 1e18]), np.full(3, np.inf))
        assert got.tolist() == [0.0, 0.0, 0.0]


class TestLogGamma:
    def test_matches_mpmath_over_the_range(self):
        # 400 points from 1e-300 to 1e8: at most 5.3e-15 relative, or that
        # much absolute where |log Gamma| < 1
        x = np.geomspace(1e-300, 1e8, 400)
        want = np.array([float(mp.loggamma(mp.mpf(float(v)))) for v in x])
        err = np.abs(_log_gamma(x) - want)
        assert np.all(err <= 5.3e-15 * np.maximum(np.abs(want), 1.0))

    def test_matches_mpmath_where_shifted(self):
        # below 10 the shift's product and the series cancel to a value
        # near 0 (log Gamma vanishes at 1 and 2): at most 1e-14 absolute,
        # or relative where |log Gamma| > 1
        x = np.concatenate([np.linspace(0.001, 12.0, 2400), [1.0, 2.0, 10.0]])
        want = np.array([float(mp.loggamma(mp.mpf(float(v)))) for v in x])
        err = np.abs(_log_gamma(x) - want)
        assert np.all(err <= 1e-14 * np.maximum(np.abs(want), 1.0))

    def test_keeps_shape_and_scalars(self):
        assert _log_gamma(np.full((2, 3), 4.0)).shape == (2, 3)
        assert float(_log_gamma(5.0)) == pytest.approx(math.lgamma(5.0), rel=1e-15)


class TestLogSumExp:
    def test_bit_equal_to_scipy(self):
        # ties at the max and -inf entries take scipy's split paths
        rng = np.random.default_rng(7)
        for _ in range(500):
            a = rng.normal(0.0, 40.0, int(rng.integers(1, 120)))
            a[rng.integers(0, len(a), 3)] = a.max()
            if rng.random() < 0.4:
                a[rng.integers(0, len(a), 2)] = -np.inf
            assert _logsumexp(a) == float(logsumexp(a))

    def test_edge_vectors(self):
        assert _logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
        assert _logsumexp(np.array([np.inf, 0.0])) == np.inf
        assert _logsumexp(np.array([3.0, 3.0])) == float(logsumexp([3.0, 3.0]))


class TestPoissonQuantile:
    @given(
        q=st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
        mu=st.floats(min_value=1e-3, max_value=500.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_min_k_property(self, q, mu):
        # against scipy's pdtr, an independent cdf
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
