"""Numerically stable distribution primitives.

Everything downstream (calibration, sampling, auditing) is built on the
two operations here: an exact vectorized Poisson quantile, which sets the
truncation boxes, and the log-scale negative binomial kernel, which is
the one place the mechanism's per-stratum law is written out. All
probability-mass arithmetic is carried out in log space, so kernels
involving terms like Gamma(z + 26116)/z! never overflow.

The special functions they need are written here in numpy: log-gamma
(_log_gamma), the Poisson cdf (_poisson_cdf) and log-sum-exp
(_logsumexp, which audit also uses). No pgsynth process loads scipy;
the tests hold these against scipy and mpmath.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "poisson_quantile_vec",
    "log_gamma_ratio",
    "log_negbin_kernel",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# log-gamma shifts arguments below this up by it before the Stirling series
_SHIFT = 10
# x (x + 1) ... (x + 9) = sum_k RISING[k] x^(10 - k), k = 0, ..., 9: the
# unsigned Stirling numbers of the first kind [10, 10 - k]
_RISING = (1, 45, 870, 9450, 63273, 269325, 723680, 1172700, 1026576, 362880)
# B_2k / (2k (2k - 1)), k = 8, ..., 1: the Stirling series of log Gamma(y)
# in 1/y, highest order first
_STIRLING = (
    -3617.0 / 122400.0, 1.0 / 156.0, -691.0 / 360360.0, 1.0 / 1188.0,
    -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0,
)
# Loader's stirlerr(n) = log n! - (n + 1/2) log n + n - log(2 pi) / 2 at
# n = 0, ..., 15 (0 at n = 0, which the pmf never reads); above 15 a series
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
# Temme's c_0, c_1, c_2 of the regularized upper incomplete gamma, as
# polynomials in eta, lowest order first (DLMF 8.12)
_TEMME = (
    (-1.0 / 3.0, 1.0 / 12.0, -0.014814814814814815, 0.0011574074074074073,
     0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05,
     -2.185448510679992e-06, -1.85406221071516e-06, 8.296711340953087e-07),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
     -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
     2.0093878600823047e-06),
)
# the cdf uses Temme's expansion where k + 1 >= _TEMME_FROM and
# |mu - k - 1| < _TEMME_BAND (k + 1), where the tail series would be long
_TEMME_FROM = 1e5
_TEMME_BAND = 0.3


def poisson_quantile_vec(p, mu, top: int) -> np.ndarray:
    """Vectorized Poisson quantile capped at top: min{k >= 0 : F(k | mu) >= p},
    or top where that exceeds it.

    Integer bisection on the monotone cdf (_poisson_cdf) over [0, top], so
    it ends for any mean. A normal-approximation seed, capped at top, is
    the first upper end; where F(seed) < p the search moves above it. The
    seed only sets the number of steps. Exact for means up to at least
    1e7: the deciding comparisons are single cdf evaluations, each within
    1e-12 relative of the exact cdf, so the result satisfies
    F(q - 1) < p <= F(q) whenever 1 <= q < top.

    Args:
        p: probabilities, each strictly inside (0, 1).
        mu: nonnegative Poisson means, broadcastable against p.
        top: the largest value returned, nonnegative.

    Raises:
        DomainError: p outside (0, 1), mu negative or top negative.
    """
    p = np.asarray(p, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("quantile probability must lie strictly in (0, 1)")
    if np.any(mu < 0.0):
        raise DomainError("Poisson mean must be nonnegative")
    if top < 0:
        raise DomainError(f"quantile cap must be nonnegative, got {top}")
    from statistics import NormalDist  # here, so evaluate and fixture skip it

    p, mu = np.broadcast_arrays(p, mu)
    q = np.zeros(p.shape, dtype=np.int64)
    active = mu > 0.0
    if not np.any(active):
        return q
    pa = p[active]
    ma = mu[active]
    levels, which = np.unique(pa, return_inverse=True)
    z = np.array([NormalDist().inv_cdf(float(v)) for v in levels])[which]

    # invariant: the answer lies in [lo, hi], and F(hi) >= p or hi = top.
    # fmin/fmax also map the NaN seed of an infinite mean into range.
    seed = np.ceil(ma + z * np.sqrt(ma) + 10.0)
    hi = np.minimum(np.fmin(np.fmax(seed, 1.0), 2.0**62).astype(np.int64), top)
    ge = _poisson_cdf(hi, ma) >= pa
    lo = np.where(ge, 0, np.minimum(hi, top - 1) + 1)
    hi = np.where(ge, hi, top)
    # only the searches still open take a step; lo < hi there, so mid + 1
    # cannot overflow
    open_ = np.flatnonzero(lo < hi)
    while len(open_):
        l, h = lo[open_], hi[open_]
        mid = l + (h - l) // 2
        ge = _poisson_cdf(mid, ma[open_]) >= pa[open_]
        hi[open_] = np.where(ge, mid, h)
        lo[open_] = np.where(ge, l, mid + 1)
        open_ = open_[lo[open_] < hi[open_]]
    q[active] = hi
    return q


def _poisson_cdf(k, mu) -> np.ndarray:
    """F(k | mu) = P(N <= k) for whole k >= 0 and mu > 0 (1-D float64).

    The near tail as a positive series times one pmf, the pmf from
    Loader's saddle-point form (_log_poisson_pmf): for mu > k + 1,
    F = pmf(k) (1 + k/mu + k(k-1)/mu^2 + ...); otherwise
    F = 1 - pmf(k+1) (1 + mu/(k+2) + mu^2/((k+2)(k+3)) + ...). Where
    k + 1 >= 1e5 and mu lies near k + 1, Temme's uniform expansion
    (_temme_cdf) replaces the series, which would run to thousands of
    terms there.
    """
    k = np.asarray(k, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    a = k + 1.0
    out = np.zeros(k.shape)
    temme = (a >= _TEMME_FROM) & (np.abs(mu - a) < _TEMME_BAND * a)
    if temme.any():
        out[temme] = _temme_cdf(a[temme], mu[temme])
    # an infinite mean puts no mass at any finite k
    lower = np.flatnonzero(~temme & (mu > a) & (mu < np.inf))
    upper = np.flatnonzero(~temme & (mu <= a))
    k, a, mu_l, mu_u = k[lower], a[upper], mu[lower], mu[upper]
    out[lower] = np.exp(_log_poisson_pmf(k, mu_l)) * _tail_sum(k + 1.0, -1.0, mu_l, 0.0)
    out[upper] = 1.0 - np.exp(_log_poisson_pmf(a, mu_u)) * _tail_sum(mu_u, 0.0, a, 1.0)
    return out


def _tail_sum(top, top_step, bottom, bottom_step) -> np.ndarray:
    """1 + f_1 + f_1 f_2 + ..., f_n = (top + n top_step)/(bottom + n bottom_step),
    the sums of _poisson_cdf, term by term until the sum no longer moves.

    The f_n are below 1, so once a term is under 2^-54 of its sum, less
    than half an ulp, no later term changes that sum: steps may go on
    adding to a finished sum, and each sum is the same whatever the
    others do. The arrays are cut to the open sums every few steps, once
    those are under half of them.
    """
    out = np.empty_like(top)
    total = np.ones_like(top)
    term = np.ones_like(top)
    rows = np.arange(len(top))
    n = 0
    while len(rows):
        for _ in range(4):
            n += 1
            term *= (top + n * top_step) / (bottom + n * bottom_step)
            total += term
        still = term > total * 2.0**-54
        if 2 * np.count_nonzero(still) < len(rows):
            out[rows] = total
            rows, total, term, top, bottom = (
                v[still] for v in (rows, total, term, top, bottom)
            )
    return out


def _log_poisson_pmf(j, mu) -> np.ndarray:
    """log P(N = j) for whole j >= 0 and finite mu > 0, as
    -stirlerr(j) - bd0(j, mu) - log(2 pi j) / 2 (Loader 2000), with
    relative accuracy near the mean where j log(mu) - mu - log j! would
    cancel; -mu at j = 0."""
    out = -mu.copy()
    pos = np.flatnonzero(j > 0)
    j, mu = j[pos], mu[pos]
    small = j <= 15
    err = np.empty_like(j)
    err[small] = _STIRLERR[j[small].astype(np.intp)]
    n = j[~small]
    nn = n * n
    err[~small] = (
        1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn
    ) / n
    # bd0 = j log(j/mu) + mu - j, by a series in v = (j - mu)/(j + mu) near
    # the mean, where the direct form cancels
    d = j - mu
    with np.errstate(over="ignore", invalid="ignore"):
        bd0 = j * np.log(j / mu) + mu - j
    near = np.flatnonzero(np.abs(d) < 0.1 * (j + mu))
    v = d[near] / (j[near] + mu[near])
    s = d[near] * v
    ej = 2.0 * j[near] * v
    v *= v
    for i in range(1, 10):
        ej *= v
        s += ej / (2 * i + 1)
    bd0[near] = s
    out[pos] = -err - bd0 - 0.5 * np.log(2.0 * np.pi * j)
    return out


def _temme_cdf(a, mu) -> np.ndarray:
    """Q(a, mu) = F(a - 1 | mu) by Temme's expansion (DLMF 8.12):
    erfc(eta sqrt(a/2)) / 2 + exp(-a eta^2/2) / sqrt(2 pi a)
    (c_0 + c_1/a + c_2/a^2), eta^2/2 = t - log1p(t), t = mu/a - 1."""
    t = (mu - a) / a
    # t - log1p(t) = t^2/(2 + t) - 2 (u^3/3 + u^5/5 + ...), u = t/(2 + t),
    # free of the cancellation near t = 0; |u| < 0.18 in the band
    u = t / (2.0 + t)
    uu = u * u
    phi = t * t / (2.0 + t)
    power = u
    for i in range(1, 12):
        power = power * uu
        phi -= 2.0 * power / (2 * i + 1)
    y = a * phi
    eta = np.copysign(np.sqrt(2.0 * phi), t)
    c = 0.0
    for coef in reversed(_TEMME):
        poly = 0.0
        for v in reversed(coef):
            poly = poly * eta + v
        c = c / a + poly
    erfc = np.array([math.erfc(v) for v in np.copysign(np.sqrt(y), t)])
    return 0.5 * erfc + np.exp(-y) / np.sqrt(2.0 * np.pi * a) * c


def _log_gamma(x) -> np.ndarray:
    """log Gamma(x) for float64 x > 0: within 5.3e-15 relative of mpmath
    from 1e-300 to 1e8, and 1e-14 absolute below 10, where it crosses 0.

    The Stirling series with eight Bernoulli terms at y >= 10. Below 10,
    y = x + 10 and Gamma(x) = Gamma(y) / (x (x + 1) ... (x + 9)): a
    counted shift, so no running sum rounds, and the product is taken
    on the shifted entries only, by Horner's rule in x on its positive
    coefficients. Besides its result it holds two temporaries the size
    of x and two the size of its shifted part.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        return _log_gamma(x[None])[0]
    small = x < _SHIFT
    shifted = x[small]
    log_prod = np.ones_like(shifted)
    for c in _RISING[1:]:
        log_prod *= shifted
        log_prod += c
    log_prod *= shifted
    np.log(log_prod, out=log_prod)
    del shifted
    out = x.copy()
    out[small] += _SHIFT
    # (y - 1/2)(log y - 1) - log(product): (y - 1/2) log y - y less its
    # constant 1/2, taken with log(2 pi)/2 at the end
    main = np.log(out)
    main -= 1.0
    out -= 0.5
    main *= out
    main[small] -= log_prod
    del log_prod, small
    # the series c_1/y + c_2/y^3 + ... by Horner in r = 1/y, into out
    r = out + 0.5
    np.reciprocal(r, out=r)
    out.fill(_STIRLING[0])
    for c in _STIRLING[1:]:
        out *= r
        out *= r
        out += c
    out *= r
    out += main
    out += _HALF_LOG_2PI - 0.5
    return out


def _logsumexp(a) -> float:
    """log(sum(exp(a))) of a 1-D float64 array, by scipy 1.17's arithmetic
    for real input, so that results match scipy's bit for bit: the max
    terms are split out of the sum, log1p(s/m) + log(m) + max, and a
    non-finite result falls back to log(sum(exp(a)))."""
    a = np.asarray(a, dtype=np.float64)
    top = a.max()
    at_top = a == top
    m = float(np.count_nonzero(at_top))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(at_top, -np.inf, a) - top).sum()
        s = s if s == 0 else s / m
        out = np.log1p(s) + np.log(m) + top
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


def _z_times(z: np.ndarray, factor) -> np.ndarray:
    # z * factor with the convention 0 * (-inf) = 0, so an impossible
    # category (factor = -inf) contributes nothing at z = 0.
    with np.errstate(invalid="ignore"):
        return np.where(z == 0, 0.0, z * factor)


def log_gamma_ratio(z, shape) -> np.ndarray:
    """log[Gamma(z + shape) / z!] for float64 z: the kernel's part that does
    not depend on p, and its costly one (two _log_gamma values an entry)."""
    shape = np.asarray(shape, dtype=np.float64)
    if np.any(shape <= 0.0):
        raise DomainError("kernel shape must be positive")
    out = _log_gamma(np.add(z, shape))
    out -= _log_gamma(np.add(z, 1.0))
    return out


def log_negbin_kernel(z, shape, log_ratio_term, log_gamma=None):
    """Log of the unnormalized negative binomial kernel.

    Computes log[Gamma(z + shape) / z!] + z * log_ratio_term, the summand
    of the mechanism's constrained predictive mass. Exact up to double
    rounding via log-gamma. log_ratio_term = -inf marks an impossible
    category and yields -inf for z > 0, 0-contribution at z = 0.

    Args:
        z: nonnegative integer(s).
        shape: positive shape(s), e.g. clamped count + hyperparameter a.
        log_ratio_term: per-unit log weight (log success ratio).
        log_gamma: log_gamma_ratio(z, shape) when the caller has it
            already; shape is then not read. The bits are the same.

    Returns:
        Log-weight array (or scalar for scalar input).
    """
    z_arr = np.asarray(z, dtype=np.float64)
    if log_gamma is None:
        log_gamma = log_gamma_ratio(z_arr, shape)
    out = log_gamma + _z_times(z_arr, np.asarray(log_ratio_term, dtype=np.float64))
    if out.ndim == 0:
        return float(out)
    return out
