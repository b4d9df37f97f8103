"""Numerically stable distribution primitives.

Everything downstream (calibration, sampling, auditing) is built on the
two operations here: an exact vectorized Poisson quantile, which sets the
truncation boxes, and the log-scale negative binomial kernel, which is
the one place the mechanism's per-stratum law is written out. All
probability-mass arithmetic is carried out in log space, so kernels
involving terms like Gamma(z + 26116)/z! never overflow. scipy.special is
imported inside the functions that call it, so a process that never does
(pgsynth evaluate, pgsynth fixture) never loads scipy.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "poisson_quantile_vec",
    "log_gamma_ratio",
    "log_negbin_kernel",
]


def poisson_quantile_vec(p, mu, top: int) -> np.ndarray:
    """Vectorized Poisson quantile capped at top: min{k >= 0 : F(k | mu) >= p},
    or top where that exceeds it.

    Integer bisection on the monotone cdf over [0, top], so it ends for
    any mean. A normal-approximation seed, capped at top, is the first
    upper end; where F(seed) < p the search moves above it. Exact for
    means up to at least 1e7: the deciding comparisons are single cdf
    evaluations, so the result satisfies F(q - 1) < p <= F(q) whenever
    1 <= q < top.

    Args:
        p: probabilities, each strictly inside (0, 1).
        mu: nonnegative Poisson means, broadcastable against p.
        top: the largest value returned, nonnegative.

    Raises:
        DomainError: p outside (0, 1), mu negative or top negative.
    """
    from scipy import special

    p = np.asarray(p, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("quantile probability must lie strictly in (0, 1)")
    if np.any(mu < 0.0):
        raise DomainError("Poisson mean must be nonnegative")
    if top < 0:
        raise DomainError(f"quantile cap must be nonnegative, got {top}")
    p, mu = np.broadcast_arrays(p, mu)
    q = np.zeros(p.shape, dtype=np.int64)
    active = mu > 0.0
    if not np.any(active):
        return q
    pa = p[active]
    ma = mu[active]

    # invariant: the answer lies in [lo, hi], and F(hi) >= p or hi = top.
    # fmin/fmax also map the NaN seed of an infinite mean into range.
    seed = np.ceil(ma + special.ndtri(pa) * np.sqrt(ma) + 10.0)
    hi = np.minimum(np.fmin(np.fmax(seed, 1.0), 2.0**62).astype(np.int64), top)
    ge = special.pdtr(hi, ma) >= pa
    lo = np.where(ge, 0, np.minimum(hi, top - 1) + 1)
    hi = np.where(ge, hi, top)
    while np.any(lo < hi):
        mid = lo + (hi - lo) // 2
        # mid = hi only where the search has ended; mid + 1 could overflow there
        ge = (mid == hi) | (special.pdtr(mid, ma) >= pa)
        hi = np.where(ge, mid, hi)
        lo = np.where(ge, lo, mid + 1)
    q[active] = hi
    return q


def _z_times(z: np.ndarray, factor) -> np.ndarray:
    # z * factor with the convention 0 * (-inf) = 0, so an impossible
    # category (factor = -inf) contributes nothing at z = 0.
    with np.errstate(invalid="ignore"):
        return np.where(z == 0, 0.0, z * factor)


def log_gamma_ratio(z, shape) -> np.ndarray:
    """log[Gamma(z + shape) / z!] for float64 z: the kernel's part that does
    not depend on p, and its costly one (two log-gammas an entry)."""
    from scipy import special

    shape = np.asarray(shape, dtype=np.float64)
    if np.any(shape <= 0.0):
        raise DomainError("kernel shape must be positive")
    return special.gammaln(z + shape) - special.gammaln(z + 1.0)


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
