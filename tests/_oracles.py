"""Independent reference implementations used to check the package.

Everything here is computed with mpmath arbitrary precision and direct
summation/enumeration, deliberately avoiding the package's own numerics
(scipy special functions, log-space convolutions) so agreement is
evidence rather than tautology. The nu factors are scalar, per-stratum
restatements of the calibration's vectorized requirements. The replicate
CSV writer is the plain csv.writer loop that the package's templated
writer must match byte for byte, and the age-adjusted rate at the end is
the per-age-group, per-vector loop that the package's one-product-per-
selector rate must match bit for bit.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings

import mpmath as mp
import numpy as np

from pgsynth.errors import DomainError, SchemaError, UndefinedRateError
from pgsynth.utility import RATE_SCALE, selector_label, selector_mask

mp.mp.dps = 60


def poisson_cdf_direct(k: int, mu: float):
    """P(Poisson(mu) <= k) by direct summation."""
    if k < 0:
        return mp.mpf(0)
    mu = mp.mpf(mu)
    total = mp.mpf(0)
    term = mp.e ** (-mu)
    for j in range(k + 1):
        if j > 0:
            term = term * mu / j
        total += term
    return total


def poisson_quantile_direct(q: float, mu: float) -> int:
    """Smallest k with cdf(k) >= q, by scanning."""
    k = 0
    while poisson_cdf_direct(k, mu) < mp.mpf(q):
        k += 1
        if k > 10_000_000:
            raise RuntimeError("quantile scan ran away")
    return k


def log_kernel_direct(z: int, shape: float, p: float):
    """log of Gamma(z + shape) / (z! Gamma(shape)) * p^z.

    The negative-binomial kernel without its (1-p)^shape normalizer,
    which cancels in every conditioned-law ratio. A zero shape is the
    point mass at zero.
    """
    if shape == 0.0:
        return mp.mpf(0) if z == 0 else mp.mpf("-inf")
    z = mp.mpf(z)
    shape = mp.mpf(shape)
    return (
        mp.loggamma(z + shape)
        - mp.loggamma(z + 1)
        - mp.loggamma(shape)
        + z * mp.log(p)
    )


def boxed_compositions(total: int, lo, hi):
    """All integer vectors with lo <= z <= hi and sum(z) == total."""
    k = len(lo)

    def rec(i, remaining):
        if i == k - 1:
            if lo[i] <= remaining <= hi[i]:
                yield (remaining,)
            return
        rest_lo = sum(lo[i + 1:])
        rest_hi = sum(hi[i + 1:])
        for v in range(lo[i], hi[i] + 1):
            if rest_lo <= remaining - v <= rest_hi:
                for tail in rec(i + 1, remaining - v):
                    yield (v,) + tail

    yield from rec(0, total)


def conditioned_law_direct(total: int, shapes, ps, lo, hi):
    """Exact mechanism law by enumeration: dict z -> probability (mpf).

    shapes are the posterior Gamma shapes (clamped counts plus a), ps the
    success fractions n/(b + 2n); strata with p == 0 are degenerate point
    masses at zero.
    """
    weights = {}
    for z in boxed_compositions(total, lo, hi):
        lw = mp.mpf(0)
        for zi, sh, p in zip(z, shapes, ps):
            if p == 0.0:
                if zi != 0:
                    lw = mp.mpf("-inf")
                    break
                continue
            lw += log_kernel_direct(zi, sh, p)
        if lw != mp.mpf("-inf"):
            weights[z] = mp.e**lw
    norm = sum(weights.values())
    if norm == 0:
        raise ValueError("empty support")
    return {z: w / norm for z, w in weights.items()}


def dirichlet_multinomial_pmf(z, a):
    """Closed-form Dirichlet-multinomial pmf at z with concentrations a."""
    total = sum(z)
    a_sum = mp.mpf(sum(a))
    log_p = (
        mp.loggamma(total + 1)
        + mp.loggamma(a_sum)
        - mp.loggamma(total + a_sum)
    )
    for zi, ai in zip(z, a):
        log_p += mp.loggamma(zi + ai) - mp.loggamma(zi + 1) - mp.loggamma(ai)
    return mp.e**log_p


def multinomial_log_pmf(z, probs):
    """log Multinomial(sum z, probs) at z, direct."""
    total = sum(z)
    out = mp.loggamma(total + 1)
    for zi, pi in zip(z, probs):
        out -= mp.loggamma(zi + 1)
        if zi > 0:
            out += zi * mp.log(mp.mpf(pi))
    return out


def normalizer_direct(total: int, shapes, ps, lo, hi):
    """Sum of unnormalized kernel products over the boxed simplex."""
    out = mp.mpf(0)
    for z in boxed_compositions(total, lo, hi):
        lw = mp.mpf(0)
        dead = False
        for zi, sh, p in zip(z, shapes, ps):
            if p == 0.0:
                if zi != 0:
                    dead = True
                    break
                continue
            lw += log_kernel_direct(zi, sh, p)
        if not dead:
            out += mp.e**lw
    return out


def total_variation(pmf_a: dict, pmf_b: dict) -> float:
    keys = set(pmf_a) | set(pmf_b)
    return float(
        sum(abs(pmf_a.get(k, mp.mpf(0)) - pmf_b.get(k, mp.mpf(0))) for k in keys) / 2
    )


def neighbor_pairs(total: int, size: int):
    """All ordered dataset pairs differing by one unit transfer."""
    datasets = [
        z for z in itertools.product(range(total + 1), repeat=size)
        if sum(z) == total
    ]
    for y in datasets:
        for i in range(size):
            for j in range(size):
                if i != j and y[i] > 0:
                    x = list(y)
                    x[i] -= 1
                    x[j] += 1
                    yield y, tuple(x)


def clamp(values, lo, hi):
    return [min(max(v, l), h) for v, l, h in zip(values, lo, hi)]


def gamma_log_density(x, shape, rate):
    x, shape, rate = mp.mpf(x), mp.mpf(shape), mp.mpf(rate)
    return shape * mp.log(rate) - mp.loggamma(shape) + (shape - 1) * mp.log(x) - rate * x


def binom(n: int, k: int) -> int:
    return math.comb(n, k)


def nu_untruncated(i: int, a, b, table) -> float:
    """Indicator-form inflation factor of the untruncated requirement.

    nu_i = (y_total * [r_i < 1] + a_(i) + y_total - 1) / (a_(i) + y_total - 1),
    r_i = (b_(i)/n_(i) + 2) / (b_i/n_i + 2), with a, b the full vectors.
    The solver uses this form for three or more strata; with two it scales
    the shortfall by (1 - r_i) instead.
    """
    n = [float(v) for v in table.n]
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    n_rest = sum(n) - n[i]
    if n[i] <= 0 or n_rest <= 0:
        raise ValueError(f"stratum {i} or its complement has zero population")
    r_i = ((sum(b) - b[i]) / n_rest + 2.0) / (b[i] / n[i] + 2.0)
    y_tot = int(table.y_total)
    denom = sum(a) - a[i] + y_tot - 1.0
    if denom <= 0.0:
        raise ValueError("nu denominator nonpositive")
    return (y_tot * (1.0 if r_i < 1.0 else 0.0) + denom) / denom


def nu_truncated(i: int, a_not_i: float, bounds, y_total: int) -> float:
    """Inflation factor of the truncated requirement at stratum i.

    nu_i = (2(y_total - L_i) + a_(i) - 1)
           / ((y_total - U_i) + (y_total - L_i) + a_(i) - 1),
    which is 1 when L_i = U_i and tends to 1 as a_(i) grows.
    """
    L = int(bounds.L[i])
    U = int(bounds.U[i])
    if a_not_i <= 0.0 or not L <= U <= y_total:
        raise ValueError("need a_(i) > 0 and L_i <= U_i <= y_total")
    num = 2.0 * (y_total - L) + a_not_i - 1.0
    den = (y_total - U) + (y_total - L) + a_not_i - 1.0
    if den <= 0.0:
        raise ValueError("truncated nu denominator nonpositive")
    return num / den


def write_replicates_csv_rows(path, table, matrix, header_comment=None) -> None:
    """Long-form replicate CSV, one csv.writer row per (replicate, stratum)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["replicate", *table.dim_names, "z"])
        for r, z in enumerate(matrix):
            for key, value in zip(table.keys, z.tolist()):
                writer.writerow([r, *key, value])


def dedup_population_loop(table, mask, key_dims) -> float:
    """Population total over a stratum mask, counting repeated cells once.

    key_dims names the dimensions that identify a person-cell; a key
    seen twice must carry the same population. None means plain
    summation.
    """
    idx = np.flatnonzero(mask)
    if key_dims is None:
        return float(table.n[idx].sum())
    positions = [table.dim_index(d) for d in key_dims]
    seen: dict[tuple[str, ...], int] = {}
    total = 0
    for i in idx:
        key = tuple(table.keys[i][j] for j in positions)
        prev = seen.get(key)
        if prev is None:
            seen[key] = int(table.n[i])
            total += int(table.n[i])
        elif prev != int(table.n[i]):
            raise SchemaError(
                f"population differs within demographic cell {key}; "
                "population_key_dims does not identify cells"
            )
    return float(total)


def age_adjusted_rate_loop(
    counts, table, std, selector=None, *, age_dim="age",
    population_key_dims=None, warn=True,
) -> float:
    """Age-adjusted rate of one count vector, one age group at a time.

    Each kept age group's deaths are summed over its mask and divided by
    its deduplicated population; the weighted rates and the weights are
    then added left to right in std.weights order. (The loop is spelled
    out because sum() of floats is compensated from Python 3.12 on.)
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (table.size,):
        raise DomainError("counts must have one entry per stratum")
    mask = selector_mask(table, selector)
    age_labels = np.array(table.column(age_dim))
    present = sorted(set(age_labels[mask]))
    for level in present:
        if level not in std.weights:
            raise SchemaError(
                f"age group {level!r} has no standard population weight"
            )
    kept = []  # (weight, crude rate)
    dropped = []
    for level in std.weights:
        if level not in present:
            continue
        level_mask = mask & (age_labels == level)
        pop = dedup_population_loop(table, level_mask, population_key_dims)
        if pop <= 0.0:
            dropped.append(level)
            continue
        deaths = float(counts[level_mask].sum())
        kept.append((std.weights[level], deaths / pop))
    if not kept:
        raise UndefinedRateError(
            f"selector {selector_label(selector)} has no population in any age group"
        )
    if dropped and warn:
        warnings.warn(
            f"dropping zero-population age groups {dropped} for "
            f"{selector_label(selector)}; weights renormalized",
            stacklevel=2,
        )
    acc, weight_sum = 0, 0
    for w, r in kept:
        acc += w * r
        weight_sum += w
    if weight_sum <= 0.0:
        raise UndefinedRateError("all populated age groups carry zero weight")
    return acc / weight_sum * RATE_SCALE
