"""Independent reference implementations used to check the package.

Everything here is computed with mpmath arbitrary precision, scipy's
special functions and direct summation/enumeration, deliberately
avoiding the package's own numerics (its numpy special functions,
log-space convolutions) so agreement is evidence rather than tautology.
The nu factors are scalar, per-stratum restatements of the
calibration's vectorized requirements. The replicate
CSV writer is the plain csv.writer loop that the package's numpy
renderer must match byte for byte; the report writer is json.dump with
indent=2, which the package's templated report must match byte for
byte; and the age-adjusted rate is the per-age-group, per-vector loop
that the package's one-product-per-selector rate must match bit for
bit; stratum_rates_loop looks up each stratum's rate by its labels, which
the package's one lookup per distinct cell must match bit for bit. The
per-stratum kernel table is
the one-evaluation-per-stratum form the package's grouped evaluation
must match bit for bit, and the uncut recursion keeps every completion-
mass table whole up to the total, against which the package's cut
tables must give the same normalizer. law_gap measures a batch of draws
against the enumerated law, next to exact draws from that law, and
replicate_uniforms reads a replicate's uniforms by drawing its stream
from the start, where the package jumps to them.

The closed forms at the end (the untruncated floor, the prior-allocation
tail, the normalizer-ratio bound and the stratum-versus-rest law) are
checked by the acceptance criteria but called by no pipeline stage, so
they live here rather than in the package. ratio_curve_bivariate is the
ratio curve on that law and its own pair loop, which the package's curve
over the joint law must reproduce exactly.

audit_enumerated is the exhaustive audit by definition: every dataset,
every neighbor and every feasible output, one log pmf per distinct
clamped dataset. It walks its own neighbor_pairs and takes each law from
the public exact_joint_pmf, so it shares no dataset enumeration or pair
walk with the package's audit, which bounds each pair's outputs in closed form and
must report the same worst ratio.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings

import mpmath as mp
import numpy as np
from scipy.special import gammaln, logsumexp

from pgsynth.audit import (
    DEFAULT_CAP,
    PASS_TOL,
    AuditReport,
    NeighborPair,
    RatioCurve,
    exact_joint_pmf,
)
from pgsynth.distributions import log_negbin_kernel
from pgsynth.errors import (
    DomainError,
    EnumerationCapError,
    InfeasibilityError,
    SchemaError,
    UndefinedRateError,
)
from pgsynth.mechanism import MassTable, build_kernel_params, log_success
from pgsynth.utility import RATE_SCALE, selector_label, selector_mask

mp.mp.dps = 60


def poisson_cdf_direct(mu: float):
    """P(Poisson(mu) <= k) for k = 0, 1, 2, ..., by direct summation: the
    running partial sums of one pass over the pmf terms."""
    mu = mp.mpf(mu)
    total = mp.mpf(0)
    term = mp.e ** (-mu)
    for j in itertools.count():
        if j > 0:
            term = term * mu / j
        total += term
        yield total


def poisson_quantile_direct(q: float, mu: float) -> int:
    """Smallest k with cdf(k) >= q, by scanning."""
    for k, cdf in enumerate(poisson_cdf_direct(mu)):
        if cdf >= mp.mpf(q):
            return k
        if k >= 10_000_000:
            raise RuntimeError("quantile scan ran away")


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
    """Sum of unnormalized kernel products over the boxed simplex.

    Each stratum's kernel is evaluated once per box value, and every
    composition multiplies its strata's values; p = 0 is the point mass
    at zero."""
    kernels = [
        {v: (mp.e ** log_kernel_direct(v, sh, p) if p != 0.0
             else mp.mpf(v == 0)) for v in range(a, b + 1)}
        for sh, p, a, b in zip(shapes, ps, lo, hi)
    ]
    out = mp.mpf(0)
    for z in boxed_compositions(total, lo, hi):
        w = mp.mpf(1)
        for zi, kernel in zip(z, kernels):
            w *= kernel[zi]
        out += w
    return out


def total_variation(pmf_a: dict, pmf_b: dict) -> float:
    keys = set(pmf_a) | set(pmf_b)
    return float(
        sum(abs(pmf_a.get(k, mp.mpf(0)) - pmf_b.get(k, mp.mpf(0))) for k in keys) / 2
    )


def neighbor_pairs(total: int, size: int):
    """All ordered dataset pairs (y, x, i, j) with x = y - e_i + e_j.

    y runs over the compositions of total in lexicographic order, then i,
    then j.
    """
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
                    yield y, tuple(x), i, j


def neighbor_log_pmfs(table, calib, cap: int = DEFAULT_CAP):
    """(support, [(y, x, i, j, log p(.|y), log p(.|x))]) over every pair.

    Each log pmf comes from exact_joint_pmf, once per distinct clamped
    dataset, since the mechanism only sees the clamp; cap bounds the
    outputs. support is None when there is no pair.
    """
    cache: dict[tuple, np.ndarray] = {}
    support = None

    def log_pmf(raw):
        nonlocal support
        key = raw
        if calib.bounds is not None:
            key = tuple(clamp(raw, calib.bounds.L.tolist(), calib.bounds.U.tolist()))
        if key not in cache:
            support, cache[key] = exact_joint_pmf(raw, calib, table, cap=cap)
        return cache[key]

    walk = [
        (y, x, i, j, log_pmf(y), log_pmf(x))
        for y, x, i, j in neighbor_pairs(table.y_total, table.size)
    ]
    return support, walk


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


def stratum_rates_loop(table, raw_rates) -> np.ndarray:
    """Each stratum's raw rate, one stratum at a time: the stratum's cell
    is looked up in the rates by its labels."""
    positions = [table.dim_index(name) for name in raw_rates.dim_names]
    raw = np.empty(table.size, dtype=np.float64)
    for i, key in enumerate(table.keys):
        cell = tuple(key[j] for j in positions)
        try:
            raw[i] = raw_rates.rates[cell]
        except KeyError:
            raise SchemaError(f"no rate for cell {cell} (stratum {key})") from None
    return raw


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


def calibration_report(calib, table) -> dict:
    """The releasable calibration report as a dict, built one stratum at
    a time."""
    bounds = calib.bounds
    strata = [
        {
            "key": list(key),
            "a": float(calib.a[i]),
            "b": float(calib.b[i]),
            "L": int(bounds.L[i]) if bounds is not None else None,
            "U": int(bounds.U[i]) if bounds is not None else None,
            "slack": float(calib.slack[i]),
        }
        for i, key in enumerate(table.keys)
    ]
    return {
        "mode": calib.mode,
        "epsilon": calib.epsilon,
        "alpha": bounds.alpha if bounds is not None else None,
        "c": bounds.c if bounds is not None else None,
        "strata": strata,
        "converged": calib.converged,
        "iterations": calib.iterations,
        "exchange_rule_applied": calib.exchange_rule_applied,
    }


def write_report_json(calib, table, path, extra=None) -> None:
    """The calibration report through json.dump's own indented encoder."""
    doc = calibration_report(calib, table)
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


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


def untruncated_floor(y_total: int, epsilon: float) -> float:
    """Requirement with no inflation (nu = 1): y_total / (e^eps - 1)."""
    return y_total / math.expm1(epsilon)


def prior_allocation_log_pmf(expected, z) -> float:
    """Log pmf of z under the pure prior allocation of the total.

    In the infinitely concentrated prior limit the mechanism allocates
    the total multinomially with cell probabilities proportional to the
    prior expected counts; this closed form carries the extreme tail
    masses (1e-83 scale) that motivate truncation.
    """
    expected = np.asarray(expected, dtype=np.float64)
    z = np.asarray(z, dtype=np.int64)
    if np.any(expected <= 0.0):
        raise DomainError("prior expected counts must be positive")
    total = int(z.sum())
    logpi = np.log(expected) - np.log(expected.sum())
    return float(
        gammaln(total + 1.0)
        - gammaln(z + 1.0).sum()
        + np.where(z == 0, 0.0, z * logpi).sum()
    )


def theorem1_bound_check(
    count: int = 10**4,
    y_total_max: int = 50,
    seed: int = 20260823,
    configs=None,
) -> list[dict]:
    """Exact normalizer ratio against its closed-form bound, per config.

    Each configuration fixes (y_total, L <= U, shapes, expected counts
    with the focal stratum not dominating, a dataset split with y_1 >= 1);
    the check compares the direct-summation normalizer ratio under a unit
    transfer out of stratum 1 with the bound
    (y_total - L + a_rest + y_rest) / (L + a_1 + y_1 - 1). Randomized
    configs draw L < U, where the inequality is strict; L = U makes the
    two sides equal (single-term sums) and is exercised separately.
    """
    rng = np.random.default_rng(seed)
    rows = []
    if configs is None:
        configs = []
        for _ in range(count):
            y_tot = int(rng.integers(2, y_total_max + 1))
            L = int(rng.integers(0, y_tot))
            U = int(rng.integers(L + 1, y_tot + 1))
            a1 = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            a2 = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            e_pair = np.sort(rng.uniform(0.5, 100.0, size=2))
            e1, e2 = float(e_pair[0]), float(e_pair[1])
            y1 = int(rng.integers(1, y_tot + 1))
            configs.append((y_tot, L, U, a1, a2, e1, e2, y1))
    for y_tot, L, U, a1, a2, e1, e2, y1 in configs:
        y2 = y_tot - y1
        log_r = np.log((a2 / e2 + 2.0) / (a1 / e1 + 2.0))

        def log_c(c1: int, c2: int) -> float:
            z = np.arange(L, U + 1, dtype=np.int64)
            return float(logsumexp(
                log_negbin_kernel(z, c1 + a1, log_r)
                + log_negbin_kernel(y_tot - z, c2 + a2, 0.0)
            ))

        lhs = log_c(y1 - 1, y2 + 1) - log_c(y1, y2)
        rhs = np.log(y_tot - L + a2 + y2) - np.log(L + a1 + y1 - 1.0)
        rows.append({
            "y_total": y_tot, "L": L, "U": U,
            "a_1": a1, "a_rest": a2,
            "expected_1": e1, "expected_rest": e2, "y_1": y1,
            "log_c_ratio": lhs, "log_bound": rhs,
            "holds": bool(lhs < rhs) if L < U else bool(abs(lhs - rhs) <= 1e-9),
        })
    return rows


def exact_bivariate_pmf(i: int, counts, calib, table) -> tuple[np.ndarray, np.ndarray]:
    """Exact stratum-versus-rest pmf over z_i.

    Pools every other stratum into a single kernel with aggregate shape,
    population, and rate, then conditions the two-kernel product on the
    total. Support is stratum i's box under calib.bounds, else
    [0, y_total]. Returns (z values, log pmf). This matches the joint
    marginal exactly when the pooled strata are homogeneous or their
    boxes are slack.
    """
    params = build_kernel_params(counts, table, calib)
    rest = np.arange(params.size) != i
    log_p_i, log_p_rest = log_success(
        [calib.b[i], calib.b[rest].sum()], [table.n[i], table.n[rest].sum()]
    )
    z = np.arange(params.lo[i], params.hi[i] + 1, dtype=np.int64)
    logw = log_negbin_kernel(z, params.shape[i], log_p_i) + log_negbin_kernel(
        params.y_total - z, params.shape[rest].sum(), log_p_rest
    )
    return z, logw - logsumexp(logw)


def ratio_curve_bivariate(table, calib) -> RatioCurve:
    """The ratio curve built stratum-versus-rest, on its own pair loop.

    For each z_1, the maximal p(z|y)/p(z|x) over the neighbors (y1, Y - y1)
    and (y1 -+ 1, ...), each law from exact_bivariate_pmf with one pmf per
    distinct clamped dataset. On two strata that law is the joint one, so
    audit.ratio_curve must match this bit for bit.
    """
    if table.size != 2:
        raise DomainError("ratio curves are defined for two-stratum instances")
    y_total = table.y_total
    params = build_kernel_params(table.y, table, calib)
    z_lo, z_hi = int(params.lo[0]), int(params.hi[0])
    z_vals = np.arange(z_lo, z_hi + 1, dtype=np.int64)

    logp: dict[tuple, np.ndarray] = {}
    for y1 in range(y_total + 1):
        raw = np.array([y1, y_total - y1], dtype=np.int64)
        if calib.bounds is not None:
            key = tuple(np.clip(raw, calib.bounds.L, calib.bounds.U).tolist())
        else:
            key = (y1, y_total - y1)
        if key not in logp:
            z, lp = exact_bivariate_pmf(0, raw, calib, table)
            logp[key] = lp
        logp[(y1, y_total - y1)] = logp[key]

    best = np.full(len(z_vals), -np.inf)
    best_y = [None] * len(z_vals)
    best_x = [None] * len(z_vals)
    for y1 in range(y_total + 1):
        for x1 in ((y1 - 1, y1 + 1) if 0 < y1 < y_total else
                   ((y1 + 1,) if y1 == 0 else (y1 - 1,))):
            d = logp[(y1, y_total - y1)] - logp[(x1, y_total - x1)]
            better = d > best
            best[better] = d[better]
            for k in np.flatnonzero(better):
                best_y[k] = (y1, y_total - y1)
                best_x[k] = (x1, y_total - x1)
    return RatioCurve(
        z=z_vals, ratio=np.exp(best), attaining_y=best_y, attaining_x=best_x
    )


def stratum_weight_table_loop(params, i: int) -> MassTable:
    """Kernel weights of stratum i over its support, one evaluation each."""
    lo = int(params.lo[i])
    z = np.arange(lo, params.hi[i] + 1, dtype=np.int64)
    logw = log_negbin_kernel(z, float(params.shape[i]), float(params.log_p[i]))
    peak = float(np.max(logw))
    if not np.isfinite(peak):
        raise InfeasibilityError(
            f"stratum {i} carries no mass anywhere on its support"
        )
    return MassTable(lo=lo, vals=np.exp(logw - peak), offset=peak)


def backward_pass_uncut(params) -> tuple[float, int]:
    """(ln C, summed table length) of T_k = w_k * T_{k+1}, tables kept whole.

    Each step keeps every total up to y_total, zeros and subnormals
    included, and divides by its peak.
    """
    vals, lo, offset, length = np.ones(1), 0, 0.0, 0
    for i in range(params.size - 1, -1, -1):
        w = stratum_weight_table_loop(params, i)
        lo += w.lo
        vals = np.convolve(w.vals, vals)[: params.y_total - lo + 1]
        peak = float(vals.max())
        vals = vals / peak
        offset = w.offset + offset + math.log(peak)
        length += len(vals)
    return float(np.log(vals[params.y_total - lo]) + offset), length


def audit_enumerated(table, calib, *, epsilon=None, cap: int = DEFAULT_CAP) -> AuditReport:
    """Worst |log p(z|y) - log p(z|x)| by enumerating every output z.

    Walks every composition y of the total, every unit transfer
    x = y - e_i + e_j and every feasible output, keeping the first pair
    (in that order) and the first output at which the maximum occurs.
    cap bounds both the datasets and the outputs.
    """
    if epsilon is None:
        epsilon = calib.epsilon
    y_total = table.y_total
    size = table.size
    n_comps = math.comb(y_total + size - 1, size - 1)
    if n_comps > cap:
        raise EnumerationCapError(
            f"{n_comps} datasets to enumerate exceeds the cap {cap}"
        )
    support, walk = neighbor_log_pmfs(table, calib, cap)

    best = -1.0
    best_pair = None
    best_z: tuple = ()
    for y, x, i, j, logp_y, logp_x in walk:
        diff = np.abs(logp_y - logp_x)
        k = int(np.argmax(diff))
        if diff[k] > best:
            best = float(diff[k])
            best_pair = NeighborPair(y, x)
            best_z = tuple(support[k].tolist())
    if best_pair is None:
        raise DomainError("no neighbor pairs exist for this instance")
    return AuditReport(
        epsilon_target=float(epsilon),
        max_abs_log_ratio=best,
        argmax_pair=best_pair,
        argmax_z=best_z,
        passed=bool(best <= epsilon + PASS_TOL),
        instance_size=(size, y_total),
        checked_datasets=n_comps,
        checked_outputs=len(support),
        exchange_rule_applied=calib.exchange_rule_applied,
    )


def law_gap(draws, support, logp, seed: int = 0) -> tuple[float, float]:
    """(tv, floor): the empirical total-variation distance of draws from
    the law exp(logp) on support, and that of as many exact draws from it
    (one multinomial sample, seeded), which is what sampling noise alone
    gives at this count. Draws off the support are an AssertionError."""
    p = np.exp(logp)
    index = {row: k for k, row in enumerate(map(tuple, support.tolist()))}
    values, counts = np.unique(draws, axis=0, return_counts=True)
    freq = np.zeros(len(p))
    for row, c in zip(map(tuple, values.tolist()), counts):
        assert row in index, f"draw {row} is off the support"
        freq[index[row]] = c / len(draws)
    exact = np.random.default_rng(seed).multinomial(len(draws), p / p.sum())
    return (
        0.5 * float(np.abs(freq - p).sum()),
        0.5 * float(np.abs(exact / len(draws) - p).sum()),
    )


def replicate_uniforms(base_seed: int, j: int, r: int, width: int) -> np.ndarray:
    """Replicate r's width uniforms in stream j of base_seed, read from
    the stream's start: uniforms r * width .. r * width + width - 1 of
    default_rng(SeedSequence((base_seed, j))). It draws everything before
    them instead of jumping, so it checks PCG64.advance rather than using it."""
    stream = np.random.default_rng(np.random.SeedSequence((base_seed, j)))
    return stream.random((r + 1) * width)[r * width:]
