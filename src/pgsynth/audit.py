"""Exact pmf evaluation and exhaustive privacy verification.

On instances small enough to enumerate, this module computes the
mechanism's law exactly and verifies the guarantee directly from its
definition: for every dataset y with the invariant total, every neighbor
x obtained by moving one event between two strata, and every feasible
output z, |log p(z|y) / p(z|x)| must stay within the budget.

All ratio arithmetic is done as differences of log pmfs; tail masses
around 1e-83 are routine here and would be garbage in linear scale.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

from .calibration import Calibration
from .distributions import log_negbin_kernel
from .errors import DomainError, EnumerationCapError, InfeasibilityError
from .mechanism import build_kernel_params, check_bounds, log_success
from .strata import StrataTable, TruncationBounds

__all__ = [
    "NeighborPair",
    "AuditReport",
    "RatioCurve",
    "enumerate_feasible",
    "exact_joint_pmf",
    "exact_bivariate_pmf",
    "prior_allocation_log_pmf",
    "audit",
    "ratio_curve",
    "theorem1_bound_check",
    "write_audit_report",
    "write_ratio_curve",
]

DEFAULT_CAP = 10**6
PASS_TOL = 1e-9


@dataclass(frozen=True)
class NeighborPair:
    """Two datasets one unit transfer apart, totals equal."""

    y: tuple
    x: tuple
    moved_from: int
    moved_to: int

    def __post_init__(self):
        y = np.asarray(self.y)
        x = np.asarray(self.x)
        if int(np.abs(x - y).sum()) != 2 or int(x.sum()) != int(y.sum()):
            raise DomainError("not a unit-transfer neighbor pair")
        if np.any(x < 0) or np.any(y < 0):
            raise DomainError("neighbor counts must be nonnegative")


@dataclass(frozen=True)
class AuditReport:
    epsilon_target: float
    max_abs_log_ratio: float
    argmax_pair: NeighborPair
    argmax_z: tuple
    passed: bool
    instance_size: tuple
    checked_datasets: int = 0
    checked_outputs: int = 0
    exchange_rule_applied: bool = False

    def to_json(self) -> dict:
        return {
            "epsilon_target": self.epsilon_target,
            "max_abs_log_ratio": self.max_abs_log_ratio,
            "argmax": {
                "y": list(self.argmax_pair.y),
                "x": list(self.argmax_pair.x),
                "z": list(self.argmax_z),
            },
            "pass": self.passed,
            "instance_size": {
                "strata": self.instance_size[0],
                "y_total": self.instance_size[1],
            },
            "checked_datasets": self.checked_datasets,
            "checked_outputs": self.checked_outputs,
            "exchange_rule_applied": self.exchange_rule_applied,
        }


def _compositions(total: int, parts: int):
    """Yield every tuple of nonnegative ints of given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_feasible(lo, hi, total: int, cap: int = DEFAULT_CAP) -> np.ndarray:
    """All integer vectors in the box [lo, hi] summing to total.

    Depth-first with remaining-sum pruning; raises once more than cap
    vectors have been collected.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    parts = len(lo)
    suffix_lo = np.concatenate([np.cumsum(lo[::-1])[::-1], [0]])
    suffix_hi = np.concatenate([np.cumsum(hi[::-1])[::-1], [0]])
    out: list[tuple] = []
    stack = [((), total)]
    while stack:
        prefix, rem = stack.pop()
        k = len(prefix)
        if k == parts:
            out.append(prefix)
            if len(out) > cap:
                raise EnumerationCapError(
                    f"more than {cap} feasible outputs; raise the cap to proceed"
                )
            continue
        v_lo = max(int(lo[k]), rem - int(suffix_hi[k + 1]))
        v_hi = min(int(hi[k]), rem - int(suffix_lo[k + 1]))
        for v in range(v_hi, v_lo - 1, -1):
            stack.append((prefix + (v,), rem - v))
    if not out:
        raise InfeasibilityError("no feasible output vectors")
    return np.array(out, dtype=np.int64)


def _log_pmf_on_support(
    counts, table: StrataTable, calib: Calibration, support: np.ndarray
) -> np.ndarray:
    """Log mechanism pmf of each support row, given raw counts."""
    params = build_kernel_params(counts, table, calib)
    logw = log_negbin_kernel(
        support, params.shape[None, :], params.log_p[None, :]
    ).sum(axis=1)
    return logw - logsumexp(logw)


def exact_joint_pmf(
    counts,
    calib: Calibration,
    table: StrataTable,
    bounds: TruncationBounds | None = None,
    cap: int = DEFAULT_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact mechanism pmf over every feasible output vector.

    Returns (support, log_pmf) with support of shape (N, I). The
    normalizer comes from log-sum-exp over the enumerated support, which
    by construction matches the convolution normalizer; tests hold the
    two against each other. bounds is checked against calib.bounds and
    otherwise unused (see mechanism.check_bounds).
    """
    check_bounds(calib, bounds, table.y_total)
    params = build_kernel_params(counts, table, calib)
    support = enumerate_feasible(params.lo, params.hi, params.y_total, cap)
    return support, _log_pmf_on_support(counts, table, calib, support)


def exact_bivariate_pmf(
    i: int, counts, calib: Calibration, table: StrataTable
) -> tuple[np.ndarray, np.ndarray]:
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


def audit(
    table: StrataTable,
    calib: Calibration,
    bounds: TruncationBounds | None = None,
    epsilon: float | None = None,
    cap: int = DEFAULT_CAP,
) -> AuditReport:
    """Exhaustive worst-case log-ratio over datasets, neighbors, outputs.

    Quantifies over every composition of the total, not just the observed
    one: the guarantee is a statement about all datasets. Neighboring acts
    on raw counts; clamping happens inside the mechanism, so neighbors
    that clamp identically contribute ratio zero, which is exactly how
    the truncated bound gains its slack.
    """
    check_bounds(calib, bounds, table.y_total)
    if epsilon is None:
        epsilon = calib.epsilon
    y_total = table.y_total
    size = table.size
    n_comps = _composition_count(y_total, size)
    if n_comps > cap:
        raise EnumerationCapError(
            f"{n_comps} datasets to enumerate exceeds the cap {cap}"
        )
    params = build_kernel_params(table.y, table, calib)
    support = enumerate_feasible(params.lo, params.hi, y_total, cap)

    pmf_cache: dict[tuple, np.ndarray] = {}

    def pmf_for(raw: tuple) -> np.ndarray:
        arr = np.asarray(raw, dtype=np.int64)
        if calib.bounds is not None:
            key = tuple(np.clip(arr, calib.bounds.L, calib.bounds.U).tolist())
        else:
            key = raw
        got = pmf_cache.get(key)
        if got is None:
            got = _log_pmf_on_support(arr, table, calib, support)
            pmf_cache[key] = got
        return got

    best = -1.0
    best_pair: NeighborPair | None = None
    best_z: tuple = ()
    checked = 0
    for y in _compositions(y_total, size):
        logp_y = pmf_for(y)
        for i in range(size):
            if y[i] == 0:
                continue
            for j in range(size):
                if j == i:
                    continue
                x = list(y)
                x[i] -= 1
                x[j] += 1
                checked += 1
                diff = np.abs(logp_y - pmf_for(tuple(x)))
                k = int(np.argmax(diff))
                if diff[k] > best:
                    best = float(diff[k])
                    best_pair = NeighborPair(y, tuple(x), i, j)
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


def _composition_count(total: int, parts: int) -> int:
    from math import comb

    return comb(total + parts - 1, parts - 1)


@dataclass(frozen=True)
class RatioCurve:
    """Worst-case privacy ratio per output value for a two-stratum instance."""

    z: np.ndarray
    ratio: np.ndarray
    attaining_y: list = field(default_factory=list)
    attaining_x: list = field(default_factory=list)

    def argmax(self) -> int:
        return int(self.z[int(np.argmax(self.ratio))])


def ratio_curve(table: StrataTable, calib: Calibration,
                bounds: TruncationBounds | None = None) -> RatioCurve:
    """For each z_1, the maximal p(z|y)/p(z|x) over all neighbor pairs.

    Two-stratum instances only; this is the plottable form of the
    worst-case analysis, one point per output value.
    """
    if table.size != 2:
        raise DomainError("ratio curves are defined for two-stratum instances")
    check_bounds(calib, bounds, table.y_total)
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


def write_audit_report(report: AuditReport, path, extra: dict | None = None) -> None:
    doc = report.to_json()
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_ratio_curve(curve: RatioCurve, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["z", "ratio"])
        for z, r in zip(curve.z.tolist(), curve.ratio.tolist()):
            writer.writerow([z, repr(float(r))])
