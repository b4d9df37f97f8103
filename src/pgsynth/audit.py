"""Exact pmf evaluation and an exact privacy audit.

On instances whose datasets can be enumerated, audit verifies the
guarantee from its definition: for every dataset y with the invariant
total, every neighbor x obtained by moving one event between two strata,
and every feasible output z, |log p(z|y) / p(z|x)| must stay within the
budget. It enumerates the datasets and their neighbors, and bounds each
pair's outputs in closed form: the worst output sits at one of two
corners of a polygon (see audit), so one normalizer per distinct clamped
dataset, from one matrix product per distinct clamped suffix, and O(1)
work per pair suffice. The test oracle audit_enumerated, which also
walks every output, must agree with it.
exact_joint_pmf and ratio_curve evaluate the law at every output.

Datasets and outputs alike come from enumerate_feasible, in
lexicographic order, and audit and ratio_curve walk the same neighbor
pairs in vectorized steps of whole datasets (_pair_chunks).

All ratio arithmetic is done as differences of log pmfs; tail masses
around 1e-83 are routine here and would be garbage in linear scale. The
log-gamma and log-sum-exp are distributions' own numpy code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from math import comb

import numpy as np

from .calibration import Calibration
from .distributions import _log_gamma, _logsumexp, log_negbin_kernel
from .errors import DomainError, EnumerationCapError, InfeasibilityError
from .mechanism import (
    KERNEL_GROUP,
    KernelBoxes,
    KernelParams,
    build_kernel_params,
    clamp_counts,
    delta_table,
    stratum_weight_table,
    suffix_tables,
)
from .strata import StrataTable, write_csv

__all__ = [
    "NeighborPair",
    "AuditReport",
    "RatioCurve",
    "enumerate_feasible",
    "exact_joint_pmf",
    "audit",
    "ratio_curve",
    "write_audit_report",
    "write_ratio_curve",
]

DEFAULT_CAP = 10**6
PASS_TOL = 1e-9

# Neighbor pairs audit evaluates per vectorized step, rounded down to whole
# datasets; it bounds the step's temporaries, and no reported value depends on it.
PAIR_CHUNK = 1 << 14


@dataclass(frozen=True)
class NeighborPair:
    """Two datasets one unit transfer apart, totals equal."""

    y: tuple
    x: tuple

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


def enumerate_feasible(lo, hi, total: int, cap: int = DEFAULT_CAP) -> np.ndarray:
    """All integer vectors in the box [lo, hi] summing to total, in
    lexicographic order.

    Built one stratum at a time: each prefix is extended by every value
    that leaves the strata after it a feasible remainder, so every prefix
    has a completion and no level is wider than the result. Raises before
    building a level of more than cap vectors.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    suffix_lo = np.concatenate([np.cumsum(lo[::-1])[::-1], [0]])
    suffix_hi = np.concatenate([np.cumsum(hi[::-1])[::-1], [0]])
    # an empty box leaves no prefix to extend
    out = np.zeros((int((lo <= hi).all()), 0), dtype=np.int64)
    rem = np.full(len(out), total, dtype=np.int64)
    for k in range(len(lo)):
        v_lo = np.maximum(lo[k], rem - suffix_hi[k + 1])
        width = np.maximum(np.minimum(hi[k], rem - suffix_lo[k + 1]) - v_lo + 1, 0)
        rows = int(width.sum())
        if rows > cap:
            raise EnumerationCapError(
                f"more than {cap} vectors to enumerate; raise the cap to proceed"
            )
        parent = np.repeat(np.arange(len(out)), width)
        v = v_lo[parent] + np.arange(rows) - (np.cumsum(width) - width)[parent]
        out = np.column_stack([out[parent], v])
        rem = rem[parent] - v
    if not len(out):
        raise InfeasibilityError("no feasible output vectors")
    return out


def _log_pmf_on_support(params: KernelParams, support: np.ndarray) -> np.ndarray:
    """Log mechanism pmf of each support row under params."""
    logw = log_negbin_kernel(
        support, params.shape[None, :], params.log_p[None, :]
    ).sum(axis=1)
    return logw - _logsumexp(logw)


def exact_joint_pmf(
    counts, calib: Calibration, table: StrataTable, *, cap: int = DEFAULT_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """Exact mechanism pmf over every feasible output vector.

    Returns (support, log_pmf) with support of shape (N, I). The
    normalizer comes from log-sum-exp over the enumerated support, which
    by construction matches the convolution normalizer; tests hold the
    two against each other. The boxes are calib.bounds.
    """
    params = build_kernel_params(counts, table, calib)
    support = enumerate_feasible(params.lo, params.hi, params.y_total, cap)
    return support, _log_pmf_on_support(params, support)


def audit(
    table: StrataTable,
    calib: Calibration,
    *,
    epsilon: float | None = None,
    cap: int = DEFAULT_CAP,
) -> AuditReport:
    """Exact worst-case log-ratio over datasets, neighbors and outputs.

    Quantifies over every composition of the total, not just the observed
    one: the guarantee is a statement about all datasets. Neighboring acts
    on raw counts; clamping happens inside the mechanism, so neighbors
    that clamp identically contribute ratio zero, which is exactly how
    the truncated bound gains its slack. cap bounds the datasets.

    No output is enumerated. For y and x = y - e_i + e_j the other
    kernels cancel: log p(z|y) - log p(z|x) = g(z_i, z_j) - D, with
    D = ln C(y) - ln C(x) and g_k = lnGamma(z_k + s_k(y)) - lnGamma(z_k + s_k(x)).
    The clamp moves each shape s_k = clamp(count_k) + a_k by 0 or 1, so
    g_i is 0 or log(z_i + s_i(x)), nondecreasing, and g_j is 0 or
    -log(z_j + s_j(y)), nonincreasing. Every (z_i, z_j) in box_i x box_j
    with A <= z_i + z_j <= B, A = Y - sum_{k!=i,j} hi_k and
    B = Y - sum_{k!=i,j} lo_k, is the pair of some output, and each output
    has positive mass. So g is largest at z_i = min(hi_i, B - lo_j),
    z_j = max(lo_j, A - z_i), smallest at z_i = max(lo_i, A - hi_j),
    z_j = min(hi_j, B - z_i), and |g - D| peaks at one of these corners.
    The datasets are clamped once; ln C costs one matrix product per
    distinct clamped suffix (_log_normalizers) and each pair O(1), in
    steps of at most PAIR_CHUNK pairs or one dataset's.
    """
    if cap < 1:
        raise DomainError(f"the dataset cap must be at least 1, got {cap}")
    if epsilon is None:
        epsilon = calib.epsilon
    y_total = table.y_total
    size = table.size
    comps = enumerate_feasible([0] * size, [y_total] * size, y_total, cap)
    if y_total < 1:
        raise DomainError("no neighbor pairs exist for this instance")
    params = build_kernel_params(table.y, table, calib)
    if np.isneginf(params.log_p).any():
        raise DomainError(
            "the exact audit needs mass on every box output; "
            "a stratum with population 0 has none"
        )
    keys, inverse = _distinct_clamped(comps, calib)
    shapes = keys + calib.a
    log_c = _log_normalizers(keys, params, calib)
    del keys

    best = -1.0
    best_at = None
    for rows, x_rows, i, j in _pair_chunks(comps, PAIR_CHUNK):
        y, x = inverse[rows], inverse[x_rows]
        value, z_i, z_j = _pair_bound(params, shapes, y, x, log_c[y] - log_c[x], i, j)
        k = int(np.argmax(value))
        if value[k] > best:
            best = float(value[k])
            best_at = [int(v[k]) for v in (rows, x_rows, i, j, z_i, z_j)]
    y, x, i, j, z_i, z_j = best_at
    return AuditReport(
        epsilon_target=float(epsilon),
        max_abs_log_ratio=best,
        argmax_pair=NeighborPair(*(tuple(comps[r].tolist()) for r in (y, x))),
        argmax_z=_fill_output(params.lo, params.hi, y_total, {i: z_i, j: z_j}),
        passed=bool(best <= epsilon + PASS_TOL),
        instance_size=(size, y_total),
        checked_datasets=len(comps),
        checked_outputs=_count_feasible(params.lo, params.hi, y_total),
        exchange_rule_applied=calib.exchange_rule_applied,
    )


def _pair_bound(params: KernelParams, shapes, y, x, delta, i, j):
    """Worst |log p(z|y) - log p(z|x)| over all outputs z, per pair, and
    the corner (z_i, z_j) attaining it (see audit). Pair r runs from the
    clamped dataset y[r] to x[r] = y[r] - e_i + e_j, given as rows of the
    per-key shapes, and ln C(y) - ln C(x) = delta[r]. Only the shapes of
    strata i and j are read; the other kernels cancel."""
    lo, hi, y_total = params.lo, params.hi, params.y_total
    # A and B of audit's docstring: the range of z_i + z_j
    low = y_total - (hi.sum() - hi[i] - hi[j])
    high = y_total - (lo.sum() - lo[i] - lo[j])

    def g(z_i, z_j):
        out = _log_gamma(z_i + shapes[y, i])
        out -= _log_gamma(z_i + shapes[x, i])
        out += _log_gamma(z_j + shapes[y, j])
        out -= _log_gamma(z_j + shapes[x, j])
        return out

    up_i = np.minimum(hi[i], high - lo[j])
    up_j = np.maximum(lo[j], low - up_i)
    down_i = np.maximum(lo[i], low - hi[j])
    down_j = np.minimum(hi[j], high - down_i)
    up = np.abs(g(up_i, up_j) - delta)
    down = np.abs(g(down_i, down_j) - delta)
    at_up = up >= down
    return (
        np.where(at_up, up, down),
        np.where(at_up, up_i, down_i), np.where(at_up, up_j, down_j),
    )


def _distinct_clamped(comps: np.ndarray, calib: Calibration):
    """The distinct clamped datasets among comps' rows, and each row's
    index into them; the mechanism sees a dataset only through its clamp."""
    keys, inverse = np.unique(
        clamp_counts(comps, calib.bounds), axis=0, return_inverse=True
    )
    return keys, inverse.ravel()


def _log_normalizers(keys: np.ndarray, params: KernelParams, calib: Calibration):
    """ln C of each clamped dataset row of keys: C = w_0 M w_1, with
    M[z_0, z_1] = T_2(Y - z_0 - z_1) over the boxes of strata 0 and 1.

    One bank holds the kernel tables of every clamped value v at every
    stratum k (shape v + a_k). T_2 depends only on keys[:, 2:], so the
    keys are walked last stratum first (np.lexsort), and each distinct
    suffix rebuilds T_m down to T_2 from the previous one's T_{m+1}, m the
    last stratum where the two differ (for I = 2, T_2 is the delta table).
    Its keys' w_0 rows times M, each row over its peak, are then dotted
    with their w_1 rows, KERNEL_GROUP entries a step at most.
    """
    size, total, lo, hi = params.size, params.y_total, params.lo, params.hi
    values, index = np.unique(keys, return_inverse=True)
    index, count = index.reshape(keys.shape), len(values)
    bank = stratum_weight_table(KernelBoxes(
        np.add.outer(values, calib.a).ravel(), np.tile(params.log_p, count),
        np.tile(lo, count), np.tile(hi, count),
    ))
    offset = bank.offset.reshape(count, size)
    dense = [np.zeros((count, hi[k] - lo[k] + 1)) for k in (0, 1)]
    for v, k in np.ndindex(count, 2):  # strata 0 and 1's kernels over their boxes
        w = bank[v * size + k]
        dense[k][v, w.lo - lo[k]:w.hi - lo[k] + 1] = w.vals
    # the totals M reads T_2 at; total + 1 stands for those below 0 and holds 0
    cell = total - np.add.outer(*(np.arange(lo[k], hi[k] + 1) for k in (0, 1)))
    cell[cell < 0] = total + 1
    order = np.lexsort(keys.T)
    differs = (keys[order[1:], 2:] != keys[order[:-1], 2:])[:, ::-1]
    starts = np.flatnonzero(np.concatenate([[True], differs.any(axis=1)])).tolist()
    step = max(1, KERNEL_GROUP // max(cell.shape))
    tables, log_c = [None] * size + [delta_table()], np.empty(len(keys))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero peak: C = 0
        for a, b in zip(starts, starts[1:] + [len(order)]):
            m = size - 1 - int(differs[a - 1].argmax()) if a else size - 1
            key = index[order[a]].tolist()
            weights = {k: bank[key[k] * size + k] for k in range(2, m + 1)}
            for k, table in suffix_tables(weights, tables[m + 1], m + 1, 2, total):
                tables[k] = table
            line = np.zeros(total + 2)
            line[tables[2].lo:tables[2].hi + 1] = tables[2].vals
            weigh = line[cell]
            for rows in np.split(order[a:b], range(step, b - a, step)):
                y0, y1 = index[rows, 0], index[rows, 1]
                prod = dense[0][y0] @ weigh
                peak = prod.max(axis=1)
                prod /= peak[:, None]
                prod *= dense[1][y1]
                log_c[rows] = np.log(prod.sum(axis=1)) + np.log(peak) + (
                    offset[y0, 0] + offset[y1, 1] + tables[2].offset
                )
    if not np.isfinite(log_c).all():
        raise InfeasibilityError("the invariant total is unreachable")
    return log_c


class _CompositionRank:
    """Position of a composition in enumerate_feasible's lexicographic order.

    The compositions before v are those that agree with it up to stratum
    k and put less than v_k there; with r the total left at k, there are
    count(r, parts - k) - count(r - v_k, parts - k) of them, where
    count(t, m) = C(t + m - 1, m - 1) compositions of t into m parts.
    """

    def __init__(self, total: int, parts: int):
        self.total = total
        self.counts = np.array(
            [[comb(t + m - 1, m - 1) for t in range(total + 1)]
             for m in range(parts, 1, -1)],
            dtype=np.int64,
        )

    def __call__(self, v: np.ndarray) -> np.ndarray:
        rank = np.zeros(len(v), dtype=np.int64)
        rem = np.full(len(v), self.total, dtype=np.int64)
        for k, count in enumerate(self.counts):
            rank += count[rem] - count[rem - v[:, k]]
            rem -= v[:, k]
        return rank


def _pair_chunks(comps: np.ndarray, chunk: int):
    """Yield (rows, x_rows, i, j) for every unit transfer, a step of
    whole datasets at a time: chunk // (I (I - 1)) rows, at least one.

    comps holds every composition of one total, in order; each pair is
    comps[rows] and comps[x_rows] = comps[rows] - e_i + e_j. The
    order is the walk order: dataset rows first, then the source i (only
    where comps[row, i] > 0), then the destination j != i.
    """
    size = comps.shape[1]
    rank = _CompositionRank(int(comps[0].sum()), size)
    src, dst = np.array(
        [(i, j) for i in range(size) for j in range(size) if j != i]
    ).T
    step = max(1, chunk // len(src))
    for start in range(0, len(comps), step):
        rows, k = np.nonzero(comps[start : start + step, src] > 0)
        rows, i, j = rows + start, src[k], dst[k]
        x = comps[rows]
        pos = np.arange(len(rows))
        x[pos, i] -= 1
        x[pos, j] += 1
        yield rows, rank(x), i, j


def _fill_output(lo, hi, total: int, fixed: dict) -> tuple:
    """The output with the fixed strata given, the others filled from lo
    upward in stratum order until the total is reached."""
    z = lo.copy()
    for k, v in fixed.items():
        z[k] = v
    extra = total - int(z.sum())
    for k in range(len(z)):
        if k not in fixed:
            step = min(extra, int(hi[k] - lo[k]))
            z[k] += step
            extra -= step
    return tuple(z.tolist())


def _count_feasible(lo, hi, total: int) -> int:
    """Number of integer vectors in the box [lo, hi] summing to total."""
    ways = np.ones(1, dtype=np.int64)
    for width in (np.asarray(hi) - np.asarray(lo) + 1).tolist():
        ways = np.convolve(ways, np.ones(width, dtype=np.int64))[: total + 1]
    return int(ways[total - int(np.sum(lo))])


@dataclass(frozen=True)
class RatioCurve:
    """Worst-case privacy ratio per output value for a two-stratum instance."""

    z: np.ndarray
    ratio: np.ndarray
    attaining_y: list = field(default_factory=list)
    attaining_x: list = field(default_factory=list)

    def argmax(self) -> int:
        return int(self.z[int(np.argmax(self.ratio))])


def ratio_curve(table: StrataTable, calib: Calibration) -> RatioCurve:
    """For each z_1, the maximal p(z|y)/p(z|x) over all neighbor pairs.

    Two-stratum instances only; this is the plottable form of the
    worst-case analysis, one point per output value. It walks audit's
    pair chunks with the joint law at every output, one log pmf per
    distinct clamped dataset, and keeps the signed maximum per output
    and the first pair in walk order that attains it.
    """
    if table.size != 2:
        raise DomainError("ratio curves are defined for two-stratum instances")
    y_total = table.y_total
    params = build_kernel_params(table.y, table, calib)
    support = enumerate_feasible(params.lo, params.hi, y_total)
    comps = enumerate_feasible([0, 0], [y_total, y_total], y_total)
    keys, inverse = _distinct_clamped(comps, calib)
    logp = np.array([_log_pmf_on_support(replace(params, shape=s), support)
                     for s in keys + calib.a])
    best = np.full(len(support), -np.inf)
    best_at = np.full((2, len(support)), -1)  # rows of the attaining y and x
    for rows, x_rows, _, _ in _pair_chunks(comps, PAIR_CHUNK // len(support)):
        d = logp[inverse[rows]] - logp[inverse[x_rows]]
        k, top = d.argmax(axis=0), d.max(axis=0)
        better = top > best
        best[better] = top[better]
        best_at[:, better] = rows[k[better]], x_rows[k[better]]
    attaining_y, attaining_x = (
        [tuple(comps[r].tolist()) if r >= 0 else None for r in at]
        for at in best_at.tolist()
    )
    return RatioCurve(
        z=support[:, 0].copy(), ratio=np.exp(best),
        attaining_y=attaining_y, attaining_x=attaining_x,
    )


def write_audit_report(report: AuditReport, path, extra: dict | None = None) -> None:
    doc = report.to_json()
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_ratio_curve(curve: RatioCurve, path, comment: str | None = None) -> None:
    rows = zip(curve.z.tolist(), curve.ratio.tolist())
    write_csv(path, ["z", "ratio"], ([z, repr(float(r))] for z, r in rows), comment)
