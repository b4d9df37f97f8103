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
from scipy.special import logsumexp

from .calibration import Calibration
from .distributions import log_negbin_kernel
from .errors import DomainError, EnumerationCapError, InfeasibilityError
from .mechanism import build_kernel_params
from .strata import StrataTable

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
    return support, _log_pmf_on_support(counts, table, calib, support)


def _neighbor_log_pmfs(table: StrataTable, calib: Calibration, support: np.ndarray):
    """Yield (y, x, i, j, log p(.|y), log p(.|x)) over every neighbor pair.

    y runs over every composition of the total and x = y - e_i + e_j over
    its unit transfers. Each log pmf on support is computed once per
    distinct clamped dataset, since the mechanism only sees the clamp.
    """
    cache: dict[tuple, np.ndarray] = {}

    def log_pmf(raw: tuple) -> np.ndarray:
        arr = np.asarray(raw, dtype=np.int64)
        key = raw
        if calib.bounds is not None:
            key = tuple(np.clip(arr, calib.bounds.L, calib.bounds.U).tolist())
        got = cache.get(key)
        if got is None:
            got = cache[key] = _log_pmf_on_support(arr, table, calib, support)
        return got

    size = table.size
    for y in _compositions(table.y_total, size):
        logp_y = log_pmf(y)
        for i in range(size):
            if y[i] == 0:
                continue
            for j in range(size):
                if j == i:
                    continue
                x = list(y)
                x[i] -= 1
                x[j] += 1
                x = tuple(x)
                yield y, x, i, j, logp_y, log_pmf(x)


def audit(
    table: StrataTable,
    calib: Calibration,
    *,
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

    best = -1.0
    best_pair: NeighborPair | None = None
    best_z: tuple = ()
    for y, x, i, j, logp_y, logp_x in _neighbor_log_pmfs(table, calib, support):
        diff = np.abs(logp_y - logp_x)
        k = int(np.argmax(diff))
        if diff[k] > best:
            best = float(diff[k])
            best_pair = NeighborPair(y, x, i, j)
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


def ratio_curve(table: StrataTable, calib: Calibration) -> RatioCurve:
    """For each z_1, the maximal p(z|y)/p(z|x) over all neighbor pairs.

    Two-stratum instances only; this is the plottable form of the
    worst-case analysis, one point per output value. It walks the same
    pairs and joint laws as audit, keeping the signed maximum per output.
    """
    if table.size != 2:
        raise DomainError("ratio curves are defined for two-stratum instances")
    params = build_kernel_params(table.y, table, calib)
    support = enumerate_feasible(params.lo, params.hi, table.y_total)
    best = np.full(len(support), -np.inf)
    best_y = [None] * len(support)
    best_x = [None] * len(support)
    for y, x, _, _, logp_y, logp_x in _neighbor_log_pmfs(table, calib, support):
        d = logp_y - logp_x
        better = d > best
        best[better] = d[better]
        for k in np.flatnonzero(better):
            best_y[k] = y
            best_x[k] = x
    return RatioCurve(
        z=support[:, 0].copy(), ratio=np.exp(best),
        attaining_y=best_y, attaining_x=best_x,
    )


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
