"""Shared mechanism internals: kernel parameters and completion-mass tables.

The mechanism's law for a synthetic vector z is a product of per-stratum
negative-binomial kernels

    w_i(z) = Gamma(z + clamped_y_i + a_i) / z! * p_i^z,
    p_i = n_i / (b_i + 2 * n_i),

restricted to the box lo_i <= z_i <= hi_i and the slice sum(z) = y_total,
then normalized. Everything here works in log space or with
max-normalized linear tables carrying a separate log offset, because the
raw weights span hundreds of orders of magnitude.

The completion-mass table T_k holds, for each attainable total t, the
summed weight of all ways strata k..I-1 can sum to t. It satisfies
T_k = w_k * T_{k+1} (discrete convolution), with T_I a point mass at 0.
A table spans the totals whose weight is >= 2^-1022 times its peak (at
most y_total + 1 of them); below that an entry would be subnormal or zero
once divided by the peak. T_0 evaluated at y_total is the normalizer; the
tables also drive the sequential exact sampler. suffix_tables is the one
recursion loop: backward_pass runs it once from T_I down to T_start
(T_0, or the first table of the sampler's tail, which is read at many
totals and so has no single-total lookup) and keeps every block-th
table. The sampler runs it again over one block at a time, from that
block's checkpoint, just before it draws the block's strata for every
replicate. Each rebuilt step is the backward pass's own step on the same
inputs, so its entries equal the backward pass's bit for bit. Memory is
the checkpoints plus one block of tables, O(sqrt(I) * span); the
rebuilds' work is the backward pass's, O(I * span * box_width), I
counting the strata the pass covers. All strata's kernel tables sit in
one KernelBank (stratum_weight_table): per-stratum arrays into one flat
value array, each table cut to the entries of its box with mass. The
recursion reads MassTable views of it.

Multiplying every kernel by theta^z (exponential tilting) multiplies
every weight on the slice by theta^y_total, so the conditioned law is
unchanged while the tables' peak moves. tilt finds the theta whose
tilted kernel means sum to y_total, by Newton's method, in O(summed box
widths) per step; on a finite box the tilted kernel is the kernel
formula with log_p + log theta. The kernels' log-gamma part is evaluated
once per box entry, and every Newton step and the tilted bank add
z * log p to it. A table cut at its peak then holds the total even where
the untilted table would leave it below the cut.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .distributions import log_gamma_ratio, log_negbin_kernel
from .errors import InfeasibilityError
from .strata import StrataTable, TruncationBounds, _frozen

__all__ = [
    "KernelParams",
    "MassTable",
    "KernelBank",
    "clamp_counts",
    "build_kernel_params",
    "stratum_weight_table",
    "tilt",
    "convolve_mass",
    "suffix_tables",
    "backward_pass",
]


@dataclass(frozen=True)
class KernelParams:
    """Everything the conditioned-product law depends on.

    shape: kernel shapes, clamped observed count plus gamma shape.
    log_p: per-stratum log success probability, -inf when n_i = 0.
    lo, hi: inclusive per-stratum support bounds.
    y_total: the invariant total the draw is conditioned on.
    """

    shape: np.ndarray
    log_p: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    y_total: int

    def __post_init__(self):
        for name, dtype in (
            ("shape", np.float64),
            ("log_p", np.float64),
            ("lo", np.int64),
            ("hi", np.int64),
        ):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        if np.any(self.lo > self.hi):
            raise InfeasibilityError("empty per-stratum support")
        if self.lo.sum() > self.y_total or int(self.hi.sum()) < self.y_total:
            raise InfeasibilityError(
                "support boxes cannot reach the invariant total"
            )

    @property
    def size(self) -> int:
        return len(self.shape)


def log_success(b, n) -> np.ndarray:
    """log p = -log(2 + b / n) per entry; -inf where n = 0.

    An empty stratum (n = 0) gets an impossible kernel, a point mass at 0.
    """
    b = np.asarray(b, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    with np.errstate(divide="ignore"):
        ratio = np.where(n > 0, b / np.maximum(n, 1.0), np.inf)
        return -np.log(2.0 + ratio)


def clamp_counts(counts, bounds: TruncationBounds | None) -> np.ndarray:
    """Counts as the mechanism sees them: clipped into the boxes when
    truncated (bounds given), unchanged when untruncated."""
    if bounds is None:
        return counts
    return np.clip(counts, bounds.L, bounds.U)


def build_kernel_params(counts, table: StrataTable, calib) -> KernelParams:
    """Kernel parameters for the mechanism run on a raw count vector.

    In truncated mode the counts are clamped into the calibration's boxes
    before entering the shapes; in untruncated mode the support is the
    full range [0, y_total] for every stratum. The conditioning total is
    the raw sum, which the clamp never alters.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if len(counts) != table.size:
        raise InfeasibilityError("count vector length does not match the table")
    y_total = int(counts.sum())
    bounds: TruncationBounds | None = calib.bounds
    if bounds is not None:
        lo = bounds.L.copy()
        hi = np.minimum(bounds.U, y_total)
    else:
        lo = np.zeros(table.size, dtype=np.int64)
        hi = np.full(table.size, y_total, dtype=np.int64)
    return KernelParams(
        shape=clamp_counts(counts, bounds).astype(np.float64) + calib.a,
        log_p=log_success(calib.b, table.n),
        lo=lo,
        hi=hi,
        y_total=y_total,
    )


@dataclass(frozen=True)
class MassTable:
    """Linear-scale weight table with max-normalization.

    vals[t - lo] holds the (scaled) weight of total t; the true log weight
    is log(vals[t - lo]) + offset. vals.max() == 1 for a whole table.
    A completion-mass table spans only the totals from its first to its
    last weight >= CUT * peak; totals outside [lo, hi] carry mass 0.
    """

    lo: int
    vals: np.ndarray
    offset: float

    @property
    def hi(self) -> int:
        return self.lo + len(self.vals) - 1

    def log_at(self, t: int) -> float:
        idx = t - self.lo
        if idx < 0 or idx >= len(self.vals) or self.vals[idx] <= 0.0:
            return -np.inf
        return float(np.log(self.vals[idx]) + self.offset)


# A completion-mass table keeps the span from its first to its last
# weight >= CUT * peak (see convolve_mass).
CUT = 2.0**-1022

# Summed support widths per group of kernel evaluations (_log_gamma_groups);
# it bounds their temporaries, and no table depends on it.
KERNEL_GROUP = 1 << 16

# tilt's Newton iteration: at most TILT_STEPS steps, stopping once the
# tilted means sum to within TILT_TOL of the total, with |tau| at most
# TILT_LIMIT (beyond it theta^z underflows at z = 1).
TILT_STEPS = 100
TILT_TOL = 1e-6
TILT_LIMIT = 745.0


def delta_table() -> MassTable:
    return MassTable(lo=0, vals=np.ones(1), offset=0.0)


@dataclass(frozen=True)
class KernelBank:
    """Every stratum's max-normalized kernel table, laid end to end in
    one array: stratum i's runs from lo[i] over vals[start[i]:start[i] +
    width[i]], with log peak offset[i], from the first entry of its box
    with mass to the last (the others are exact zeros). bank[i] is that
    table as a MassTable view."""

    lo: np.ndarray
    width: np.ndarray
    start: np.ndarray
    offset: np.ndarray
    vals: np.ndarray

    def __getitem__(self, i: int) -> MassTable:
        a = int(self.start[i])
        vals = self.vals[a:a + int(self.width[i])]
        return MassTable(int(self.lo[i]), vals, float(self.offset[i]))


def _log_gamma_groups(params: KernelParams) -> list[tuple]:
    """(a, widths, starts, log_gamma) per group of strata a, a + 1, ....

    Groups are consecutive strata whose summed support widths stay under
    KERNEL_GROUP entries (a wider stratum is a group of its own); each
    group's supports are laid end to end (starts), and log_gamma holds
    the kernels' log-gamma part there (distributions.log_gamma_ratio).
    """
    widths = params.hi - params.lo + 1
    ends = np.cumsum(widths)
    groups = []
    a = 0
    while a < params.size:
        limit = ends[a] - widths[a] + KERNEL_GROUP
        b = max(a + 1, int(np.searchsorted(ends, limit, side="right")))
        w = widths[a:b]
        starts = np.cumsum(w) - w
        z = np.arange(starts[-1] + w[-1], dtype=np.float64)
        z -= np.repeat(starts - params.lo[a:b], w)
        shape = np.repeat(params.shape[a:b], w)
        groups.append((a, w, starts, log_gamma_ratio(z, shape)))
        a = b
    return groups


def _log_kernel(params: KernelParams, group: tuple):
    """(z, logw, peaks) of one group of _log_gamma_groups: the support
    values, the log kernel there with success probability exp(log_p) less
    its stratum's largest log weight, and those largest log weights."""
    a, w, starts, log_gamma = group
    b = a + len(w)
    z = np.arange(len(log_gamma), dtype=np.float64)
    z -= np.repeat(starts - params.lo[a:b], w)
    log_p = np.repeat(params.log_p[a:b], w)
    logw = log_negbin_kernel(z, None, log_p, log_gamma=log_gamma)
    peaks = np.maximum.reduceat(logw, starts)
    bad = np.flatnonzero(~np.isfinite(peaks))
    if len(bad):
        raise InfeasibilityError(
            f"stratum {a + bad[0]} carries no mass anywhere on its support"
        )
    logw -= np.repeat(peaks, w)
    return z, logw, peaks


def stratum_weight_table(params: KernelParams, groups=None) -> KernelBank:
    """The KernelBank of every stratum i over its support [lo_i, hi_i].
    groups, when given, is _log_gamma_groups(params), evaluated already."""
    if groups is None:
        groups = _log_gamma_groups(params)
    parts = []
    for group in groups:
        w, starts = group[1], group[2]
        z, logw, peaks = _log_kernel(params, group)
        vals = np.exp(logw, out=logw)
        # the peak's entry is 1, so every stratum has one with mass
        mass = np.flatnonzero(vals)
        first = mass[np.searchsorted(mass, starts)]
        width = mass[np.searchsorted(mass, starts + w) - 1] - first + 1
        keep = np.repeat(first + width - np.cumsum(width), width)
        keep += np.arange(len(keep))
        parts.append((z[first].astype(np.int64), width, peaks, vals[keep]))
    lo, width, offset, vals = (np.concatenate(p) for p in zip(*parts))
    return KernelBank(lo, width, np.cumsum(width) - width, offset, vals)


def tilt(params: KernelParams) -> tuple[float, np.ndarray, KernelBank]:
    """(tau, var, bank): the exponential tilt that centres the kernels on the total.

    Tilting every kernel by theta^z, tau = log theta, leaves the law on
    the slice sum(z) = y_total unchanged, since theta^sum(z) = theta^y_total
    there; on a finite box it is exactly p -> p * theta, so the tilted
    kernels are KernelParams with log_p + tau (an n = 0 stratum keeps
    log_p = -inf). tau solves sum_i E_tau[z_i] = y_total by Newton's
    method, kept inside the bracket [-TILT_LIMIT, TILT_LIMIT] by
    bisection, from tau = 0. It stops once the sum is within TILT_TOL of
    the total, once the bracket is narrower than TILT_TOL (a total at an
    end of the boxes has its root at infinity), or after TILT_STEPS
    steps. var holds each stratum's variance under the returned tau, and
    bank the tilted kernels, from the Newton steps' log-gamma evaluation.
    Any tau gives the same law; it only moves where the completion-mass
    tables keep their mass.
    """
    groups = _log_gamma_groups(params)

    def moments(tau: float) -> tuple[np.ndarray, np.ndarray]:
        means, variances = [], []
        for group in groups:
            w, starts = group[1], group[2]
            z, e, _ = _log_kernel(params, group)
            e += tau * z
            e -= np.repeat(np.maximum.reduceat(e, starts), w)
            np.exp(e, out=e)
            mass = np.add.reduceat(e, starts)
            e *= z
            mean = np.add.reduceat(e, starts) / mass
            e *= z
            means.append(mean)
            variances.append(
                np.maximum(np.add.reduceat(e, starts) / mass - mean * mean, 0.0)
            )
        return np.concatenate(means), np.concatenate(variances)

    tau, below, above = 0.0, -TILT_LIMIT, TILT_LIMIT
    mean, var = moments(tau)
    for _ in range(TILT_STEPS):
        gap = float(mean.sum()) - params.y_total
        if abs(gap) <= TILT_TOL or above - below <= TILT_TOL:
            break
        if gap < 0.0:
            below = tau
        else:
            above = tau
        slope = float(var.sum())
        step = tau - gap / slope if slope > 0.0 else np.nan
        tau = step if below < step < above else 0.5 * (below + above)
        mean, var = moments(tau)
    tilted = replace(params, log_p=params.log_p + tau)
    return tau, var, stratum_weight_table(tilted, groups)


def convolve_mass(weights: MassTable, table: MassTable, cap: int) -> MassTable:
    """One recursion step T_k = w_k * T_{k+1}, truncated above cap.

    Totals beyond cap (the conditioning total) can never be part of a
    feasible draw, so the axis stops there. The table then spans the
    totals whose weight is >= CUT * peak: both ends are trimmed to the
    first and last such entry, while smaller entries between them stay
    (kernels with shape < 1 are not log-concave, so a table need not be
    unimodal). The kept entries are exactly those of the untrimmed step.
    """
    lo = weights.lo + table.lo
    keep = cap - lo + 1
    if keep <= 0:
        raise InfeasibilityError("mass table slid entirely above the total")
    vals = np.convolve(weights.vals, table.vals)[:keep]
    peak = float(vals.max())
    if peak <= 0.0:
        raise InfeasibilityError("mass table underflowed to zero")
    big = vals >= peak * CUT
    first, stop = int(big.argmax()), len(vals) - int(big[::-1].argmax())
    return MassTable(
        lo=lo + first,
        vals=vals[first:stop] / peak,
        offset=weights.offset + table.offset + np.log(peak),
    )


def suffix_tables(
    weights: KernelBank | list[MassTable],
    table: MassTable,
    stop: int,
    start: int,
    cap: int,
) -> Iterator[tuple[int, MassTable]]:
    """Yield (k, T_k) for k = stop - 1 down to start, from table = T_stop."""
    for k in range(stop - 1, start - 1, -1):
        table = convolve_mass(weights[k], table, cap)
        yield k, table


def backward_pass(
    params: KernelParams, weights: KernelBank, block: int, start: int = 0
) -> dict[int, MassTable]:
    """Run the recursion T_k = w_k * T_{k+1} from T_I down to T_start,
    weights being params' kernel bank (stratum_weight_table).

    Returns the checkpoint map: T_I, and T_k at every k with k - start
    divisible by block, so T_start among them. T_0 must hold the total
    (checkpoints[0].log_at(y_total) is ln C, the log of the kernel mass on
    the box-and-total slice); a suffix (start > 0) is read at many totals,
    one per draw of the strata before it, and is not checked at one.
    When T_0 holds no entry at y_total, the error tells two causes apart.
    The total is unreachable when the box sums miss it once strata pinned
    at zero by degenerate kernels (n_i = 0, so log_p = -inf) count at lo
    only, which the box-sum check alone cannot see. Otherwise the boxes
    admit it, but its weight is below CUT times T_0's peak, where a
    max-normalized table holds no entry (tilting the kernels, see tilt,
    moves the peak to the total). Neither message names a count or a
    span.
    """
    size = params.size
    checkpoints: dict[int, MassTable] = {size: delta_table()}
    running = checkpoints[size]
    for k, running in suffix_tables(
        weights, running, size, start, params.y_total
    ):
        if (k - start) % block == 0:
            checkpoints[k] = running
    if not start and not np.isfinite(running.log_at(params.y_total)):
        reach = np.where(np.isneginf(params.log_p), params.lo, params.hi)
        if params.lo.sum() <= params.y_total <= reach.sum():
            raise InfeasibilityError(
                "the invariant total's weight is below 2^-1022 of the "
                "completion table's peak, so a max-normalized table cannot "
                "represent it"
            )
        raise InfeasibilityError("the invariant total is unreachable")
    return checkpoints
