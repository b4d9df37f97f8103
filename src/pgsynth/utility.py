"""Utility summaries over true and synthetic count tables.

Age-adjusted rates, between-group disparity ratios, urban/rural
classification by population density, and observed-versus-expected
aggregates. Everything consumes immutable tables plus plain count
vectors, so the functions are safe to run in parallel across replicates.

age_adjusted_rate and disparity_ratio also take a replicate matrix (one
row per replicate) and score every row in one call: a selector's age
groups, deduplicated populations and weights are built once, and the
deaths per row and age group come from one float64 matrix product, exact
for integer counts. For integer counts row r's value is bit for bit the
value of row r passed alone.

Selectors are dicts mapping dimension names to either one label or a
collection of labels; a stratum matches when every named dimension's
label is allowed. An empty selector matches everything.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SchemaError, UndefinedRateError
from .strata import StrataTable, read_floats, write_csv

__all__ = [
    "StandardPopulation",
    "DisparityEstimate",
    "selector_label",
    "age_adjusted_rate",
    "disparity_ratio",
    "urban_rural_classify",
    "summarize_replicates",
    "read_density_csv",
    "write_density_csv",
    "write_metrics_csv",
]

RATE_SCALE = 100_000.0


@dataclass(frozen=True)
class StandardPopulation:
    """Fixed age weights for rate standardization.

    weights maps age-group label to a nonnegative weight; the weights sum
    to 1 within 1e-12. Iteration order of the dict fixes the reporting
    order of age groups.
    """

    weights: dict[str, float]

    def __post_init__(self):
        object.__setattr__(
            self, "weights", {str(k): float(v) for k, v in self.weights.items()}
        )
        if not self.weights:
            raise SchemaError("a standard population needs at least one age group")
        vals = np.array(list(self.weights.values()))
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise SchemaError("standard population weights must be finite and nonnegative")
        if abs(vals.sum() - 1.0) > 1e-12:
            raise SchemaError(
                f"standard population weights sum to {vals.sum()!r}, not 1"
            )

    @classmethod
    def from_csv(cls, path) -> "StandardPopulation":
        _, weights = read_floats(path, "weight", ("age_group",))
        return cls(weights={label: w for (label,), w in weights.items()})

    def to_csv(self, path, header_comment: str | None = None) -> None:
        write_csv(path, ["age_group", "weight"],
                  ([label, repr(w)] for label, w in self.weights.items()),
                  header_comment)


@dataclass(frozen=True)
class DisparityEstimate:
    """Ratio of age-adjusted rates between two subgroups.

    For replicate input, per_replicate holds one ratio per replicate and
    ratio equals mean_ratio; for a single count vector both collapse to
    the one ratio.
    """

    numerator_group: str
    denominator_group: str
    ratio: float
    per_replicate: tuple[float, ...]
    mean_ratio: float


def selector_mask(table: StrataTable, selector: dict | None) -> np.ndarray:
    """Boolean stratum mask for a selector."""
    mask = np.ones(table.size, dtype=bool)
    if not selector:
        return mask
    for dim, allowed in selector.items():
        labels, codes = table.column_codes(dim)
        allowed = {allowed} if isinstance(allowed, str) else set(allowed)
        mask &= np.isin(codes, [j for j, v in enumerate(labels) if v in allowed])
    return mask


def selector_label(selector: dict | None) -> str:
    if not selector:
        return "all"
    parts = []
    for dim in sorted(selector):
        allowed = selector[dim]
        if isinstance(allowed, str):
            parts.append(f"{dim}={allowed}")
        else:
            parts.append(f"{dim}={'|'.join(sorted(allowed))}")
    return "&".join(parts)


def _age_groups(
    table: StrataTable,
    std: StandardPopulation,
    selector: dict | None,
    age_dim: str,
    key_dims: tuple[str, ...] | None,
):
    """A selector's public per-age-group data, built once per call.

    Returns (levels, member, pops): levels are the selected age groups
    in std.weights order, member[i] is stratum i's index into levels (-1
    outside the selector) and pops the deduplicated population of each
    level.
    """
    mask = selector_mask(table, selector)
    labels, codes = table.column_codes(age_dim)
    present = sorted(labels[c] for c in np.unique(codes[mask]))
    for level in present:
        if level not in std.weights:
            raise SchemaError(
                f"age group {level!r} has no standard population weight"
            )
    levels = [level for level in std.weights if level in present]
    level_of_code = np.full(len(labels), -1, dtype=np.int64)
    for k, level in enumerate(levels):
        level_of_code[labels.index(level)] = k
    member = np.where(mask, level_of_code[codes], -1)
    return levels, member, _level_populations(table, member, len(levels), key_dims)


def _level_populations(
    table: StrataTable,
    member: np.ndarray,
    n_levels: int,
    key_dims: tuple[str, ...] | None,
) -> np.ndarray:
    """Population of each level, counting repeated demographic cells once.

    Tables that cross a non-demographic dimension (for example cause of
    death) repeat each cell's population along it; key_dims names the
    dimensions that identify a person-cell so each level sums over its
    unique keys only. None means plain summation. Only strata with a
    level (member >= 0) take part, so an inconsistent cell outside the
    selector is never checked.
    """
    idx = np.flatnonzero(member >= 0)
    level = member[idx]
    n = table.n[idx]
    if key_dims is not None:
        # one code per (level, key labels), each below size**2
        cell = level
        for d in key_dims:
            labels, codes = table.column_codes(d)
            cell = np.unique(cell * len(labels) + codes[idx], return_inverse=True)[1]
        _, first, cell = np.unique(cell, return_index=True, return_inverse=True)
        bad = np.flatnonzero(n != n[first][cell])
        if bad.size:
            i = idx[bad[0]]
            key = tuple(table.keys[i][table.dim_index(d)] for d in key_dims)
            raise SchemaError(
                f"population differs within demographic cell {key}; "
                "population_key_dims does not identify cells"
            )
        level, n = level[first], n[first]
    # integer sums, exact: StrataTable refuses populations summing to 2**63
    # or more, so no int64 sum wraps; as float64 they stay exact below 2**53
    pops = np.zeros(n_levels, dtype=np.int64)
    np.add.at(pops, level, n)
    return pops.astype(np.float64)


def age_adjusted_rate(
    counts,
    table: StrataTable,
    std: StandardPopulation,
    selector: dict | None = None,
    *,
    age_dim: str = "age",
    population_key_dims: tuple[str, ...] | None = None,
    warn: bool = True,
) -> float | np.ndarray:
    """Standard-weighted average of age-specific rates, per 100,000.

    counts is one count vector (the rate comes back as a float) or a
    replicate matrix with one row per replicate (one rate per row comes
    back as an array). The selector's age groups and deduplicated
    populations are built once; the deaths of every row and kept age
    group then come from one float64 matrix product. For integer counts
    (whose sums stay below 2**53) that product is exact, so a row's rate
    is bit-for-bit the rate of that row passed alone. The weighted rates
    and weights are added left to right in std.weights order; before
    Python 3.12 that is also how sum() added them, from 3.12 on sum() of
    floats is compensated and may differ in the last bit.

    Age groups whose selected population is zero are dropped and the
    remaining weights renormalized (with a warning); a selector with no
    population at all has no rate.
    """
    counts = np.asarray(counts)
    if counts.ndim not in (1, 2) or counts.shape[-1] != table.size:
        raise DomainError("counts must have one entry per stratum")
    levels, member, pops = _age_groups(
        table, std, selector, age_dim, population_key_dims
    )
    kept = [k for k, pop in enumerate(pops) if pop > 0.0]
    dropped = [levels[k] for k, pop in enumerate(pops) if pop <= 0.0]
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
    groups = (member[:, None] == np.array(kept)).astype(np.float64)
    deaths = counts.astype(np.float64) @ groups
    # left to right over the kept levels in std.weights order on every
    # Python version (sum() of floats is compensated from 3.12 on)
    acc, weight_sum = 0.0, 0.0
    for col, k in enumerate(kept):
        w = std.weights[levels[k]]
        acc = acc + w * (deaths[..., col] / pops[k])
        weight_sum += w
    if weight_sum <= 0.0:
        raise UndefinedRateError("all populated age groups carry zero weight")
    rate = acc / weight_sum * RATE_SCALE
    return float(rate) if counts.ndim == 1 else rate


def disparity_ratio(
    counts,
    table: StrataTable,
    std: StandardPopulation,
    group_a: dict,
    group_b: dict,
    *,
    age_dim: str = "age",
    population_key_dims: tuple[str, ...] | None = None,
    warn: bool = True,
) -> DisparityEstimate:
    """Ratio of group A's age-adjusted rate to group B's.

    counts may be one vector or a replicate matrix (one row per
    replicate); with a matrix the estimate carries per-replicate ratios
    and their arithmetic mean.
    """
    counts = np.asarray(counts)
    opts = {
        "age_dim": age_dim, "population_key_dims": population_key_dims,
        "warn": warn,
    }
    rate_a = np.atleast_1d(age_adjusted_rate(counts, table, std, group_a, **opts))
    rate_b = np.atleast_1d(age_adjusted_rate(counts, table, std, group_b, **opts))
    zero = np.flatnonzero(rate_b <= 0.0)
    if zero.size:
        where = f" in replicate {zero[0]}" if counts.ndim > 1 else ""
        raise UndefinedRateError(
            f"denominator group {selector_label(group_b)} has zero rate{where}"
        )
    ratios = rate_a / rate_b
    mean = float(np.mean(ratios))
    return DisparityEstimate(
        numerator_group=selector_label(group_a),
        denominator_group=selector_label(group_b),
        ratio=mean if counts.ndim > 1 else float(ratios[0]),
        per_replicate=tuple(ratios.tolist()),
        mean_ratio=mean,
    )


def urban_rural_classify(
    table: StrataTable,
    densities: dict[str, float],
    threshold: float,
    *,
    geo_dim: str = "county",
) -> tuple[frozenset[str], frozenset[str]]:
    """Partition geography labels into (urban, rural) by density.

    A geography is urban when its density strictly exceeds the
    threshold, which must be finite. Every geography in the table needs
    a density.
    """
    if not np.isfinite(threshold):
        raise DomainError(f"the urban threshold must be finite, got {threshold}")
    labels = sorted(set(table.column(geo_dim)))
    missing = [g for g in labels if g not in densities]
    if missing:
        raise SchemaError(f"no density for geographies {missing}")
    urban = frozenset(g for g in labels if densities[g] > threshold)
    return urban, frozenset(g for g in labels if g not in urban)


def summarize_replicates(values) -> dict[str, float]:
    """Mean plus 2.5/97.5 percentile band across replicates."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise DomainError("no replicate values to summarize")
    return {
        "mean": float(arr.mean()),
        "p2.5": float(np.percentile(arr, 2.5)),
        "p97.5": float(np.percentile(arr, 97.5)),
    }


def read_density_csv(path) -> dict[str, float]:
    _, densities = read_floats(path, "density", ("geo",))
    return {geo: d for (geo,), d in densities.items()}


def write_density_csv(path, densities: dict[str, float], header_comment=None) -> None:
    write_csv(path, ["geo", "density"],
              ([geo, repr(float(densities[geo]))] for geo in sorted(densities)),
              header_comment)


def write_metrics_csv(path, rows, header_comment: str | None = None) -> None:
    """Tidy metric rows: metric, selector, epsilon, replicate, value."""
    write_csv(path, ["metric", "selector", "epsilon", "replicate", "value"],
              ([m, s, e, r, repr(float(v))] for m, s, e, r, v in rows),
              header_comment)
