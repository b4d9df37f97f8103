"""Seeded synthetic mortality-style test instances.

Builds a state-scale strata table crossing county, age, cancer site,
race, and sex, with populations shared across sites (a death can fall
under any site, so the person-cell population repeats along that
dimension) and raw rates keyed by age and site only. Because the rates
ignore county, race, and sex, the prior implies no disparity between
demographic groups; the true counts are then allocated with explicit
urban and race multipliers, so utility summaries can be checked against
known injected effects.

All randomness flows through one generator seeded from the spec, so a
spec value pins every artifact bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError
from .strata import RatesTable, StrataTable
from .utility import StandardPopulation, write_density_csv

__all__ = [
    "FixtureSpec",
    "Fixture",
    "POPULATION_KEY_DIMS",
    "generate_fixture",
    "write_fixture_files",
    "demo_table",
    "demo_rates",
]

DIM_NAMES = ("county", "age", "site", "race", "sex")

# Dimensions that identify one person-cell; population repeats across the
# remaining (site) dimension and must be deduplicated in rate denominators.
POPULATION_KEY_DIMS = ("county", "age", "race", "sex")

DEFAULT_DIMS = (("county", 67), ("age", 13), ("site", 9), ("race", 3), ("sex", 2))


@dataclass(frozen=True)
class FixtureSpec:
    """Knobs for one generated instance.

    dims fixes the level count per dimension (names must be exactly
    county, age, site, race, sex, in that order; any counts >= 1).
    total_deaths is allocated exactly. urban_count counties receive
    densities above density_threshold and the urban_multiplier; strata
    whose group_dim label equals group_level receive group_multiplier.
    """

    dims: tuple[tuple[str, int], ...] = DEFAULT_DIMS
    total_deaths: int = 26116
    state_population: int = 11_000_000
    seed: int = 0
    urban_count: int = 19
    density_threshold: float = 280.0
    urban_multiplier: float = 1.15
    group_dim: str = "race"
    group_level: str = "black"
    group_multiplier: float = 1.45
    rate_profile: dict[tuple[str, str], float] | None = field(default=None)

    def __post_init__(self):
        names = tuple(name for name, _ in self.dims)
        if names != DIM_NAMES:
            raise DomainError(f"fixture dimensions must be {DIM_NAMES}, got {names}")
        for name, count in self.dims:
            if int(count) < 1:
                raise DomainError(f"dimension {name!r} needs at least one level")
        for name in ("total_deaths", "seed"):
            if not 0 <= getattr(self, name) < 2**63:
                raise DomainError(f"{name} must be nonnegative and below 2^63")
        if self.state_population < 1:
            raise DomainError("state_population must be positive")
        counts = dict(self.dims)
        if not 0 <= self.urban_count <= counts["county"]:
            raise DomainError("urban_count must lie between 0 and the county count")
        for name in ("density_threshold", "urban_multiplier", "group_multiplier"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and positive")
        if self.group_dim not in names:
            raise DomainError(f"unknown group dimension {self.group_dim!r}")
        if self.group_level not in _levels(self.group_dim, counts[self.group_dim]):
            raise DomainError(
                f"{self.group_dim!r} has no level {self.group_level!r}"
            )


@dataclass(frozen=True)
class Fixture:
    """One generated instance plus its evaluation side inputs."""

    table: StrataTable
    rates: RatesTable
    densities: dict[str, float]
    standard: StandardPopulation


def _levels(name: str, count: int) -> tuple[str, ...]:
    if name == "race" and count == 3:
        return ("white", "black", "other")
    if name == "sex" and count == 2:
        return ("male", "female")
    width = len(str(count))
    return tuple(f"{name[0]}{j + 1:0{width}d}" for j in range(count))


def _bell_weights(count: int, peak: float, spread: float) -> np.ndarray:
    u = np.linspace(0.0, 1.0, count) if count > 1 else np.array([peak])
    w = np.exp(-((u - peak) ** 2) / (2.0 * spread**2)) + 0.15
    return w / w.sum()


def _race_weights(count: int) -> np.ndarray:
    if count == 3:
        return np.array([0.88, 0.09, 0.03])
    w = np.exp(-1.2 * np.arange(count))
    return w / w.sum()


def _sex_weights(count: int) -> np.ndarray:
    if count == 2:
        return np.array([0.494, 0.506])
    return np.full(count, 1.0 / count)


def _age_rate_curve(count: int) -> np.ndarray:
    # steep rise with age, roughly three decades between youngest and oldest
    u = np.linspace(0.0, 1.0, count) if count > 1 else np.array([1.0])
    return np.exp(6.0 * u - 3.0)


def _site_shares(count: int) -> np.ndarray:
    w = np.exp(-0.35 * np.arange(count))
    return w / w.sum()


def _scaled_densities(
    raw: np.ndarray, urban_count: int, threshold: float
) -> np.ndarray:
    """Rescale raw densities so exactly urban_count strictly exceed threshold."""
    order = np.argsort(-raw)
    if urban_count == 0:
        return raw * (threshold / (2.0 * raw[order[0]]))
    if urban_count == raw.size:
        return raw * (2.0 * threshold / raw[order[-1]])
    hi = raw[order[urban_count - 1]]
    lo = raw[order[urban_count]]
    if not hi > lo:
        raise DomainError("density tie at the urban cutoff; change the seed")
    return raw * (threshold / math.sqrt(hi * lo))


def generate_fixture(spec: FixtureSpec) -> Fixture:
    """Deterministically realize a spec.

    County populations are lognormal and scaled to the state total; cell
    populations follow product-form age/race/sex margins (so urban mix is
    identical across races and the injected multipliers survive
    age adjustment exactly in expectation). Deaths are one multinomial
    draw over strata with weight population x rate x multipliers, so the
    realized total always matches total_deaths.
    """
    rng = np.random.default_rng(spec.seed)
    counts = dict(spec.dims)
    levels = {name: _levels(name, counts[name]) for name in DIM_NAMES}

    county_raw = rng.lognormal(mean=0.0, sigma=1.1, size=counts["county"])
    county_pop = county_raw / county_raw.sum() * spec.state_population
    age_w = _bell_weights(counts["age"], peak=0.3, spread=0.22)
    race_w = _race_weights(counts["race"])
    sex_w = _sex_weights(counts["sex"])

    density_raw = county_pop**0.7 * rng.lognormal(mean=0.0, sigma=0.35,
                                                  size=counts["county"])
    density = _scaled_densities(density_raw, spec.urban_count,
                                spec.density_threshold)
    densities = {
        levels["county"][c]: float(density[c]) for c in range(counts["county"])
    }
    urban = frozenset(
        g for g, d in densities.items() if d > spec.density_threshold
    )

    if spec.rate_profile is not None:
        profile = dict(spec.rate_profile)
        for a in levels["age"]:
            for s in levels["site"]:
                if (a, s) not in profile:
                    raise DomainError(f"rate_profile is missing ({a!r}, {s!r})")
                if not profile[(a, s)] > 0.0:
                    raise DomainError(f"rate_profile[{(a, s)}] must be positive")
        raw_rate = {
            (a, s): float(profile[(a, s)])
            for a in levels["age"]
            for s in levels["site"]
        }
    else:
        curve = _age_rate_curve(counts["age"])
        shares = _site_shares(counts["site"])
        raw_rate = {
            (a_label, s_label): float(curve[a] * shares[s])
            for a, a_label in enumerate(levels["age"])
            for s, s_label in enumerate(levels["site"])
        }

    # the strata form the grid of every level of DIM_NAMES, in that order;
    # populations are rounded half to even (np.rint), and at least 1
    c, a, s, r, x = np.indices(tuple(counts[name] for name in DIM_NAMES))
    keys = tuple(itertools.product(*(levels[name] for name in DIM_NAMES)))
    cell = county_pop[c] * age_w[a] * race_w[r] * sex_w[x]
    n_arr = np.maximum(np.rint(cell), 1.0).astype(np.int64).ravel()
    rate_grid = np.array([[raw_rate[(al, sl)] for sl in levels["site"]]
                          for al in levels["age"]])
    rate_arr = rate_grid[a, s].ravel()
    urb = np.array([spec.urban_multiplier if g in urban else 1.0
                    for g in levels["county"]])
    group = (c, a, s, r, x)[DIM_NAMES.index(spec.group_dim)]
    in_group = group == levels[spec.group_dim].index(spec.group_level)
    mult = urb[c] * np.where(in_group, spec.group_multiplier, 1.0)
    weight = n_arr * rate_arr * mult.ravel()

    if spec.rate_profile is None:
        # pin the prior scale: sum(n * rate) equals the death total
        scale = max(spec.total_deaths, 1) / float((n_arr * rate_arr).sum())
        raw_rate = {k: v * scale for k, v in raw_rate.items()}

    if spec.total_deaths > 0:
        y = rng.multinomial(spec.total_deaths, weight / weight.sum())
    else:
        y = np.zeros(len(keys), dtype=np.int64)

    table = StrataTable(
        dim_names=DIM_NAMES, keys=keys, n=n_arr, y=np.asarray(y, np.int64)
    )
    rates = RatesTable(dim_names=("age", "site"), rates=raw_rate)
    age_count = counts["age"]
    standard = StandardPopulation(
        {label: 1.0 / age_count for label in levels["age"]}
    )
    return Fixture(table=table, rates=rates, densities=densities, standard=standard)


def write_fixture_files(fixture: Fixture, out_dir, header_comment=None) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "strata": out / "strata.csv",
        "rates": out / "rates.csv",
        "densities": out / "densities.csv",
        "standard": out / "standard.csv",
    }
    fixture.table.to_csv(paths["strata"], header_comment=header_comment)
    fixture.rates.to_csv(paths["rates"], header_comment=header_comment)
    write_density_csv(paths["densities"], fixture.densities,
                      header_comment=header_comment)
    fixture.standard.to_csv(paths["standard"], header_comment=header_comment)
    return paths


def demo_table() -> StrataTable:
    """Two-stratum walkthrough instance: 10 of 100 deaths in group a."""
    return StrataTable(
        dim_names=("group",),
        keys=(("a",), ("b",)),
        n=np.array([1000, 5000]),
        y=np.array([10, 90]),
    )


def demo_rates() -> RatesTable:
    """Reference rates whose implied expectations already sum to 100."""
    return RatesTable(dim_names=("group",), rates={("a",): 0.015, ("b",): 0.017})
