"""Generated instance: determinism, margins, injected signal recovery."""

import hashlib

import numpy as np
import pytest

from pgsynth.errors import DomainError, SchemaError
from pgsynth.fixtures import (
    DEFAULT_DIMS,
    POPULATION_KEY_DIMS,
    FixtureSpec,
    demo_rates,
    demo_table,
    generate_fixture,
    write_fixture_files,
)
from pgsynth.strata import RatesTable, StrataTable, build_prior
from pgsynth.utility import (
    StandardPopulation,
    disparity_ratio,
    read_density_csv,
    urban_rural_classify,
)

from _oracles import stratum_rates_loop

SMALL_DIMS = (("county", 12), ("age", 5), ("site", 2), ("race", 3), ("sex", 2))


def small_spec(**overrides):
    base = dict(
        dims=SMALL_DIMS, total_deaths=26116, state_population=2_000_000,
        seed=0, urban_count=3,
    )
    base.update(overrides)
    return FixtureSpec(**base)


def mean_allocation(fix, spec):
    """Expected deaths per stratum under the multinomial the generator used."""
    table = fix.table
    urban = {g for g, d in fix.densities.items() if d > spec.density_threshold}
    w = np.empty(table.size)
    for i, key in enumerate(table.keys):
        county, age, site, race, _sex = key
        mult = (spec.urban_multiplier if county in urban else 1.0) * (
            spec.group_multiplier if race == spec.group_level else 1.0
        )
        w[i] = table.n[i] * fix.rates.rates[(age, site)] * mult
    return spec.total_deaths * w / w.sum()


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = generate_fixture(small_spec())
        b = generate_fixture(small_spec())
        assert np.array_equal(a.table.y, b.table.y)
        assert np.array_equal(a.table.n, b.table.n)
        assert a.table.keys == b.table.keys
        assert a.densities == b.densities
        assert a.rates.rates == b.rates.rates

    def test_seed_changes_draw(self):
        a = generate_fixture(small_spec())
        b = generate_fixture(small_spec(seed=1))
        assert not np.array_equal(a.table.y, b.table.y)

    @pytest.mark.parametrize("spec, digest", [
        (FixtureSpec(),
         "827306652d221ee287f16e33c686e98ef65bb80f27f4e664d73b3abbca661f3c"),
        (small_spec(),
         "bfbc8d9f17fcd0669125a5893be5e1554e35e2f16fb45fe95d5bd4a096a106f2"),
        (small_spec(total_deaths=0),
         "83dbe122f32709b0391c47491e98be2b13d2894847dddb6b3a1b3468de9960da"),
        (small_spec(group_dim="sex", group_level="female"),
         "a9515180cf507cc4034afc1e75d25630057a65f8538edcaa425e7148a324a555"),
    ], ids=["published", "small", "no-deaths", "group-sex"])
    def test_files_are_pinned(self, tmp_path, spec, digest):
        # sha256 of the four files: every population's rounding, every
        # weight's product order and the draw are fixed by the spec
        paths = write_fixture_files(generate_fixture(spec), tmp_path)
        h = hashlib.sha256()
        for name in ("strata", "rates", "densities", "standard"):
            h.update(paths[name].read_bytes())
        assert h.hexdigest() == digest


class TestDefaultScale:
    def test_published_table_shape(self):
        fix = generate_fixture(FixtureSpec())
        assert fix.table.size == 67 * 13 * 9 * 3 * 2
        assert fix.table.y_total == 26116
        assert fix.table.dim_names == ("county", "age", "site", "race", "sex")
        assert len(fix.standard.weights) == 13
        urban, rural = urban_rural_classify(
            fix.table, fix.densities, FixtureSpec().density_threshold
        )
        assert len(urban) == 19
        assert len(urban) + len(rural) == 67

    def test_rates_prescaled_to_expected_total(self):
        fix = generate_fixture(FixtureSpec())
        # the raw rates already give the total, so build_prior leaves them
        raw = stratum_rates_loop(fix.table, fix.rates)
        assert float(np.dot(fix.table.n, raw)) == pytest.approx(26116.0, rel=1e-9)
        prior = build_prior(fix.table, fix.rates)
        expected = prior.expected_counts(fix.table)
        assert expected.sum() == pytest.approx(26116.0, rel=1e-9)


class TestInjectedSignal:
    def test_prior_is_race_blind(self):
        # rates key on (age, site) only and populations are product-form,
        # so the prior-implied disparity is exactly one
        fix = generate_fixture(small_spec())
        prior = build_prior(fix.table, fix.rates)
        expected = prior.expected_counts(fix.table)
        est = disparity_ratio(
            expected, fix.table, fix.standard,
            {"race": "black"}, {"race": "white"},
            population_key_dims=POPULATION_KEY_DIMS,
        )
        assert est.ratio == pytest.approx(1.0, rel=1e-12)

    def test_mean_allocation_carries_multipliers(self):
        spec = small_spec()
        fix = generate_fixture(spec)
        mean = mean_allocation(fix, spec)
        race = disparity_ratio(
            mean, fix.table, fix.standard,
            {"race": "black"}, {"race": "white"},
            population_key_dims=POPULATION_KEY_DIMS,
        )
        # exact up to integer rounding of cell populations
        assert race.ratio == pytest.approx(1.45, abs=1e-3)
        urban = {g for g, d in fix.densities.items()
                 if d > spec.density_threshold}
        place = disparity_ratio(
            mean, fix.table, fix.standard,
            {"county": sorted(urban)},
            {"county": sorted(set(fix.densities) - urban)},
            population_key_dims=POPULATION_KEY_DIMS,
        )
        assert place.ratio == pytest.approx(1.15, abs=1e-3)

    def test_large_draw_recovers_disparity(self):
        spec = FixtureSpec(
            dims=(("county", 12), ("age", 5), ("site", 1),
                  ("race", 3), ("sex", 2)),
            total_deaths=500_000, state_population=2_000_000,
            seed=3, urban_count=3,
        )
        fix = generate_fixture(spec)
        est = disparity_ratio(
            fix.table.y, fix.table, fix.standard,
            {"race": "black"}, {"race": "white"},
            population_key_dims=POPULATION_KEY_DIMS,
        )
        assert est.ratio == pytest.approx(1.45, abs=0.02)


class TestEdgeCases:
    def test_zero_deaths(self):
        fix = generate_fixture(small_spec(total_deaths=0))
        assert fix.table.y_total == 0
        assert np.all(fix.table.y == 0)
        assert np.all(fix.table.n >= 1)


class TestSpecValidation:
    def test_dimension_names_fixed(self):
        with pytest.raises(DomainError, match="dimensions must be"):
            FixtureSpec(dims=(("state", 2), ("age", 2), ("site", 1),
                              ("race", 3), ("sex", 2)))

    def test_urban_count_range(self):
        with pytest.raises(DomainError, match="urban_count"):
            small_spec(urban_count=13)

    def test_unknown_group_level(self):
        with pytest.raises(DomainError, match="no level"):
            small_spec(group_level="martian")

    def test_nonpositive_multiplier(self):
        with pytest.raises(DomainError, match="positive"):
            small_spec(group_multiplier=0.0)


class TestFiles:
    def test_roundtrip(self, tmp_path):
        fix = generate_fixture(small_spec())
        paths = write_fixture_files(fix, tmp_path, header_comment="seed=0")
        table = StrataTable.from_csv(paths["strata"])
        assert np.array_equal(table.y, fix.table.y)
        assert np.array_equal(table.n, fix.table.n)
        assert table.keys == fix.table.keys
        rates = RatesTable.from_csv(paths["rates"])
        assert rates.rates == fix.rates.rates
        assert read_density_csv(paths["densities"]) == fix.densities
        std = StandardPopulation.from_csv(paths["standard"])
        assert std.weights == fix.standard.weights


class TestDemoInstance:
    def test_walkthrough_numbers(self):
        table = demo_table()
        assert table.n.tolist() == [1000, 5000]
        assert table.y.tolist() == [10, 90]
        rates = demo_rates()
        expected = [rates.rates[("a",)] * 1000, rates.rates[("b",)] * 5000]
        assert expected == [15.0, 85.0]
