"""Rate standardization, disparity, and classification helpers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgsynth.errors import DomainError, SchemaError, UndefinedRateError
from pgsynth.strata import StrataTable
from pgsynth.utility import (
    StandardPopulation,
    age_adjusted_rate,
    disparity_ratio,
    read_density_csv,
    selector_label,
    selector_mask,
    summarize_replicates,
    urban_rural_classify,
    write_density_csv,
    write_metrics_csv,
)

from _oracles import age_adjusted_rate_loop


STD = StandardPopulation(weights={"young": 0.6, "old": 0.4})


def toy_table(n=(1000, 1000, 1000, 1000), y=(10, 20, 10, 20)):
    # both races have flat age profiles, so the age-adjusted rates are
    # easy to verify by hand: 1000 per 100k for w, 2000 for b
    return StrataTable(
        dim_names=("age", "race"),
        keys=(
            ("young", "w"), ("young", "b"),
            ("old", "w"), ("old", "b"),
        ),
        n=np.array(n),
        y=np.array(y),
    )


def sited_table():
    # same people as toy_table, repeated over three sites with the
    # deaths split; population repeats along site and must be deduped
    keys = []
    n = []
    y = []
    splits = {
        ("young", "w"): (4, 3, 3), ("young", "b"): (8, 6, 6),
        ("old", "w"): (2, 4, 4), ("old", "b"): (10, 5, 5),
    }
    for (age, race), parts in splits.items():
        for s, deaths in zip(("s1", "s2", "s3"), parts):
            keys.append((age, race, s))
            n.append(1000)
            y.append(deaths)
    return StrataTable(
        dim_names=("age", "race", "site"),
        keys=tuple(keys), n=np.array(n), y=np.array(y),
    )


class TestStandardPopulation:
    def test_validation(self):
        with pytest.raises(SchemaError):
            StandardPopulation(weights={})
        with pytest.raises(SchemaError):
            StandardPopulation(weights={"young": 0.7, "old": 0.4})
        with pytest.raises(SchemaError):
            StandardPopulation(weights={"young": -0.2, "old": 1.2})

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "std.csv"
        STD.to_csv(path, header_comment="standard weights")
        back = StandardPopulation.from_csv(path)
        assert back.weights == STD.weights

    def test_csv_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("age,weight\nyoung,1.0\n")
        with pytest.raises(SchemaError):
            StandardPopulation.from_csv(bad)


class TestSelectors:
    def test_mask_and_label(self):
        table = toy_table()
        assert selector_mask(table, None).sum() == 4
        assert selector_mask(table, {"race": "w"}).sum() == 2
        assert selector_mask(table, {"race": ("w", "b"), "age": "old"}).sum() == 2
        assert selector_label(None) == "all"
        assert selector_label({}) == "all"
        assert selector_label({"race": "w", "age": ("old", "young")}) == \
            "age=old|young&race=w"


class TestAgeAdjustedRate:
    def test_hand_computed_values(self):
        table = toy_table()
        assert age_adjusted_rate(table.y, table, STD, {"race": "w"}) == \
            pytest.approx(1000.0)
        assert age_adjusted_rate(table.y, table, STD, {"race": "b"}) == \
            pytest.approx(2000.0)
        # flat profiles make the overall rate the population-weighted mix
        assert age_adjusted_rate(table.y, table, STD, None) == \
            pytest.approx(1500.0)

    def test_weights_matter(self):
        # age-varying profile: young rate 1000, old rate 3000 per 100k
        table = toy_table(y=(10, 20, 30, 20))
        got = age_adjusted_rate(table.y, table, STD, {"race": "w"})
        assert got == pytest.approx(0.6 * 1000 + 0.4 * 3000)

    def test_dedup_population_across_sites(self):
        table = sited_table()
        plain = age_adjusted_rate(table.y, table, STD, {"race": "w"})
        deduped = age_adjusted_rate(
            table.y, table, STD, {"race": "w"},
            population_key_dims=("age", "race"),
        )
        assert plain == pytest.approx(1000.0 / 3.0)
        assert deduped == pytest.approx(1000.0)

    def test_inconsistent_population_within_cell(self):
        table = sited_table()
        n = table.n.copy()
        n[0] = 999
        broken = StrataTable(
            dim_names=table.dim_names, keys=table.keys, n=n, y=table.y
        )
        with pytest.raises(SchemaError, match="population differs"):
            age_adjusted_rate(
                broken.y, broken, STD, {"race": "w"},
                population_key_dims=("age", "race"),
            )

    def test_zero_population_age_group_dropped(self):
        table = toy_table(n=(1000, 1000, 0, 1000), y=(10, 20, 0, 20))
        with pytest.warns(UserWarning, match="zero-population"):
            got = age_adjusted_rate(table.y, table, STD, {"race": "w"})
        # old dropped, young weight renormalized to 1
        assert got == pytest.approx(1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            age_adjusted_rate(table.y, table, STD, {"race": "w"}, warn=False)

    def test_undefined_rates(self):
        table = toy_table()
        with pytest.raises(UndefinedRateError):
            age_adjusted_rate(table.y, table, STD, {"race": "missing"})
        empty = toy_table(n=(0, 1000, 0, 1000))
        with pytest.raises(UndefinedRateError):
            age_adjusted_rate(empty.y, empty, STD, {"race": "w"})

    def test_missing_standard_weight(self):
        table = toy_table()
        partial = StandardPopulation(weights={"young": 1.0})
        with pytest.raises(SchemaError, match="no standard population weight"):
            age_adjusted_rate(table.y, table, partial, None)

    def test_wrong_length(self):
        table = toy_table()
        with pytest.raises(DomainError):
            age_adjusted_rate([1, 2], table, STD, None)
        with pytest.raises(DomainError):
            age_adjusted_rate(np.ones((2, 3)), table, STD, None)

    def test_inconsistent_population_outside_selector(self):
        # the broken cell is (young, w); selecting race b never looks at it
        table = sited_table()
        n = table.n.copy()
        n[0] = 999
        broken = StrataTable(
            dim_names=table.dim_names, keys=table.keys, n=n, y=table.y
        )
        got = age_adjusted_rate(
            broken.y, broken, STD, {"race": "b"},
            population_key_dims=("age", "race"),
        )
        assert got == age_adjusted_rate(
            table.y, table, STD, {"race": "b"},
            population_key_dims=("age", "race"),
        )


AGES = ("a0", "a1", "a2", "a3")
RACES = ("r0", "r1", "r2")


@st.composite
def rate_cases(draw):
    """A table whose (age, race) cells repeat along site, counts and a std.

    Populations may be zero, so whole age groups can drop out of a
    selector; strata come in a shuffled order and std may weight age
    groups the table lacks.
    """
    n_age = draw(st.integers(1, len(AGES)))
    n_race = draw(st.integers(1, len(RACES)))
    n_site = draw(st.integers(1, 3))
    keys, n = [], []
    for age in AGES[:n_age]:
        for race in RACES[:n_race]:
            pop = draw(st.one_of(st.just(0), st.integers(1, 10**6)))
            for site in range(n_site):
                keys.append((age, race, f"s{site}"))
                n.append(pop)
    if len(keys) < 2:
        keys.append(("a0", "r9", "s0"))
        n.append(draw(st.integers(0, 100)))
    order = draw(st.permutations(range(len(keys))))
    rows = draw(st.integers(1, 4))
    counts = draw(st.lists(
        st.lists(st.integers(0, 10**6), min_size=len(keys), max_size=len(keys)),
        min_size=rows, max_size=rows,
    ))
    table = StrataTable(
        dim_names=("age", "race", "site"),
        keys=tuple(keys[i] for i in order),
        n=np.array([n[i] for i in order]),
        y=np.array(counts[0])[list(order)],
    )
    std_levels = draw(st.permutations(list(AGES[:n_age]) + ["a9"]))
    raw = draw(st.lists(
        st.integers(0, 9), min_size=len(std_levels), max_size=len(std_levels)
    ).filter(any))
    std = StandardPopulation(
        weights={lv: w / sum(raw) for lv, w in zip(std_levels, raw)}
    )
    return table, np.array(counts)[:, list(order)], std


SELECTORS = st.one_of(
    st.none(),
    st.sampled_from(RACES + ("r9",)).map(lambda r: {"race": r}),
    st.sets(st.sampled_from(RACES), min_size=1).map(lambda s: {"race": s}),
    st.tuples(st.sampled_from(AGES), st.sampled_from(RACES)).map(
        lambda ar: {"age": {ar[0], "a1"}, "race": ar[1]}
    ),
)
KEY_DIMS = st.sampled_from([None, ("age", "race"), ("race", "age")])


def outcome(fn):
    """fn's value and warning messages, or its error's type."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn()
        except (SchemaError, UndefinedRateError) as exc:
            return type(exc), []
    return value, [str(w.message) for w in caught]


class TestMatchesPerVectorLoop:
    @settings(max_examples=200, deadline=None)
    @given(case=rate_cases(), selector=SELECTORS, key_dims=KEY_DIMS)
    def test_rates_equal_loop_exactly(self, case, selector, key_dims):
        table, matrix, std = case
        kw = {"population_key_dims": key_dims}
        want = [
            outcome(lambda: age_adjusted_rate_loop(row, table, std, selector, **kw))
            for row in matrix
        ]
        got, got_warned = outcome(
            lambda: age_adjusted_rate(matrix, table, std, selector, **kw)
        )
        if isinstance(want[0][0], type):
            assert got is want[0][0]
        else:
            assert got.shape == (len(matrix),)
            assert got.tolist() == [value for value, _ in want]
            assert got_warned == want[0][1]
        for row, expected in zip(matrix, want):
            single = outcome(lambda: age_adjusted_rate(row, table, std, selector, **kw))
            assert single == expected
            if not isinstance(single[0], type):
                assert type(single[0]) is float

    @settings(max_examples=100, deadline=None)
    @given(case=rate_cases(), key_dims=KEY_DIMS,
           groups=st.permutations(RACES).map(lambda r: r[:2]))
    def test_disparity_rows_equal_single_vectors(self, case, key_dims, groups):
        table, matrix, std = case
        sel_a, sel_b = {"race": groups[0]}, {"race": groups[1]}
        kw = {"population_key_dims": key_dims, "warn": False}
        singles = [
            outcome(lambda: disparity_ratio(row, table, std, sel_a, sel_b, **kw))[0]
            for row in matrix
        ]
        est = outcome(lambda: disparity_ratio(matrix, table, std, sel_a, sel_b, **kw))[0]
        failed = [s for s in singles if isinstance(s, type)]
        if failed:
            assert est is failed[0]
            return
        assert len(est.per_replicate) == len(matrix)
        for r, single in enumerate(singles):
            assert est.per_replicate[r] == single.ratio
            assert single.ratio == (
                age_adjusted_rate_loop(matrix[r], table, std, sel_a, **kw)
                / age_adjusted_rate_loop(matrix[r], table, std, sel_b, **kw)
            )


class TestDisparityRatio:
    def test_single_vector(self):
        table = toy_table()
        est = disparity_ratio(
            table.y, table, STD, {"race": "b"}, {"race": "w"}
        )
        assert est.ratio == pytest.approx(2.0)
        assert est.mean_ratio == pytest.approx(2.0)
        assert est.per_replicate == (pytest.approx(2.0),)
        assert est.numerator_group == "race=b"
        assert est.denominator_group == "race=w"

    def test_replicate_matrix(self):
        table = toy_table()
        matrix = np.array([
            [10, 20, 10, 20],   # ratio 2.0
            [10, 40, 10, 40],   # ratio 4.0
        ])
        est = disparity_ratio(matrix, table, STD, {"race": "b"}, {"race": "w"})
        assert est.per_replicate == (pytest.approx(2.0), pytest.approx(4.0))
        assert est.mean_ratio == pytest.approx(3.0)
        assert est.ratio == est.mean_ratio

    def test_zero_denominator(self):
        table = toy_table(y=(0, 20, 0, 20))
        with pytest.raises(UndefinedRateError):
            disparity_ratio(table.y, table, STD, {"race": "b"}, {"race": "w"})

    def test_zero_denominator_names_replicate(self):
        table = toy_table()
        matrix = np.array([
            [10, 20, 10, 20],
            [10, 0, 10, 0],     # group b has no deaths
        ])
        with pytest.raises(UndefinedRateError, match=r"race=b .* replicate 1\b"):
            disparity_ratio(matrix, table, STD, {"race": "w"}, {"race": "b"})


class TestUrbanRural:
    def test_partition_and_strictness(self):
        table = StrataTable(
            dim_names=("county", "age"),
            keys=(("c1", "young"), ("c2", "young"), ("c3", "young")),
            n=np.array([10, 10, 10]),
            y=np.array([0, 0, 0]),
        )
        dens = {"c1": 300.0, "c2": 280.0, "c3": 100.0}
        urban, rural = urban_rural_classify(table, dens, 280.0)
        assert urban == frozenset({"c1"})  # strictly above only
        assert rural == frozenset({"c2", "c3"})
        with pytest.raises(SchemaError, match="no density"):
            urban_rural_classify(table, {"c1": 300.0}, 280.0)


class TestSummaries:
    def test_summarize_replicates(self):
        out = summarize_replicates([1.0, 2.0, 3.0, 4.0])
        assert out["mean"] == pytest.approx(2.5)
        assert 1.0 <= out["p2.5"] <= out["p97.5"] <= 4.0
        with pytest.raises(DomainError):
            summarize_replicates([])


class TestCsvHelpers:
    def test_density_roundtrip(self, tmp_path):
        path = tmp_path / "dens.csv"
        write_density_csv(path, {"c1": 300.5, "c2": 12.25}, "densities")
        assert read_density_csv(path) == {"c1": 300.5, "c2": 12.25}

    def test_density_schema_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("geo,density\nc1,fast\n")
        with pytest.raises(SchemaError):
            read_density_csv(path)
        path.write_text("county,pop\nc1,3\n")
        with pytest.raises(SchemaError):
            read_density_csv(path)

    def test_metrics_writer(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(
            path,
            [("disparity", "all", 1.0, "truth", 1.5),
             ("disparity", "all", 1.0, 0, 1.25)],
            header_comment="config_hash=xy",
        )
        text = path.read_text()
        assert text.startswith("# config_hash=xy\n")
        assert "metric,selector,epsilon,replicate,value" in text
        assert "disparity,all,1.0,truth,1.5" in text
