"""Strata tables, rates, priors, and truncation boxes."""

import hashlib
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pgsynth.strata as strata
from pgsynth.errors import (
    DegeneratePriorError,
    DomainError,
    InfeasibilityError,
    SchemaError,
)
from pgsynth.strata import (
    PriorSpec,
    RatesTable,
    StrataTable,
    build_prior,
    check_dominance,
    compute_bounds,
    joint_feasible_bounds,
)
from pgsynth.fixtures import (
    FixtureSpec,
    demo_rates,
    demo_table,
    generate_fixture,
    write_fixture_files,
)
from pgsynth.synthesizer import read_replicates_csv
from pgsynth.utility import StandardPopulation, read_density_csv, write_density_csv

from _oracles import build_prior_loop, poisson_quantile_direct


def small_table():
    return StrataTable(
        dim_names=("county", "age"),
        keys=(("c1", "a1"), ("c1", "a2"), ("c2", "a1")),
        n=np.array([100, 200, 50]),
        y=np.array([3, 5, 1]),
    )


class TestStrataTable:
    def test_basic_invariants(self):
        t = small_table()
        assert t.size == 3
        assert t.y_total == 9
        assert t.dim_index("age") == 1
        assert t.column("county") == ("c1", "c1", "c2")

    def test_rejects_single_stratum(self):
        with pytest.raises(DomainError):
            StrataTable(dim_names=("g",), keys=(("a",),), n=np.array([5]),
                        y=np.array([1]))

    def test_rejects_duplicate_keys(self):
        with pytest.raises(SchemaError):
            StrataTable(
                dim_names=("g",), keys=(("a",), ("a",)),
                n=np.array([5, 5]), y=np.array([1, 1]),
            )

    def test_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            StrataTable(
                dim_names=("g",), keys=(("a",), ("b",)),
                n=np.array([5, 5]), y=np.array([1, -1]),
            )

    @pytest.mark.parametrize("name", ["populations", "counts"])
    def test_rejects_sums_of_2_63_or_more(self, name):
        # each value is below 2^63, but an int64 sum would wrap
        big = np.array([2**62, 2**62])
        small = np.array([5, 5])
        n, y = (big, small) if name == "populations" else (small, big)
        with pytest.raises(DomainError, match=f"{name} sum to {2**63}, "):
            StrataTable(dim_names=("g",), keys=(("a",), ("b",)), n=n, y=y)
        # just below the limit is a table
        top = np.array([2**62, 2**62 - 1])
        n, y = (top, small) if name == "populations" else (small, top)
        table = StrataTable(dim_names=("g",), keys=(("a",), ("b",)), n=n, y=y)
        assert table.y_total == int(y.sum()) > 0

    def test_arrays_frozen(self):
        t = small_table()
        with pytest.raises(ValueError):
            t.y[0] = 99

    def test_csv_roundtrip(self, tmp_path):
        t = small_table()
        path = tmp_path / "s.csv"
        t.to_csv(path, header_comment="roundtrip")
        back = StrataTable.from_csv(path)
        assert back.dim_names == t.dim_names
        assert back.keys == t.keys
        assert np.array_equal(back.n, t.n) and np.array_equal(back.y, t.y)

    def test_csv_schema_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("county,age,population,count\nc1,a1,10,notanint\n")
        with pytest.raises(SchemaError, match=r"bad\.csv:2"):
            StrataTable.from_csv(path)

    def test_csv_requires_population_count_tail(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("county,age,pop,count\nc1,a1,10,1\n")
        with pytest.raises(SchemaError, match="population,count"):
            StrataTable.from_csv(path)


HEAD = "county,age,population,count\n"
# Strata files the column reader takes (the first two) or leaves to the row
# loop, which must then read the same table or raise the same error.
STRATA_FILES = [
    "county,age,population,count\r\nc1,a1,10,1\r\nc1,a2,20,2\r\n",
    "# provenance\n\ncounty , age,population, count\n c1 ,a1, 10 ,1\n\n"
    "#c3,a1,1,1\nc1,a2,20,\u20092\n",
    HEAD + '"c,1",a1,10,1\nc1,a2,20,2\n',
    HEAD + "c1,a1,10,notanint\nc1,a2,20,2\n",
    HEAD + "c1,a1,10,1\nc1,a2,-20,2\n",
    HEAD + "c1,a1,10,1,9\nc1,a2,20,2\n",
    HEAD + "c1,a1,10,1\nc1,a1,20,2\n",
    HEAD + "c1,a1,1_0,+1\nc1,a2,20,2\n",
    HEAD + "c1,a1,99999999999999999999,1\nc1,a2,20,2\n",
    HEAD + "c1,a1,10,1\n",
    HEAD,
    "",
    "county,age,pop,count\nc1,a1,10,1\nc1,a2,20,2\n",
    "population,count\n10,1\n20,2\n",
    "county,age,population,count\rc1,a1,10,1\rc1,a2,20,2\r",
    HEAD + "c1,a1,10,1\nc1,a2\0,20,2\n",
]


# fields that strip to equal text, non-ASCII and empty labels, one longer
# than a word; counts the byte parser takes and ones only the row loop
# takes or refuses, one holding a CR that csv.reader ends a record at
LABELS = ("a", " a", "a ", "\u2009a", "b", "é", "", "ten bytes!", "c1")
COUNTS = ("0", "7", "007", " 12 ", "\u20093", "+3", "1_0", "\u0663", "-1", "", "\r5",
          "x", "999999999999999999", "9223372036854775807", "9223372036854775808")


@st.composite
def strata_texts(draw):
    """A strata CSV: a header, rows with a unique first label, comments and
    blank lines anywhere, LF, CRLF or a bare CR per line and perhaps no
    final line end."""
    k = draw(st.integers(1, 3))
    header = [f" d{j}" if draw(st.booleans()) else f"d{j}" for j in range(k)]
    lines = [",".join([*header, "population", " count"])]
    for i in range(draw(st.integers(0, 6))):
        labels = [f"r{i}", *(draw(st.sampled_from(LABELS)) for _ in range(k - 1))]
        # mostly counts the byte parser takes, so it reads a good share
        counts = [draw(st.sampled_from(COUNTS[:4] if draw(st.integers(0, 3)) else COUNTS))
                  for _ in range(2)]
        lines.append(",".join(labels + counts))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "# note", "#r9,a,1,1"])))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def read_outcome(path):
    try:
        t = StrataTable.from_csv(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return t.dim_names, t.keys, t.n.tolist(), t.y.tolist()


class TestStrataColumns:
    @pytest.mark.parametrize("text", STRATA_FILES)
    def test_columns_read_what_the_row_loop_reads(
        self, tmp_path, monkeypatch, text
    ):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        got = read_outcome(path)
        monkeypatch.setattr(strata, "_read_strata_columns", lambda path: None)
        assert got == read_outcome(path)

    @pytest.mark.parametrize("text", STRATA_FILES[:2])
    def test_plain_files_are_read_by_column(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        assert strata._read_strata_columns(path) is not None

    def test_written_table_is_read_by_column(self, tmp_path):
        path = tmp_path / "s.csv"
        small_table().to_csv(path, header_comment="roundtrip")
        dim_names, keys, n, y, codes = strata._read_strata_columns(path)
        t = small_table()
        assert (dim_names, tuple(keys)) == (t.dim_names, t.keys)
        assert n.tolist() == t.n.tolist() and y.tolist() == t.y.tolist()
        assert list(codes) == list(t.dim_names)
        for name, (labels, c) in codes.items():
            assert labels == t.column_codes(name)[0]
            assert c.tolist() == t.column_codes(name)[1].tolist()
            assert c.dtype == np.int64 and not c.flags.writeable

    @settings(max_examples=150, deadline=None)
    @given(text=strata_texts())
    def test_byte_parser_reads_what_the_row_loop_reads(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "s.csv")
            path.write_bytes(text.encode())
            got = read_outcome(path)
            columns = strata._read_strata_columns(path)
            with mock.patch.object(strata, "_read_strata_columns", lambda path: None):
                assert got == read_outcome(path)
        if columns is not None and not isinstance(got[0], str):
            # the parse's codes are the ones a freshly built table computes
            dim_names, keys, n, y, codes = columns
            fresh = StrataTable(dim_names=dim_names, keys=keys, n=n, y=y)
            assert list(codes) == list(dim_names)
            for name, (labels, c) in codes.items():
                want_labels, want_codes = fresh.column_codes(name)
                assert labels == want_labels
                assert c.tolist() == want_codes.tolist()
                assert c.dtype == np.int64 and not c.flags.writeable

    def test_default_fixture_is_read_without_the_row_loop(self, tmp_path):
        want = generate_fixture(FixtureSpec()).table
        paths = write_fixture_files(
            generate_fixture(FixtureSpec()), tmp_path, header_comment="c"
        )
        with mock.patch.object(strata, "_read_table", side_effect=AssertionError):
            got = StrataTable.from_csv(paths["strata"])
        assert (got.dim_names, got.keys) == (want.dim_names, want.keys)
        assert got.n.tolist() == want.n.tolist() and got.y.tolist() == want.y.tolist()
        for name in want.dim_names:
            labels, codes = got.column_codes(name)
            assert labels == want.column_codes(name)[0]
            assert codes.tolist() == want.column_codes(name)[1].tolist()


class TestRatesTable:
    def test_roundtrip_preserves_floats_exactly(self, tmp_path):
        r = RatesTable(dim_names=("age",), rates={("a1",): 0.1234567890123456789,
                                                  ("a2",): 1e-7})
        path = tmp_path / "r.csv"
        r.to_csv(path)
        back = RatesTable.from_csv(path)
        assert back.rates == r.rates

    def test_rejects_negative_rate(self):
        # zero is allowed at the table level; positivity is a prior concern
        with pytest.raises(SchemaError):
            RatesTable(dim_names=("age",), rates={("a1",): -0.1})
        RatesTable(dim_names=("age",), rates={("a1",): 0.0})


# labels csv.writer has to quote or escape, braces, non-ASCII and empty;
# none with surrounding whitespace, which readers strip
AWKWARD = ("com,ma", 'quo"te', "new\nline", "cr\rx", "{0}", "}{", "é", "")


class TestTableDialect:
    def test_awkward_labels_round_trip(self, tmp_path):
        table = StrataTable(
            dim_names=("g", "h"), keys=tuple(zip(AWKWARD, AWKWARD[::-1])),
            n=np.arange(10, 18), y=np.arange(8),
        )
        rates = RatesTable(
            dim_names=("h",), rates={(v,): 0.1 * i for i, v in enumerate(AWKWARD)}
        )
        std = StandardPopulation({v: 1 / 8 for v in AWKWARD})
        densities = {v: 10.0 * i for i, v in enumerate(AWKWARD)}
        table.to_csv(tmp_path / "strata.csv", header_comment="c")
        rates.to_csv(tmp_path / "rates.csv", header_comment="c")
        std.to_csv(tmp_path / "standard.csv", header_comment="c")
        write_density_csv(tmp_path / "densities.csv", densities, "c")

        back = StrataTable.from_csv(tmp_path / "strata.csv")
        assert (back.dim_names, back.keys) == (table.dim_names, table.keys)
        assert back.n.tolist() == table.n.tolist()
        assert back.y.tolist() == table.y.tolist()
        back_rates = RatesTable.from_csv(tmp_path / "rates.csv")
        assert back_rates.dim_names == ("h",)
        assert back_rates.rates == rates.rates
        back_std = StandardPopulation.from_csv(tmp_path / "standard.csv")
        assert list(back_std.weights.items()) == list(std.weights.items())
        assert read_density_csv(tmp_path / "densities.csv") == densities

    @pytest.mark.parametrize("read, text", [
        (lambda p: read_outcome(p),
         "# c\ncounty,age,population,count\nc1,a1,10,1\nc1,a2,20,2\n"),
        (lambda p: read_outcome(p), "county,age,population,count\nc1,a1,10,1\n"),
        (lambda p: RatesTable.from_csv(p).__dict__, "age,rate\na1,0.5\na2,0.25\n"),
        (lambda p: StandardPopulation.from_csv(p).weights,
         "age_group,weight\na1,0.5\na2,0.5\n"),
        (read_density_csv, "geo,density\nc1,12.5\nc2,300.0\n"),
    ], ids=["strata", "strata-error", "rates", "standard", "densities"])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, read, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = read(plain)
        assert read(marked) == (
            want if not isinstance(want, tuple) or want[0] != "SchemaError"
            else (want[0], want[1].replace(str(plain), str(marked)))
        )
        if text.startswith("# c"):
            assert strata._read_strata_columns(marked) is not None

    @pytest.mark.parametrize("write", [
        lambda path: StrataTable(
            dim_names=("g",), keys=(("#x",), ("b",), ("c",)),
            n=[1, 1, 1], y=[1, 2, 3],
        ).to_csv(path),
        lambda path: StrataTable(
            dim_names=("#x",), keys=(("a",), ("b",)), n=[1, 1], y=[1, 2],
        ).to_csv(path),
        lambda path: RatesTable(("g",), {("a",): 0.1, ("#x",): 0.2}).to_csv(path),
        lambda path: StandardPopulation({"a": 0.5, "#x": 0.5}).to_csv(path),
        lambda path: write_density_csv(path, {"a": 1.0, "#x": 2.0}),
    ], ids=["strata", "strata-header", "rates", "standard", "densities"])
    def test_label_that_reads_back_as_a_comment_is_refused(self, tmp_path, write):
        # "#x,..." is a comment line to every reader, whatever its quoting
        with pytest.raises(SchemaError, match="label '#x' would read as a comment"):
            write(tmp_path / "t.csv")

    @pytest.mark.parametrize("read, text, message", [
        (StrataTable.from_csv, 'g,population,count\n"a\nb",1,1\nc,2,x\n',
         "count 'x' is not an integer"),
        (StrataTable.from_csv, 'g,population,count\n"a\nb",1,1\nc,2\n',
         "expected 3 fields, got 2"),
        (RatesTable.from_csv, 'g,rate\n"a\nb",0.1\nc,x\n',
         "rate 'x' is not a finite nonnegative number"),
        (lambda path: read_replicates_csv(path, StrataTable(
            dim_names=("g",), keys=(("a\nb",), ("c",)), n=[1, 2], y=[1, 0],
        )), 'replicate,g,z\n0,"a\nb",1\n0,c,x\n', "count 'x' is not an integer"),
    ], ids=["strata-count", "strata-fields", "rates", "replicates"])
    def test_errors_name_the_line_after_a_quoted_newline(
        self, tmp_path, read, text, message
    ):
        # the record after "a<newline>b" starts on line 4, not record 3
        path = tmp_path / "ln.csv"
        path.write_text(text)
        with pytest.raises(SchemaError) as err:
            read(path)
        assert str(err.value) == f"{path}:4: {message}"

    @pytest.mark.parametrize("value", ["nan", "inf", "-5"])
    @pytest.mark.parametrize("read, header", [
        (RatesTable.from_csv, "age,rate"),
        (StandardPopulation.from_csv, "age_group,weight"),
        (read_density_csv, "geo,density"),
    ], ids=["rates", "standard", "densities"])
    def test_number_that_is_not_finite_and_nonnegative_is_refused(
        self, tmp_path, read, header, value
    ):
        path = tmp_path / "t.csv"
        path.write_text(f"# provenance\n{header}\na,0.5\nb,{value}\n")
        with pytest.raises(
            SchemaError,
            match=rf"t\.csv:4: \w+ '{value}' is not a finite nonnegative number",
        ):
            read(path)

    @pytest.mark.parametrize("read, text", [
        (StrataTable.from_csv, "# provenance\ng,g,population,count\na,b,10,1\nc,d,20,2\n"),
        (StrataTable.from_csv, '# provenance\ng,g,population,count\n"a",b,10,1\nc,d,20,2\n'),
        (RatesTable.from_csv, "# provenance\ng,g,rate\na,b,0.5\n"),
    ], ids=["strata", "strata-quoted", "rates"])
    def test_repeated_dimension_is_refused(self, tmp_path, read, text):
        # a lookup by name would silently read the first "g" column only
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(SchemaError) as err:
            read(path)
        assert str(err.value) == f"{path}:2: dimension 'g' is repeated"

    @pytest.mark.parametrize("build", [
        lambda: StrataTable(
            dim_names=("g", "h", "g"), keys=(("a", "b", "c"), ("d", "e", "f")),
            n=[1, 2], y=[1, 0],
        ),
        lambda: RatesTable(dim_names=("g", "g"), rates={("a", "b"): 0.5}),
    ], ids=["strata", "rates"])
    def test_constructors_refuse_a_repeated_dimension(self, build):
        with pytest.raises(SchemaError, match="dimension 'g' is repeated"):
            build()


class TestBuildPrior:
    def test_rescales_to_match_total(self):
        t = small_table()
        r = RatesTable(dim_names=("age",), rates={("a1",): 0.004, ("a2",): 0.02})
        prior = build_prior(t, r)
        assert prior.expected_counts(t).sum() == pytest.approx(t.y_total)
        # relative mix is untouched by the rescale
        lam = prior.lambda0
        assert lam[0] / lam[2] == pytest.approx(1.0)
        assert lam[1] / lam[0] == pytest.approx(5.0)

    def test_missing_rate_key_is_schema_error(self):
        t = small_table()
        r = RatesTable(dim_names=("age",), rates={("a1",): 0.004})
        with pytest.raises(SchemaError, match="a2"):
            build_prior(t, r)

    @pytest.mark.parametrize("instance", ["default", "demo", "reordered"])
    def test_lambda0_is_the_per_stratum_loop_bit_for_bit(self, instance):
        if instance == "demo":
            table, rates = demo_table(), demo_rates()
        else:
            fix = generate_fixture(FixtureSpec())
            table, rates = fix.table, fix.rates
            if instance == "reordered":
                # the rate dimensions in the other order than the table's
                rates = RatesTable(
                    dim_names=rates.dim_names[::-1],
                    rates={key[::-1]: r for key, r in rates.rates.items()},
                )
        prior = build_prior(table, rates)
        lambda0, factor = build_prior_loop(table, rates)
        assert prior.lambda0.tobytes() == lambda0.tobytes()
        assert prior.rescale_factor == factor

    def test_missing_cell_names_the_first_stratum_without_one(self):
        fix = generate_fixture(FixtureSpec())
        # the rate dimensions reversed, so sorting the cells and meeting them
        # in table order disagree; of the two cells gone, the error names the
        # one whose first stratum comes first in table order
        gone = {("s2", "a01"), ("s1", "a02")}
        rates = RatesTable(
            dim_names=fix.rates.dim_names[::-1],
            rates={k[::-1]: r for k, r in fix.rates.rates.items() if k[::-1] not in gone},
        )
        with pytest.raises(SchemaError) as want:
            build_prior_loop(fix.table, rates)
        with pytest.raises(SchemaError) as got:
            build_prior(fix.table, rates)
        assert str(got.value) == str(want.value)
        assert "('s2', 'a01')" in str(got.value)

    def test_zero_total_rate_mass_rejected(self):
        t = StrataTable(
            dim_names=("age",), keys=(("a1",), ("a2",)),
            n=np.array([0, 0]), y=np.array([2, 3]),
        )
        r = RatesTable(dim_names=("age",), rates={("a1",): 0.1, ("a2",): 0.1})
        with pytest.raises(DegeneratePriorError):
            build_prior(t, r)


@pytest.fixture(scope="module")
def published():
    fix = generate_fixture(FixtureSpec())
    return fix.table, build_prior(fix.table, fix.rates)


class TestComputeBounds:
    def test_quantile_levels(self, demo):
        table, prior = demo
        alpha, c = 1e-4, 1.0
        b = compute_bounds(prior, table, alpha, c)
        E = prior.expected_counts(table)
        for i in range(table.size):
            lo = poisson_quantile_direct(alpha / 2, E[i] / c)
            hi = min(poisson_quantile_direct(1 - 2 * alpha, E[i] * c),
                     table.y_total)
            assert b.L[i] == lo and b.U[i] == hi
        # the pinned walkthrough box
        assert b.U[0] == 30 and b.L[0] == 3

    @pytest.mark.parametrize("alpha, c, digest_l, digest_u", [
        (1e-4, 1.0,
         "dfba3ed2b40a0fee111d5e687a29969f28dd1db3cf38404a095ce0e30c7798c4",
         "a9563dd2b476a07d5e4e3b71e7ddf1696b1e690aae3cdfdfee390070332a43cb"),
        (0.05, 1.0,
         "a38ee1827bcc5bc26914ee0cc910ae3c05615d13916c9b59078cd888f99aa3f2",
         "2dbffdeefebb1e44532238a68ebc65fe468ea99d05b7d9518baa461330b488ed"),
        (1 / 47034, 1.0,
         "38ddb7467d13fcddcc0765d408080631892bc8db3a81826e9a8b5debe3645853",
         "4ac0d36dc91ff81538a73f3660bd60376198cceec7a89c95a6d4140d0fde5dfb"),
        (1e-6, 1.5,
         "5e9d4e42e01b848b664622e6a420ef18cbb1747e5b268e7ec3dcd0960d16cda8",
         "f3f6c2ec1f92bd3e72c69039d88d447e4e3ef56fba74fd567ba6e47ec0e2760d"),
    ], ids=["1e-4", "0.05", "1/47034", "1e-6,c=1.5"])
    def test_published_boxes_are_pinned(self, published, alpha, c, digest_l, digest_u):
        # sha256 of L and U as little-endian int64, as scipy's cdf gave them
        table, prior = published
        b = compute_bounds(prior, table, alpha, c)
        assert [hashlib.sha256(np.asarray(v, dtype="<i8").tobytes()).hexdigest()
                for v in (b.L, b.U)] == [digest_l, digest_u]

    def test_c_widens_boxes(self, demo):
        table, prior = demo
        b1 = compute_bounds(prior, table, 1e-4, 1.0)
        b2 = compute_bounds(prior, table, 1e-4, 2.0)
        assert np.all(b2.L <= b1.L) and np.all(b2.U >= b1.U)

    def test_upper_clamped_to_total(self, demo):
        table, prior = demo
        b = compute_bounds(prior, table, 1e-4, 1.0)
        assert np.all(b.U <= table.y_total)

    @given(
        alpha=st.floats(min_value=1e-8, max_value=0.4),
        c=st.floats(min_value=1.0, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_boxes_always_well_formed(self, alpha, c):
        from pgsynth.fixtures import demo_rates, demo_table

        table = demo_table()
        prior = build_prior(table, demo_rates())
        b = compute_bounds(prior, table, alpha, c)
        assert np.all(b.L <= b.U)
        assert np.all(b.L >= 0)

    def test_bad_knobs_rejected(self, demo):
        table, prior = demo
        with pytest.raises(DomainError):
            compute_bounds(prior, table, 0.0, 1.0)
        for c in (0.5, np.inf, np.nan):
            with pytest.raises(DomainError, match="c must be finite"):
                compute_bounds(prior, table, 1e-4, c)

    def test_alpha_whose_upper_level_rounds_to_one_is_refused(self, demo):
        # 1 - 2 * 1e-17 is 1.0 in float64; 3e-17 still leaves a level below 1
        table, prior = demo
        with pytest.raises(DomainError, match="alpha 1e-17 is too small"):
            compute_bounds(prior, table, 1e-17, 1.0)
        assert compute_bounds(prior, table, 3e-17, 1.0).U.tolist() == [56, 100]

    @pytest.mark.parametrize("c", [1e17, 1e20, 1e308])
    def test_huge_c_gives_the_whole_range(self, demo, c):
        # c * E past 2^53, where a float search cannot step by one, or past
        # float64 range: the search still ends, at the total
        table, prior = demo
        b = compute_bounds(prior, table, 1e-4, c)
        assert b.L.tolist() == [0, 0] and b.U.tolist() == [100, 100]


class TestDominance:
    def test_two_strata_always_flag_one(self, demo):
        table, prior = demo
        report = check_dominance(prior, table)
        assert not report.passed
        assert report.flagged.tolist() == [False, True]  # E = (15, 85)

    def test_balanced_three_passes(self, tiny3):
        table, prior = tiny3
        assert check_dominance(prior, table).passed


class TestClampAndExchange:
    def test_exchange_boxes_pin_the_pair(self, demo):
        # with two strata the sum constraint tightens both boxes:
        # z2 = 100 - z1, so z2 inherits [100-U1, 100-L1] intersected
        table, prior = demo
        b = compute_bounds(prior, table, 1e-4, 1.0)
        jb = joint_feasible_bounds(b, table.y_total)
        assert jb.L.tolist() == [3, 70]
        assert jb.U.tolist() == [30, 97]
        total = table.y_total
        assert jb.L[1] == total - b.U[0] and jb.U[1] == total - b.L[0]

    def test_infeasible_boxes_raise(self, demo):
        table, prior = demo
        b = compute_bounds(prior, table, 0.49, 1.0)
        with pytest.raises(InfeasibilityError, match=r"\[91, 91\]"):
            joint_feasible_bounds(b, table.y_total)


class TestPriorSpec:
    def test_direct_construction_keeps_raw_rates(self):
        t = small_table()
        p = PriorSpec(lambda0=np.array([0.1, 0.2, 0.3]), rescale_factor=1.0,
                      source=None)
        assert p.expected_counts(t).tolist() == [10.0, 40.0, 15.0]
