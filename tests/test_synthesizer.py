"""Sampling correctness: determinism, batch equivalence, exactness."""

import hashlib
import sys

import numpy as np
import pytest

import pgsynth.mechanism as mechanism
import pgsynth.synthesizer as synth
from _oracles import write_replicates_csv_rows
from pgsynth.audit import exact_joint_pmf
from pgsynth.calibration import (
    Calibration,
    MODE_TRUNCATED,
    MODE_UNTRUNCATED,
    solve_hyperparameters,
)
from pgsynth.errors import DomainError, InfeasibilityError, SchemaError
from pgsynth.mechanism import (
    KernelParams,
    MassTable,
    backward_pass,
    build_kernel_params,
    delta_table,
)
from pgsynth.strata import StrataTable, TruncationBounds, compute_bounds
from pgsynth.synthesizer import (
    default_thread_count,
    read_replicates_csv,
    sample_counts_matrix,
    write_replicates_csv,
)


def calibrated(tiny3, mode):
    table, prior = tiny3
    bounds = (
        compute_bounds(prior, table, 0.05, 1.0)
        if mode == MODE_TRUNCATED else None
    )
    calib = solve_hyperparameters(table, prior, 1.0, mode=mode, bounds=bounds)
    return table, calib, bounds


def solo_draw(table, calib, base_seed, r):
    """Replicate r rebuilt alone from its own stream via the draw core."""
    params = build_kernel_params(table.y, table, calib)
    block = 2  # the checkpoint spacing changes memory use, never the draw
    checkpoints, weights, _ = backward_pass(params, block)
    stream = np.random.default_rng(np.random.SeedSequence((base_seed, r)))
    u = stream.random(params.size).reshape(1, -1)
    return synth._draw_chunk(params, checkpoints, weights, block, u)[0]


class TestSoloBatchEquivalence:
    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    def test_single_draws_reproduce_batch_rows(self, tiny3, mode):
        table, calib, _ = calibrated(tiny3, mode)
        base_seed = 5
        batch = sample_counts_matrix(table, calib, count=8, base_seed=base_seed)
        for r in range(8):
            assert np.array_equal(solo_draw(table, calib, base_seed, r), batch[r])


def reference_uniforms(base_seed, first, count, size):
    """The replicate streams spelled out: one numpy generator per row."""
    return np.stack([
        np.random.default_rng(np.random.SeedSequence((base_seed, r))).random(size)
        for r in range(first, first + count)
    ]).reshape(count, size)


class TestStreams:
    """Both stream methods give exactly the per-row numpy generator's bits."""

    # 2**96 and above fill the four-word pool with the seed alone, so the
    # replicate index goes through SeedSequence's extra-entropy mixing
    SEEDS = [0, 5, 2**32 - 1, 2**32, 2**40 + 3, 2**96, 2**100 + 9]

    @pytest.mark.parametrize("base_seed", SEEDS)
    @pytest.mark.parametrize("first, count, size", [
        (0, 40, 3), (3, 9, 8), (3, 8, 8), (3, 7, 8), (11, 1, 5),
    ])
    def test_chunk_uniforms_match_reference(self, base_seed, first, count, size):
        want = reference_uniforms(base_seed, first, count, size)
        assert np.array_equal(
            synth._chunk_uniforms(base_seed, first, count, size), want
        )
        # the vectorized method alone, whatever the shape would pick
        out = np.empty((count, size))
        synth._pcg64_uniforms(base_seed, first, out)
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("base_seed", [0, 2**32, 2**96])
    def test_index_crossing_two_to_the_32(self, base_seed):
        # replicate indices gain a second 32-bit word at 2**32
        first = 2**32 - 3
        assert np.array_equal(
            synth._chunk_uniforms(base_seed, first, 6, 2),
            reference_uniforms(base_seed, first, 6, 2),
        )

    def test_row_tiles_do_not_change_streams(self, monkeypatch):
        want = reference_uniforms(7, 0, 23, 2)
        monkeypatch.setattr(synth, "ROW_TILE", 4)
        assert np.array_equal(synth._chunk_uniforms(7, 0, 23, 2), want)

    @pytest.mark.parametrize("mode, digest", [
        (MODE_UNTRUNCATED,
         "d4afdd789f08d17648129811eebf32f5df199f233181e38877e08d6c158a9593"),
        (MODE_TRUNCATED,
         "76a2d483e7bff74409700c705e5b245f23ea9e73a5b2ae93af70da751da95dbc"),
    ])
    def test_pinned_draws(self, tiny3, mode, digest):
        # values drawn with one numpy generator per replicate
        table, calib, _ = calibrated(tiny3, mode)
        m = sample_counts_matrix(table, calib, count=10_000, base_seed=20260823)
        raw = np.ascontiguousarray(m, "<i8").tobytes()
        assert hashlib.sha256(raw).hexdigest() == digest


class TestDeterminism:
    def test_same_seed_bit_identical(self, tiny3):
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        a = sample_counts_matrix(table, calib, count=64, base_seed=3)
        b = sample_counts_matrix(table, calib, count=64, base_seed=3)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, tiny3):
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        a = sample_counts_matrix(table, calib, count=64, base_seed=3)
        b = sample_counts_matrix(table, calib, count=64, base_seed=4)
        assert not np.array_equal(a, b)

    def test_thread_count_and_chunking_do_not_change_draws(
        self, tiny3, monkeypatch
    ):
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        reference = sample_counts_matrix(table, calib, count=50, base_seed=7)
        # tiny row tiles give every block several tiles, so threads engage;
        # a short switch interval interleaves the workers as often as it can
        monkeypatch.setattr(synth, "ROW_TILE", 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 4):
                got = sample_counts_matrix(
                    table, calib, count=50, base_seed=7, threads=threads
                )
                assert np.array_equal(got, reference)
        finally:
            sys.setswitchinterval(interval)


    def test_row_tiles_do_not_change_draws(self, monkeypatch):
        # a total of 40 gives 41 candidates, so each row's mass sum runs
        # numpy's pairwise reduction
        table = StrataTable(
            dim_names=("g",), keys=(("x",), ("y",), ("z",)),
            n=np.array([40, 160, 90]), y=np.array([8, 20, 12]),
        )
        lam = np.array([2.0, 3.0, 4.0]) / 9.0 * 40 / table.n
        calib = Calibration(
            mode=MODE_UNTRUNCATED, epsilon=1.0, a=np.ones(3), b=1.0 / lam,
            lambda0=lam, slack=np.zeros(3), converged=True, iterations=0,
        )
        reference = sample_counts_matrix(table, calib, count=300, base_seed=11)
        monkeypatch.setattr(synth, "ROW_TILE", 7)
        got = sample_counts_matrix(table, calib, count=300, base_seed=11)
        assert np.array_equal(got, reference)


class TestRecursionWork:
    @pytest.mark.parametrize("count, threads, row_tile", [
        (1, 1, None), (50, 1, None), (50, 3, 4), (2000, 2, 64),
    ])
    def test_convolutions_once_per_batch(
        self, monkeypatch, count, threads, row_tile
    ):
        # the backward pass makes I convolutions and the block rebuilds
        # I - ceil(I / block) more, however many rows, tiles or threads
        size = 11
        table = StrataTable(
            dim_names=("g",), keys=tuple((f"s{i}",) for i in range(size)),
            n=np.full(size, 50), y=np.arange(size) % 4,
        )
        lam = np.full(size, table.y_total / (50.0 * size))
        calib = Calibration(
            mode=MODE_UNTRUNCATED, epsilon=1.0, a=np.ones(size), b=1.0 / lam,
            lambda0=lam, slack=np.zeros(size), converged=True, iterations=0,
        )
        calls = []
        real = mechanism.convolve_mass
        monkeypatch.setattr(
            mechanism, "convolve_mass",
            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs),
        )
        if row_tile is not None:
            monkeypatch.setattr(synth, "ROW_TILE", row_tile)
        sample_counts_matrix(
            table, calib, count=count, base_seed=1, threads=threads
        )
        block = int(np.ceil(np.sqrt(size)))
        assert len(calls) == 2 * size - int(np.ceil(size / block))


class TestExactness:
    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    def test_empirical_law_matches_exact_pmf(self, tiny3, mode):
        table, calib, bounds = calibrated(tiny3, mode)
        draws = sample_counts_matrix(
            table, calib, count=40_000, base_seed=1
        )
        assert np.all(draws.sum(axis=1) == table.y_total)
        if bounds is not None:
            assert np.all(draws >= bounds.L)
            assert np.all(draws <= np.minimum(bounds.U, table.y_total))
        support, logp = exact_joint_pmf(table.y, calib, table)
        exact = {tuple(row): p for row, p in zip(support.tolist(), np.exp(logp))}
        values, counts = np.unique(draws, axis=0, return_counts=True)
        freq = {tuple(row): c / draws.shape[0]
                for row, c in zip(values.tolist(), counts)}
        assert set(freq) <= set(exact)
        tv = 0.5 * sum(
            abs(freq.get(k, 0.0) - v) for k, v in exact.items()
        )
        assert tv < 0.03

    def test_degenerate_population_pinned_at_zero(self):
        # an empty stratum contributes a point mass at zero, so every
        # draw routes the full total through the live strata
        table = StrataTable(
            dim_names=("g",),
            keys=(("x",), ("y",), ("z",)),
            n=np.array([0, 50, 50]),
            y=np.array([0, 3, 3]),
        )
        lam = np.array([1.0, 0.06, 0.06])
        a = np.ones(3)
        calib = Calibration(
            mode=MODE_UNTRUNCATED, epsilon=1.0, a=a, b=a / lam,
            lambda0=lam, slack=np.zeros(3), converged=True, iterations=0,
        )
        draws = sample_counts_matrix(table, calib, count=500, base_seed=2)
        assert np.all(draws[:, 0] == 0)
        assert np.all(draws.sum(axis=1) == 6)

    def test_point_boxes_force_a_single_vector(self, tiny3):
        table, prior = tiny3
        bounds = TruncationBounds(
            L=table.y, U=table.y, alpha=0.05, c=1.0
        )
        calib = solve_hyperparameters(
            table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
        )
        draws = sample_counts_matrix(table, calib, count=100, base_seed=0)
        assert np.all(draws == table.y)


class TestCsvRoundtrip:
    def test_write_then_read(self, tmp_path, tiny3):
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        matrix = sample_counts_matrix(table, calib, count=4, base_seed=9)
        path = tmp_path / "reps.csv"
        write_replicates_csv(path, table, matrix, header_comment="config_hash=ab12")
        assert path.read_text().startswith("# config_hash=ab12\nreplicate,g,z\n")
        assert np.array_equal(read_replicates_csv(path, table), matrix)

    @pytest.mark.parametrize("header_comment", [None, "config_hash=ab12"])
    def test_writer_matches_row_loop(self, tmp_path, monkeypatch, header_comment):
        keys = (
            ("plain", "1"), ("com,ma", "2"), ('quo"te', "3"), ("{0}", "4"),
            ("}{", "{{x}}"), ("new\nline", "5"), ("", "{"),
        )
        table = StrataTable(
            dim_names=("g", "h"), keys=keys,
            n=np.full(len(keys), 10), y=np.arange(len(keys)),
        )
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 1000, size=(5, len(keys)))
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        write_replicates_csv_rows(want, table, matrix, header_comment)
        # slices of two replicates, so the write loop runs more than once
        monkeypatch.setattr(synth, "WRITE_ROWS", 2 * len(keys))
        write_replicates_csv(got, table, matrix, header_comment)
        assert got.read_bytes() == want.read_bytes()
        assert np.array_equal(read_replicates_csv(got, table), matrix)

    @pytest.mark.parametrize("mutate, message", [
        (lambda lines: [lines[0].replace(",z", ",count"), *lines[1:]],
         "header"),
        (lambda lines: [*lines, "4,qq,1"], "unknown stratum"),
        (lambda lines: [*lines, lines[-1]], "duplicate"),
        (lambda lines: [lines[0], *lines[2:]], "missing"),
        (lambda lines: [lines[0],
                        lines[1].rsplit(",", 1)[0] + ",-2", *lines[2:]],
         "negative"),
        # replicate 1 relabelled 5: indices {0, 5} are not 0..R-1
        (lambda lines: [lines[0], *(
            "5" + line[1:] if line.startswith("1,") else line
            for line in lines[1:])],
         "indices"),
    ])
    def test_malformed_rows_rejected(self, tmp_path, tiny3, mutate, message):
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        matrix = sample_counts_matrix(table, calib, count=2, base_seed=9)
        path = tmp_path / "reps.csv"
        write_replicates_csv(path, table, matrix)
        lines = path.read_text().strip().split("\n")
        path.write_text("\n".join(mutate(lines)) + "\n")
        with pytest.raises(SchemaError, match=message):
            read_replicates_csv(path, table)


class TestThreadConfig:
    def test_env_variable_controls_default(self, monkeypatch):
        monkeypatch.delenv(synth.THREADS_ENV_VAR, raising=False)
        assert default_thread_count() == 1
        monkeypatch.setenv(synth.THREADS_ENV_VAR, "6")
        assert default_thread_count() == 6

    @pytest.mark.parametrize("bad", ["zero", "0", "-3", "1.5"])
    def test_bad_env_values_rejected(self, monkeypatch, bad):
        monkeypatch.setenv(synth.THREADS_ENV_VAR, bad)
        with pytest.raises(DomainError):
            default_thread_count()


    @pytest.mark.parametrize("threads", [0, -5])
    def test_nonpositive_threads_rejected(self, tiny3, threads):
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        with pytest.raises(DomainError):
            sample_counts_matrix(
                table, calib, count=4, base_seed=0, threads=threads
            )


class TestGuards:
    def test_negative_count_and_seed(self, tiny3):
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        with pytest.raises(DomainError):
            sample_counts_matrix(table, calib, count=-1, base_seed=0)
        with pytest.raises(DomainError):
            sample_counts_matrix(table, calib, count=1, base_seed=-1)

    def test_zero_count_gives_empty_matrix(self, tiny3):
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        out = sample_counts_matrix(table, calib, count=0, base_seed=0)
        assert out.shape == (0, table.size)

    def test_mode_mismatches(self, tiny3):
        table, calib_t, _ = calibrated(tiny3, MODE_TRUNCATED)
        # a truncated calibration carries its own boxes
        out = sample_counts_matrix(table, calib_t, count=1, base_seed=0)
        assert out.shape == (1, 3)

    def test_zero_conditional_mass_raises(self):
        # hand-built tables whose products underflow: 1e-200 * 1e-200 is
        # 0.0 in double precision, so no candidate carries any mass
        params = KernelParams(
            shape=np.ones(2), log_p=np.full(2, -1.0),
            lo=np.zeros(2), hi=np.full(2, 2), y_total=2,
        )
        tiny = MassTable(lo=0, vals=np.full(3, 1e-200), offset=0.0)
        checkpoints = {0: tiny, 1: tiny, 2: delta_table()}
        with pytest.raises(InfeasibilityError):
            synth._draw_chunk(
                params, checkpoints, [tiny, tiny], 1, np.full((4, 2), 0.5)
            )
