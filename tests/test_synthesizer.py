"""Sampling correctness: determinism, batch equivalence, exactness."""

import hashlib
import itertools
import logging
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pgsynth.distributions as distributions
import pgsynth.mechanism as mechanism
import pgsynth.synthesizer as synth
from _oracles import law_gap, replicate_uniforms, write_replicates_csv_rows
from test_mechanism import random_params
from pgsynth.audit import exact_joint_pmf
from pgsynth.calibration import (
    Calibration,
    MODE_TRUNCATED,
    MODE_UNTRUNCATED,
    solve_hyperparameters,
)
from pgsynth.errors import DomainError, InfeasibilityError, SchemaError
from pgsynth.fixtures import FixtureSpec, generate_fixture
from pgsynth.mechanism import (
    KernelBank,
    KernelParams,
    MassTable,
    backward_pass,
    build_kernel_params,
    delta_table,
)
from pgsynth.strata import (
    _PAD,
    PriorSpec,
    StrataTable,
    TruncationBounds,
    _digits,
    build_prior,
    compute_bounds,
)
from pgsynth.synthesizer import (
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
    """Replicate r rebuilt alone from its uniforms in the batch's streams.

    The head is proposed stratum by stratum from r's uniforms in stream
    j = 1, 2, ..., each count the inverse cdf of its tilted kernel, until
    the last uniform falls below the tail table at the total left; the
    tail is then drawn by the draw core from r's uniforms in stream 0.
    """
    params, start, _, weights = synth._plan(
        build_kernel_params(table.y, table, calib)
    )
    block = 2  # the checkpoint spacing changes memory use, never the draw
    checkpoints = backward_pass(params, weights, block, start)
    row = np.empty((1, params.size))
    left = params.y_total
    if start:
        tail = checkpoints[start]
        for j in itertools.count(1):
            u = replicate_uniforms(base_seed, j, r, start + 1)
            head = []
            for i in range(start):
                w = weights[i]
                cdf = np.cumsum(w.vals)
                head.append(w.lo + np.count_nonzero(cdf[:-1] <= u[i] * cdf[-1]))
            left = params.y_total - sum(head)
            at = left - tail.lo
            if u[start] < (tail.vals[at] if 0 <= at < len(tail.vals) else 0.0):
                break
        row.view(np.int64)[0, :start] = head
    row[0, start:] = replicate_uniforms(base_seed, 0, r, params.size - start)
    return synth._draw_chunk(
        params, checkpoints, weights, block, row, start=start,
        remaining=np.array([[left]]),
    )[0]


def bank_of(*tables):
    """The KernelBank holding tables, in order."""
    width = np.array([len(t.vals) for t in tables])
    return KernelBank(
        lo=np.array([t.lo for t in tables]), width=width,
        start=np.cumsum(width) - width,
        offset=np.array([t.offset for t in tables]),
        vals=np.concatenate([t.vals for t in tables]),
    )


def weighted(n, weights, y_total, mode, scale=1.0):
    """An instance with expected counts in proportion to weights, its
    prior means summing to scale * y_total, calibrated at epsilon = 1
    (truncated: alpha = 0.05, c = 1). A scale away from 1 moves the tilt
    away from 0."""
    n = np.asarray(n)
    w = np.asarray(weights, dtype=np.float64) / np.sum(weights)
    y = np.floor(w * y_total).astype(np.int64)
    y[0] += y_total - y.sum()
    table = StrataTable(
        dim_names=("g",), keys=tuple((f"s{i}",) for i in range(len(n))),
        n=n, y=y,
    )
    prior = PriorSpec(
        lambda0=w * y_total * scale / n, rescale_factor=1.0, source=None
    )
    bounds = (
        compute_bounds(prior, table, 0.05, 1.0) if mode == MODE_TRUNCATED else None
    )
    return table, solve_hyperparameters(table, prior, 1.0, mode=mode, bounds=bounds)


# Small instances for the split sampler's law, each with its tilt:
# ROADMAP item 1's 5-stratum 100:1 instance (truncated calibration refuses
# it: dominance), a 10:1 one, and prior means at 3 and 0.3 times the total.
SPLIT_CASES = {
    "100:1": ((50, 60, 70, 80, 90), (1, 3, 10, 30, 100), 20, 1.0,
              [MODE_UNTRUNCATED]),  # tilt +0.06
    "10:1": ((50, 60, 70, 80, 90), (1, 2, 4, 8, 10), 30, 1.0,
             [MODE_UNTRUNCATED, MODE_TRUNCATED]),  # tilts +0.01, +0.13
    "prior x3": ((40, 50, 60, 70, 80, 90), (1, 1, 2, 2, 3, 3), 12, 3.0,
                 [MODE_UNTRUNCATED]),  # tilt -0.54
    "prior x0.3": ((40, 50, 60, 70, 80, 90), (1, 1, 2, 2, 3, 3), 12, 0.3,
                   [MODE_UNTRUNCATED]),  # tilt +0.88
}


def split_cases():
    for name, (n, w, y_total, scale, modes) in SPLIT_CASES.items():
        for mode in modes:
            yield pytest.param(n, w, y_total, scale, mode, id=f"{name}-{mode}")


@pytest.fixture
def split_everything(monkeypatch):
    """Give instances of any size a head."""
    monkeypatch.setattr(synth, "SPLIT_MIN", 2)


def head_size(table, calib):
    return synth._plan(build_kernel_params(table.y, table, calib))[1]


class TestSoloBatchEquivalence:
    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    def test_single_draws_reproduce_batch_rows(self, tiny3, mode):
        table, calib, _ = calibrated(tiny3, mode)
        base_seed = 5
        batch = sample_counts_matrix(table, calib, count=8, base_seed=base_seed)
        for r in range(8):
            assert np.array_equal(solo_draw(table, calib, base_seed, r), batch[r])

    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    @pytest.mark.parametrize("instance", ["tiny3", "c05"])
    def test_per_total_tables_draw_the_row_step_s_rows(
        self, tiny3, instance, mode, caplog
    ):
        # 10,000 rows outnumber every stratum's reachable totals, so the
        # batch bisects per-total cdfs; solo_draw's one row takes the row step
        table, calib = calibrated(tiny3, mode)[:2] if instance == "tiny3" else c05(mode)
        caplog.set_level(logging.DEBUG, logger="pgsynth.synthesizer")
        batch = sample_counts_matrix(table, calib, count=10_000, base_seed=11)
        assert "3 of 3 tail strata drawn from per-total tables" in caplog.messages
        caplog.clear()
        rows = [0, 1, 9_999, *np.random.default_rng(0).integers(10_000, size=40)]
        for r in rows:
            assert np.array_equal(solo_draw(table, calib, 11, r), batch[r])
        assert [m for m in caplog.messages if "per-total" in m] == [
            "0 of 3 tail strata drawn from per-total tables"
        ] * len(rows)

    @pytest.mark.parametrize("share", [None, 0.6])
    @pytest.mark.parametrize("n, w, y_total, scale, mode", split_cases())
    def test_rows_with_a_head_are_the_oracle_s_whatever_the_batch(
        self, monkeypatch, split_everything, n, w, y_total, scale, mode, share
    ):
        # HEAD_CELLS = 1 proposes one row per tile; the default puts every
        # row in one tile. A share of None keeps TAIL_SHARE.
        if share is not None:
            monkeypatch.setattr(synth, "TAIL_SHARE", share)
        table, calib = weighted(n, w, y_total, mode, scale)
        assert head_size(table, calib) > 0
        want = [solo_draw(table, calib, 9, r) for r in range(24)]
        for count, threads, row_tile, cells in [
            (24, 1, None, None), (24, 3, 5, 1), (24, 2, None, 7), (7, 1, 2, None),
            (24, 4, 3, 2),
        ]:
            with monkeypatch.context() as patch:
                if row_tile is not None:
                    patch.setattr(synth, "ROW_TILE", row_tile)
                if cells is not None:
                    patch.setattr(synth, "HEAD_CELLS", cells)
                got = sample_counts_matrix(
                    table, calib, count=count, base_seed=9, threads=threads
                )
            assert np.array_equal(got, want[:count])


class TestSplitLaw:
    """Empirical TV against the exact law, with a head: within a quarter
    (plus 0.005) of what exact draws from the same law show at the same count."""

    COUNT = 100_000

    def check(self, table, calib):
        draws = sample_counts_matrix(table, calib, count=self.COUNT, base_seed=3)
        assert np.all(draws.sum(axis=1) == table.y_total)
        params = build_kernel_params(table.y, table, calib)
        assert np.all((draws >= params.lo) & (draws <= params.hi))
        tv, floor = law_gap(draws, *exact_joint_pmf(table.y, calib, table))
        assert tv < 1.25 * floor + 0.005, (tv, floor)

    @pytest.mark.parametrize("share", [None, 0.6])
    @pytest.mark.parametrize("n, w, y_total, scale, mode", split_cases())
    def test_empirical_law_matches_exact_pmf(
        self, monkeypatch, split_everything, n, w, y_total, scale, mode, share
    ):
        if share is not None:  # None keeps TAIL_SHARE
            monkeypatch.setattr(synth, "TAIL_SHARE", share)
        table, calib = weighted(n, w, y_total, mode, scale)
        assert head_size(table, calib) > 0
        self.check(table, calib)

    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    def test_tiny3_with_a_head(self, tiny3, split_everything, mode):
        table, calib, _ = calibrated(tiny3, mode)
        assert head_size(table, calib) > 0
        self.check(table, calib)


class TestStreams:
    """A stream advanced to an offset gives exactly the uniforms found
    there by drawing the stream from its start."""

    # 2**96 and above fill SeedSequence's four-word pool with the seed
    # alone, so j goes through its extra-entropy mixing
    SEEDS = [0, 5, 2**32 - 1, 2**32, 2**40 + 3, 2**96, 2**100 + 9]

    @pytest.mark.parametrize("base_seed", SEEDS)
    @pytest.mark.parametrize("j", [0, 1, 7, 2**32 + 5])
    # offsets 0, one row's width, gaps, and 10^6 or more
    @pytest.mark.parametrize("width, r", [
        (3, 0), (3, 1), (8, 37), (40, 2), (1, 1_000_000), (2, 500_001),
        (3, 333_334),
    ])
    def test_advanced_stream_matches_the_oracle(self, base_seed, j, width, r):
        got = synth._stream(base_seed, j, r * width).random(width)
        assert np.array_equal(got, replicate_uniforms(base_seed, j, r, width))

    @pytest.mark.parametrize("mode, digest", [
        (MODE_UNTRUNCATED,
         "fda82dd058741d57b88f18ea2659d234effa9b888667b79d59ee58deb65da507"),
        (MODE_TRUNCATED,
         "968b6c3b0a472622601c33c0208685a4287fe53f3a76db5f2ffa2d1745573e22"),
    ])
    def test_pinned_draws(self, tiny3, mode, digest):
        table, calib, _ = calibrated(tiny3, mode)
        m = sample_counts_matrix(table, calib, count=10_000, base_seed=20260823)
        raw = np.ascontiguousarray(m, "<i8").tobytes()
        assert hashlib.sha256(raw).hexdigest() == digest


def mid_size(mode, deaths):
    """A fixture of 2,106 (untruncated) or 2,808 (truncated, alpha = 1e-4)
    strata: enough for heads of 1,840 and 1,963 strata and tails of 266 and
    845 strata in 17- and 30-stratum blocks rebuilt from checkpoints, at
    totals where the tail's tables are trimmed at the top and, in
    truncated mode, at the bottom (untruncated tables all reach total 0)."""
    counties = 4 if mode == MODE_TRUNCATED else 3
    fixture = generate_fixture(FixtureSpec(
        dims=(("county", counties), ("age", 13), ("site", 9), ("race", 3),
              ("sex", 2)),
        total_deaths=deaths, state_population=600_000, seed=3, urban_count=2,
    ))
    table = fixture.table
    prior = build_prior(table, fixture.rates)
    bounds = (
        compute_bounds(prior, table, 1e-4, 1.0) if mode == MODE_TRUNCATED else None
    )
    return table, solve_hyperparameters(table, prior, 1.0, mode=mode, bounds=bounds)


class TestMidSizePins:
    @pytest.mark.parametrize("mode, deaths, digest", [
        (MODE_TRUNCATED, 20_000,
         "fe206dea2144ecb719dbac4d42fa314237a5785f6c2a644d41914ae91e532e48"),
        (MODE_UNTRUNCATED, 900,
         "d4e1f0e09b0b61fe28ca4f2214b69017ac73aa5cbaa2527b90e4e72942614dcd"),
    ])
    def test_pinned_draws(self, mode, deaths, digest):
        table, calib = mid_size(mode, deaths)
        params, start, _, weights = synth._plan(
            build_kernel_params(table.y, table, calib)
        )
        # the pin covers a head and tail steps that trim each end of a table
        assert start > 0
        front = back = 0
        tables = mechanism.suffix_tables(
            weights, delta_table(), params.size, start, params.y_total
        )
        nxt = delta_table()
        for k, got in tables:
            base = weights[k].lo + nxt.lo
            front += got.lo > base
            back += got.hi < min(params.y_total, weights[k].hi + nxt.hi)
            nxt = got
        assert back > 0 and (front > 0) == (mode == MODE_TRUNCATED)
        m = sample_counts_matrix(table, calib, count=5, base_seed=5)
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

    # 5 rows are fewer than any tail stratum's reachable totals, so each
    # tile builds its rows' cdfs (the row step); 50 are more, so the tiles
    # read per-total tables
    @pytest.mark.parametrize("count,step", [(5, "row"), (50, "per-total")])
    @pytest.mark.parametrize("split", [False, True])
    def test_thread_count_and_chunking_do_not_change_draws(
        self, tiny3, monkeypatch, caplog, split, count, step
    ):
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        if split:
            # a head, proposed one row per tile
            monkeypatch.setattr(synth, "SPLIT_MIN", 2)
            monkeypatch.setattr(synth, "HEAD_CELLS", 1)
            assert head_size(table, calib) > 0
        reference = sample_counts_matrix(table, calib, count=count, base_seed=7)
        # tiny row tiles give every block several tiles, so threads engage
        # (on any host: the pool is capped at the CPU count); a short switch
        # interval interleaves the workers as often as it can
        monkeypatch.setattr(synth, "ROW_TILE", 3)
        monkeypatch.setattr(synth.os, "cpu_count", lambda: 4)
        caplog.set_level(logging.DEBUG, logger="pgsynth.synthesizer")
        tail = 3 - head_size(table, calib)
        by_total = f"{0 if step == 'row' else tail} of {tail} tail strata"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 4):
                caplog.clear()
                got = sample_counts_matrix(
                    table, calib, count=count, base_seed=7, threads=threads
                )
                assert np.array_equal(got, reference)
                assert [m for m in caplog.messages if "per-total" in m] == [
                    f"{by_total} drawn from per-total tables"
                ]
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
            slack=np.zeros(3), converged=True, iterations=0,
        )
        reference = sample_counts_matrix(table, calib, count=300, base_seed=11)
        monkeypatch.setattr(synth, "ROW_TILE", 7)
        got = sample_counts_matrix(table, calib, count=300, base_seed=11)
        assert np.array_equal(got, reference)


class TestRecursionWork:
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("count, threads, row_tile", [
        (1, 1, None), (50, 1, None), (50, 3, 4), (2000, 2, 64),
    ])
    def test_convolutions_once_per_batch(
        self, monkeypatch, count, threads, row_tile, split
    ):
        # the backward pass makes one convolution per tail stratum and the
        # block rebuilds tail - ceil(tail / block) more, however many rows,
        # tiles or threads; without a split the tail is all I strata
        if split:
            monkeypatch.setattr(synth, "SPLIT_MIN", 2)
        size = 11
        table = StrataTable(
            dim_names=("g",), keys=tuple((f"s{i}",) for i in range(size)),
            n=np.full(size, 50), y=np.arange(size) % 4,
        )
        lam = np.full(size, table.y_total / (50.0 * size))
        calib = Calibration(
            mode=MODE_UNTRUNCATED, epsilon=1.0, a=np.ones(size), b=1.0 / lam,
            slack=np.zeros(size), converged=True, iterations=0,
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
        tail = size - head_size(table, calib)
        assert (tail < size) == split
        block = int(np.ceil(np.sqrt(tail)))
        assert len(calls) == 2 * tail - int(np.ceil(tail / block))

    @pytest.mark.parametrize("mode, deaths", [
        (MODE_TRUNCATED, 20_000), (MODE_UNTRUNCATED, 900),
    ])
    def test_rebuilds_reproduce_the_backward_tables(
        self, monkeypatch, mode, deaths
    ):
        # one batch rebuilds every tail table that is not a checkpoint
        # exactly once, each equal to the backward pass's bit for bit
        table, calib = mid_size(mode, deaths)
        params, start, block, bank = synth._plan(
            build_kernel_params(table.y, table, calib)
        )
        size = params.size
        assert start > 0
        backward = dict(mechanism.suffix_tables(
            bank, delta_table(), size, start, params.y_total
        ))
        real = synth.suffix_tables
        rebuilt = []

        def recorded(*args):
            for k, got in real(*args):
                rebuilt.append((k, got))
                yield k, got

        monkeypatch.setattr(synth, "suffix_tables", recorded)
        sample_counts_matrix(table, calib, count=5, base_seed=5)
        inner = [k for k in range(start, size) if (k - start) % block]
        assert sorted(k for k, _ in rebuilt) == inner
        for k, got in rebuilt:
            want = backward[k]
            assert (got.lo, got.offset) == (want.lo, want.offset)
            assert np.array_equal(got.vals, want.vals)

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    def test_kernels_evaluated_once_per_batch(
        self, monkeypatch, tiny3, mode, split
    ):
        # the tilt and the tilted bank share one log-gamma evaluation:
        # one entry per box value of every stratum, in several groups
        if split:
            monkeypatch.setattr(synth, "SPLIT_MIN", 2)
        monkeypatch.setattr(mechanism, "KERNEL_GROUP", 4)
        table, calib, _ = calibrated(tiny3, mode)
        assert (head_size(table, calib) > 0) == split
        entries = []
        real = distributions.log_gamma_ratio

        def counted(z, shape):
            entries.append(np.size(z))
            return real(z, shape)

        monkeypatch.setattr(distributions, "log_gamma_ratio", counted)
        monkeypatch.setattr(mechanism, "log_gamma_ratio", counted)
        sample_counts_matrix(table, calib, count=50, base_seed=1)
        params = build_kernel_params(table.y, table, calib)
        assert len(entries) > 1
        assert sum(entries) == (params.hi - params.lo + 1).sum()


# Uniforms at the ends of Generator.random's range and between them
EDGE_UNIFORMS = (0.0, 0.5, 1.0 - 2.0**-53)


def c05(mode):
    """Criterion 05's instance (Y = 8), truncated at alpha = 1e-4."""
    table = StrataTable(
        dim_names=("g",), keys=(("x",), ("y",), ("z",)),
        n=np.array([40, 160, 90]), y=np.array([3, 2, 3]),
    )
    w = np.array([2.0, 3.0, 4.0]) / 9.0
    prior = PriorSpec(lambda0=w * 8 / table.n, rescale_factor=1.0, source=None)
    bounds = (
        compute_bounds(prior, table, 1e-4, 1.0) if mode == MODE_TRUNCATED else None
    )
    return table, solve_hyperparameters(table, prior, 1.0, mode=mode, bounds=bounds)


def assert_draws_carry_mass(params, uniforms):
    """Every step of _draw_chunk's draw at these uniforms picks a value
    whose conditional mass w_i(v) * T_{i+1}(t - v) is positive."""
    params, _, _, bank = synth._plan(params)
    size, y_total = params.size, params.y_total
    checkpoints = backward_pass(params, bank, 2)
    z = synth._draw_chunk(params, checkpoints, bank, 2, uniforms.copy())
    tables = dict(mechanism.suffix_tables(bank, delta_table(), size, 0, y_total))
    tables[size] = delta_table()
    for row in z.tolist():
        left = y_total
        for i, v in enumerate(row):
            assert bank[i].log_at(v) > -np.inf, (row, i)
            left -= v
            assert tables[i + 1].log_at(left) > -np.inf, (row, i)


class TestEdgeUniforms:
    # the draw's total is its cdf's last entry; a total summed in another
    # order could exceed it, and a target near it would then pick the top
    # value even where it has no mass

    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    def test_c05_every_dataset(self, mode):
        table, calib = c05(mode)
        uniforms = np.array(list(itertools.product(EDGE_UNIFORMS, repeat=3)))
        for y in itertools.product(range(9), repeat=2):
            if sum(y) <= 8:
                counts = np.array([*y, 8 - sum(y)])
                params = build_kernel_params(counts, table, calib)
                assert_draws_carry_mass(params, uniforms)

    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances(self, mode, seed):
        params = random_params(mode, seed)
        rng = np.random.default_rng(seed)
        uniforms = np.vstack([
            np.repeat(np.array(EDGE_UNIFORMS)[:, None], params.size, axis=1),
            rng.choice(EDGE_UNIFORMS, size=(20, params.size)),
        ])
        assert_draws_carry_mass(params, uniforms)


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
            slack=np.zeros(3), converged=True, iterations=0,
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


# Each turns a written file's lines (without line ends) into a malformed one.
MALFORMED = [
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
    (lambda lines: [lines[0],
                    lines[1].rsplit(",", 1)[0] + f",{2**63}", *lines[2:]],
     rf"count '{2**63}' is 2\^63 or more"),
    (lambda lines: [lines[0], *(
        f"{2**63}" + line[1:] if line.startswith("1,") else line
        for line in lines[1:])],
     rf"replicate '{2**63}' is 2\^63 or more"),
]

# labels csv.writer has to quote or escape, braces, non-ASCII and empty
AWKWARD = (
    "plain", "com,ma", 'quo"te', "{0}", "}{", "{{x}}", "new\nline", "cr\rx",
    "", "{", "é", "#x",
)


def key_table(keys, dims):
    """A table of these keys; a single stratum, below StrataTable's
    minimum, gets a stand-in with the four attributes the CSV code reads."""
    dim_names = tuple(f"d{j}" for j in range(dims))
    if len(keys) == 1:
        return SimpleNamespace(
            dim_names=dim_names, keys=tuple(keys), size=1,
            column_codes=lambda name: (
                (keys[0][dim_names.index(name)],), np.zeros(1, dtype=np.int64)
            ),
        )
    zeros = np.zeros(len(keys), dtype=np.int64)
    return StrataTable(dim_names=dim_names, keys=keys, n=zeros, y=zeros)


@st.composite
def csv_cases(draw):
    dims = draw(st.integers(1, 3))
    label = st.sampled_from(AWKWARD) | st.text(
        st.characters(codec="utf-8"), max_size=3
    )
    keys = draw(st.lists(
        st.tuples(*[label] * dims),
        min_size=1, max_size=draw(st.sampled_from([1, 2, 12])), unique=True,
    ))
    # counts that cross a digit width, so slices do too
    reps = draw(st.sampled_from([1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001]))
    top = draw(st.sampled_from([0, 1, 9, 10, 99, 100, 10**6, 10**18 - 1, 2**63 - 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.integers(0, top, size=(reps, len(keys)), endpoint=True)
    matrix[rng.integers(reps), rng.integers(len(keys))] = top
    return key_table(tuple(keys), dims), matrix, draw(st.integers(1, 40))


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.sampled_from([0, 9, 10, 2**63 - 1]) | st.integers(0, 999)
    | st.integers(0, 2**63 - 1), min_size=1, max_size=30,
))
def test_digits_spell_values_as_str(values):
    width = len(str(max(values)))
    want = [f"{v:>{width}}".encode().replace(b" ", bytes([_PAD])) for v in values]
    got = _digits(np.array(values, dtype=np.int64))
    assert got.shape == (len(values), width)
    assert [row.tobytes() for row in got] == want
    column = _digits(np.array(values, dtype=np.int64)[:, None])
    assert column.shape == (len(values), 1, width)
    assert np.array_equal(column[:, 0], got)


def read_outcome(read, path, table):
    """The matrix a reader returns, or the message of the SchemaError it raises."""
    try:
        return read(path, table).tolist()
    except SchemaError as exc:
        return str(exc)


def write_lines(path, lines, newline):
    path.write_bytes((newline.join(lines) + newline).encode())


class TestCsvRoundtrip:
    def test_write_then_read(self, tmp_path, tiny3):
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        matrix = sample_counts_matrix(table, calib, count=4, base_seed=9)
        path = tmp_path / "reps.csv"
        write_replicates_csv(path, table, matrix, header_comment="config_hash=ab12")
        assert path.read_text().startswith("# config_hash=ab12\nreplicate,g,z\n")
        assert np.array_equal(read_replicates_csv(path, table), matrix)

    def test_written_file_is_decoded_without_the_row_parser(
        self, tmp_path, tiny3, monkeypatch
    ):
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        matrix = sample_counts_matrix(table, calib, count=300, base_seed=9)
        path = tmp_path / "reps.csv"
        write_replicates_csv(path, table, matrix, header_comment="config_hash=ab12")
        monkeypatch.setattr(synth, "_read_rows", None)
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

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_writer_bytes_do_not_depend_on_threads(
        self, tmp_path, monkeypatch, threads
    ):
        keys = (("plain", "1"), ("com,ma", "2"), ('quo"te', "3"), ("new\nline", "4"))
        table = StrataTable(
            dim_names=("g", "h"), keys=keys,
            n=np.full(len(keys), 10), y=np.arange(len(keys)),
        )
        matrix = np.random.default_rng(1).integers(0, 1000, size=(23, len(keys)))
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        write_replicates_csv_rows(want, table, matrix, "config_hash=ab12")
        # slices of 6, 3 and 2 replicates, the last one short, on any host
        monkeypatch.setattr(synth, "WRITE_ROWS", 6 * len(keys))
        monkeypatch.setattr(synth.os, "cpu_count", lambda: 3)
        write_replicates_csv(got, table, matrix, "config_hash=ab12", threads=threads)
        assert got.read_bytes() == want.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(case=csv_cases())
    def test_renderer_and_decode_match_row_loop(self, case):
        table, matrix, rows = case
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            want, got = Path(tmp, "want.csv"), Path(tmp, "got.csv")
            write_replicates_csv_rows(want, table, matrix, "config_hash=ab12")
            # slices of `rows` lines, read back a few lines at a time
            mp.setattr(synth, "WRITE_ROWS", rows)
            mp.setattr(synth, "READ_BYTES", 8 * rows)
            write_replicates_csv(got, table, matrix, "config_hash=ab12")
            assert got.read_bytes() == want.read_bytes()
            decoded = synth._read_written(got, table)
            labels = {*table.dim_names, *(v for key in table.keys for v in key)}
            if matrix.max() < 10**18 and all(v == v.strip() for v in labels):
                assert np.array_equal(decoded, matrix)
            else:
                # surrounding spaces or 19-digit counts: the row parser's call
                assert decoded is None
            assert read_outcome(read_replicates_csv, got, table) == read_outcome(
                synth._read_rows, got, table
            )

    def test_negative_counts_are_refused(self, tmp_path, tiny3):
        table, _ = tiny3
        with pytest.raises(DomainError, match="nonnegative"):
            write_replicates_csv(tmp_path / "r.csv", table, np.array([[1, -1, 6]]))
        for bad in (np.zeros((2, 2), int), np.zeros((2, 3))):
            with pytest.raises(DomainError, match="integer matrix"):
                write_replicates_csv(tmp_path / "r.csv", table, bad)
        with pytest.raises(DomainError, match="threads"):
            write_replicates_csv(
                tmp_path / "r.csv", table, np.zeros((2, 3), int), threads=0
            )

    @pytest.mark.parametrize("mutate, message", MALFORMED)
    def test_malformed_rows_rejected(self, tmp_path, tiny3, mutate, message):
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        matrix = sample_counts_matrix(table, calib, count=2, base_seed=9)
        path = tmp_path / "reps.csv"
        write_replicates_csv(path, table, matrix)
        lines = path.read_text().strip().split("\n")
        path.write_text("\n".join(mutate(lines)) + "\n")
        with pytest.raises(SchemaError, match=message):
            read_replicates_csv(path, table)

    @pytest.mark.parametrize("mutate, message", MALFORMED)
    def test_malformed_crlf_rows_get_the_row_parser_message(
        self, tmp_path, tiny3, mutate, message
    ):
        # written line ends, so only the mutated line is off the layout
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        matrix = sample_counts_matrix(table, calib, count=2, base_seed=9)
        path = tmp_path / "reps.csv"
        write_replicates_csv(path, table, matrix, header_comment="config_hash=ab12")
        lines = path.read_text().strip().split("\n")
        write_lines(path, [lines[0], *mutate(lines[1:])], "\r\n")
        assert synth._read_written(path, table) is None
        with pytest.raises(SchemaError, match=message) as raised:
            read_replicates_csv(path, table)
        assert str(raised.value) == read_outcome(synth._read_rows, path, table)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda lines: [lines[0], *lines[1:][::-1]], id="reversed"),
        pytest.param(lambda lines: [lines[0], *sorted(lines[1:], key=lambda
                     line: line.split(",")[1])], id="by-stratum"),
        pytest.param(lambda lines: [*lines[:5], "# interior", *lines[5:]],
                     id="comment"),
        pytest.param(lambda lines: [*lines[:5], "", *lines[5:]], id="blank"),
        pytest.param(lambda lines: [lines[0], *(
            f"0{line}" for line in lines[1:])], id="zero-padded"),
        pytest.param(lambda lines: [lines[0], *(
            line.replace(",", ", ") for line in lines[1:])], id="spaced"),
        pytest.param(lambda lines: ['# quote " in the comment', *lines],
                     id="quoted-comment"),
    ])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_other_layouts_read_through_the_row_parser(
        self, tmp_path, tiny3, edit, newline
    ):
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        matrix = sample_counts_matrix(table, calib, count=12, base_seed=9)
        path = tmp_path / "reps.csv"
        write_replicates_csv(path, table, matrix)
        write_lines(path, edit(path.read_text().strip().split("\n")), newline)
        assert synth._read_written(path, table) is None
        assert np.array_equal(read_replicates_csv(path, table), matrix)

    @pytest.mark.parametrize("keys", [
        ((" x",), ("y",), ("z ",)),  # unknown once stripped
        ((" x",), ("x",), ("z",)),  # " x" is read as stratum "x"
    ])
    def test_labels_that_strip_changes_behave_as_the_row_parser(
        self, tmp_path, keys
    ):
        table = key_table(keys, 1)
        matrix = np.array([[1, 2, 3], [4, 5, 6]])
        path = tmp_path / "reps.csv"
        write_replicates_csv(path, table, matrix)
        assert synth._read_written(path, table) is None
        want = read_outcome(synth._read_rows, path, table)
        assert isinstance(want, str)
        assert read_outcome(read_replicates_csv, path, table) == want


class TestThreadConfig:
    @pytest.mark.parametrize("threads", [0, -5])
    def test_nonpositive_threads_rejected(self, tiny3, threads):
        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        with pytest.raises(DomainError):
            sample_counts_matrix(
                table, calib, count=4, base_seed=0, threads=threads
            )

    def test_threads_above_the_cpu_count_are_capped(
        self, tiny3, tmp_path, monkeypatch
    ):
        # a pool that records its size and runs its work inline, so a huge
        # thread count starts no thread
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

            def submit(self, fn, *args):
                return SimpleNamespace(result=lambda value=fn(*args): value)

        table, calib, _ = calibrated(tiny3, MODE_UNTRUNCATED)
        # several row tiles and several CSV slices, so both pools get work
        monkeypatch.setattr(synth, "ROW_TILE", 3)
        monkeypatch.setattr(synth, "WRITE_ROWS", 2 * table.size)
        want = sample_counts_matrix(table, calib, count=10, base_seed=2)
        write_replicates_csv(tmp_path / "want.csv", table, want)
        monkeypatch.setattr(synth, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(synth.os, "cpu_count", lambda: 2)
        got = sample_counts_matrix(table, calib, count=10, base_seed=2, threads=10**6)
        write_replicates_csv(tmp_path / "got.csv", table, got, threads=10**6)
        assert sizes and max(sizes) <= 2
        assert np.array_equal(got, want)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


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

    @pytest.mark.parametrize("tail_lo, raises", [
        (50, True), (-30, True), (11, True), (7, True), (10, False), (8, False),
    ])
    def test_a_tail_no_head_total_reaches_raises(self, tail_lo, raises):
        # head kernels that emit 0 or 1 and 5 or 6, so the head leaves 8, 9
        # or 10 of a total of 15; a tail table missing all three accepts
        # no proposal, and one at 10 or at 8 alone accepts a third or a
        # sixth of them
        bank = bank_of(
            MassTable(lo=0, vals=np.array([1.0, 0.5]), offset=0.0),
            MassTable(lo=5, vals=np.array([1.0, 1.0]), offset=0.0),
        )
        tail = MassTable(
            lo=tail_lo, vals=np.ones(3 if tail_lo < 0 else 1), offset=0.0
        )
        z = np.zeros((6, 3), dtype=np.int64)
        if raises:
            with pytest.raises(InfeasibilityError, match="misses every total"):
                synth._draw_head(bank, 2, tail, 15, 1, z)
            return
        remaining, proposals = synth._draw_head(bank, 2, tail, 15, 1, z)
        assert proposals >= 6
        assert np.all(np.isin(z[:, 0], [0, 1]) & np.isin(z[:, 1], [5, 6]))
        assert np.all(remaining[:, 0] == 15 - z[:, :2].sum(axis=1))
        assert np.all(remaining == tail_lo)

    @pytest.mark.parametrize("reach", ["far below", "just below", "far above"])
    @pytest.mark.parametrize("step", ["row", "per-total"])
    def test_a_row_no_completion_table_reaches_raises(self, reach, step):
        params = random_params(MODE_TRUNCATED, 0)
        block = 4
        bank = mechanism.stratum_weight_table(params)
        checkpoints = backward_pass(params, bank, block)
        # a stratum reaches len(T_{i+1}.vals) + m - 1 <= y_total + m totals;
        # more rows than that take its per-total cdf
        count = 1 if step == "row" else params.y_total + int(bank.width.max()) + 1
        after = dict(mechanism.suffix_tables(
            bank, checkpoints[block], block, 1, params.y_total
        ))[1]
        total = {
            "far below": 0,
            # every total the row reads from T_1 is T_1's lo - 1 or less
            "just below": after.lo + bank[0].lo - 1,
            "far above": 10 * params.y_total,
        }[reach]
        remaining = np.full((count, 1), params.y_total)
        remaining[-1] = total  # the rows before it can all be drawn
        with pytest.raises(InfeasibilityError, match="no exact draw exists"):
            synth._draw_chunk(
                params, checkpoints, bank, block,
                np.full((count, params.size), 0.5), remaining=remaining,
            )

    # stratum 0 reaches 3 + 3 - 1 = 5 totals: 6 rows take its per-total cdf
    @pytest.mark.parametrize("count", [1, 6])
    def test_zero_conditional_mass_raises(self, count):
        # hand-built tables whose products underflow: 1e-200 * 1e-200 is
        # 0.0 in double precision, so no candidate carries any mass
        params = KernelParams(
            shape=np.ones(2), log_p=np.full(2, -1.0),
            lo=np.zeros(2), hi=np.full(2, 2), y_total=2,
        )
        tiny = MassTable(lo=0, vals=np.full(3, 1e-200), offset=0.0)
        checkpoints = {0: tiny, 1: tiny, 2: delta_table()}
        with pytest.raises(
            InfeasibilityError,
            match="^conditional mass of stratum 0 underflowed to zero; no exact",
        ):
            synth._draw_chunk(
                params, checkpoints, bank_of(tiny, tiny), 1,
                np.full((count, 2), 0.5),
            )
