"""Kernel parameter assembly and log-space mass tables vs direct sums."""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pgsynth.mechanism as mechanism
import pgsynth.synthesizer as synth
from pgsynth.audit import exact_joint_pmf
from pgsynth.calibration import (
    MODE_TRUNCATED,
    MODE_UNTRUNCATED,
    Calibration,
    solve_hyperparameters,
)
from pgsynth.distributions import log_negbin_kernel
from pgsynth.errors import InfeasibilityError
from pgsynth.fixtures import FixtureSpec, generate_fixture
from pgsynth.mechanism import (
    CUT,
    KernelParams,
    MassTable,
    backward_pass,
    build_kernel_params,
    convolve_mass,
    delta_table,
    stratum_weight_table,
    suffix_tables,
    tilt,
)
from pgsynth.strata import (
    PriorSpec,
    StrataTable,
    TruncationBounds,
    build_prior,
    compute_bounds,
)
from pgsynth.synthesizer import sample_counts_matrix

from _oracles import (
    backward_pass_uncut,
    law_gap,
    log_kernel_direct,
    normalizer_direct,
    stratum_weight_table_loop,
)


def instance():
    table = StrataTable(
        dim_names=("g",),
        keys=(("x",), ("y",), ("z",)),
        n=np.array([40, 160, 90]),
        y=np.array([2, 3, 3]),
    )
    w = np.array([2.0, 3.0, 4.0]) / 9.0
    prior = PriorSpec(lambda0=w * table.y_total / table.n)
    return table, prior


class TestKernelParams:
    def test_untruncated_support_and_shapes(self):
        table, prior = instance()
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        params = build_kernel_params(table.y, table, calib)
        assert params.lo.tolist() == [0, 0, 0]
        assert params.hi.tolist() == [8, 8, 8]
        assert np.allclose(params.shape, table.y + calib.a)
        # log_p = -log(2 + b/n)
        assert np.allclose(
            params.log_p, -np.log(2.0 + calib.b / table.n)
        )

    def test_truncated_clamps_counts_into_boxes(self):
        table, prior = instance()
        bounds = compute_bounds(prior, table, 0.05, 1.0)
        calib = solve_hyperparameters(
            table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
        )
        wild = np.array([8, 0, 0])  # same total, outside some boxes
        params = build_kernel_params(wild, table, calib)
        clamped = np.clip(wild, bounds.L, bounds.U)
        assert np.allclose(params.shape, clamped + calib.a)
        assert params.lo.tolist() == bounds.L.tolist()
        assert params.hi.tolist() == np.minimum(bounds.U, 8).tolist()

    def test_unreachable_total_rejected(self):
        with pytest.raises(InfeasibilityError):
            KernelParams(
                shape=np.array([1.0, 1.0]),
                log_p=np.array([-1.0, -1.0]),
                lo=np.array([0, 0]),
                hi=np.array([2, 2]),
                y_total=5,
            )

    def test_total_beyond_the_effective_boxes_is_unreachable(self):
        # the boxes sum to 5 >= 4, but stratum 0 (n = 0) only ever emits 0
        params = KernelParams(
            shape=np.ones(2), log_p=np.array([-np.inf, -1.0]),
            lo=np.zeros(2), hi=np.array([3, 2]), y_total=4,
        )
        with pytest.raises(
            InfeasibilityError, match="^the invariant total is unreachable$"
        ):
            backward_pass(params, stratum_weight_table(params), block=1)

    @pytest.mark.parametrize("split", [False, True])
    def test_total_below_the_cut_is_not_called_unreachable(
        self, monkeypatch, split
    ):
        # w(z) = Gamma(z + 21) / z! * e^-40z: the boxes admit 60, but its
        # untilted weight is about e^-2000 of T_0's peak, far below what a
        # max-normalized table holds; tilted onto the total it draws, with
        # or without a head
        table = StrataTable(
            dim_names=("g",), keys=(("x",), ("y",), ("z",)),
            n=np.full(3, 50), y=np.full(3, 20),
        )
        a = np.ones(3)
        b = 50.0 * (np.exp(40.0) - 2.0)  # log p = -log(2 + b / n) = -40
        calib = Calibration(
            mode=MODE_TRUNCATED, epsilon=1.0, a=a, b=np.full(3, b),
            slack=np.zeros(3), converged=True, iterations=0,
            bounds=TruncationBounds(
                L=np.zeros(3, dtype=np.int64), U=np.full(3, 40), alpha=0.05, c=1.0
            ),
        )
        params = build_kernel_params(table.y, table, calib)
        assert np.allclose(params.log_p, -40.0)
        with pytest.raises(InfeasibilityError) as err:
            backward_pass(params, stratum_weight_table(params), block=1)
        assert str(err.value) == (
            "the invariant total's weight is below 2^-1022 of the completion "
            "table's peak, so a max-normalized table cannot represent it"
        )
        if split:
            monkeypatch.setattr(synth, "SPLIT_MIN", 2)
        assert (synth._plan(params)[1] > 0) == split
        draws = sample_counts_matrix(table, calib, count=20_000, base_seed=4)
        tv, floor = law_gap(draws, *exact_joint_pmf(table.y, calib, table))
        assert tv < 1.25 * floor + 0.005, (tv, floor)


class TestMassTables:
    def test_weight_table_matches_direct_kernel(self):
        table, prior = instance()
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        params = build_kernel_params(table.y, table, calib)
        for i, mass in enumerate(stratum_weight_table(params)):
            assert mass.vals.max() == pytest.approx(1.0)
            p = math.exp(params.log_p[i])
            for z in range(params.lo[i], params.hi[i] + 1):
                want = float(
                    log_kernel_direct(z, float(params.shape[i]), p)
                    + mp.loggamma(float(params.shape[i]))
                )  # direct form divides by Gamma(shape); the package does not
                assert mass.log_at(z) == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_convolution_is_polynomial_product(self):
        a = MassTable(lo=1, vals=np.array([0.5, 1.0]), offset=0.0)
        b = MassTable(lo=2, vals=np.array([1.0, 0.25]), offset=math.log(2.0))
        out = convolve_mass(a, b, cap=10)
        # (0.5 x + x^2)(2 x^2 + 0.5 x^3) aligned at lo = 3
        assert out.lo == 3
        want = np.array([1.0, 2.25, 0.5])
        got = out.vals * math.exp(out.offset)
        assert np.allclose(got, want)

    def test_convolution_truncates_above_cap(self):
        a = MassTable(lo=0, vals=np.ones(5), offset=0.0)
        out = convolve_mass(a, delta_table(), cap=2)
        assert out.hi == 2

    def test_log_at_outside_support(self):
        t = MassTable(lo=3, vals=np.array([1.0]), offset=0.0)
        assert t.log_at(2) == -np.inf and t.log_at(4) == -np.inf


def kernel_table(lo: int, width: int, shape: float, log_p: float) -> MassTable:
    logw = log_negbin_kernel(np.arange(lo, lo + width), shape, log_p)
    peak = float(logw.max())
    return MassTable(lo=lo, vals=np.exp(logw - peak), offset=peak)


class TestCut:
    def test_ends_trimmed_middle_kept(self):
        tiny = 1e-320  # below CUT of a peak of 1
        weights = MassTable(
            lo=0, vals=np.array([tiny, 1.0, tiny, 0.5, tiny]), offset=0.0
        )
        table = MassTable(lo=3, vals=np.array([1.0, 0.0]), offset=0.0)
        got = convolve_mass(weights, table, cap=100)
        assert got.lo == 4
        uncut = np.convolve(weights.vals, table.vals)
        want = uncut / uncut.max()
        assert got.vals.tolist() == want[1:4].tolist() == [1.0, tiny, 0.5]

    @pytest.mark.parametrize("front, back", [
        (0, 0), (63, 63), (64, 0), (0, 64), (69, 192),
    ])
    def test_ends_found_inside_and_beyond_the_window(self, front, back):
        # the kept entries start at index front and end back entries
        # before the end, however long the runs of zeros around them
        body = [0.5, 1e-320, 1.0, 0.25]
        weights = MassTable(
            lo=0, vals=np.concatenate([np.zeros(front), body, np.zeros(back)]),
            offset=0.0,
        )
        got = convolve_mass(weights, delta_table(), cap=10**6)
        assert got.lo == front
        assert got.vals.tolist() == body

    @settings(max_examples=150, deadline=None)
    @given(
        lo=st.tuples(st.integers(0, 30), st.integers(0, 30)),
        width=st.tuples(st.integers(1, 400), st.integers(1, 400)),
        shape=st.tuples(
            st.floats(0.01, 0.99) | st.floats(1.0, 60.0), st.floats(0.01, 60.0)
        ),
        log_p=st.tuples(st.floats(-9.0, -0.05), st.floats(-9.0, -0.05)),
        cap_slack=st.integers(0, 1300),
        pad=st.tuples(*[st.integers(0, 192)] * 2),
    )
    def test_one_step_keeps_exactly_the_entries_above_the_cut(
        self, lo, width, shape, log_p, cap_slack, pad
    ):
        weights, table = (
            kernel_table(*args) for args in zip(lo, width, shape, log_p)
        )
        # zeros around the kernel, so the kept entries may start or end
        # far from the ends of the convolution
        weights = MassTable(
            lo=weights.lo - pad[0],
            vals=np.concatenate(
                [np.zeros(pad[0]), weights.vals, np.zeros(pad[1])]
            ),
            offset=weights.offset,
        )
        base = weights.lo + table.lo
        cap = base + pad[0] + cap_slack
        got = convolve_mass(weights, table, cap)
        uncut = np.convolve(weights.vals, table.vals)[: cap - base + 1]
        peak = uncut.max()
        first = got.lo - base
        last = first + len(got.vals) - 1
        assert np.array_equal(got.vals, uncut[first:last + 1] / peak)
        assert got.offset == weights.offset + table.offset + np.log(peak)
        assert uncut[first] >= CUT * peak and uncut[last] >= CUT * peak
        dropped = np.concatenate([uncut[:first], uncut[last + 1:]])
        assert np.all(dropped < CUT * peak)

    def test_long_chain_normalizer_matches_uncut_recursion(self):
        rng = np.random.default_rng(11)
        size, y_total = 2_000, 300
        params = KernelParams(
            shape=rng.uniform(0.05, 4.0, size),
            log_p=-np.log(2.0 + rng.uniform(5.0, 400.0, size)),
            lo=np.zeros(size, dtype=np.int64),
            hi=np.full(size, y_total, dtype=np.int64),
            y_total=y_total,
        )
        want, uncut_length = backward_pass_uncut(params)
        weights = stratum_weight_table(params)
        got = backward_pass(params, weights, block=45)[0].log_at(y_total)
        assert got == pytest.approx(want, rel=1e-12)
        cut_length = sum(
            len(t.vals)
            for _, t in suffix_tables(weights, delta_table(), size, 0, y_total)
        )
        assert cut_length < uncut_length


def random_params(mode, seed):
    """Random kernels at least 32 wide whose tables get trimmed at both ends.

    Truncated: sharp kernels (large shapes) with means of 10-40 in boxes
    from 35 below the mean to 60-160 above it. Untruncated: the full
    range [0, total], with the total near the kernels' summed means.
    """
    rng = np.random.default_rng(seed)
    size = int(rng.integers(30, 60))
    if mode == MODE_TRUNCATED:
        mean = rng.uniform(10.0, 40.0, size)
        shape = rng.uniform(500.0, 2000.0, size)
        lo = np.maximum(0, mean - 35.0).astype(np.int64)
        hi = (mean + rng.uniform(60.0, 160.0, size)).astype(np.int64)
        y_total = int(mean.sum())
    else:
        shape = rng.uniform(0.05, 150.0, size)
        mean = shape * rng.uniform(0.05, 0.5, size)
        y_total = max(31, int(mean.sum()))
        lo = np.zeros(size, dtype=np.int64)
        hi = np.full(size, y_total)
    odds = mean / shape  # p / (1 - p)
    return KernelParams(
        shape=shape, log_p=np.log(odds / (1.0 + odds)),
        lo=lo, hi=hi, y_total=y_total,
    )


class TestReplay:
    @pytest.mark.parametrize("mode", [MODE_TRUNCATED, MODE_UNTRUNCATED])
    @pytest.mark.parametrize("seed", range(6))
    def test_replayed_rebuilds_equal_trimmed_tables(self, mode, seed):
        params = random_params(mode, seed)
        size, y_total = params.size, params.y_total
        block = 2 + seed
        weights = stratum_weight_table(params)
        checkpoints = backward_pass(params, weights, block)
        trimmed = dict(suffix_tables(weights, delta_table(), size, 0, y_total))
        # the steps trimmed each end of some table
        nxt = [*(trimmed[k] for k in range(1, size)), delta_table()]
        assert any(trimmed[k].lo > weights[k].lo + nxt[k].lo for k in range(size))
        assert any(
            trimmed[k].hi < min(y_total, weights[k].hi + nxt[k].hi)
            for k in range(size)
        )
        for start in range(0, size, block):
            end = min(start + block, size)
            for k, got in suffix_tables(
                weights, checkpoints[end], end, start, y_total
            ):
                want = trimmed[k]
                assert (got.lo, got.offset) == (want.lo, want.offset)
                assert np.array_equal(got.vals, want.vals)


class TestSuffixPass:
    @pytest.mark.parametrize("mode", [MODE_TRUNCATED, MODE_UNTRUNCATED])
    @pytest.mark.parametrize("start, block", [(1, 3), (17, 4), (29, 1)])
    def test_suffix_tables_equal_the_whole_pass(self, mode, start, block):
        # the same steps from T_I down, stopping at T_start, with no lookup
        # at the total and checkpoints counted from start
        params = random_params(mode, 2)
        size = params.size
        weights = stratum_weight_table(params)
        whole = backward_pass(params, weights, 1)
        checkpoints = backward_pass(params, weights, block, start)
        assert sorted(checkpoints) == sorted(
            {size, *range(start, size, block)}
        )
        for k, table in checkpoints.items():
            assert (table.lo, table.offset) == (whole[k].lo, whole[k].offset)
            assert np.array_equal(table.vals, whole[k].vals)


class TestTilt:
    @pytest.mark.parametrize("make", [
        *(lambda m=m, s=s: random_params(m, s)
          for m in (MODE_TRUNCATED, MODE_UNTRUNCATED) for s in range(3)),
        lambda: fixture_params(MODE_TRUNCATED),
        lambda: fixture_params(MODE_UNTRUNCATED),
    ])
    @pytest.mark.parametrize("shift", [-0.2, 0.0, 0.3])
    def test_tilted_means_sum_to_the_total(self, make, shift):
        # the total moved off the kernels' summed means, inside the boxes
        params = make()
        total = int(np.clip(
            round(params.y_total * (1.0 + shift)),
            params.lo.sum() + 1, params.hi.sum() - 1,
        ))
        params = replace(params, y_total=total)
        tau, var, bank = tilt(params)
        tilted = replace(params, log_p=params.log_p + tau)
        # the bank tilt returns is the tilted kernels', bit for bit
        want = stratum_weight_table(tilted)
        for name in ("lo", "width", "start", "offset", "vals"):
            assert np.array_equal(getattr(bank, name), getattr(want, name))
        means, variances = [], []
        for i in range(params.size):
            w = stratum_weight_table_loop(tilted, i)
            z = np.arange(w.lo, w.hi + 1)
            p = w.vals / w.vals.sum()
            means.append(p @ z)
            variances.append(p @ (z - means[-1]) ** 2)
        assert sum(means) == pytest.approx(total, abs=1e-5)
        np.testing.assert_allclose(var, variances, rtol=1e-6, atol=1e-9)
        # an empty stratum stays a point mass at zero
        assert np.array_equal(np.isneginf(tilted.log_p), np.isneginf(params.log_p))

    @pytest.mark.parametrize("mode", [MODE_TRUNCATED, MODE_UNTRUNCATED])
    def test_tilting_keeps_the_law(self, mode):
        # theta^z over the slice multiplies every weight by theta^y_total,
        # so ln C moves by exactly tau * y_total
        table, prior = instance()
        bounds = (
            compute_bounds(prior, table, 0.05, 1.0) if mode == MODE_TRUNCATED else None
        )
        calib = solve_hyperparameters(table, prior, 1.0, mode=mode, bounds=bounds)
        params = build_kernel_params(table.y, table, calib)
        for tau in (tilt(params)[0], -1.5, 2.0):
            tilted = replace(params, log_p=params.log_p + tau)
            got = backward_pass(tilted, stratum_weight_table(tilted), block=2)[0]
            want = backward_pass(params, stratum_weight_table(params), block=2)[0]
            got, want = (t.log_at(params.y_total) for t in (got, want))
            assert got - tau * params.y_total == pytest.approx(want, abs=1e-9)

    def test_totals_at_the_box_ends(self):
        # the root is at -inf or +inf: tau runs out until the means are
        # within TILT_TOL of the total, and the tilted tables hold the
        # total (a single vector)
        base = dict(
            shape=np.array([0.5, 3.0, 40.0]), log_p=np.array([-1.0, -2.0, -0.5]),
            lo=np.array([1, 2, 0]), hi=np.array([5, 5, 7]),
        )
        for total, sign in ((3, -1.0), (17, 1.0)):
            params = KernelParams(**base, y_total=total)
            tau, var, bank = tilt(params)
            assert sign * tau > 10.0 and var.sum() < mechanism.TILT_TOL
            tilted = replace(params, log_p=params.log_p + tau)
            assert np.isfinite(backward_pass(tilted, bank, block=2)[0].log_at(total))


def fixture_params(mode):
    fixture = generate_fixture(FixtureSpec(
        dims=(("county", 4), ("age", 3), ("site", 1), ("race", 3), ("sex", 2)),
        total_deaths=600, state_population=60_000, seed=5, urban_count=1,
    ))
    table = fixture.table
    prior = build_prior(table, fixture.rates)
    bounds = (
        compute_bounds(prior, table, 0.05, 1.0) if mode == MODE_TRUNCATED else None
    )
    calib = solve_hyperparameters(table, prior, 1.0, mode=mode, bounds=bounds)
    params = build_kernel_params(table.y, table, calib)
    # stratum 5 as if its population were 0: a point mass at zero
    empty = np.arange(params.size) == 5
    return replace(
        params,
        log_p=np.where(empty, -np.inf, params.log_p),
        lo=np.where(empty, 0, params.lo),
    )


class TestGroupedKernel:
    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    @pytest.mark.parametrize("group", [1, 50, 5000, None])
    def test_matches_per_stratum_oracle_bit_for_bit(self, monkeypatch, mode, group):
        # each stratum's slice of the bank is the oracle's table on the
        # kept range, and every oracle entry the bank dropped is exactly 0
        if group is not None:
            monkeypatch.setattr(mechanism, "KERNEL_GROUP", group)
        params = fixture_params(mode)
        bank = stratum_weight_table(params)
        assert len(bank.lo) == params.size
        assert np.array_equal(bank.start, np.cumsum(bank.width) - bank.width)
        assert len(bank.vals) == bank.width.sum()
        dropped = 0
        for i in range(params.size):
            table, want = bank[i], stratum_weight_table_loop(params, i)
            assert table.offset == want.offset
            assert table.vals.dtype == want.vals.dtype
            at, end = table.lo - want.lo, table.hi - want.lo + 1
            assert 0 <= at and end <= len(want.vals)
            assert np.array_equal(table.vals, want.vals[at:end])
            assert table.vals[0] > 0.0 and table.vals[-1] > 0.0
            assert not want.vals[:at].any() and not want.vals[end:].any()
            dropped += len(want.vals) - len(table.vals)
        # truncated boxes hold no zero; untruncated kernels are cut
        assert (dropped > 0) == (mode == MODE_UNTRUNCATED)
        assert bank[5].lo == 0 and bank[5].vals.tolist() == [1.0]

    @pytest.mark.parametrize("group", [1, 50, None])
    def test_infeasible_stratum_named_as_oracle_names_it(self, monkeypatch, group):
        if group is not None:
            monkeypatch.setattr(mechanism, "KERNEL_GROUP", group)
        params = fixture_params(MODE_UNTRUNCATED)
        dead = np.isin(np.arange(params.size), [17, 40])
        params = replace(
            params,
            log_p=np.where(dead, -np.inf, params.log_p),
            lo=np.where(dead, 1, params.lo),
        )
        with pytest.raises(InfeasibilityError) as oracle:
            for i in range(params.size):
                stratum_weight_table_loop(params, i)
        with pytest.raises(InfeasibilityError) as got:
            stratum_weight_table(params)
        assert str(got.value) == str(oracle.value)
        assert "stratum 17 " in str(got.value)


class TestNormalizer:
    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    def test_matches_direct_enumeration(self, mode):
        table, prior = instance()
        bounds = (
            compute_bounds(prior, table, 0.05, 1.0)
            if mode == MODE_TRUNCATED
            else None
        )
        calib = solve_hyperparameters(table, prior, 1.0, mode=mode, bounds=bounds)
        params = build_kernel_params(table.y, table, calib)
        checkpoints = backward_pass(params, stratum_weight_table(params), block=2)
        assert sorted(checkpoints) == [0, 2, 3]
        got = checkpoints[0].log_at(params.y_total)
        want = normalizer_direct(
            params.y_total,
            [float(s) for s in params.shape],
            [math.exp(lp) for lp in params.log_p],
            params.lo.tolist(),
            params.hi.tolist(),
        )
        # direct kernel divides by Gamma(shape); add it back per stratum
        offset = float(sum(mp.loggamma(float(s)) for s in params.shape))
        assert got == pytest.approx(float(mp.log(want)) + offset, abs=1e-9)

    def test_degenerate_population_is_point_mass(self):
        # a stratum with n = 0 can only emit 0; the rest absorb the total.
        # The solver refuses zero populations, so build the calibration by
        # hand the way a caller with externally chosen shapes would.
        from pgsynth.calibration import Calibration

        table = StrataTable(
            dim_names=("g",),
            keys=(("x",), ("y",)),
            n=np.array([0, 50]),
            y=np.array([0, 4]),
        )
        lam = np.array([0.1, 0.08])
        a = np.array([2.0, 2.0])
        calib = Calibration(
            mode=MODE_UNTRUNCATED, epsilon=1.0, a=a, b=a / lam,
            slack=np.zeros(2), converged=True, iterations=0,
        )
        params = build_kernel_params(table.y, table, calib)
        assert params.log_p[0] == -np.inf
        assert np.isfinite(
            backward_pass(params, stratum_weight_table(params), block=1)[0].log_at(4)
        )
