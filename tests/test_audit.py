"""Exact privacy verification against enumeration oracles."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import pgsynth.audit as audit_mod
import pgsynth.mechanism as mechanism
from pgsynth.audit import audit, enumerate_feasible, exact_joint_pmf, ratio_curve
from pgsynth.calibration import (
    Calibration,
    MODE_TRUNCATED,
    MODE_UNTRUNCATED,
    solve_hyperparameters,
)
from pgsynth.errors import (
    CalibrationError,
    DomainError,
    DominanceError,
    EnumerationCapError,
    InfeasibilityError,
)
from pgsynth.fixtures import demo_rates, demo_table
from pgsynth.mechanism import (
    KernelParams,
    backward_pass,
    build_kernel_params,
    stratum_weight_table,
)
from pgsynth.strata import (
    PriorSpec,
    RatesTable,
    StrataTable,
    build_prior,
    compute_bounds,
)

from _oracles import (
    audit_enumerated,
    boxed_compositions,
    conditioned_law_direct,
    dirichlet_multinomial_pmf,
    exact_bivariate_pmf,
    multinomial_log_pmf,
    neighbor_log_pmfs,
    normalizer_direct,
    prior_allocation_log_pmf,
    ratio_curve_bivariate,
    theorem1_bound_check,
    total_variation,
)


def het3(y=(1, 3, 2)):
    table = StrataTable(
        dim_names=("g",),
        keys=(("x",), ("y",), ("z",)),
        n=np.array([40, 160, 90]),
        y=np.array(y),
    )
    w = np.array([2.0, 3.0, 4.0]) / 9.0
    prior = PriorSpec(
        lambda0=w * table.y_total / table.n, rescale_factor=1.0, source=None
    )
    return table, prior


def pair40_160(y_total):
    """Criterion 03's two-stratum instance: n = (40, 160), weights (0.3, 0.7)."""
    n = np.array([40, 160])
    w = np.array([0.3, 0.7])
    y = np.floor(w * y_total).astype(np.int64)
    y[0] += y_total - y.sum()
    table = StrataTable(dim_names=("g",), keys=(("s0",), ("s1",)), n=n, y=y)
    prior = PriorSpec(lambda0=w * y_total / n, rescale_factor=1.0, source=None)
    return table, prior


def weighted(n, weights, y_total):
    """Instance whose expected counts follow weights (criterion 03's form)."""
    n = np.asarray(n)
    w = np.asarray(weights, dtype=np.float64)
    y = np.floor(w * y_total).astype(np.int64)
    y[0] += y_total - y.sum()
    keys = tuple((f"s{i}",) for i in range(len(n)))
    table = StrataTable(dim_names=("g",), keys=keys, n=n, y=y)
    prior = PriorSpec(lambda0=w * y_total / n, rescale_factor=1.0, source=None)
    return table, prior


# expected counts 10:1 apart, where calibration misses epsilon = 1
CORNER = ((50, 60, 70, 80, 90), np.array([1, 2, 4, 8, 10]) / 25.0, 30)


def calibrated(table, prior, epsilon, mode, alpha=0.05):
    bounds = (
        compute_bounds(prior, table, alpha, 1.0) if mode == MODE_TRUNCATED else None
    )
    return solve_hyperparameters(table, prior, epsilon, mode=mode, bounds=bounds)


def scaled(calib, factor):
    """The calibration with a and b multiplied by factor (same prior mean)."""
    return replace(calib, a=calib.a * factor, b=calib.b * factor)


def criterion_03_grid():
    for n, w in (((40, 160), (0.3, 0.7)), ((40, 160, 90), (2 / 9, 3 / 9, 4 / 9))):
        for y_total in range(2, 11):
            table, prior = weighted(n, w, y_total)
            for epsilon in (0.5, 1.0, 2.0):
                for mode in (MODE_UNTRUNCATED, MODE_TRUNCATED):
                    yield table, calibrated(table, prior, epsilon, mode)


def log_ratio_at(report, table, calib):
    """|log p(z|y) - log p(z|x)| at the reported point, from the enumerated law."""
    z = np.asarray(report.argmax_z)
    out = []
    for counts in (report.argmax_pair.y, report.argmax_pair.x):
        support, logp = exact_joint_pmf(counts, calib, table)
        out.append(float(logp[np.flatnonzero((support == z).all(axis=1))[0]]))
    return abs(out[0] - out[1])


def assert_matches_oracle(table, calib, tol):
    got = audit(table, calib)
    want = audit_enumerated(table, calib)
    assert abs(got.max_abs_log_ratio - want.max_abs_log_ratio) <= tol
    assert got.passed == want.passed
    params = build_kernel_params(table.y, table, calib)
    assert got.checked_outputs == want.checked_outputs == len(
        enumerate_feasible(params.lo, params.hi, table.y_total)
    )
    assert got.checked_datasets == want.checked_datasets
    assert log_ratio_at(got, table, calib) == pytest.approx(
        got.max_abs_log_ratio, abs=1e-9
    )
    return got, want


def assert_same_curve(got, want):
    assert np.array_equal(got.z, want.z)
    assert np.array_equal(got.ratio, want.ratio)
    assert got.attaining_y == want.attaining_y
    assert got.attaining_x == want.attaining_x


def law_from_package(counts, calib, table):
    support, logp = exact_joint_pmf(counts, calib, table)
    return {tuple(int(v) for v in row): mp.e ** mp.mpf(float(lp))
            for row, lp in zip(support, logp)}


def law_from_oracle(counts, calib, table, bounds=None):
    y_tot = int(np.asarray(counts).sum())
    if bounds is not None:
        clamped = np.clip(counts, bounds.L, bounds.U)
        lo = bounds.L.tolist()
        hi = np.minimum(bounds.U, y_tot).tolist()
    else:
        clamped = np.asarray(counts)
        lo = [0] * table.size
        hi = [y_tot] * table.size
    shapes = (clamped + calib.a).tolist()
    ps = (table.n / (calib.b + 2.0 * table.n)).tolist()
    return conditioned_law_direct(y_tot, shapes, ps, lo, hi)


class TestExactJointPmf:
    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    def test_matches_enumeration_oracle(self, mode):
        table, prior = het3()
        bounds = (
            compute_bounds(prior, table, 0.05, 1.0)
            if mode == MODE_TRUNCATED else None
        )
        calib = solve_hyperparameters(table, prior, 1.0, mode=mode, bounds=bounds)
        pkg = law_from_package(table.y, calib, table)
        direct = law_from_oracle(table.y, calib, table, bounds)
        assert set(pkg) == set(direct)
        assert total_variation(pkg, direct) < 1e-12

    def test_pmf_sums_to_one(self):
        table, prior = het3()
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        support, logp = exact_joint_pmf(table.y, calib, table)
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(support.sum(axis=1) == table.y_total)

    def test_depends_on_counts_not_just_total(self):
        # the law conditions on the dataset, not only its sum
        table, prior = het3((1, 3, 2))
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        a = law_from_package((1, 3, 2), calib, table)
        b = law_from_package((6, 0, 0), calib, table)
        assert total_variation(a, b) > 0.01


class TestBivariatePmf:
    def test_matches_joint_marginal_under_pooled_homogeneity(self):
        # pooling the rest into one kernel is exact when the pooled
        # strata share a success probability; a symmetric instance
        # guarantees that, so the marginal must agree to roundoff
        table = StrataTable(
            dim_names=("g",),
            keys=(("x",), ("y",), ("z",)),
            n=np.array([50, 50, 50]),
            y=np.array([1, 3, 2]),
        )
        prior = PriorSpec(
            lambda0=np.full(3, table.y_total / 150.0),
            rescale_factor=1.0, source=None,
        )
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        support, logp = exact_joint_pmf(table.y, calib, table)
        z_vals, logm = exact_bivariate_pmf(0, table.y, calib, table)
        joint = np.exp(logp)
        for z, lm in zip(z_vals, logm):
            marg = joint[support[:, 0] == z].sum()
            assert math.exp(lm) == pytest.approx(marg, abs=1e-10)

    def test_normalized_on_heterogeneous_instance(self):
        table, prior = het3()
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        z_vals, logm = exact_bivariate_pmf(0, table.y, calib, table)
        assert z_vals.tolist() == list(range(table.y_total + 1))
        assert np.exp(logm).sum() == pytest.approx(1.0, abs=1e-12)


class TestAudit:
    def test_calibrated_demo_passes_with_anchor_value(self, demo):
        table, prior = demo
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        report = audit(table, calib, epsilon=1.0)
        assert report.passed
        assert report.max_abs_log_ratio == pytest.approx(0.9641015704, abs=1e-6)
        assert report.max_abs_log_ratio <= 1.0

    def test_truncated_demo_passes(self, demo):
        table, prior = demo
        bounds = compute_bounds(prior, table, 1e-4, 1.0)
        calib = solve_hyperparameters(
            table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
        )
        report = audit(table, calib, epsilon=1.0)
        assert report.passed
        assert report.max_abs_log_ratio == pytest.approx(0.7219, abs=1e-3)
        assert report.exchange_rule_applied

    def test_undersized_prior_fails_audit(self, demo):
        # halving the calibrated shapes must break the bound: the audit
        # is a real check, not a rubber stamp
        table, prior = demo
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        weak = Calibration(
            mode=calib.mode, epsilon=calib.epsilon,
            a=calib.a / 2.0, b=calib.b / 2.0,
            slack=calib.slack, converged=True, iterations=calib.iterations,
        )
        report = audit(table, weak, epsilon=1.0)
        assert not report.passed
        assert report.max_abs_log_ratio > 1.0

    def test_truncated_heterogeneity_corner_exceeds_the_budget(self):
        # expected counts 10:1 apart: the closed-form calibration misses
        # epsilon = 1 in truncated mode too (the corner calibration.py
        # documents)
        table, prior = weighted(*CORNER)
        report = audit(table, calibrated(table, prior, 1.0, MODE_TRUNCATED))
        assert not report.passed
        assert report.max_abs_log_ratio == pytest.approx(
            1.0377706412736591, abs=1e-9
        )

    def test_untruncated_heterogeneity_corner_exceeds_the_budget(self):
        # the same corner in untruncated mode, over all 46,376 datasets
        table, prior = weighted(*CORNER)
        report = audit(table, calibrated(table, prior, 1.0, MODE_UNTRUNCATED))
        assert report.passed is False
        assert report.max_abs_log_ratio == pytest.approx(
            1.2008689921644375, abs=1e-9
        )

    @pytest.mark.parametrize("epsilon, worst", [
        (0.3, 0.3108717692909977),
        (0.5, 0.5329552543093996),
        (0.8, 0.8204678239745249),
    ])
    def test_untruncated_demo_exceeds_the_budget_below_one(self, demo, epsilon, worst):
        # the demo's rates are only 13 % apart (15 / 1000 against
        # 85 / 5000), yet the closed form misses these budgets untruncated
        table, prior = demo
        calib = solve_hyperparameters(table, prior, epsilon, mode=MODE_UNTRUNCATED)
        report = audit(table, calib, epsilon=epsilon)
        assert report.passed is False
        assert report.max_abs_log_ratio == pytest.approx(worst, abs=1e-9)
        if epsilon == 0.5:
            assert report.argmax_pair.y == (99, 1)
            assert report.argmax_pair.x == (100, 0)
            assert report.argmax_z == (100, 0)

    def test_worst_pair_is_reported_correctly(self, demo):
        table, prior = demo
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        report = audit(table, calib, epsilon=1.0)

        def logpmf_at(counts, z):
            support, logp = exact_joint_pmf(counts, calib, table)
            lookup = {tuple(int(v) for v in row): float(lp)
                      for row, lp in zip(support, logp)}
            return lookup[z]

        z = tuple(report.argmax_z)
        gap = abs(logpmf_at(report.argmax_pair.y, z)
                  - logpmf_at(report.argmax_pair.x, z))
        assert gap == pytest.approx(report.max_abs_log_ratio, abs=1e-9)

    def test_boxes_are_not_a_positional_argument(self, demo):
        # epsilon and cap are keyword-only, so an old call that still
        # passes boxes fails instead of reading them as epsilon
        table, prior = demo
        bounds = compute_bounds(prior, table, 1e-4, 1.0)
        calib = solve_hyperparameters(
            table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
        )
        with pytest.raises(TypeError):
            audit(table, calib, calib.bounds)
        with pytest.raises(TypeError):
            exact_joint_pmf(table.y, calib, table, calib.bounds)

    def test_enumeration_cap(self, demo):
        table, prior = demo
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        with pytest.raises(EnumerationCapError):
            audit(table, calib, epsilon=1.0, cap=10)


def benchmark_instance(n, weights, y_total):
    """An instance the way the benchmark writes it: rates weights / n."""
    y = [int(y_total * w) for w in weights]
    y[0] += y_total - sum(y)
    keys = tuple((f"s{i}",) for i in range(len(n)))
    table = StrataTable(dim_names=("g",), keys=keys, n=n, y=y)
    rates = RatesTable(
        dim_names=("g",), rates={k: w / m for k, w, m in zip(keys, weights, n)}
    )
    return table, build_prior(table, rates)


TRI100 = ((40, 160, 90), (2 / 9, 3 / 9, 4 / 9), 100)
QUAD24 = ((40, 160, 90, 70), (0.22, 0.24, 0.26, 0.28), 24)


class TestAgainstEnumeration:
    def test_criterion_03_grid_matches_oracle(self):
        # the closed-form corners against every output, on all 108
        # instances; the winning pair may come back as its symmetric twin
        checked = 0
        for table, calib in criterion_03_grid():
            got, want = assert_matches_oracle(table, calib, 1e-12)
            assert {got.argmax_pair.y, got.argmax_pair.x} == {
                want.argmax_pair.y, want.argmax_pair.x
            }
            checked += 1
        assert checked == 108

    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    def test_weakened_grid_matches_oracle(self, mode):
        # a third of the calibrated a and b: most of these audits fail,
        # so the worst pair is no longer pinned by the calibration
        failed = 0
        for y_total in range(2, 9):
            table, prior = weighted((40, 160, 90), (2 / 9, 3 / 9, 4 / 9), y_total)
            calib = scaled(calibrated(table, prior, 1.0, mode), 1 / 3)
            got, _ = assert_matches_oracle(table, calib, 1e-12)
            failed += not got.passed
        assert failed >= 4

    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    @pytest.mark.parametrize("factor", [1.0, 0.3])
    def test_every_pair_matches_its_enumerated_worst(self, mode, factor):
        # the walk holds each pair and its reverse, whose corners swap, so
        # the overall maximum hides a lost corner; each pair's own does not
        table, prior = weighted((40, 160, 90), (2 / 9, 3 / 9, 4 / 9), 7)
        calib = scaled(calibrated(table, prior, 1.0, mode), factor)
        params = build_kernel_params(table.y, table, calib)
        comps = enumerate_feasible([0, 0, 0], [7, 7, 7], 7)
        keys, inverse = audit_mod._distinct_clamped(comps, calib)
        shapes = keys + calib.a
        log_c = audit_mod._log_normalizers(keys, params, calib)
        got = []
        for rows, x_rows, i, j in audit_mod._pair_chunks(comps, 7):
            y, x = inverse[rows], inverse[x_rows]
            bound = audit_mod._pair_bound(
                params, shapes, y, x, log_c[y] - log_c[x], i, j
            )
            got += [
                (tuple(comps[r].tolist()), v, zi, zj)
                for r, v, zi, zj in zip(x_rows, *bound)
            ]
        support, walk = neighbor_log_pmfs(table, calib)
        assert len(got) == len(walk) > 0
        for (x, value, z_i, z_j), (_, want_x, i, j, lp_y, lp_x) in zip(got, walk):
            assert x == want_x
            diff = np.abs(lp_y - lp_x)
            assert value == pytest.approx(diff.max(), abs=1e-12)
            at = (support[:, i] == z_i) & (support[:, j] == z_j)
            assert at.any()
            np.testing.assert_allclose(diff[at], value, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(2, 4),
        y_total=st.integers(2, 12),
        log_weights=st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
        n=st.lists(st.integers(20, 500), min_size=4, max_size=4),
        epsilon=st.sampled_from([0.5, 1.0, 2.0]),
        mode=st.sampled_from([MODE_UNTRUNCATED, MODE_TRUNCATED]),
        factor=st.floats(0.2, 1.0),
    )
    def test_random_instances_match_oracle(
        self, size, y_total, log_weights, n, epsilon, mode, factor
    ):
        # expected-count ratios up to 10^3, calibrations scaled down so
        # that passing and failing audits both occur
        w = 10.0 ** np.asarray(log_weights[:size])
        table, prior = weighted(n[:size], w / w.sum(), y_total)
        try:
            calib = calibrated(table, prior, epsilon, mode)
        except (DominanceError, CalibrationError):
            assume(False)
        assert_matches_oracle(table, scaled(calib, factor), 1e-10)


class TestPairChunks:
    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    def test_chunk_size_does_not_change_report(self, monkeypatch, mode):
        table, prior = weighted((40, 160, 90, 70), (0.22, 0.24, 0.26, 0.28), 9)
        calib = scaled(calibrated(table, prior, 1.0, mode), 0.5)
        reference = audit(table, calib)
        for chunk in (1, 7):
            monkeypatch.setattr(audit_mod, "PAIR_CHUNK", chunk)
            assert audit(table, calib) == reference

    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    def test_chunk_size_does_not_change_curve(self, monkeypatch, mode):
        # a step holds PAIR_CHUNK // outputs pairs, rounded down to whole
        # datasets of up to two pairs, at least one; PAIR_CHUNK 1 or 7
        # gives steps of one dataset and 7 * outputs steps of three, and
        # each output must still keep the first pair in walk order that
        # attains it
        table, prior = pair40_160(12)
        calib = scaled(calibrated(table, prior, 1.0, mode), 0.5)
        reference = ratio_curve(table, calib)
        for chunk in (1, 7, 7 * len(reference.z)):
            monkeypatch.setattr(audit_mod, "PAIR_CHUNK", chunk)
            assert_same_curve(ratio_curve(table, calib), reference)

    @pytest.mark.parametrize("instance, mode", [
        (TRI100, MODE_UNTRUNCATED),
        (QUAD24, MODE_TRUNCATED),
    ], ids=["tri100u", "quad24t"])
    def test_one_audit_allocates_at_most_4_mb(self, instance, mode):
        # a step reads the per-key shapes of strata i and j only, so no
        # step gathers a pair x strata copy of them
        table, prior = benchmark_instance(*instance)
        calib = calibrated(table, prior, 1.0, mode)
        audit(table, calib)  # imports and caches are not the audit's
        tracemalloc.start()
        try:
            audit(table, calib)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0e6

    def test_ties_keep_the_first_pair_in_walk_order(self, monkeypatch):
        # point boxes leave one output, where every pair's ratio is 1, so
        # every chunking must report the walk's first pair
        table, prior = pair40_160(6)
        calib = calibrated(table, prior, 1.0, MODE_TRUNCATED)
        point = replace(calib, bounds=replace(calib.bounds, L=[2, 4], U=[2, 4]))
        for chunk in (1, 7, audit_mod.PAIR_CHUNK):
            monkeypatch.setattr(audit_mod, "PAIR_CHUNK", chunk)
            curve = ratio_curve(table, point)
            assert curve.ratio.tolist() == [1.0]
            assert curve.attaining_y == [(0, 6)]
            assert curve.attaining_x == [(1, 5)]


class TestNormalizers:
    def test_shared_weight_tables_give_backward_pass_normalizers(self):
        # one kernel table per (stratum, clamped count) and one T_2 per
        # clamped suffix, shared by all datasets, must give each dataset's
        # own ln C to a few ulps: the products sum in another order than
        # the recursion's last two steps (2 ulps at most measured here)
        table, prior = weighted((40, 160, 90), (2 / 9, 3 / 9, 4 / 9), 12)
        for mode in (MODE_UNTRUNCATED, MODE_TRUNCATED):
            calib = calibrated(table, prior, 1.0, mode)
            comps = enumerate_feasible([0, 0, 0], [12, 12, 12], 12)
            params = build_kernel_params(table.y, table, calib)
            keys, inverse = audit_mod._distinct_clamped(comps, calib)
            got = audit_mod._log_normalizers(keys, params, calib)[inverse]
            want = []
            for y in comps:
                params = build_kernel_params(y, table, calib)
                tables = backward_pass(params, stratum_weight_table(params), 3)
                want.append(tables[0].log_at(params.y_total))
            np.testing.assert_array_max_ulp(got, np.array(want), maxulp=4)

    @pytest.mark.parametrize("instance, mode, steps", [
        (TRI100, MODE_UNTRUNCATED, 101),
        (TRI100, MODE_TRUNCATED, 22),
        (QUAD24, MODE_TRUNCATED, 90),
        (QUAD24, MODE_UNTRUNCATED, 350),
    ], ids=["tri100u", "tri100t", "quad24t", "quad24u"])
    def test_one_recursion_step_per_distinct_clamped_suffix(
        self, monkeypatch, instance, mode, steps
    ):
        # T_k depends on the clamped counts k..I-1 only, so the audit
        # builds it once per distinct keys[:, k:], not once per dataset,
        # and only down to T_2: strata 0 and 1 enter by matrix products
        table, prior = benchmark_instance(*instance)
        calib = calibrated(table, prior, 1.0, mode)
        total, size = table.y_total, table.size
        comps = enumerate_feasible([0] * size, [total] * size, total)
        keys, _ = audit_mod._distinct_clamped(comps, calib)
        suffixes = sum(
            len(np.unique(keys[:, k:], axis=0)) for k in range(2, size)
        )
        calls = []
        convolve = mechanism.convolve_mass

        def counted(*args):
            calls.append(None)
            return convolve(*args)

        monkeypatch.setattr(mechanism, "convolve_mass", counted)
        audit(table, calib)
        assert len(calls) == suffixes == steps

    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    def test_one_bank_holds_every_value_bit_for_bit(self, monkeypatch, mode):
        # the audit evaluates the kernels of every distinct clamped value
        # in one stratum_weight_table call; each value's tables must equal
        # those of its own call
        table, prior = benchmark_instance(*QUAD24)
        calib = calibrated(table, prior, 1.0, mode)
        banks = []

        def recorded(*args):
            banks.append(stratum_weight_table(*args))
            return banks[-1]

        monkeypatch.setattr(audit_mod, "stratum_weight_table", recorded)
        audit(table, calib)
        assert len(banks) == 1
        comps = enumerate_feasible([0] * 4, [24] * 4, 24)
        values = np.unique(audit_mod._distinct_clamped(comps, calib)[0])
        params = build_kernel_params(table.y, table, calib)
        assert len(banks[0].lo) == 4 * len(values)
        for v, value in enumerate(values.tolist()):
            own = stratum_weight_table(replace(params, shape=value + calib.a))
            for k in range(4):
                got, want = banks[0][4 * v + k], own[k]
                assert (got.lo, got.offset) == (want.lo, want.offset)
                assert np.array_equal(got.vals, want.vals)

    def test_untruncated_corner_normalizers_match_mpmath(self):
        # three of the corner's 46,376 datasets, the worst pair among them,
        # against the 60-digit sum over all 46,376 outputs
        table, prior = weighted(*CORNER)
        calib = calibrated(table, prior, 1.0, MODE_UNTRUNCATED)
        params = build_kernel_params(table.y, table, calib)
        keys = np.array([(29, 0, 1, 0, 0), (29, 0, 0, 0, 1), (3, 5, 7, 6, 9)])
        got = audit_mod._log_normalizers(keys, params, calib)
        ps = np.exp(params.log_p).tolist()
        for key, value in zip(keys, got):
            shapes = (key + calib.a).tolist()
            want = mp.log(normalizer_direct(30, shapes, ps, [0] * 5, [30] * 5))
            # the direct kernel divides by Gamma(shape); add it back
            want += sum(mp.loggamma(s) for s in shapes)
            assert value == pytest.approx(float(want), rel=1e-13)

    def test_unreachable_total_is_refused(self):
        # stratum 0 (n = 0) only ever emits 0 and stratum 1 at most 2, so
        # no output reaches the total 4: C = 0, without a RuntimeWarning
        table, prior = pair40_160(4)
        calib = replace(calibrated(table, prior, 1.0, MODE_UNTRUNCATED), a=np.ones(2))
        params = KernelParams(
            shape=np.ones(2), log_p=np.array([-np.inf, -1.0]),
            lo=np.zeros(2), hi=np.array([3, 2]), y_total=4,
        )
        keys = np.array([(1, 3), (2, 2), (4, 0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                InfeasibilityError, match="^the invariant total is unreachable$"
            ):
                audit_mod._log_normalizers(keys, params, calib)

    def test_composition_rank_is_walk_order(self):
        for total, parts in ((0, 3), (7, 1), (9, 2), (6, 4)):
            comps = enumerate_feasible([0] * parts, [total] * parts, total)
            rank = audit_mod._CompositionRank(total, parts)
            assert rank(comps).tolist() == list(range(len(comps)))


class TestBenchmarkPins:
    # max |log ratio| of the benchmark's four audits at epsilon = 1
    @pytest.mark.parametrize("instance, mode, pinned", [
        (None, MODE_UNTRUNCATED, 0.9641015704123674),
        (TRI100, MODE_UNTRUNCATED, 0.8873956148727302),
        (TRI100, MODE_TRUNCATED, 0.4910748634355855),
        (QUAD24, MODE_TRUNCATED, 0.899338411334675),
        (QUAD24, MODE_UNTRUNCATED, 1.013076369582052),
    ], ids=["demo", "tri100u", "tri100t", "quad24t", "quad24u"])
    def test_pinned_ratio(self, instance, mode, pinned):
        if instance is None:
            table = demo_table()
            prior = build_prior(table, demo_rates())
        else:
            table, prior = benchmark_instance(*instance)
        calib = calibrated(table, prior, 1.0, mode)
        report = audit(table, calib)
        assert report.max_abs_log_ratio == pytest.approx(pinned, abs=1e-9)
        assert report.passed == (pinned <= 1.0)
        assert log_ratio_at(report, table, calib) == pytest.approx(pinned, abs=1e-9)


class TestAuditDomain:
    def test_cap_below_one_is_a_domain_error(self, demo):
        table, prior = demo
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        for cap in (0, -5):
            with pytest.raises(DomainError):
                audit(table, calib, cap=cap)

    def test_cap_counts_datasets(self, demo):
        # the demo has 101 datasets and 101 outputs
        table, prior = demo
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        assert audit(table, calib, cap=101).checked_datasets == 101
        with pytest.raises(EnumerationCapError):
            audit(table, calib, cap=100)

    def test_empty_stratum_is_refused(self):
        # n = 0 makes a stratum a point mass at 0, so the box outputs
        # above 0 carry no mass and the corner bound does not apply
        table, prior = weighted((40, 160, 90), (2 / 9, 3 / 9, 4 / 9), 6)
        calib = calibrated(table, prior, 1.0, MODE_UNTRUNCATED)
        empty = replace(table, n=np.array([40, 160, 0]))
        with pytest.raises(DomainError):
            audit(empty, calib)


class TestEnumerateFeasible:
    def test_counts_and_constraints(self):
        out = enumerate_feasible([0, 0, 0], [4, 4, 4], 4)
        assert len(out) == 15  # compositions of 4 into 3 parts
        assert np.all(out.sum(axis=1) == 4)
        boxed = enumerate_feasible([1, 0, 0], [2, 3, 3], 4)
        assert np.all(boxed[:, 0] >= 1) and np.all(boxed[:, 0] <= 2)
        assert np.all(boxed.sum(axis=1) == 4)

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.lists(st.integers(0, 5), min_size=1, max_size=4),
        widths=st.lists(st.integers(-1, 6), min_size=4, max_size=4),
        total=st.integers(0, 20),
    )
    def test_matches_boxed_compositions_in_order(self, lo, widths, total):
        hi = [v + w for v, w in zip(lo, widths)]
        want = list(boxed_compositions(total, lo, hi))
        if not want:
            with pytest.raises(InfeasibilityError):
                enumerate_feasible(lo, hi, total)
            return
        got = enumerate_feasible(lo, hi, total, cap=len(want))
        assert [tuple(row) for row in got.tolist()] == want
        with pytest.raises(EnumerationCapError):
            enumerate_feasible(lo, hi, total, cap=len(want) - 1)

    def test_empty_box_is_infeasible(self):
        # the strata before the empty box still have 2 prefixes, more
        # than the cap; the box, not the cap, must decide the outcome
        with pytest.raises(InfeasibilityError):
            enumerate_feasible([0, 0, 3], [9, 9, 2], 4, cap=1)


class TestRatioCurve:
    def test_demo_curve_properties(self, demo):
        table, prior = demo
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        curve = ratio_curve(table, calib)
        assert curve.z.tolist() == list(range(0, 101))
        assert curve.argmax() == 100
        assert np.all(curve.ratio <= math.e * (1 + 1e-12))
        # the boundary output is attained from the most lopsided neighbors
        assert curve.attaining_y[-1] == (100, 0)
        assert curve.attaining_x[-1] == (99, 1)

    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    def test_demo_matches_bivariate_oracle(self, demo, mode):
        table, prior = demo
        bounds = (
            compute_bounds(prior, table, 1e-4, 1.0)
            if mode == MODE_TRUNCATED else None
        )
        calib = solve_hyperparameters(table, prior, 1.0, mode=mode, bounds=bounds)
        assert_same_curve(ratio_curve(table, calib), ratio_curve_bivariate(table, calib))

    def test_two_stratum_grid_matches_bivariate_oracle(self):
        # criterion 03's two-stratum half: the joint law on two strata is
        # the stratum-versus-rest law, so the curves agree bit for bit
        for y_total in range(2, 11):
            table, prior = pair40_160(y_total)
            for epsilon in (0.5, 1.0, 2.0):
                for mode in (MODE_UNTRUNCATED, MODE_TRUNCATED):
                    bounds = (
                        compute_bounds(prior, table, 0.05, 1.0)
                        if mode == MODE_TRUNCATED else None
                    )
                    calib = solve_hyperparameters(
                        table, prior, epsilon, mode=mode, bounds=bounds
                    )
                    assert_same_curve(
                        ratio_curve(table, calib), ratio_curve_bivariate(table, calib)
                    )

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_outputs_without_mass_have_no_attaining_pair(self):
        # n = 0 puts stratum 1 at 0, so every other output has mass under
        # no dataset: its difference is undefined and must not win
        table, prior = pair40_160(6)
        calib = calibrated(table, prior, 1.0, MODE_UNTRUNCATED)
        curve = ratio_curve(replace(table, n=np.array([40, 0])), calib)
        assert curve.ratio.tolist() == [0.0] * 6 + [1.0]
        assert curve.attaining_y == [None] * 6 + [(0, 6)]
        assert curve.attaining_x == [None] * 6 + [(1, 5)]

    def test_three_strata_refused(self):
        table, prior = het3()
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        with pytest.raises(DomainError):
            ratio_curve(table, calib)


class TestPriorAllocation:
    def test_matches_multinomial_closed_form(self):
        expected = np.array([15.0, 85.0])
        for z in ((100, 0), (40, 60), (0, 100)):
            got = prior_allocation_log_pmf(expected, z)
            want = float(multinomial_log_pmf(z, [0.15, 0.85]))
            assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_nonpositive_expectation(self):
        with pytest.raises(DomainError):
            prior_allocation_log_pmf([0.0, 1.0], [1, 1])


class TestTheorem1:
    def test_no_violations_on_seeded_sample(self):
        rows = theorem1_bound_check(count=500)
        assert len(rows) == 500
        assert all(r["holds"] for r in rows)
        assert all(r["log_c_ratio"] < r["log_bound"] for r in rows)

    def test_point_box_attains_equality(self):
        rows = theorem1_bound_check(
            configs=[(10, 4, 4, 2.0, 3.0, 5.0, 9.0, 6)]
        )
        assert rows[0]["holds"]
        assert rows[0]["log_c_ratio"] == pytest.approx(
            rows[0]["log_bound"], abs=1e-9
        )
