"""Exhaustive privacy verification against enumeration oracles."""

import math

import mpmath as mp
import numpy as np
import pytest

from pgsynth.audit import audit, enumerate_feasible, exact_joint_pmf, ratio_curve
from pgsynth.calibration import (
    Calibration,
    MODE_TRUNCATED,
    MODE_UNTRUNCATED,
    solve_hyperparameters,
)
from pgsynth.errors import DomainError, EnumerationCapError
from pgsynth.strata import PriorSpec, StrataTable, compute_bounds

from _oracles import (
    conditioned_law_direct,
    dirichlet_multinomial_pmf,
    exact_bivariate_pmf,
    multinomial_log_pmf,
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
            a=calib.a / 2.0, b=calib.b / 2.0, lambda0=calib.lambda0,
            slack=calib.slack, converged=True, iterations=calib.iterations,
        )
        report = audit(table, weak, epsilon=1.0)
        assert not report.passed
        assert report.max_abs_log_ratio > 1.0

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


class TestEnumerateFeasible:
    def test_counts_and_constraints(self):
        out = enumerate_feasible([0, 0, 0], [4, 4, 4], 4)
        assert len(out) == 15  # compositions of 4 into 3 parts
        assert np.all(out.sum(axis=1) == 4)
        boxed = enumerate_feasible([1, 0, 0], [2, 3, 3], 4)
        assert np.all(boxed[:, 0] >= 1) and np.all(boxed[:, 0] <= 2)
        assert np.all(boxed.sum(axis=1) == 4)


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
