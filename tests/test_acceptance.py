"""Release gate: ten end-to-end checks with pinned tolerances.

Each test prints one `[criterion NN] PASS: ...` line on success; the
terminal summary in conftest.py collects them into a verdict table.
Budgets and tolerances here are fixed; loosening them is a release
decision, not a test fix.
"""

import json
import math
import time

import numpy as np
import pytest

from pgsynth.audit import audit, exact_joint_pmf, ratio_curve
from pgsynth.calibration import (
    MODE_TRUNCATED,
    MODE_UNTRUNCATED,
    solve_hyperparameters,
)
from pgsynth.cli import main as cli_main
from pgsynth.fixtures import (
    POPULATION_KEY_DIMS,
    FixtureSpec,
    demo_rates,
    demo_table,
    generate_fixture,
)
from pgsynth.strata import PriorSpec, StrataTable, build_prior, compute_bounds
from pgsynth.synthesizer import sample_counts_matrix
from pgsynth.utility import disparity_ratio

from _oracles import (
    dirichlet_multinomial_pmf,
    prior_allocation_log_pmf,
    theorem1_bound_check,
    untruncated_floor,
)


def make_instance(n, weights, y_total, y=None):
    """Instance with prior rates pinned so expected counts follow weights."""
    n = np.asarray(n)
    w = np.asarray(weights, dtype=np.float64)
    if y is None:
        y = np.floor(w * y_total).astype(np.int64)
        y[0] += y_total - y.sum()
    keys = tuple((f"s{i}",) for i in range(len(n)))
    table = StrataTable(dim_names=("g",), keys=keys, n=n, y=np.asarray(y))
    prior = PriorSpec(lambda0=w * y_total / n, rescale_factor=1.0, source=None)
    return table, prior


def demo_instance():
    table = demo_table()
    return table, build_prior(table, demo_rates())


def empirical_tv(draws, support, logp):
    exact = {tuple(row): p for row, p in zip(support.tolist(), np.exp(logp))}
    values, counts = np.unique(draws, axis=0, return_counts=True)
    freq = {tuple(row): c / draws.shape[0]
            for row, c in zip(values.tolist(), counts)}
    assert set(freq) <= set(exact), "sampler left the exact support"
    return 0.5 * sum(abs(freq.get(k, 0.0) - v) for k, v in exact.items())


def test_criterion_01_demo_calibration_anchors():
    """Both calibration modes reproduce the walkthrough numbers."""
    table, prior = demo_instance()
    t0 = time.perf_counter()
    untrunc = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
    bounds = compute_bounds(prior, table, 1e-4, 1.0)
    trunc = solve_hyperparameters(
        table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
    )
    elapsed = time.perf_counter() - t0

    assert untrunc.a[0] == pytest.approx(116.18635101, abs=1e-6)
    assert untrunc.a[1] == pytest.approx(58.19767069, abs=1e-6)
    np.testing.assert_allclose(untrunc.b, untrunc.a / prior.lambda0, rtol=1e-12)
    assert bounds.L.tolist() == [3, 52]
    assert bounds.U.tolist() == [30, 100]
    assert trunc.a[0] == pytest.approx(14.179281254, abs=1e-6)
    assert trunc.a[1] == pytest.approx(0.001, abs=1e-12)
    assert trunc.bounds.L.tolist() == [3, 70]
    assert trunc.bounds.U.tolist() == [30, 97]
    assert trunc.exchange_rule_applied
    assert elapsed < 1.0
    print(
        f"[criterion 01] PASS: demo anchors a=(116.18635101, 58.19767069) "
        f"untruncated, (14.17928125, 0.001) truncated, boxes "
        f"[3,30]x[70,97], solved in {elapsed:.3f}s"
    )


def test_criterion_02_untruncated_floor_scale():
    """The no-truncation prior floor at the published death total."""
    floor = untruncated_floor(26116, 1.0)
    assert floor == pytest.approx(15198.90367659933, abs=1e-6)
    assert floor > 15000.0
    print(
        f"[criterion 02] PASS: untruncated floor 26116/(e-1) = {floor:.8f} "
        "pseudo-deaths per stratum at epsilon=1"
    )


def test_criterion_03_privacy_grid_enumeration():
    """Exhaustive neighbor-by-output audit over 108 small instances."""
    t0 = time.perf_counter()
    grids = [
        ((40, 160), (0.3, 0.7)),
        ((40, 160, 90), (2 / 9, 3 / 9, 4 / 9)),
    ]
    checked = 0
    worst = -np.inf
    for n, w in grids:
        for y_total in range(2, 11):
            table, prior = make_instance(n, w, y_total)
            for epsilon in (0.5, 1.0, 2.0):
                for mode in (MODE_UNTRUNCATED, MODE_TRUNCATED):
                    bounds = (
                        compute_bounds(prior, table, 0.05, 1.0)
                        if mode == MODE_TRUNCATED else None
                    )
                    calib = solve_hyperparameters(
                        table, prior, epsilon, mode=mode, bounds=bounds
                    )
                    report = audit(
                        table, calib, epsilon=epsilon
                    )
                    margin = report.max_abs_log_ratio - epsilon
                    worst = max(worst, margin)
                    assert report.max_abs_log_ratio <= epsilon + 1e-9, (
                        f"violation at n={n}, y_total={y_total}, "
                        f"epsilon={epsilon}, mode={mode}"
                    )
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 108
    assert elapsed < 300.0
    print(
        f"[criterion 03] PASS: {checked} instances audited exhaustively, "
        f"worst margin {worst:+.6f} (<= 0 required), {elapsed:.1f}s"
    )


def test_criterion_04_normalizer_bound_sweep():
    """Randomized sweep of the normalizer ratio bound, no violations."""
    t0 = time.perf_counter()
    rows = theorem1_bound_check(count=10**4, y_total_max=50, seed=20260823)
    elapsed = time.perf_counter() - t0
    violations = [r for r in rows if not r["holds"]]
    assert len(rows) == 10**4
    assert not violations
    assert elapsed < 60.0
    worst_gap = min(r["log_bound"] - r["log_c_ratio"] for r in rows)
    print(
        f"[criterion 04] PASS: 10000 random configurations, 0 violations, "
        f"tightest gap {worst_gap:.3e}, {elapsed:.1f}s"
    )


def test_criterion_05_sampler_matches_exact_law():
    """One million draws per mode against the enumerated law."""
    table, prior = make_instance((40, 160, 90), (2 / 9, 3 / 9, 4 / 9), 8)
    t0 = time.perf_counter()
    tvs = {}
    for mode in (MODE_UNTRUNCATED, MODE_TRUNCATED):
        bounds = (
            compute_bounds(prior, table, 0.05, 1.0)
            if mode == MODE_TRUNCATED else None
        )
        calib = solve_hyperparameters(table, prior, 1.0, mode=mode, bounds=bounds)
        if mode == MODE_TRUNCATED:
            active = int((bounds.L > 0).sum()) + int(
                (np.minimum(bounds.U, table.y_total) < table.y_total).sum()
            )
            assert active >= 1, "boxes too slack to exercise truncation"
        draws = sample_counts_matrix(
            table, calib, count=10**6, base_seed=20260823
        )
        support, logp = exact_joint_pmf(table.y, calib, table)
        tvs[mode] = empirical_tv(draws, support, logp)
        assert tvs[mode] < 0.005
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"[criterion 05] PASS: empirical TV at 1e6 draws "
        f"untruncated={tvs[MODE_UNTRUNCATED]:.5f}, "
        f"truncated={tvs[MODE_TRUNCATED]:.5f} (< 0.005), {elapsed:.1f}s"
    )


def test_criterion_06_dirichlet_multinomial_reduction():
    """Homogeneous instances collapse to a Dirichlet-multinomial law."""
    table, prior = make_instance((50, 50), (0.5, 0.5), 6, y=(2, 4))
    calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
    support, logp = exact_joint_pmf(table.y, calib, table)
    alphas = (table.y + calib.a).tolist()
    worst = 0.0
    for row, lp in zip(support.tolist(), logp):
        dm = float(dirichlet_multinomial_pmf(row, alphas))
        worst = max(worst, abs(math.exp(lp) - dm))
    assert worst <= 1e-12
    print(
        f"[criterion 06] PASS: homogeneous law equals Dirichlet-multinomial "
        f"pointwise, max |diff| = {worst:.2e} (<= 1e-12)"
    )


def test_criterion_07_ratio_curve_shape(tmp_path):
    """Worst-case ratio per output, in both modes, matching the CLI CSV."""
    table, prior = demo_instance()
    untrunc = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
    curve_u = ratio_curve(table, untrunc)
    assert curve_u.argmax() == 100
    assert curve_u.attaining_y[-1] == (100, 0)
    assert curve_u.attaining_x[-1] == (99, 1)
    assert float(curve_u.ratio.max()) <= math.e + 1e-9

    bounds = compute_bounds(prior, table, 1e-4, 1.0)
    trunc = solve_hyperparameters(
        table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
    )
    curve_t = ratio_curve(table, trunc)
    assert curve_t.argmax() == 30
    assert float(curve_t.ratio.max()) <= math.e + 1e-9

    strata = tmp_path / "strata.csv"
    rates = tmp_path / "rates.csv"
    table.to_csv(strata)
    demo_rates().to_csv(rates)
    out = tmp_path / "audit.json"
    assert cli_main([
        "audit", "--strata", str(strata), "--rates", str(rates),
        "--epsilon", "1.0", "--mode", "untruncated", "--out", str(out),
    ]) == 0
    lines = (tmp_path / "audit_curve.csv").read_text().strip().split("\n")
    body = [line.split(",") for line in lines[2:]]
    assert [int(r[0]) for r in body] == curve_u.z.tolist()
    np.testing.assert_allclose(
        [float(r[1]) for r in body], curve_u.ratio, rtol=1e-12
    )
    print(
        f"[criterion 07] PASS: curve maxima at z=100 (untruncated, ratio "
        f"{curve_u.ratio.max():.6f}) and z=30 (truncated, ratio "
        f"{curve_t.ratio.max():.6f}), both <= e; CLI CSV matches exactly"
    )


def test_criterion_08_production_scale_run():
    """Published-scale instance: calibrate and draw 1000 replicates."""
    t0 = time.perf_counter()
    fix = generate_fixture(FixtureSpec())
    table = fix.table
    prior = build_prior(table, fix.rates)
    alpha = 1.0 / table.size
    bounds = compute_bounds(prior, table, alpha, 1.0)
    calib = solve_hyperparameters(
        table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
    )
    matrix = sample_counts_matrix(
        table, calib, count=1000, base_seed=0, threads=4
    )
    elapsed = time.perf_counter() - t0

    assert table.size == 47034
    assert table.y_total == 26116
    assert np.all(matrix.sum(axis=1) == 26116)
    assert np.all(matrix >= bounds.L)
    assert np.all(matrix <= np.minimum(bounds.U, table.y_total))
    assert np.all(calib.slack >= -1e-9)
    assert elapsed < 300.0
    print(
        f"[criterion 08] PASS: 47034 strata calibrated and 1000 replicates "
        f"drawn in {elapsed:.1f}s (< 300s); totals and boxes all hold"
    )


def test_criterion_09_privacy_utility_trend():
    """Disparity recovery sweeps from the prior to the data as the
    budget grows."""
    t0 = time.perf_counter()
    spec = FixtureSpec(
        dims=(("county", 12), ("age", 5), ("site", 1),
              ("race", 3), ("sex", 2)),
        total_deaths=26116, state_population=2_000_000,
        urban_count=3, seed=2,
    )
    fix = generate_fixture(spec)
    table = fix.table
    prior = build_prior(table, fix.rates)
    truth = disparity_ratio(
        table.y, table, fix.standard, {"race": "black"}, {"race": "white"},
        population_key_dims=POPULATION_KEY_DIMS,
    ).ratio
    bounds = compute_bounds(prior, table, 1e-6, 1.5)

    means = {}
    for epsilon in (0.01, 0.5, 1.0, 2.0, 4.0):
        calib = solve_hyperparameters(
            table, prior, epsilon, mode=MODE_TRUNCATED, bounds=bounds
        )
        matrix = sample_counts_matrix(
            table, calib, count=1000, base_seed=17, threads=4
        )
        means[epsilon] = disparity_ratio(
            matrix, table, fix.standard,
            {"race": "black"}, {"race": "white"},
            population_key_dims=POPULATION_KEY_DIMS,
        ).mean_ratio
    elapsed = time.perf_counter() - t0

    distances = [abs(means[e] - truth) for e in (0.01, 0.5, 1.0, 2.0, 4.0)]
    # tiny budget: the release reflects the race-blind prior, not the data
    assert means[0.01] == pytest.approx(1.0, abs=0.05)
    # generous budget: the injected 1.45 disparity comes through
    assert means[4.0] == pytest.approx(1.45, abs=0.05)
    for earlier, later in zip(distances, distances[1:]):
        assert later <= earlier + 0.02, (
            f"distance to truth went up along the budget ladder: {distances}"
        )
    trend = ", ".join(
        f"eps={e}: {means[e]:.4f}" for e in (0.01, 0.5, 1.0, 2.0, 4.0)
    )
    print(
        f"[criterion 09] PASS: truth {truth:.4f}; replicate means {trend}; "
        f"distance to truth nonincreasing, {elapsed:.1f}s"
    )


def test_criterion_10_extreme_allocation_tail():
    """Fully concentrated allocations are astronomically unlikely a
    priori at the demo scale."""
    log_p = prior_allocation_log_pmf([15.0, 85.0], [100, 0])
    assert log_p == pytest.approx(-189.71199848858816, abs=1e-9)
    assert log_p < math.log(4.1e-83)
    print(
        f"[criterion 10] PASS: log P(all 100 deaths in group a) = "
        f"{log_p:.6f} < log(4.1e-83) = {math.log(4.1e-83):.6f}"
    )
