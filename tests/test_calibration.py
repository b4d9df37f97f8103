"""Hyperparameter calibration: fixed points, closed forms, and gates."""

import json
import math
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pgsynth.calibration as calibration
from pgsynth.audit import exact_joint_pmf
from pgsynth.calibration import (
    Calibration,
    MODE_TRUNCATED,
    MODE_UNTRUNCATED,
    _required_truncated,
    _required_untruncated,
    solve_hyperparameters,
    write_report,
)
from pgsynth.errors import (
    CalibrationError,
    DomainError,
    DominanceError,
    InfeasibilityError,
)
from pgsynth.strata import (
    PriorSpec,
    StrataTable,
    TruncationBounds,
    build_prior,
    compute_bounds,
)
from pgsynth.fixtures import FixtureSpec, demo_rates, demo_table, generate_fixture

from _oracles import (
    dirichlet_multinomial_pmf,
    nu_truncated,
    nu_untruncated,
    untruncated_floor,
    write_report_json,
)


def homogeneous_instance(size: int, y_total: int):
    counts = np.zeros(size, dtype=np.int64)
    counts[: y_total % size] = y_total // size + 1
    counts[y_total % size:] = y_total // size
    table = StrataTable(
        dim_names=("g",),
        keys=tuple((f"s{i}",) for i in range(size)),
        n=np.full(size, 50),
        y=counts,
    )
    prior = PriorSpec(lambda0=np.full(size, y_total / (50.0 * size)))
    return table, prior


class TestUntruncatedDemo:
    def test_walkthrough_anchors(self, demo):
        table, prior = demo
        t0 = time.perf_counter()
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        assert calib.converged
        assert 115.0 <= calib.a[0] <= 118.0
        assert 57.0 <= calib.a[1] <= 60.0
        assert calib.a[0] == pytest.approx(116.18635101, abs=1e-6)
        assert calib.a[1] == pytest.approx(58.19767069, abs=1e-6)
        assert np.all(calib.slack >= -1e-9)
        # fixed mean: b = a / lambda0
        assert np.allclose(calib.b, calib.a / prior.lambda0)

    def test_requirements_hold_at_solution(self, demo):
        # two strata scale the shortfall by (1 - r)+ instead of the
        # indicator reported by nu_untruncated; recompute from scratch
        table, prior = demo
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        n = table.n.astype(float)
        y_tot = table.y_total
        for i in range(table.size):
            b_rest = calib.b.sum() - calib.b[i]
            n_rest = n.sum() - n[i]
            r = (b_rest / n_rest + 2.0) / (calib.b[i] / n[i] + 2.0)
            shortfall = max(1.0 - r, 0.0)
            denom = calib.a.sum() - calib.a[i] + y_tot - 1.0
            nu = (y_tot * shortfall + denom) / denom
            required = y_tot / (math.exp(1.0) / nu - 1.0)
            assert calib.a[i] >= required - 1e-9

    def test_deterministic(self, demo):
        table, prior = demo
        one = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        two = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        assert np.array_equal(one.a, two.a)


class TestHomogeneousClosedForm:
    @pytest.mark.parametrize("size,y_total", [(2, 100), (3, 60), (5, 26116)])
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_floor_is_exact(self, size, y_total, eps):
        # equal rate-to-prior ratios: nu = 1 and a = y/(e^eps - 1) exactly
        table, prior = homogeneous_instance(size, y_total)
        calib = solve_hyperparameters(table, prior, eps, mode=MODE_UNTRUNCATED)
        want = untruncated_floor(y_total, eps)
        assert np.allclose(calib.a, want, rtol=0, atol=1e-6)

    def test_pa_scale_value(self):
        want = 26116 / (math.e - 1.0)
        assert untruncated_floor(26116, 1.0) == pytest.approx(want, abs=1e-9)
        assert want > 15_000


class TestNuFactors:
    def test_indicator_example(self, demo):
        # complement ratio below 1 with a_(i) = 1 and y = 100 doubles nu
        table, _ = demo
        a = np.array([5.0, 1.0])
        b = np.array([5.0 / 0.015, 1.0 / 0.017])
        nu = nu_untruncated(0, a, b, table)
        denom = 1.0 + 100.0 - 1.0
        assert nu == pytest.approx((100.0 + denom) / denom)
        assert nu == pytest.approx(2.0)

    def test_homogeneous_nu_is_one(self):
        table, prior = homogeneous_instance(3, 30)
        a = np.full(3, 4.0)
        b = a / prior.lambda0
        for i in range(3):
            assert nu_untruncated(i, a, b, table) == pytest.approx(1.0)

    def test_truncated_point_box_nu_is_one(self):
        bounds = TruncationBounds(
            L=np.array([5, 0]), U=np.array([5, 10]), alpha=0.01, c=1.0
        )
        assert nu_truncated(0, 3.0, bounds, 10) == pytest.approx(1.0)

    def test_oracles_match_solver_requirements(self):
        # four heterogeneous strata: the solver's vectorized requirements
        # must be the closed forms built from the per-stratum nu factors
        table = StrataTable(
            dim_names=("g",),
            keys=tuple((f"s{i}",) for i in range(4)),
            n=np.array([40, 160, 90, 300]),
            y=np.array([2, 5, 3, 10]),
        )
        expected = np.array([1.0, 9.0, 4.0, 6.0])
        a = np.array([3.0, 0.5, 7.0, 2.0])
        b = a * table.n / expected
        y_tot, eps = table.y_total, 2.0
        got = _required_untruncated(
            a, expected, table.n.astype(float), y_tot, math.exp(eps)
        )
        nus = [nu_untruncated(i, a, b, table) for i in range(4)]
        assert min(nus) == pytest.approx(1.0) and max(nus) > 1.5
        for i, nu in enumerate(nus):
            want = y_tot / (math.exp(eps) / nu - 1.0)
            assert got[i] == pytest.approx(want, rel=1e-12)

        bounds = TruncationBounds(
            L=np.array([0, 2, 1, 4]), U=np.array([4, 9, 1, 14]), alpha=0.01, c=1.0
        )
        L, U = bounds.L.astype(float), bounds.U.astype(float)
        got = _required_truncated(a, L, U, y_tot, math.exp(eps))
        for i in range(4):
            nu = nu_truncated(i, a.sum() - a[i], bounds, y_tot)
            want = (U[i] - L[i]) / (math.exp(eps) / nu - 1.0) - 2.0 * L[i]
            assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestTruncatedDemo:
    def test_walkthrough_anchors(self, demo):
        table, prior = demo
        bounds = compute_bounds(prior, table, 1e-4, 1.0)
        calib = solve_hyperparameters(
            table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
        )
        assert calib.converged
        assert 14.0 <= calib.a[0] <= 14.4
        assert calib.a[0] == pytest.approx(14.1792813, abs=1e-6)
        assert calib.a[1] <= 0.01  # rides the shape floor
        assert calib.exchange_rule_applied
        assert calib.bounds.U[0] == 30
        assert calib.bounds.L.tolist() == [3, 70]
        assert calib.bounds.U.tolist() == [30, 97]

    def test_truncated_needs_bounds(self, demo):
        table, prior = demo
        with pytest.raises(DomainError):
            solve_hyperparameters(table, prior, 1.0, mode=MODE_TRUNCATED)

    def test_requirement_much_smaller_than_untruncated(self, demo):
        table, prior = demo
        bounds = compute_bounds(prior, table, 1e-4, 1.0)
        trunc = solve_hyperparameters(
            table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
        )
        untrunc = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        assert trunc.a[0] < untrunc.a[0] / 5.0


class TestMonotonicity:
    @given(
        eps_lo=st.floats(min_value=0.1, max_value=2.0),
        bump=st.floats(min_value=0.05, max_value=2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_untruncated_a_shrinks_with_epsilon(self, eps_lo, bump):
        table = demo_table()
        prior = build_prior(table, demo_rates())
        lo = solve_hyperparameters(table, prior, eps_lo, mode=MODE_UNTRUNCATED)
        hi = solve_hyperparameters(
            table, prior, eps_lo + bump, mode=MODE_UNTRUNCATED
        )
        assert np.all(hi.a <= lo.a + 1e-9)

    def test_truncated_a_shrinks_with_epsilon(self, demo):
        table, prior = demo
        bounds = compute_bounds(prior, table, 1e-4, 1.0)
        prev = None
        for eps in (0.25, 0.5, 1.0, 2.0, 4.0):
            calib = solve_hyperparameters(
                table, prior, eps, mode=MODE_TRUNCATED, bounds=bounds
            )
            if prev is not None:
                assert np.all(calib.a <= prev + 1e-9)
            prev = calib.a


class TestGates:
    def test_epsilon_must_be_positive(self, demo):
        table, prior = demo
        for eps in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DomainError):
                solve_hyperparameters(table, prior, eps, mode=MODE_UNTRUNCATED)

    def test_unknown_mode(self, demo):
        table, prior = demo
        with pytest.raises(DomainError):
            solve_hyperparameters(table, prior, 1.0, mode="mystery")

    def test_dominant_stratum_rejected_in_truncated_mode(self):
        table = StrataTable(
            dim_names=("g",),
            keys=(("x",), ("y",), ("z",)),
            n=np.array([10, 10, 10]),
            y=np.array([8, 1, 1]),
        )
        prior = PriorSpec(lambda0=np.array([0.8, 0.1, 0.1]))
        bounds = compute_bounds(prior, table, 1e-3, 1.0)
        with pytest.raises(DominanceError):
            solve_hyperparameters(
                table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
            )

    def test_infeasible_boxes_rejected(self, demo):
        table, prior = demo
        bounds = compute_bounds(prior, table, 0.49, 1.0)
        with pytest.raises(InfeasibilityError):
            solve_hyperparameters(
                table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
            )

    def test_improper_prior_rejected(self):
        table = StrataTable(
            dim_names=("g",), keys=(("a",), ("b",)),
            n=np.array([10, 10]), y=np.array([1, 1]),
        )
        prior = PriorSpec(lambda0=np.array([0.0, 0.1]))
        with pytest.raises(DomainError):
            solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)

    def test_sweep_cap_raises_with_residual(self, demo, monkeypatch):
        # one sweep from the prior-expected start cannot reach the fixed
        # point; the cap is read when the solver runs
        table, prior = demo
        monkeypatch.setattr(calibration, "MAX_SWEEPS", 1)
        # the message carries the residual, here positive: a nonzero
        # leading digit and no sign
        with pytest.raises(
            CalibrationError,
            match=r"within 1 sweeps \(residual [1-9]\.\d{3}e[+-]\d+\)$",
        ):
            solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)

    def test_mode_and_bounds_must_agree(self, demo):
        table, prior = demo
        bounds = compute_bounds(prior, table, 1e-4, 1.0)
        calib = solve_hyperparameters(
            table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
        )
        for mode, boxes in ((MODE_TRUNCATED, None), (MODE_UNTRUNCATED, bounds)):
            with pytest.raises(DomainError):
                Calibration(
                    mode=mode, epsilon=1.0, a=calib.a, b=calib.b,
                    slack=calib.slack, converged=True,
                    iterations=1, bounds=boxes,
                )


class TestPointBoxes:
    def test_point_box_stratum_rides_the_floor(self):
        table = StrataTable(
            dim_names=("g",),
            keys=(("x",), ("y",), ("z",)),
            n=np.array([30, 40, 30]),
            y=np.array([3, 4, 3]),
        )
        prior = PriorSpec(lambda0=np.array([0.1, 0.1, 0.1]))
        bounds = TruncationBounds(
            L=np.array([2, 0, 0]), U=np.array([2, 10, 8]), alpha=0.01, c=1.0
        )
        calib = solve_hyperparameters(
            table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
        )
        # a pinned output needs no prior weight of its own
        assert calib.a[0] == pytest.approx(1e-3)


class TestDirichletReduction:
    def test_homogeneous_reduces(self):
        # equal populations and prior rates: the mechanism's law is the
        # Dirichlet-multinomial with concentrations y + a, here on three
        # strata (the release gate covers two)
        table, prior = homogeneous_instance(3, 6)
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        support, logp = exact_joint_pmf(table.y, calib, table)
        alphas = (table.y + calib.a).tolist()
        for row, lp in zip(support.tolist(), logp):
            dm = float(dirichlet_multinomial_pmf(row, alphas))
            assert math.exp(lp) == pytest.approx(dm, rel=1e-10)


# labels json escapes (quotes, backslashes, control characters, non-ASCII,
# U+2028), the empty one and one that every dimension may share
REPORT_LABELS = (
    "plain", 'quo"te', "back\\slash", "tab\t", "nul\x00", "\x1f", "é",
    "\u2028", "", "{0}", "shared",
)
# a small pool, so values repeat across strata; both zeros in one column
REPORT_FLOATS = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e22, 1 / 3, 2.5)


@st.composite
def report_cases(draw):
    """(calibration, table, extra, REPORT_ROWS) for write_report."""
    dims = draw(st.integers(1, 3))
    label = st.sampled_from(REPORT_LABELS) | st.text(max_size=3)
    keys = draw(st.lists(
        st.tuples(*[label] * dims), min_size=2, max_size=12, unique=True,
    ))
    if dims > 1:
        keys = list(dict.fromkeys([("shared",) * dims, *keys]))
    size = len(keys)
    table = StrataTable(
        dim_names=tuple(f"d{j}" for j in range(dims)), keys=tuple(keys),
        n=np.full(size, 10), y=np.zeros(size),
    )
    floats = st.lists(st.sampled_from(REPORT_FLOATS), min_size=size, max_size=size)
    a, b, slack = (np.array(draw(floats)) for _ in range(3))
    bounds = None
    if draw(st.booleans()):
        ints = st.lists(st.sampled_from([0, 1, 7, 10**6]), min_size=size, max_size=size)
        lo = np.array(draw(ints))
        bounds = TruncationBounds(
            L=lo, U=lo + np.array(draw(ints)), alpha=1e-4, c=1.5
        )
    calib = Calibration(
        mode=MODE_UNTRUNCATED if bounds is None else MODE_TRUNCATED,
        epsilon=0.5, a=a, b=b, slack=slack,
        converged=True, iterations=3, bounds=bounds,
    )
    extra = draw(st.sampled_from([None, {"config_hash": "ab12", "config": {}}]))
    return calib, table, extra, draw(st.sampled_from([1, 2, 7]))


class TestReport:
    def test_report_contents(self, demo, tmp_path):
        table, prior = demo
        bounds = compute_bounds(prior, table, 1e-4, 1.0)
        calib = solve_hyperparameters(
            table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
        )
        write_report(calib, table, tmp_path / "report.json")
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["mode"] == MODE_TRUNCATED
        assert doc["epsilon"] == 1.0
        assert doc["alpha"] == 1e-4 and doc["c"] == 1.0
        assert doc["exchange_rule_applied"] is True
        assert [s["key"] for s in doc["strata"]] == [["a"], ["b"]]
        assert doc["strata"][0]["U"] == 30
        assert all(s["slack"] >= -1e-9 for s in doc["strata"])
        # nothing confidential: y never appears
        assert "y" not in doc and all("y" not in s for s in doc["strata"])

    @pytest.mark.parametrize("mode", [MODE_UNTRUNCATED, MODE_TRUNCATED])
    @pytest.mark.parametrize("extra", [
        None,
        {"config_hash": "ab12", "config": {"paths": {"out": 'r"un\\'}, "eps": [1.0]}},
        # a replaced entry list is json's to write
        {"strata": []},
    ])
    def test_written_report_is_json_dump(self, tmp_path, monkeypatch, mode, extra):
        keys = (
            ("plain", "1"), ('quo"te', "back\\slash"), ("é", "\u2028"),
            ("tab\t", "nul\x00"), ("", "{0}"),
        )
        size = len(keys)
        table = StrataTable(
            dim_names=("g", "h"), keys=keys, n=np.full(size, 10), y=np.zeros(size),
        )
        bounds = (
            TruncationBounds(
                L=np.arange(size), U=np.arange(size) * 10**6, alpha=1e-4, c=1.5
            )
            if mode == MODE_TRUNCATED else None
        )
        a = np.array([1e-3, 0.1, 1 / 3, 1e22, 2.5])
        calib = Calibration(
            mode=mode, epsilon=0.5, a=a, b=a / 7.0,
            slack=np.array([0.0, -0.0, np.nan, np.inf, -np.inf]),
            converged=False, iterations=3, bounds=bounds,
        )
        want, got = tmp_path / "want.json", tmp_path / "got.json"
        write_report_json(calib, table, want, extra)
        # slices of two entries, so the write loop runs more than once
        monkeypatch.setattr(calibration, "REPORT_ROWS", 2)
        write_report(calib, table, got, extra)
        assert got.read_bytes() == want.read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(case=report_cases())
    def test_rendered_entries_match_json_dump(self, case):
        calib, table, extra, rows = case
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            want, got = Path(tmp, "want.json"), Path(tmp, "got.json")
            write_report_json(calib, table, want, extra)
            mp.setattr(calibration, "REPORT_ROWS", rows)
            write_report(calib, table, got, extra)
            assert got.read_bytes() == want.read_bytes()

    def test_published_report_allocates_at_most_16_mb(self, tmp_path):
        # the entries are rendered REPORT_ROWS at a time from one spelling
        # per distinct label and number; one str per scalar of all 47,034
        # entries peaked at 21.1 MB
        fix = generate_fixture(FixtureSpec())
        prior = build_prior(fix.table, fix.rates)
        bounds = compute_bounds(prior, fix.table, 1e-4, 1.0)
        calib = solve_hyperparameters(
            fix.table, prior, 1.0, mode=MODE_TRUNCATED, bounds=bounds
        )
        tracemalloc.start()
        try:
            write_report(calib, fix.table, tmp_path / "report.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16.0e6
