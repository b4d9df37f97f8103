"""Kernel parameter assembly and log-space mass tables vs direct sums."""

import math

import mpmath as mp
import numpy as np
import pytest

from pgsynth.calibration import MODE_TRUNCATED, MODE_UNTRUNCATED, solve_hyperparameters
from pgsynth.errors import InfeasibilityError
from pgsynth.mechanism import (
    KernelParams,
    MassTable,
    backward_pass,
    build_kernel_params,
    convolve_mass,
    delta_table,
    stratum_weight_table,
)
from pgsynth.strata import PriorSpec, StrataTable, compute_bounds

from _oracles import log_kernel_direct, normalizer_direct


def instance():
    table = StrataTable(
        dim_names=("g",),
        keys=(("x",), ("y",), ("z",)),
        n=np.array([40, 160, 90]),
        y=np.array([2, 3, 3]),
    )
    w = np.array([2.0, 3.0, 4.0]) / 9.0
    prior = PriorSpec(
        lambda0=w * table.y_total / table.n, rescale_factor=1.0, source=None
    )
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


class TestMassTables:
    def test_weight_table_matches_direct_kernel(self):
        table, prior = instance()
        calib = solve_hyperparameters(table, prior, 1.0, mode=MODE_UNTRUNCATED)
        params = build_kernel_params(table.y, table, calib)
        for i in range(3):
            mass = stratum_weight_table(params, i)
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

    def test_convolution_into_buffer(self):
        a = MassTable(lo=1, vals=np.array([0.5, 1.0]), offset=0.0)
        b = MassTable(lo=2, vals=np.array([1.0, 0.25]), offset=math.log(2.0))
        buf = np.full(11, np.nan)
        got = convolve_mass(a, b, cap=10, out=buf)
        want = convolve_mass(a, b, cap=10)
        assert (got.lo, got.offset) == (want.lo, want.offset)
        assert np.array_equal(got.vals, want.vals)
        assert np.shares_memory(got.vals, buf)

    def test_log_at_outside_support(self):
        t = MassTable(lo=3, vals=np.array([1.0]), offset=0.0)
        assert t.log_at(2) == -np.inf and t.log_at(4) == -np.inf


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
        checkpoints, _, got = backward_pass(params, block=2)
        assert sorted(checkpoints) == [0, 2, 3]
        assert checkpoints[0].log_at(params.y_total) == got
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
            mode=MODE_UNTRUNCATED, epsilon=1.0, a=a, b=a / lam, lambda0=lam,
            slack=np.zeros(2), converged=True, iterations=0,
        )
        params = build_kernel_params(table.y, table, calib)
        assert params.log_p[0] == -np.inf
        assert np.isfinite(backward_pass(params, block=1)[2])
