"""Sheet construction, OU sampling (exact and hyperbolic), cross-validation."""

import numpy as np
import pytest
from scipy import stats

from sheetcalc.errors import ConfigurationError
from sheetcalc.lattice import (
    BoundaryPath,
    CellIncrements,
    Grid,
    NoiseSpec,
    sample_boundary_bm,
    sample_cell_increments_batch,
)
from sheetcalc.sheet import (
    build_sheet,
    sample_ou_exact_batch,
    solve_ou_hyperbolic,
)
from sheetcalc.stochcalc import quantize_values


def _grid44():
    return Grid(4, 4, 0.25, 0.25)


def _one_path_incs(grid, noise):
    return CellIncrements(sample_cell_increments_batch(grid, noise, None), grid)


def _double_increments(values):
    return np.diff(np.diff(values, axis=-3), axis=-2)


class TestBuildSheet:
    def test_zero_increments(self):
        grid = _grid44()
        incs = CellIncrements(np.zeros((4, 4, 1)), grid)
        assert np.all(build_sheet(incs).values == 0.0)

    def test_single_increment_propagates(self):
        grid = _grid44()
        vals = np.zeros((4, 4, 1))
        vals[0, 0, 0] = 2.5
        w = build_sheet(CellIncrements(vals, grid)).values[..., 0]
        assert np.all(w[1:, 1:] == 2.5)
        assert np.all(w[0, :] == 0.0) and np.all(w[:, 0] == 0.0)

    def test_zero_on_axes(self):
        grid = _grid44()
        incs = _one_path_incs(grid, NoiseSpec(seed=1, m=2))
        w = build_sheet(incs).values
        assert np.all(w[0, :, :] == 0.0) and np.all(w[:, 0, :] == 0.0)

    def test_covariance_oracle(self):
        # E[w_{1,1} w_{1,2}] = (1^1)(1^2) = 1 on extents (1, 2)
        grid = Grid(4, 8, 0.25, 0.25)
        n = 10000
        vals = sample_cell_increments_batch(grid, NoiseSpec(seed=2, m=1), n)
        w = build_sheet(CellIncrements(vals, grid)).values
        prod = w[:, 4, 4, 0] * w[:, 4, 8, 0]
        se = prod.std(ddof=1) / np.sqrt(n)
        assert abs(prod.mean() - 1.0) <= 4.0 * se

    def test_roundtrip_bit_exact_on_quantized(self):
        grid = _grid44()
        raw = _one_path_incs(grid, NoiseSpec(seed=3, m=2))
        q = CellIncrements(quantize_values(raw.values, 2.0**-20), grid)
        back = _double_increments(build_sheet(q).values)
        assert np.array_equal(back, q.values)

    def test_roundtrip_close_on_floats(self):
        grid = _grid44()
        incs = _one_path_incs(grid, NoiseSpec(seed=3, m=2))
        back = _double_increments(build_sheet(incs).values)
        np.testing.assert_allclose(back, incs.values, rtol=0, atol=1e-12)

    def test_dyadic_scaling_exact(self):
        grid = _grid44()
        incs = _one_path_incs(grid, NoiseSpec(seed=4, m=1))
        w1 = build_sheet(incs).values
        w2 = build_sheet(CellIncrements(4.0 * incs.values, grid)).values
        assert np.array_equal(4.0 * w1, w2)


class TestOUExact:
    def test_stationary_variance(self):
        # Var(z_{2,t}) = 2 for every t
        grid = Grid(8, 8, 0.25, 0.25)
        n = 10000
        vals = sample_ou_exact_batch(grid, NoiseSpec(seed=5, m=1), n)
        for j in (0, 4, 8):
            v = vals[:, 8, j, 0].var(ddof=1)
            assert abs(v - 2.0) <= 4.0 * 2.0 * np.sqrt(2.0 / n), f"t-level {j}"

    def test_temporal_covariance(self):
        # Cov(z_{1,0}, z_{1,2}) = 1 * e^{-1}
        grid = Grid(4, 8, 0.25, 0.25)
        n = 20000
        vals = sample_ou_exact_batch(grid, NoiseSpec(seed=6, m=1), n)
        prod = vals[:, 4, 0, 0] * vals[:, 4, 8, 0]
        se = prod.std(ddof=1) / np.sqrt(n)
        assert abs(prod.mean() - np.exp(-1.0)) <= 4.0 * se

    def test_cross_component_independent(self):
        grid = Grid(4, 4, 0.25, 0.25)
        n = 20000
        vals = sample_ou_exact_batch(grid, NoiseSpec(seed=7, m=2), n)
        prod = vals[:, 4, 2, 0] * vals[:, 4, 2, 1]
        se = prod.std(ddof=1) / np.sqrt(n)
        assert abs(prod.mean()) <= 4.0 * se

    def test_brownian_in_s(self):
        grid = Grid(8, 4, 0.125, 0.25)
        n = 20000
        vals = sample_ou_exact_batch(grid, NoiseSpec(seed=8, m=1), n)
        incs = np.diff(vals[:, :, 2, 0], axis=1)
        v = incs.var(ddof=1, axis=0)
        assert np.all(np.abs(v - 0.125) <= 5.0 * 0.125 * np.sqrt(2.0 / n))


class TestOUHyperbolic:
    def test_zero_noise_zero_boundary(self):
        grid = _grid44()
        incs = CellIncrements(np.zeros((4, 4, 1)), grid)
        zb = BoundaryPath(np.zeros((5, 1)), 0.25)
        assert np.all(solve_ou_hyperbolic(grid, zb, incs).values == 0.0)

    def test_zero_noise_decay_oracle(self):
        # dd z = -(1/2) d_s z dt integrates to z = z_{s0} (1 - dt/2)^j, the
        # explicit one-step solution of the t-ODE for d_s z
        grid = Grid(4, 16, 0.25, 0.125)
        incs = CellIncrements(np.zeros((4, 16, 1)), grid)
        c = np.sin(grid.s_nodes())[:, None]
        zb = BoundaryPath.from_values(c, 0.25)
        fld = solve_ou_hyperbolic(grid, zb, incs).values[..., 0]
        for j in (1, 8, 16):
            np.testing.assert_allclose(
                fld[:, j], c[:, 0] * (1.0 - grid.dt / 2.0) ** j, rtol=1e-12, atol=1e-14
            )

    def test_zero_noise_decay_converges_to_exponential(self):
        errs = []
        for n_t in (32, 64):
            grid = Grid(2, n_t, 0.5, 1.0 / n_t)
            incs = CellIncrements(np.zeros((2, n_t, 1)), grid)
            zb = BoundaryPath.from_values(np.array([[0.0], [1.0], [2.0]]), 0.5)
            fld = solve_ou_hyperbolic(grid, zb, incs).values[..., 0]
            errs.append(abs(fld[2, n_t] - 2.0 * np.exp(-0.5)))
        assert errs[1] < 0.7 * errs[0]

    def test_corner_must_vanish(self):
        grid = _grid44()
        incs = CellIncrements(np.zeros((4, 4, 1)), grid)
        zb = BoundaryPath.from_values(np.ones((5, 1)), 0.25)
        with pytest.raises(ConfigurationError):
            solve_ou_hyperbolic(grid, zb, incs)

    def test_marginal_ks_against_exact_sampler(self):
        grid = Grid(16, 64, 1.0 / 16, 1.0 / 64)
        n = 4000
        noise = NoiseSpec(seed=9, m=1)
        exact = sample_ou_exact_batch(grid, noise, n)[:, -1, -1, 0]
        zb = sample_boundary_bm(16, 1.0 / 16, 1, noise, batch=n)
        incs = CellIncrements(sample_cell_increments_batch(grid, noise, n), grid)
        solved = solve_ou_hyperbolic(grid, zb, incs).values[:, -1, -1, 0]
        ks = stats.ks_2samp(exact, solved)
        assert ks.pvalue >= 0.01

    def test_s_marginal_variance_stationary_up_to_dt(self):
        grid = Grid(8, 32, 0.125, 1.0 / 32)
        n = 20000
        noise = NoiseSpec(seed=10, m=1)
        zb = sample_boundary_bm(8, 0.125, 1, noise, batch=n)
        incs = CellIncrements(sample_cell_increments_batch(grid, noise, n), grid)
        fld = solve_ou_hyperbolic(grid, zb, incs).values
        for j in (0, 16, 32):
            v = fld[:, 8, j, 0].var(ddof=1)
            # s = 1 marginal: variance 1 up to O(dt) bias plus MC error
            assert abs(v - 1.0) <= grid.dt + 4.0 * np.sqrt(2.0 / n)
