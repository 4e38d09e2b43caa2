"""Grid validation, determinism, independence partition, empirical moments."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheetcalc.errors import ConfigurationError
from sheetcalc.lattice import (
    Channel,
    Grid,
    NoiseSpec,
    Stream,
    boundary_increments,
    normal_grid,
    sample_boundary_bm,
    sample_cell_increments_batch,
)


class TestGrid:
    def test_valid(self):
        g = Grid(4, 8, 0.25, 0.125)
        assert g.s_extent == 1.0 and g.t_extent == 1.0
        assert g.s_index(0.5) == 2
        assert g.t_index(1.0) == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_s=0, n_t=4, ds=0.1, dt=0.1),
            dict(n_s=4, n_t=0, ds=0.1, dt=0.1),
            dict(n_s=4, n_t=4, ds=0.0, dt=0.1),
            dict(n_s=4, n_t=4, ds=0.1, dt=-0.5),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            Grid(**kwargs)

    def test_off_grid_coordinate(self):
        with pytest.raises(ConfigurationError):
            Grid(4, 4, 0.25, 0.25).t_index(0.3)


class TestCellIncrements:
    def test_determinism_bit_identical(self):
        grid = Grid(2, 2, 0.5, 0.5)
        noise = NoiseSpec(seed=7, path_index=0, m=1)
        a = sample_cell_increments_batch(grid, noise, None)
        b = sample_cell_increments_batch(grid, noise, None)
        assert np.array_equal(a, b)

    def test_zero_step_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid(2, 2, 0.0, 0.5)

    def test_entry_variance_over_paths(self):
        # sample-variance oracle: SE of the variance of N(0, v) over n draws
        # is v * sqrt(2/n)
        grid = Grid(2, 2, 0.5, 0.5)
        n = 100000
        vals = sample_cell_increments_batch(grid, NoiseSpec(seed=7, m=1), n)
        v = vals[:, 0, 0, 0].var(ddof=1)
        assert abs(v - 0.25) <= 3.0 * 0.25 * np.sqrt(2.0 / n)

    def test_entry_moments(self):
        grid = Grid(2, 2, 0.5, 0.5)
        n = 120000
        z = sample_cell_increments_batch(grid, NoiseSpec(seed=3, m=1), n)[:, 1, 1, 0] / 0.5
        assert abs(np.mean(z**3)) <= 4.0 * np.sqrt(15.0 / n)
        assert abs(np.mean(z**4) - 3.0) <= 4.0 * np.sqrt(96.0 / n)

    def test_entries_uncorrelated(self):
        grid = Grid(2, 2, 0.5, 0.5)
        n = 50000
        vals = sample_cell_increments_batch(grid, NoiseSpec(seed=9, m=2), n)
        flat = vals.reshape(n, -1)
        c = np.corrcoef(flat, rowvar=False)
        off = c[~np.eye(c.shape[0], dtype=bool)]
        assert np.max(np.abs(off)) < 4.0 / np.sqrt(n)

    def test_grid_enlargement_extends_rather_than_reshuffles(self):
        noise = NoiseSpec(seed=5, m=2)
        small = sample_cell_increments_batch(Grid(4, 4, 0.25, 0.25), noise, None)
        large = sample_cell_increments_batch(Grid(8, 8, 0.25, 0.25), noise, None)
        assert np.array_equal(small, large[:4, :4, :])


class TestBoundaryPath:
    def test_variance_at_unit_extent(self):
        n, paths = 16, 10000
        bp = sample_boundary_bm(n, 1.0 / n, 1, NoiseSpec(seed=5), batch=paths)
        v = bp.values[:, -1, 0].var(ddof=1)
        assert abs(v - 1.0) <= 4.0 * np.sqrt(2.0 / paths)

    def test_determinism(self):
        a = sample_boundary_bm(8, 0.125, 2, NoiseSpec(seed=5, path_index=3))
        b = sample_boundary_bm(8, 0.125, 2, NoiseSpec(seed=5, path_index=3))
        assert np.array_equal(a.values, b.values)

    def test_starts_at_zero(self):
        bp = sample_boundary_bm(8, 0.125, 2, NoiseSpec(seed=5))
        assert np.all(bp.values[..., 0, :] == 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            sample_boundary_bm(0, 0.1, 1, NoiseSpec(seed=1))
        with pytest.raises(ConfigurationError):
            sample_boundary_bm(4, 0.0, 1, NoiseSpec(seed=1))


class TestIndependencePartition:
    def test_draw_order_does_not_change_draws(self):
        grid = Grid(4, 4, 0.25, 0.25)
        noise = NoiseSpec(seed=11, m=1)
        b_first = sample_boundary_bm(4, 0.25, 1, noise)
        cells = sample_cell_increments_batch(grid, noise, None)
        b_second = sample_boundary_bm(4, 0.25, 1, noise)
        assert np.array_equal(b_first.values, b_second.values)
        cells_again = sample_cell_increments_batch(grid, noise, None)
        assert np.array_equal(cells, cells_again)

    def test_streams_disjoint(self):
        z_cells = normal_grid(3, 0, Stream.CELLS, 4, 4, 1)
        z_bound = normal_grid(3, 0, Stream.BOUNDARY_S, 4, 4, 1)
        assert not np.allclose(z_cells, z_bound)

    def test_channels_disjoint(self):
        noise = NoiseSpec(seed=3, m=1)
        a = boundary_increments(8, 0.125, 1, noise, Channel.Z_S0)
        b = boundary_increments(8, 0.125, 1, noise, Channel.X_S0)
        assert not np.allclose(a, b)

    def test_boundary_and_cells_uncorrelated(self):
        grid = Grid(2, 2, 0.5, 0.5)
        n = 40000
        noise = NoiseSpec(seed=21, m=1)
        cells = sample_cell_increments_batch(grid, noise, n)[:, 0, 0, 0]
        bnd = boundary_increments(2, 0.5, 1, noise, Channel.Z_S0, "s", n)[:, 0, 0]
        r = np.corrcoef(cells, bnd)[0, 1]
        assert abs(r) < 4.0 / np.sqrt(n)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_purity_property(seed, path):
    noise = NoiseSpec(seed=seed, path_index=path, m=1)
    a = normal_grid(noise.seed, noise.path_index, Stream.CELLS, 3, 3, 1)
    b = normal_grid(noise.seed, noise.path_index, Stream.CELLS, 3, 3, 1)
    assert np.array_equal(a, b)
