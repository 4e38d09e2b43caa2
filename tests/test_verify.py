"""The Monte Carlo harness: exact-zero cases, pairing, reproducibility."""

import numpy as np
import pytest

from sheetcalc import lattice
from sheetcalc.errors import ConfigurationError, DegenerateDataError, NumericsError
from sheetcalc.lattice import Grid, Stream
from sheetcalc.malliavin import Payoff
from sheetcalc.models import (
    constant_payoff,
    coordinate_payoff,
    linear_1d,
    square_payoff,
    zero_model,
)
from sheetcalc.hyperbolic import zero_coefficients
from sheetcalc.verify import (
    _run_paired,
    intercept_weights,
    run_bismut,
    run_carre_limit,
    run_holder_scan,
    run_ibp,
    run_reversibility,
)

GRID = Grid(32, 1, 1.0 / 32, 1.0)
FIELD_GRID = Grid(32, 8, 1.0 / 32, 1.0 / 32)


class TestIBP:
    def test_constant_g_exact_zero_per_path(self):
        rep = run_ibp(linear_1d(), coordinate_payoff(), constant_payoff(), GRID, 500, 1)
        assert rep.lhs_mean == 0.0 and rep.lhs_se == 0.0
        assert rep.rhs_mean == 0.0 and rep.rhs_se == 0.0
        assert rep.z_score == 0.0

    def test_zero_model_exact_zero(self):
        rep = run_ibp(zero_model(), coordinate_payoff(), coordinate_payoff(), GRID, 500, 1)
        assert rep.lhs_mean == 0.0 and rep.rhs_mean == 0.0

    def test_linear_model_modest_n(self):
        rep = run_ibp(linear_1d(), coordinate_payoff(), coordinate_payoff(),
                      Grid(64, 1, 1.0 / 64, 1.0), 20000, 42)
        assert abs(rep.lhs_mean - np.e**2) <= 4.0 * rep.lhs_se + 0.06 * np.e**2
        assert abs(rep.z_score) < 4.0

    def test_needs_two_paths(self):
        with pytest.raises(ConfigurationError):
            run_ibp(linear_1d(), coordinate_payoff(), coordinate_payoff(), GRID, 1, 1)

    def test_seed_reproducible_bitwise(self):
        args = (linear_1d(), coordinate_payoff(), coordinate_payoff(), GRID, 3000, 7)
        a = run_ibp(*args)
        b = run_ibp(*args)
        assert a == b

    def test_worker_count_invariant(self):
        args = (linear_1d(), coordinate_payoff(), coordinate_payoff(), GRID, 40000, 7)
        a = run_ibp(*args, workers=1)
        b = run_ibp(*args, workers=4)
        a_d, b_d = a.to_dict(), b.to_dict()
        assert {k: v for k, v in a_d.items() if k != "workers"} == {
            k: v for k, v in b_d.items() if k != "workers"
        }

    def test_se_halves_when_paths_quadruple(self):
        f, g = coordinate_payoff(), coordinate_payoff()
        a = run_ibp(linear_1d(), f, g, GRID, 10000, 9)
        b = run_ibp(linear_1d(), f, g, GRID, 40000, 9)
        ratio = (a.lhs_se / b.lhs_se) ** 2
        assert 2.0 < ratio < 8.5  # chi-square-loose around 4

    def test_reduction_cross_check(self):
        # E[grad(f dg) Gamma] = -E[f dg L] summed recovers the general pair:
        # the paired differences of both estimators agree within CI
        f = coordinate_payoff()
        g = square_payoff()
        h = Payoff(
            f=lambda x: 2.0 * x[..., 0] ** 2,
            grad_f=lambda x: 4.0 * x,
            hess_f=lambda x: np.full(x.shape + (1,), 4.0),
            name="f-times-dg",
        )
        grid = Grid(64, 1, 1.0 / 64, 1.0)
        full = run_ibp(linear_1d(), f, g, grid, 30000, 11)
        reduced = run_ibp(linear_1d(), h, coordinate_payoff(), grid, 30000, 11)
        diff_full = full.lhs_mean - full.rhs_mean
        diff_red = reduced.lhs_mean - reduced.rhs_mean
        tol = 4.0 * np.sqrt(full.diff_se**2 + reduced.diff_se**2)
        assert abs(diff_full - diff_red) <= tol


class TestBismut:
    def test_constant_f(self):
        # E[R] = 0 for the continuum object; the midpoint rule carries an
        # O(ds) bias, so test where that sits well below the MC error
        rep = run_bismut(linear_1d(), constant_payoff(),
                         Grid(256, 1, 1.0 / 256, 1.0), 5000, 2)
        assert rep.lhs_mean == 0.0 and rep.lhs_se == 0.0
        assert abs(rep.rhs_mean) <= 4.0 * rep.rhs_se

    def test_zero_model_exact(self):
        rep = run_bismut(zero_model(), coordinate_payoff(), GRID, 200, 3)
        assert rep.lhs_mean == 0.0 and rep.rhs_mean == 0.0

    def test_linear_model_modest_n(self):
        rep = run_bismut(linear_1d(), coordinate_payoff(),
                         Grid(64, 1, 1.0 / 64, 1.0), 20000, 4)
        assert abs(rep.lhs_mean - np.exp(0.5)) <= 4.0 * rep.lhs_se + 0.12 * np.exp(0.5)
        assert abs(rep.z_score) < 4.5


class TestReversibility:
    def test_zero_gap_exact_zero(self):
        rep = run_reversibility(linear_1d(), coordinate_payoff(), coordinate_payoff(),
                                FIELD_GRID, 0.0, 500, 5)
        assert rep.lhs_mean == 0.0 and rep.lhs_se == 0.0
        assert rep.rhs_mean == 0.0 and rep.rhs_se == 0.0

    def test_constant_payoff_exact_zero(self):
        rep = run_reversibility(linear_1d(), constant_payoff(), constant_payoff(),
                                FIELD_GRID, 0.25, 500, 5)
        assert rep.lhs_mean == 0.0 and rep.rhs_mean == 0.0

    def test_off_grid_gap_rejected(self):
        with pytest.raises(ConfigurationError):
            run_reversibility(linear_1d(), coordinate_payoff(), coordinate_payoff(),
                              FIELD_GRID, 0.1, 500, 5)

    def test_identity_holds_f_equals_g(self):
        rep = run_reversibility(linear_1d(), coordinate_payoff(), coordinate_payoff(),
                                FIELD_GRID, 0.25, 8000, 6)
        assert abs(rep.z_score) < 4.0


class TestCarreLimit:
    def test_intercept_weights(self):
        w = intercept_weights([1.0 / 16, 1.0 / 8, 1.0 / 4])
        np.testing.assert_allclose(w, [1.0, 0.5, -0.5], atol=1e-12)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_extrapolates_to_carre_sample(self):
        # the extrapolated limit and the direct carre sample see Gamma through
        # different discretizations; compare within combined CI + bias room
        rep = run_carre_limit(linear_1d(), coordinate_payoff(), coordinate_payoff(),
                              Grid(64, 8, 1.0 / 64, 1.0 / 32),
                              [1.0 / 16, 1.0 / 8, 1.0 / 4], 8000, 7)
        tol = 3.0 * np.sqrt(rep.lhs_se**2 + rep.rhs_se**2) + 0.15 * np.e**2
        assert abs(rep.lhs_mean - rep.rhs_mean) <= tol

    def test_needs_two_gaps(self):
        with pytest.raises(ConfigurationError):
            run_carre_limit(linear_1d(), coordinate_payoff(), coordinate_payoff(),
                            FIELD_GRID, [0.25], 100, 7)


class TestHolderScan:
    def test_sheet_slope_one(self):
        rep = run_holder_scan("sheet", Grid(8, 4, 1.0 / 8, 1.0 / 16), 2.0,
                              [1.0 / 16, 1.0 / 8, 1.0 / 4], 10000, 8)
        assert abs(rep.fitted_slope - 1.0) < 0.1
        assert rep.slope_ci[0] < 1.0 < rep.slope_ci[1]

    def test_u_process_slope(self):
        rep = run_holder_scan("u", Grid(32, 4, 1.0 / 32, 1.0 / 16), 2.0,
                              [1.0 / 16, 1.0 / 8, 1.0 / 4], 4000, 9, model=linear_1d())
        assert 0.8 <= rep.fitted_slope <= 1.2

    def test_needs_two_paths(self):
        with pytest.raises(ConfigurationError):
            run_holder_scan("sheet", Grid(8, 4, 1.0 / 8, 1.0 / 16), 2.0,
                            [1.0 / 16, 1.0 / 8, 1.0 / 4], 1, 10)

    def test_needs_three_lags(self):
        with pytest.raises(ConfigurationError):
            run_holder_scan("sheet", FIELD_GRID, 2.0, [0.125, 0.25], 100, 10)

    def test_off_grid_lag_rejected(self):
        with pytest.raises(ConfigurationError):
            run_holder_scan("sheet", FIELD_GRID, 2.0, [0.1, 0.2, 0.3], 100, 10)

    def test_degenerate_data_refused(self):
        with pytest.raises(DegenerateDataError):
            run_holder_scan("p", Grid(8, 8, 0.125, 0.125), 2.0,
                            [0.125, 0.25, 0.5], 64, 11, coeffs=zero_coefficients())

    def test_unknown_target(self):
        with pytest.raises(ConfigurationError):
            run_holder_scan("momentum", FIELD_GRID, 2.0, [0.125, 0.25, 0.5], 64, 11)


def poison_path(monkeypatch, stream, path):
    """Make every normal that `stream` draws for global path `path` a NaN."""
    draw = lattice.normal_grid

    def poisoned(seed, path_indices, stream_id, *args, **kwargs):
        z = draw(seed, path_indices, stream_id, *args, **kwargs)
        if stream_id == stream:
            z[np.asarray(path_indices) == path] = np.nan
        return z

    monkeypatch.setattr(lattice, "normal_grid", poisoned)


class TestNonFiniteSamples:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_sample_names_its_global_path(self, workers):
        def sample(start, count):
            paths = np.arange(start, start + count)
            return paths.astype(float), np.where(paths == 2500, np.nan, 0.0)

        with pytest.raises(NumericsError, match="non-finite per-path sample") as info:
            _run_paired(sample, 4000, 1000, workers)
        assert info.value.path == (2500,)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_square_names_its_block(self, workers):
        # path 2500's square overflows: the error names its block's first path
        def sample(start, count):
            paths = np.arange(start, start + count)
            return np.where(paths == 2500, 1e200, 1.0), np.zeros(count)

        with pytest.raises(NumericsError, match="non-finite sum over path blocks") as info:
            _run_paired(sample, 4000, 1000, workers)
        assert info.value.path == (2000,)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflow_across_blocks_names_the_block(self, workers):
        # each block's sum of squares is finite (9.8e307), two of them are not
        def sample(start, count):
            return np.full(count, 7e153), np.zeros(count)

        with pytest.raises(NumericsError, match="non-finite sum over path blocks") as info:
            _run_paired(sample, 6, 2, workers)
        assert info.value.path == (2,)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_solver_failure_names_its_global_path(self, workers, monkeypatch):
        # the second LINE_CHUNK block starts at 16384: path 16390 is its 7th
        poison_path(monkeypatch, Stream.BOUNDARY_S, 16390)
        with pytest.raises(NumericsError) as info:
            run_ibp(linear_1d(), coordinate_payoff(), coordinate_payoff(),
                    Grid(8, 1, 0.125, 1.0), 16400, 3, workers=workers)
        assert info.value.path == (16390,)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_level_value_names_its_global_path(self, workers, monkeypatch):
        poison_path(monkeypatch, Stream.CELLS, 16390)
        with pytest.raises(NumericsError, match="non-finite per-path sample") as info:
            run_holder_scan("sheet", Grid(8, 4, 1.0 / 8, 1.0 / 16), 2.0,
                            [1.0 / 16, 1.0 / 8, 1.0 / 4], 16400, 8, workers=workers)
        assert info.value.path == (16390,)
