"""The Monte Carlo harness: exact-zero cases, pairing, reproducibility."""

import tracemalloc

import numpy as np
import pytest

from sheetcalc import lattice, philox, verify
from sheetcalc.errors import ConfigurationError, DegenerateDataError, NumericsError
from sheetcalc.lattice import (
    CellIncrements,
    Grid,
    LineProcess,
    NoiseSpec,
    Stream,
    sample_boundary_bm,
    sample_cell_increments_batch,
)
from sheetcalc.malliavin import Payoff, fold_line
from sheetcalc.models import (
    constant_payoff,
    coordinate_payoff,
    linear_1d,
    model_from_config,
    square_payoff,
    zero_model,
)
from sheetcalc.hyperbolic import ou_coefficients, ou_system_boundaries, solve_system, zero_coefficients
from sheetcalc.rules import run_rules
from sheetcalc.verify import (
    FIELD_CHUNK,
    HYP_CHUNK,
    LINE_CHUNK,
    SHEET_CHUNK,
    _run_paired,
    intercept_weights,
    run_bismut,
    run_carre_limit,
    run_holder_scan,
    run_ibp,
    run_reversibility,
    sample_ou_corner,
)
from scipy.stats import ks_2samp

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

    def test_gaps_on_one_node_rejected(self):
        # two equal gaps leave the intercept fit no slope: its weights were
        # NaN and the run failed as a non-finite sample
        with pytest.raises(ConfigurationError, match=r"t_gaps .* each needs its own node"):
            run_carre_limit(linear_1d(), coordinate_payoff(), coordinate_payoff(),
                            FIELD_GRID, [1.0 / 16, 1.0 / 16], 100, 7)

    def test_zero_gap_rejected(self):
        # a zero gap divided by zero and failed as a non-finite sample
        with pytest.raises(ConfigurationError, match="t_gaps must be positive"):
            run_carre_limit(linear_1d(), coordinate_payoff(), coordinate_payoff(),
                            FIELD_GRID, [0.0, 1.0 / 16], 100, 7)


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

    @pytest.mark.parametrize("lags", [[0.25, 0.25, 0.25], [0.125, 0.25, 0.25 + 1e-12]],
                             ids=["equal", "one-node"])
    def test_lags_on_one_node_rejected(self, lags):
        # all on one node, the fit wrote a NaN slope and CI
        with pytest.raises(ConfigurationError, match=r"lags .* each needs its own node"):
            run_holder_scan("sheet", FIELD_GRID, 2.0, lags, 100, 10)

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
    @pytest.mark.parametrize("sampler", ["sample_sheet_nodes", "sample_ou_corner"])
    def test_whole_sheet_sampler_names_its_global_path(self, sampler, workers, monkeypatch):
        # path SHEET_CHUNK + 7 is the 8th of the second block
        poison_path(monkeypatch, Stream.CELLS, SHEET_CHUNK + 7)
        grid = Grid(8, 8, 0.125, 0.125)
        args = ([(8, 8)],) if sampler == "sample_sheet_nodes" else ()
        with pytest.raises(NumericsError, match="non-finite per-path sample") as info:
            getattr(verify, sampler)(grid, 3, SHEET_CHUNK + 100, *args, workers=workers)
        assert info.value.path == (SHEET_CHUNK + 7,)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_level_value_names_its_global_path(self, workers, monkeypatch):
        poison_path(monkeypatch, Stream.CELLS, 16390)
        with pytest.raises(NumericsError, match="non-finite per-path sample") as info:
            run_holder_scan("sheet", Grid(8, 4, 1.0 / 8, 1.0 / 16), 2.0,
                            [1.0 / 16, 1.0 / 8, 1.0 / 4], 16400, 8, workers=workers)
        assert info.value.path == (16390,)


def _counted_d2_model(calls, shapes):
    """Acceptance criterion 8's d = 2, m = 2 model, with every callback
    counting its calls by name and recording the shapes it is given."""
    model = model_from_config({"d": 2, "m": 2, "x0": [0.5, -0.5], "fields": [
        [[], []],
        [[[1.0, [0, 0]]], [[0.5, [1, 0]]]],
        [[[0.25, [0, 1]]], [[1.0, [0, 0]]]],
    ]})
    for kind in ("X", "grad_X", "hess_X"):
        cbs = getattr(model.vf, kind)
        for i, cb in enumerate(cbs):
            def wrapped(x, _cb=cb, _name=f"{kind}_{i}"):
                calls[_name] = calls.get(_name, 0) + 1
                shapes.add(np.shape(x))
                return _cb(x)
            cbs[i] = wrapped
    return model


class TestLineFold:
    """Each runner folds its lines in one forward pass and keeps their last
    node: callbacks see one slab of every path, never a whole line."""

    def test_ibp_block_calls_each_callback_once_per_step(self):
        n, count = 16, 64
        calls, shapes = {}, set()
        model = _counted_d2_model(calls, shapes)
        run_ibp(model, coordinate_payoff(0, 2), square_payoff(1, 2),
                Grid(n, 1, 1.0 / n, 1.0), count, 3)
        # once at each step's x_k; X_i and hess X_i (i >= 1) once more at the
        # last node, for the midpoint weights of the last step
        expect = {f"{k}_{i}": n for k in ("X", "grad_X", "hess_X") for i in range(3)}
        for name in ("X_1", "X_2", "hess_X_1", "hess_X_2"):
            expect[name] += 1
        assert calls == expect
        assert shapes == {(count, 2)}

    def test_reversibility_block_calls_no_hessian(self):
        n, count = 8, 64
        calls, shapes = {}, set()
        model = _counted_d2_model(calls, shapes)
        run_reversibility(model, coordinate_payoff(0, 2), coordinate_payoff(1, 2),
                          Grid(n, 4, 1.0 / n, 1.0 / 8), 0.25, count, 5)
        # two state-only lines, at t = 0 and at the gap, n steps each
        assert calls == {f"{k}_{i}": 2 * n for k in ("X", "grad_X") for i in range(3)}
        assert shapes == {(count, 2)}

    @pytest.mark.parametrize("runner", ["ibp", "bismut"])
    def test_block_peaks_at_four_line_arrays(self, runner):
        n, count, f = 128, LINE_CHUNK, coordinate_payoff()
        grid = Grid(n, 1, 1.0 / n, 1.0)
        tracemalloc.start()
        try:
            if runner == "ibp":
                run_ibp(linear_1d(), f, f, grid, count, 3)
            else:
                run_bismut(linear_1d(), f, grid, count, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one scalar line of the block, (paths, n + 1) float64: 16.1 MiB
        assert peak <= 4 * count * (n + 1) * 8

    @pytest.mark.parametrize("runner", ["ibp", "bismut"])
    @pytest.mark.parametrize("poisoned, path, cell", [
        # the lowest bad path is named, not the earliest step
        ({3: 5, 1: 10}, (1,), (10,)),
        # a driver bad at its last node only
        ({5: 16, 2: 16}, (2,), (16,)),
    ])
    def test_poisoned_driver_names_the_state_lines_path_and_node(
            self, runner, poisoned, path, cell, monkeypatch):
        model, n = linear_1d(), 16
        z = sample_boundary_bm(n, 1.0 / n, 1, NoiseSpec(15, 0, 1), batch=6).values
        for p, step in poisoned.items():
            z[p, step:] = np.nan
        with pytest.raises(NumericsError) as line:
            fold_line(model.vf, z, model.x0, 1.0 / n)
        monkeypatch.setattr(verify, "sample_boundary_bm",
                            lambda *args, **kwargs: LineProcess(z, 1.0 / n))
        grid, f = Grid(n, 1, 1.0 / n, 1.0), coordinate_payoff()
        with pytest.raises(NumericsError) as folded:
            if runner == "ibp":
                run_ibp(model, f, f, grid, 6, 1)
            else:
                run_bismut(model, f, grid, 6, 1)
        assert (line.value.path, line.value.cell) == (path, cell)
        assert (folded.value.path, folded.value.cell) == (path, cell)


def _field_runs():
    """Each runner that reduces fields per path, on 300 paths of FIELD_GRID."""
    f, g, lags = coordinate_payoff(), square_payoff(), [1.0 / 32, 1.0 / 16, 1.0 / 8]
    return {
        "rules": lambda: run_rules(n_paths=300, seed=5),
        "reversibility": lambda: run_reversibility(
            linear_1d(), f, g, FIELD_GRID, 1.0 / 8, 300, 5).to_dict(),
        "carre": lambda: run_carre_limit(
            linear_1d(), f, g, FIELD_GRID, lags, 300, 5).to_dict(),
        "holder-x": lambda: run_holder_scan(
            "x", FIELD_GRID, 2.0, lags, 300, 5, model=linear_1d()).to_dict(),
    }


class TestPhiloxChunkSlices:
    """Fields are built and reduced one Philox chunk of paths at a time; the
    deviates are a pure function of their address, so the slices change no
    reported bit."""

    @pytest.mark.parametrize("name", sorted(_field_runs()))
    def test_reports_do_not_depend_on_the_chunk(self, name, monkeypatch):
        run = _field_runs()[name]
        whole = run()
        fields = []
        real = verify._ou_field
        monkeypatch.setattr(verify, "_ou_field",
                            lambda grid, spec, count: fields.append(count) or real(grid, spec, count))
        monkeypatch.setattr(philox, "_CHUNK", 1 << 12)
        assert run() == whole
        if name != "rules":
            # 4096 counters hold 64 paths of the 32 x 8 cell draw
            assert fields == [64] * 4 + [44]

    def test_ou_corner_blocks_fit_one_chunk_of_the_widest_draw(self, monkeypatch):
        passes = []
        real = philox._philox_words

        def counted(bitgen, flat, word1, lanes):
            passes.append(len(philox._runs(flat)) * len(lanes))
            return real(bitgen, flat, word1, lanes)

        monkeypatch.setattr(philox, "_philox_words", counted)
        sample_ou_corner(Grid(16, 64, 1.0 / 16, 1.0 / 64), 3, 1008)
        # two 504-path blocks, each one chunk of its 260-lane exact-OU draw,
        # 256-lane cell draw and 4-lane boundary draw; 512-path blocks would
        # cut each first exact draw at 504 paths and make 1300 passes
        assert sum(passes) == 2 * (260 + 256 + 4)

    def test_rules_peak_is_bounded_in_paths(self):
        tracemalloc.start()
        try:
            run_rules(n_paths=4000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 250 MiB when each rule held its whole draw
        assert peak <= 40 * 2**20

    def test_reversibility_block_holds_lines_not_the_field(self):
        f = coordinate_payoff()
        tracemalloc.start()
        try:
            run_reversibility(linear_1d(), f, f, Grid(32, 16, 1.0 / 32, 1.0 / 64), 0.25,
                              FIELD_CHUNK, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 37 MiB when the block held its whole field
        assert peak <= 24 * 2**20


class TestSweepWindow:
    """The sweep holds a window of diagonals; the Hölder p scan keeps p only
    at the nodes it reads."""

    def test_holder_p_block_holds_the_window_not_the_field(self):
        tracemalloc.start()
        try:
            run_holder_scan("p", Grid(32, 16, 1.0 / 32, 1.0 / 32), 2.0,
                            [0.0625, 0.125, 0.25], HYP_CHUNK, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 117 MiB when the sweep wrote thirteen node-major fields; the
        # block's cell-increment draw peaks at about 18.6 MiB of this
        assert peak <= 40 * 2**20

    def test_whole_solve_peaks_no_higher_than_node_major_state(self):
        grid = Grid(32, 32, 1.0 / 32, 1.0 / 32)
        noise = NoiseSpec(5, 0, 1)
        bounds = ou_system_boundaries(grid, sample_boundary_bm(32, 1.0 / 32, 1, noise, batch=64))
        incs = CellIncrements(sample_cell_increments_batch(grid, noise, 64), grid)
        tracemalloc.start()
        try:
            solve_system(ou_coefficients(1), bounds, grid, incs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 22.52 MiB when the sweep kept its own state node-major: the window
        # adds little to the outputs, and the undriven u* and v* are views
        # of zeros, not arrays
        assert peak <= 22.5 * 2**20


def _ks_samples(n, kind):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    if kind == "identical":
        return a, a.copy()
    if kind == "ties":
        return np.round(a, 1), np.round(b, 1)
    if kind == "unequal":
        return a, rng.standard_normal(n + 1)
    return a, b + {"shift": 0.2, "far": 1.5}[kind]


class TestKSTwoSample:
    """`ks_two_sample` gives `scipy.stats.ks_2samp`'s bits, whether it
    computes them (equal sizes up to KS_EXACT_MAX_N) or hands them to scipy."""

    @pytest.mark.parametrize("kind", ["identical", "ties", "shift", "unequal"])
    @pytest.mark.parametrize("n", [2, 3, 10, 57, 500, 1000, 1100, 3000, 10000, 10001])
    def test_bits_match_scipy(self, n, kind):
        a, b = _ks_samples(n, kind)
        want = ks_2samp(a, b)
        got = verify.ks_two_sample(a, b)
        assert got == (want.statistic, want.pvalue)
        if kind == "identical":
            assert got == (0.0, 1.0)

    @pytest.mark.parametrize("n", [500, 3000, 10000])
    def test_far_apart_samples(self, n):
        a, b = _ks_samples(n, "far")
        want = ks_2samp(a, b)
        assert verify.ks_two_sample(a, b) == (want.statistic, want.pvalue)
        assert want.pvalue < 1e-20

    def test_exact_value_above_one_is_scipys_asymptotic_one(self):
        # n = 5, D = 1/5: the exact sum rounds to 1.0000000000000002, so
        # scipy warns and switches to its asymptotic law
        a = np.arange(5.0)
        with pytest.warns(RuntimeWarning, match="Exact calculation unsuccessful"):
            want = ks_2samp(a, a + 0.5)
        with pytest.warns(RuntimeWarning, match="Exact calculation unsuccessful"):
            got = verify.ks_two_sample(a, a + 0.5)
        assert got == (want.statistic, want.pvalue) and got[0] == 0.2

    def test_nan_is_scipys_nan(self):
        a = np.arange(10.0)
        b = a + 0.5
        b[3] = np.nan
        stat, p = verify.ks_two_sample(a, b)
        assert np.isnan(stat) and np.isnan(p)
