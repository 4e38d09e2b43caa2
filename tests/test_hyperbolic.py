"""General hyperbolic solver: degeneracies, cross-implementation matches,
Goursat refinement, companions, blow-up monitoring, bitwise solution pins.

The pins in ``golden/hyperbolic_pins.json`` hold the sha256 of every
`HyperbolicSolution` array for a set of grids, boundary shapes and
coefficient sets.  A pin changes only on purpose; regenerate the file with

    PYTHONPATH=src python tests/test_hyperbolic.py --update

and record in CHANGES.md which pins moved and why.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sheetcalc.errors import ConfigurationError, ModelError, NumericsError, ShapeError
from sheetcalc.hyperbolic import (
    CoefficientSet,
    _tuple_norm,
    SystemBoundaries,
    blowup_monitor,
    bounded_test_coefficients,
    exponential_growth_coefficients,
    identity_noise_coefficients,
    ou_coefficients,
    ou_system_boundaries,
    _SweepContext,
    solve_system,
    zero_coefficients,
)
from sheetcalc.lattice import (
    CellIncrements,
    Channel,
    Grid,
    NoiseSpec,
    cumsum0,
    sample_boundary_bm,
    sample_cell_increments_batch,
)
from sheetcalc.sheet import build_sheet, solve_ou_hyperbolic

TRANSPOSE_RTOL = 1e-8


def _zero_bounds(grid, d=1, n=1, batch=()):
    return SystemBoundaries(
        x_s0=np.zeros(batch + (grid.n_s + 1, d)),
        x_0t=np.zeros(batch + (grid.n_t + 1, d)),
        p_0t=np.zeros(batch + (grid.n_t + 1, n)),
        q_s0=np.zeros(batch + (grid.n_s + 1, n)),
    )


def _incs(grid, seed, n_paths=None, m=1):
    vals = sample_cell_increments_batch(grid, NoiseSpec(seed, 0, m), n_paths)
    return CellIncrements(vals, grid)


def _assert_transposed_association(sol):
    """x rebuilt from its stored t-increments (the transposed association)
    agrees with the sweep at every in-domain node, to TRANSPOSE_RTOL."""
    recon = sol.x[..., :, 0:1, :] + cumsum0(sol.dt_x, axis=-2)
    live = sol.domain_mask[..., None]
    err = np.max(np.abs(np.where(live, sol.x - recon, 0.0)))
    scale = max(1.0, float(np.max(np.abs(np.where(live, sol.x, 0.0)))))
    assert err <= TRANSPOSE_RTOL * scale, f"max err {err:.3e}"


class TestDegeneracies:
    def test_pure_noise_equals_sheet_bitwise(self):
        grid = Grid(8, 8, 0.125, 0.125)
        incs = _incs(grid, 1, 3)
        sol = solve_system(identity_noise_coefficients(1, 1, 1), _zero_bounds(grid, batch=(3,)),
                           grid, incs)
        assert np.array_equal(sol.x, build_sheet(incs).values)

    def test_zero_coefficients_companions_identity(self):
        grid = Grid(6, 4, 0.25, 0.25)
        incs = _incs(grid, 2, None)
        sol = solve_system(zero_coefficients(1, 1, 1), _zero_bounds(grid), grid, incs)
        assert np.all(sol.u[..., 0, 0] == 1.0)
        assert np.all(sol.v[..., 0, 0] == 1.0)
        assert np.all(sol.u_inv[..., 0, 0] == 1.0)
        assert np.all(sol.u_star == 0.0) and np.all(sol.v_star == 0.0)
        assert np.all(sol.m_field == 2.0)  # sqrt(4 d) with d = 1

    def test_ou_coefficients_match_specialized_solver_bitwise(self):
        grid = Grid(8, 8, 0.125, 0.125)  # dyadic steps: clock arithmetic exact
        noise = NoiseSpec(3, 0, 1)
        incs = _incs(grid, 3, 4)
        zb = sample_boundary_bm(8, 0.125, 1, noise, batch=4)
        spec = solve_ou_hyperbolic(grid, zb, incs)
        sol = solve_system(ou_coefficients(1), ou_system_boundaries(grid, zb), grid, incs)
        _assert_transposed_association(sol)
        assert np.array_equal(sol.x[..., :1], spec.values)

    def test_one_parameter_restriction_bitwise(self):
        # each fixed-t row is the cumulative sum of its stored s-increments
        grid = Grid(8, 8, 0.125, 0.125)
        noise = NoiseSpec(4, 0, 1)
        incs = _incs(grid, 4, 2)
        zb = sample_boundary_bm(8, 0.125, 1, noise, batch=2)
        sol = solve_system(ou_coefficients(1), ou_system_boundaries(grid, zb), grid, incs)
        for j in range(grid.n_t + 1):
            rebuilt = sol.x[..., 0:1, j, :] + np.concatenate(
                [np.zeros_like(sol.ds_x[..., :1, j, :]),
                 np.cumsum(sol.ds_x[..., j, :], axis=-2)], axis=-2
            )
            assert np.array_equal(rebuilt, sol.x[..., :, j, :])


class TestGoursatOracle:
    LAM = -1.0  # attractive sign: the continuum solution is globally smooth

    def _solve(self, n):
        # dd x = lam dsx dtx with x_s0 = s, x_0t = t and no noise
        lam = self.LAM
        grid = Grid(n, n, 1.0 / n, 1.0 / n)
        coeffs = CoefficientSet(d=1, n=1, m=1, b11=lambda x, xi, tau: lam * xi * tau)
        bounds = SystemBoundaries(
            x_s0=grid.s_nodes()[:, None],
            x_0t=grid.t_nodes()[:, None],
            p_0t=np.zeros((n + 1, 1)),
            q_s0=np.zeros((n + 1, 1)),
        )
        incs = CellIncrements(np.zeros((n, n, 1)), grid)
        return solve_system(coeffs, bounds, grid, incs).x[..., n, n, 0]

    def test_refinement_toward_extrapolated_reference(self):
        vals = {n: self._solve(n) for n in (8, 16, 32, 64, 128)}
        ref = 2.0 * vals[128] - vals[64]  # first-order Richardson reference
        errs = [abs(vals[n] - ref) for n in (8, 16, 32)]
        assert errs[1] < 0.7 * errs[0]
        assert errs[2] < 0.7 * errs[1]

    def test_against_closed_form(self):
        # exp(-lam x) is harmonic for the mixed derivative, so
        # x = -log(exp(-lam s) + exp(-lam t) - 1) / lam
        lam = self.LAM
        exact = -np.log(np.exp(-lam) + np.exp(-lam) - 1.0) / lam
        v64, v128 = self._solve(64), self._solve(128)
        assert abs(v128 - exact) < 0.02 * abs(exact)
        assert abs(v128 - exact) < 0.7 * abs(v64 - exact)


class TestValidationAndErrors:
    def test_corner_inconsistency(self):
        grid = Grid(4, 4, 0.25, 0.25)
        bounds = SystemBoundaries(
            x_s0=np.ones((5, 1)),
            x_0t=np.zeros((5, 1)),
            p_0t=np.zeros((5, 1)),
            q_s0=np.zeros((5, 1)),
        )
        with pytest.raises(ConfigurationError):
            solve_system(zero_coefficients(), bounds, grid, _incs(grid, 5, None))

    def test_nonfinite_in_domain_reports_cell(self):
        grid = Grid(8, 2, 0.125, 0.5)
        coeffs = exponential_growth_coefficients(1e300)
        bounds = SystemBoundaries(
            x_s0=grid.s_nodes()[:, None],
            x_0t=np.zeros((3, 1)),
            p_0t=np.zeros((3, 1)),
            q_s0=np.zeros((9, 1)),
        )
        incs = CellIncrements(np.zeros((8, 2, 1)), grid)
        with pytest.raises(NumericsError) as err:
            solve_system(coeffs, bounds, grid, incs)
        assert err.value.cell is not None

    @pytest.mark.parametrize("line, width", [("x_s0", 1), ("x_0t", 1), ("p_0t", 2), ("q_s0", 2)])
    def test_boundary_of_the_wrong_width_is_named(self, line, width):
        # d = 2, n = 1: a width-1 x line would broadcast to both components
        grid = Grid(4, 4, 0.25, 0.25)
        bounds = _zero_bounds(grid, d=2)
        setattr(bounds, line, np.zeros((len(getattr(bounds, line)), width)))
        with pytest.raises(ShapeError, match=line):
            solve_system(identity_noise_coefficients(2, 1, 2), bounds, grid,
                         _incs(grid, 5, None, 2))

    def test_asymmetric_quadratic_coefficient_rejected(self):
        def bad_a2(x, p, q, dw1, dw2):
            return dw1 * (dw2 + 1.0)

        with pytest.raises(ModelError):
            CoefficientSet(d=1, n=1, m=1, a2=bad_a2)


class TestBlowup:
    def test_infinite_threshold_full_domain(self):
        grid = Grid(6, 6, 1.0 / 6, 1.0 / 6)
        sol = solve_system(bounded_test_coefficients(), _zero_bounds(grid), grid,
                           _incs(grid, 6, None))
        assert np.all(sol.domain_mask)
        assert not np.any(blowup_monitor(sol).frontier)

    def test_zero_coefficients_monitor(self):
        grid = Grid(4, 4, 0.25, 0.25)
        sol = solve_system(zero_coefficients(), _zero_bounds(grid), grid,
                           _incs(grid, 7, None), blowup_M=100.0)
        summary = blowup_monitor(sol)
        assert not np.any(summary.frontier)
        assert float(summary.max_m) == 2.0

    def test_frontier_matches_scalar_ode_oracle(self):
        # u' = lam u along s; m crosses M at a predictable node
        lam, M, n = 4.0, 4.0, 16
        grid = Grid(n, 4, 1.0 / n, 0.25)
        coeffs = exponential_growth_coefficients(lam)
        bounds = SystemBoundaries(
            x_s0=grid.s_nodes()[:, None],
            x_0t=np.zeros((5, 1)),
            p_0t=np.zeros((5, 1)),
            q_s0=np.zeros((n + 1, 1)),
        )
        incs = CellIncrements(np.zeros((n, 4, 1)), grid)
        sol = solve_system(coeffs, bounds, grid, incs, blowup_M=M)
        # independent scalar recursions for u and its linear-inverse update
        g = lam * grid.ds
        u = np.cumprod(np.concatenate([[1.0], np.full(n, 1.0 + g)]))
        uinv = np.cumprod(np.concatenate([[1.0], np.full(n, 1.0 - g + g * g)]))
        m_oracle = np.maximum.accumulate(np.sqrt(2 * u**2 + 2 * uinv**2))
        i_star = int(np.argmax(m_oracle > M))
        frontier = np.argwhere(blowup_monitor(sol).frontier)
        assert frontier.tolist() == [[i_star, 0]]
        assert np.all(sol.domain_mask[:i_star, :])
        assert not np.any(sol.domain_mask[i_star:, :])
        # within the domain the solver matches the recursion bitwise
        assert np.array_equal(sol.u[:i_star, 0, 0, 0], u[:i_star])

    def test_domain_shrinks_with_coefficient_magnitude(self):
        def domain_size(lam):
            n = 16
            grid = Grid(n, 4, 1.0 / n, 0.25)
            bounds = SystemBoundaries(
                x_s0=grid.s_nodes()[:, None],
                x_0t=np.zeros((5, 1)),
                p_0t=np.zeros((5, 1)),
                q_s0=np.zeros((n + 1, 1)),
            )
            incs = CellIncrements(np.zeros((n, 4, 1)), grid)
            sol = solve_system(exponential_growth_coefficients(lam), bounds, grid,
                               incs, blowup_M=5.0)
            return int(np.sum(sol.domain_mask))

        sizes = [domain_size(lam) for lam in (2.0, 4.0, 8.0)]
        assert sizes[0] >= sizes[1] >= sizes[2]
        assert sizes[0] > sizes[2]

    def test_frozen_values_stay_finite(self):
        lam, M, n = 8.0, 3.0, 16
        grid = Grid(n, 4, 1.0 / n, 0.25)
        bounds = SystemBoundaries(
            x_s0=grid.s_nodes()[:, None],
            x_0t=np.zeros((5, 1)),
            p_0t=np.zeros((5, 1)),
            q_s0=np.zeros((n + 1, 1)),
        )
        incs = CellIncrements(np.zeros((n, 4, 1)), grid)
        sol = solve_system(exponential_growth_coefficients(lam), bounds, grid,
                           incs, blowup_M=M)
        assert np.all(np.isfinite(sol.u)) and np.all(np.isfinite(sol.x))


class TestCompanionStructure:
    def test_uu_inv_drift_shrinks_with_ds(self):
        drifts = []
        for n_s in (16, 64):
            grid = Grid(n_s, 8, 1.0 / n_s, 1.0 / 8)
            sol = solve_system(bounded_test_coefficients(), _zero_bounds(grid, batch=(8,)),
                               grid, _incs(grid, 8, 8))
            drifts.append(sol.uu_inv_drift())
        assert drifts[0] < 0.25
        assert drifts[1] < drifts[0]

    def test_transpose_check_passes(self):
        grid = Grid(8, 8, 0.125, 0.125)
        sol = solve_system(bounded_test_coefficients(), _zero_bounds(grid, batch=(2,)),
                           grid, _incs(grid, 9, 2))
        _assert_transposed_association(sol)

    def test_p_q_ride_along(self):
        # c1 = e1 = identity on the x-increment: p and q integrate x edges
        grid = Grid(8, 8, 0.125, 0.125)
        coeffs = CoefficientSet(
            d=1, n=1, m=1,
            a1=lambda x, p, q, dw: dw,
            c1=lambda x, p, q, xi: xi,
            e1=lambda x, p, q, tau: tau,
        )
        sol = solve_system(coeffs, _zero_bounds(grid), grid, _incs(grid, 10, None))
        # p integrates d_s x along each row: p(s, t) = x(s, t) - x(0, t)
        np.testing.assert_allclose(sol.p, sol.x - sol.x[..., 0:1, :, :], atol=1e-12)
        np.testing.assert_allclose(sol.q, sol.x - sol.x[..., :, 0:1, :], atol=1e-12)


PINS = Path(__file__).resolve().parent / "golden" / "hyperbolic_pins.json"
SOLUTION_ARRAYS = ("x", "p", "q", "u", "u_inv", "u_star", "v", "v_inv", "v_star",
                   "ds_x", "dt_x", "domain_mask", "m_field")


def full_d2_coefficients() -> CoefficientSet:
    """d = n = m = 2 system in which all ten coefficient terms are present."""

    def a1(x, p, q, dw):
        return dw * (1.0 + 0.1 * np.sin(x)) + 0.05 * q

    def a2(x, p, q, dw, dw2):
        return 0.3 * dw * dw2 + 0.1 * np.cos(x) * (dw[..., ::-1] * dw2[..., ::-1])

    def b11(x, xi, tau):
        return 0.2 * np.sin(x) * xi * tau[..., ::-1]

    def b12(x, xi, tau, tau2):
        return 0.1 * xi * (tau * tau2[..., ::-1] + tau2 * tau[..., ::-1])

    def b21(x, xi, xi2, tau):
        return 0.1 * np.cos(x) * (xi * xi2) * tau

    def b22(x, xi, xi2, tau, tau2):
        return 0.05 * (xi * xi2) * (tau * tau2)

    def c1(x, p, q, xi):
        return np.cos(x) * xi + 0.1 * p

    def c2(x, p, q, xi, xi2):
        return 0.1 * xi * xi2

    def e1(x, p, q, tau):
        return np.sin(x) * tau - 0.1 * q

    def e2(x, p, q, tau, tau2):
        return -0.1 * tau * tau2

    return CoefficientSet(d=2, n=2, m=2, a1=a1, a2=a2, b11=b11, b12=b12, b21=b21,
                          b22=b22, c1=c1, c2=c2, e1=e1, e2=e2)


def _bm_bounds(grid, noise, d, n, batch):
    """Brownian Goursat data on all four boundary lines (x starts at 0)."""
    def line(channel, axis, dim):
        steps, step = (grid.n_s, grid.ds) if axis == "s" else (grid.n_t, grid.dt)
        return sample_boundary_bm(steps, step, dim, noise, channel=channel, axis=axis,
                                  batch=batch).values

    return SystemBoundaries(
        x_s0=line(Channel.X_S0, "s", d),
        x_0t=line(Channel.X_0T, "t", d),
        p_0t=line(Channel.P_0T, "t", n),
        q_s0=line(Channel.Q_S0, "s", n),
    )


def _growth_bounds(grid, scales):
    """expgrow data x_s0 = c s, x_0t = c t with one scale c per path."""
    c = np.asarray(scales, dtype=np.float64)[:, None, None]
    return SystemBoundaries(
        x_s0=c * grid.s_nodes()[:, None],
        x_0t=c * grid.t_nodes()[:, None],
        p_0t=np.zeros((grid.n_t + 1, 1)),
        q_s0=np.zeros((grid.n_s + 1, 1)),
    )


def _pin_case(name):
    """(coeffs, boundaries, grid, increments, blowup_M) of one pinned solve."""
    def bounded(n_s, n_t, n_paths, batched_bounds):
        grid = Grid(n_s, n_t, 1.0 / n_s, 1.0 / n_t)
        incs = _incs(grid, 11, n_paths)
        if batched_bounds:
            bounds = _bm_bounds(grid, NoiseSpec(11, 0, 1), 1, 1, n_paths)
        else:
            bounds = _zero_bounds(grid)
        return bounded_test_coefficients(), bounds, grid, incs, np.inf

    if name == "bounded1d-7x3":      # S > T, unbatched boundaries
        return bounded(7, 3, 3, False)
    if name == "bounded1d-3x7":      # S < T, batched Brownian boundaries
        return bounded(3, 7, 3, True)
    if name == "bounded1d-1x1":
        return bounded(1, 1, 2, True)
    if name == "bounded1d-1x6":
        return bounded(1, 6, 2, False)
    if name == "bounded1d-6x1":
        return bounded(6, 1, 2, True)
    if name == "bounded1d-unbatched-5x4":
        return bounded(5, 4, None, False)
    if name == "bounded1d-batch-2x2-6x4":
        # two batch axes; boundaries batched on the first only
        grid = Grid(6, 4, 1.0 / 6, 0.25)
        incs = CellIncrements(_incs(grid, 12, 4).values.reshape(2, 2, 6, 4, 1), grid)
        b = _bm_bounds(grid, NoiseSpec(12, 0, 1), 1, 1, 2)
        bounds = SystemBoundaries(*(a[:, None] for a in b.arrays()))
        return bounded_test_coefficients(), bounds, grid, incs, np.inf
    if name == "ou-d2-8x6":
        grid = Grid(8, 6, 0.125, 0.125)
        zb = sample_boundary_bm(8, 0.125, 1, NoiseSpec(13, 0, 1), batch=4)
        return ou_coefficients(1), ou_system_boundaries(grid, zb), grid, _incs(grid, 13, 4), np.inf
    if name == "expgrow-frozen-12x10":
        # growth along both axes; the per-path scale moves the frontier
        grid = Grid(12, 10, 1.0 / 12, 0.1)
        bounds = _growth_bounds(grid, [0.5, 1.0, 2.0])
        return exponential_growth_coefficients(4.0), bounds, grid, _incs(grid, 14, 3), 3.0
    if name == "full-d2-9x5":
        grid = Grid(9, 5, 1.0 / 9, 0.2)
        bounds = _bm_bounds(grid, NoiseSpec(15, 0, 2), 2, 2, 3)
        return full_d2_coefficients(), bounds, grid, _incs(grid, 15, 3, m=2), np.inf
    if name == "full-d2-5x9-unbatched-bounds":
        grid = Grid(5, 9, 0.2, 1.0 / 9)
        bounds = _bm_bounds(grid, NoiseSpec(16, 0, 2), 2, 2, None)
        return full_d2_coefficients(), bounds, grid, _incs(grid, 16, 3, m=2), np.inf
    if name == "full-d2-frozen-7x7":
        grid = Grid(7, 7, 0.25, 0.25)
        bounds = _bm_bounds(grid, NoiseSpec(17, 0, 2), 2, 2, 4)
        return full_d2_coefficients(), bounds, grid, _incs(grid, 17, 4, m=2), 2.9
    raise KeyError(name)


PIN_CASES = (
    "bounded1d-7x3", "bounded1d-3x7", "bounded1d-1x1", "bounded1d-1x6", "bounded1d-6x1",
    "bounded1d-unbatched-5x4", "bounded1d-batch-2x2-6x4", "ou-d2-8x6",
    "expgrow-frozen-12x10", "full-d2-9x5", "full-d2-5x9-unbatched-bounds",
    "full-d2-frozen-7x7",
)


def _sha(a) -> str:
    a = np.asarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def solution_digests(name) -> dict:
    coeffs, bounds, grid, incs, blowup_M = _pin_case(name)
    sol = solve_system(coeffs, bounds, grid, incs, blowup_M=blowup_M)
    return {a: _sha(getattr(sol, a)) for a in SOLUTION_ARRAYS}


class TestSolutionPins:
    @pytest.mark.parametrize("case", PIN_CASES)
    def test_solution_arrays_match_pins(self, case):
        assert solution_digests(case) == json.loads(PINS.read_text())[case]

    def test_frozen_cases_freeze_some_nodes(self):
        # the blow-up cases exercise dead nodes, but not on every node
        for case in ("expgrow-frozen-12x10", "full-d2-frozen-7x7"):
            coeffs, bounds, grid, incs, blowup_M = _pin_case(case)
            mask = solve_system(coeffs, bounds, grid, incs, blowup_M=blowup_M).domain_mask
            assert 0 < np.sum(~mask) < mask.size, case
            assert len({int(np.sum(~m)) for m in mask}) > 1, case


class TestPathIndependence:
    def test_batched_d2_solve_equals_each_path_alone(self):
        # every product is elementwise over the paths, so a path's bits do
        # not depend on the paths solved beside it
        grid = Grid(6, 5, 1.0 / 6, 0.2)
        n_paths = 5
        bounds = _bm_bounds(grid, NoiseSpec(21, 0, 2), 2, 2, n_paths)
        incs = _incs(grid, 21, n_paths, m=2)
        sol = solve_system(full_d2_coefficients(), bounds, grid, incs)
        for k in range(n_paths):
            alone = solve_system(
                full_d2_coefficients(), SystemBoundaries(*(a[k] for a in bounds.arrays())),
                grid, CellIncrements(incs.values[k], grid))
            for a in ("x", "u", "u_inv", "u_star", "v", "v_inv", "v_star", "m_field"):
                assert getattr(sol, a)[k].tobytes() == getattr(alone, a).tobytes(), (k, a)

    def test_live_path_is_unchanged_by_a_frozen_neighbour(self):
        # path 0 freezes at M = 3, so later diagonals take the masked update;
        # path 1 stays in-domain and must match the all-live solve at M = inf
        grid = Grid(12, 10, 1.0 / 12, 0.1)
        bounds = _growth_bounds(grid, [0.5, 0.1])
        incs = _incs(grid, 22, 2)
        coeffs = exponential_growth_coefficients(1.0)
        frozen = solve_system(coeffs, bounds, grid, incs, blowup_M=3.0)
        free = solve_system(coeffs, bounds, grid, incs)
        assert np.sum(~frozen.domain_mask[0]) > 1
        assert np.all(frozen.domain_mask[1]) and np.all(free.domain_mask)
        for a in SOLUTION_ARRAYS:
            assert getattr(frozen, a)[1].tobytes() == getattr(free, a)[1].tobytes(), a


class TestSkippedWork:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tuple_norm_equals_the_reduction(self, d):
        # the norm adds squared entries without np.sum; its bits must be
        # those of the four reductions, signed zeros and non-finite included
        rng = np.random.default_rng(30 + d)
        mats = []
        for k in range(4):
            a = rng.standard_normal((5, 7, d, d)) * np.exp(3.0 * rng.standard_normal((5, 7, d, d)))
            a[0, k] = -0.0
            a[1, k, 0, d - 1] = np.inf
            a[2, k, d - 1, 0] = -np.inf
            a[3, k, d // 2, d // 2] = np.nan
            a[4, k] = 1e200  # squares overflow to inf
            a[4, k + 1, 0, 0] = -0.0
            mats.append(a)
        with np.errstate(over="ignore", invalid="ignore"):
            sums = [np.sum(a * a, axis=(-2, -1)) for a in mats]
            expected = np.sqrt(sums[0] + sums[1] + sums[2] + sums[3])
            got = _tuple_norm(*mats)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", ["bounded1d-3x7", "full-d2-9x5"])
    def test_unreached_finite_threshold_equals_infinite(self, case):
        # a finite M keeps the freeze mask; M = inf skips it.  With M above
        # every running norm no node freezes, so both must agree bit for bit
        coeffs, bounds, grid, incs, blowup_M = _pin_case(case)
        assert np.isinf(blowup_M)
        free = solve_system(coeffs, bounds, grid, incs)
        M = 1.5 * float(np.max(free.m_field))
        masked = solve_system(coeffs, bounds, grid, incs, blowup_M=M)
        assert np.all(masked.domain_mask)
        for a in SOLUTION_ARRAYS:
            assert getattr(masked, a).tobytes() == getattr(free, a).tobytes(), a

    @pytest.mark.parametrize("case", ["ou-d2-8x6", "bounded1d-7x3", "expgrow-frozen-12x10"])
    def test_second_order_flows_vanish_without_b12_b22(self, case):
        coeffs, bounds, grid, incs, blowup_M = _pin_case(case)
        assert coeffs.b12 is None and coeffs.b21 is None and coeffs.b22 is None
        sol = solve_system(coeffs, bounds, grid, incs, blowup_M=blowup_M)
        for star in (sol.u_star, sol.v_star):
            assert star.shape == sol.u.shape[:-2] + (coeffs.d,) * 3
            assert np.all(star == 0.0) and not np.any(np.signbit(star))


def _exchanged(c: CoefficientSet) -> CoefficientSet:
    """The system with s and t exchanged: b12 and b21 trade places, every b
    takes its s- and t-slots exchanged, c and e trade places, and every
    callback takes p and q exchanged."""
    return CoefficientSet(
        d=c.d, n=c.n, m=c.m,
        a1=lambda x, p, q, dw: c.a1(x, q, p, dw),
        a2=lambda x, p, q, dw, dw2: c.a2(x, q, p, dw, dw2),
        b11=lambda x, xi, tau: c.b11(x, tau, xi),
        b12=lambda x, xi, tau, tau2: c.b21(x, tau, tau2, xi),
        b21=lambda x, xi, xi2, tau: c.b12(x, tau, xi, xi2),
        b22=lambda x, xi, xi2, tau, tau2: c.b22(x, tau, tau2, xi, xi2),
        c1=lambda x, p, q, xi: c.e1(x, q, p, xi),
        c2=lambda x, p, q, xi, xi2: c.e2(x, q, p, xi, xi2),
        e1=lambda x, p, q, tau: c.c1(x, q, p, tau),
        e2=lambda x, p, q, tau, tau2: c.c2(x, q, p, tau, tau2),
    )


class TestTranspositionSymmetry:
    def test_exchanged_system_solves_to_the_transpose(self):
        # Exchanging s and t maps the system onto itself, so solving the
        # exchanged system on the transposed data and transposing back must
        # reproduce the solution, with p, u, u^{-1}, u*, ds_x and q, v,
        # v^{-1}, v*, dt_x trading places.  Only the order of some sums
        # differs, so the match is to rounding, not to the bit.
        coeffs, bounds, grid, incs, _ = _pin_case("full-d2-9x5")
        sol = solve_system(coeffs, bounds, grid, incs)
        grid_x = Grid(grid.n_t, grid.n_s, grid.dt, grid.ds)
        bounds_x = SystemBoundaries(x_s0=bounds.x_0t, x_0t=bounds.x_s0,
                                    p_0t=bounds.q_s0, q_s0=bounds.p_0t)
        incs_x = CellIncrements(np.swapaxes(incs.values, -3, -2), grid_x)
        sol_x = solve_system(_exchanged(coeffs), bounds_x, grid_x, incs_x)
        pairs = {"x": "x", "p": "q", "q": "p", "u": "v", "v": "u", "u_inv": "v_inv",
                 "v_inv": "u_inv", "u_star": "v_star", "v_star": "u_star",
                 "ds_x": "dt_x", "dt_x": "ds_x", "m_field": "m_field"}
        for name, other in pairs.items():
            a = getattr(sol, name)
            b = np.swapaxes(getattr(sol_x, other), 1, 2)  # node axes follow the path axis
            assert a.shape == b.shape, name
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a)), name
        assert np.all(sol.domain_mask) and np.all(sol_x.domain_mask)


def _nan_cells(shape, seed, n_paths, cells, bounds=None, blowup_M=np.inf):
    """bounded1d on an S x T grid with a NaN increment in each (path, i, j)
    of cells: (coeffs, boundaries, grid, increments, blowup_M)."""
    grid = Grid(*shape, 1.0 / shape[0], 1.0 / shape[1])
    incs = _incs(grid, seed, n_paths)
    for cell in cells:
        incs.values[cell + (0,)] = np.nan
    bounds = _zero_bounds(grid) if bounds is None else bounds
    return bounded_test_coefficients(), bounds, grid, incs, blowup_M


def _axis_case(cell):
    # node (2, 0) is bad on path 0 through q_s0; a NaN in `cell` of path 1
    # makes node cell + (1, 1) bad
    bounds = _zero_bounds(Grid(4, 4, 0.25, 0.25), batch=(2,))
    bounds.q_s0[0, 2, 0] = np.nan
    return _nan_cells((4, 4), 19, 2, [(1,) + cell], bounds)


def _corner_case(line):
    # a NaN corner on path 1; path 0 also goes bad, at node (1, 1)
    bounds = _zero_bounds(Grid(4, 4, 0.25, 0.25), batch=(2,))
    for name in ("x_s0", "x_0t") if line == "x" else (line,):
        getattr(bounds, name)[1, 0, 0] = np.nan
    return _nan_cells((4, 4), 19, 2, [(0, 0, 0)], bounds)


# the solves of TestFailingNodeOrder, by name
FAILING_CASES = {
    "row-order-8x8": lambda: _nan_cells((8, 8), 18, 4, [(1, 0, 6), (3, 3, 0)]),
    "row-order-5x9": lambda: _nan_cells((5, 9), 18, 4, [(1, 0, 7), (3, 3, 0)]),
    "row-order-9x5": lambda: _nan_cells((9, 5), 18, 4, [(1, 1, 4), (3, 3, 0)]),
    "masked-6x6": lambda: _nan_cells((6, 6), 18, 2, [(1, 2, 3)], blowup_M=1e3),
    "late-diagonal-8x8": lambda: _nan_cells((8, 8), 18, 2, [(0, 3, 7), (1, 4, 0)]),
    "last-node-4x6": lambda: _nan_cells((4, 6), 19, 2, [(1, 3, 5)]),
    "axis-cell-0-0": lambda: _axis_case((0, 0)),
    "axis-cell-0-1": lambda: _axis_case((0, 1)),
    "corner-x": lambda: _corner_case("x"),
    "corner-p_0t": lambda: _corner_case("p_0t"),
    "corner-q_s0": lambda: _corner_case("q_s0"),
}


def _failure(case, **kw):
    coeffs, bounds, grid, incs, blowup_M = FAILING_CASES[case]()
    with pytest.raises(NumericsError) as err:
        solve_system(coeffs, bounds, grid, incs, blowup_M=blowup_M, **kw)
    return err.value.cell, err.value.path


class TestFailingNodeOrder:
    def test_names_the_first_bad_node_in_row_order(self):
        # NaN cells at path 1 (0, 6) and path 3 (3, 0): the bad node of path 3
        # lies on an earlier anti-diagonal, but (1, 7) comes first row by row
        assert _failure("row-order-8x8") == ((1, 7), (1,))

    @pytest.mark.parametrize("shape, path1_cell, expected", [
        ((5, 9), (0, 7), (1, 8)),
        ((9, 5), (1, 4), (2, 5)),
    ])
    def test_names_the_first_bad_node_in_row_order_on_rectangles(self, shape, path1_cell,
                                                                 expected):
        # as above on S < T and S > T grids: the bad node (4, 1) of path 3
        # lies on an earlier anti-diagonal than `expected` of path 1
        case = "row-order-%dx%d" % shape
        assert np.isnan(FAILING_CASES[case]()[3].values[(1,) + path1_cell + (0,)])
        assert _failure(case) == (expected, (1,))

    def test_nan_cell_under_a_finite_threshold_leaves_the_domain(self):
        # the NaN increment of path 1 in cell (2, 3) makes x, u and so m NaN
        # at node (3, 4); a NaN norm counts as blown, so that node and every
        # node above and right of it leave the domain and nothing is raised
        coeffs, bounds, grid, incs, blowup_M = FAILING_CASES["masked-6x6"]()
        sol = solve_system(coeffs, bounds, grid, incs, blowup_M=blowup_M)
        assert np.isnan(sol.x[1, 3, 4, 0]) and np.isnan(sol.m_field[1, 3, 4])
        outside = np.zeros((2, 7, 7), dtype=bool)
        outside[1, 3:, 4:] = True
        assert np.array_equal(sol.domain_mask, ~outside)

    def test_finds_an_earlier_bad_node_on_a_late_diagonal(self):
        # node (5, 1) of path 1 goes bad on diagonal 6; node (4, 8) of path 0,
        # earlier row by row, only on diagonal 12, the last one that can hold
        # a node checked before row 5
        assert _failure("late-diagonal-8x8") == ((4, 8), (0,))

    def test_checks_the_last_diagonal(self):
        # the NaN in the last cell makes only node (4, 6), alone on the last
        # diagonal, bad
        assert _failure("last-node-4x6") == ((4, 6), (1,))

    @pytest.mark.parametrize("cell, expected", [((0, 0), (1, 1)), ((0, 1), (2, 0))])
    def test_axis_node_is_checked_after_its_row_neighbour(self, cell, expected):
        # (2, 0) is checked in row 1 right after (1, 1) and before (1, 2),
        # although (1, 1) and (2, 0) share a diagonal
        path = (1,) if expected == (1, 1) else (0,)
        assert _failure("axis-cell-%d-%d" % cell) == (expected, path)

    def test_nan_x_corner_names_the_corner(self):
        # the corner must come before node (1, 1) of path 0
        assert _failure("corner-x") == ((0, 0), (1,))

    @pytest.mark.parametrize("line", ["p_0t", "q_s0"])
    def test_nan_companion_corner_names_the_corner(self, line):
        assert _failure("corner-" + line) == ((0, 0), (1,))

    @pytest.mark.parametrize("case", sorted(FAILING_CASES))
    def test_kept_nodes_fail_as_the_whole_solve(self, case, monkeypatch):
        # keep_p keeps the same per-node flags, so it names the same node and
        # path, and only after the sweep has run over every diagonal
        coeffs, bounds, grid, incs, blowup_M = FAILING_CASES[case]()
        keep = _kept_nodes(grid)
        try:
            sol = solve_system(coeffs, bounds, grid, incs, blowup_M=blowup_M)
        except NumericsError as err:
            steps = []
            real = _SweepContext.diagonal
            monkeypatch.setattr(_SweepContext, "diagonal",
                                lambda ctx, k: steps.append(k) or real(ctx, k))
            assert _failure(case, keep_p=keep) == (err.cell, err.path)
            assert steps == list(range(grid.n_s + grid.n_t))
        else:
            kept = solve_system(coeffs, bounds, grid, incs, blowup_M=blowup_M, keep_p=keep)
            assert _bits(kept) == _bits(_p_at(sol, keep))


def _kept_nodes(grid):
    """The top edge (n_s, j), nodes on both axes and inside, one node twice,
    in no diagonal order."""
    S, T = grid.n_s, grid.n_t
    top = [(S, j) for j in range(T, -1, -1)]
    return top + [(0, 0), (0, T), (S // 2, 0), (0, T // 2), (1, 1), (S // 2, T // 2),
                  (S - 1, T - 1), top[0]]


def _p_at(sol, nodes):
    return np.stack([sol.p[..., i, j, :] for i, j in nodes], axis=-2)


def _bits(a):
    return a.shape, a.dtype.str, np.ascontiguousarray(a).tobytes()


def _rectangle_case(shape, batch):
    """The full d = 2 system, Brownian boundaries, batch () or (3,)."""
    grid = Grid(*shape, 1.0 / shape[0], 1.0 / shape[1])
    n_paths = batch[0] if batch else None
    bounds = _bm_bounds(grid, NoiseSpec(20, 0, 2), 2, 2, n_paths)
    return full_d2_coefficients(), bounds, grid, _incs(grid, 20, n_paths, m=2), np.inf


class TestKeptP:
    """keep_p keeps p at the named nodes, bit for bit what the whole solve
    holds there, signed zeros included."""

    def _check(self, coeffs, bounds, grid, incs, blowup_M):
        keep = _kept_nodes(grid)
        sol = solve_system(coeffs, bounds, grid, incs, blowup_M=blowup_M)
        kept = solve_system(coeffs, bounds, grid, incs, blowup_M=blowup_M, keep_p=keep)
        assert _bits(kept) == _bits(_p_at(sol, keep))

    @pytest.mark.parametrize("case", sorted(json.loads(PINS.read_text())))
    def test_kept_p_matches_each_pinned_solve(self, case):
        self._check(*_pin_case(case))

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["unbatched", "batch3"])
    @pytest.mark.parametrize("shape", [(5, 9), (9, 5)], ids=["5x9", "9x5"])
    def test_kept_p_matches_on_rectangles(self, shape, batch):
        self._check(*_rectangle_case(shape, batch))

    def test_kept_p_holds_signed_zeros(self):
        # zero noise, p_0t = -0.0 on path 1 and d_s p = -dsx = -0.0: p is
        # -0.0 on path 1 and +0.0 on path 0, as the whole solve has it
        grid = Grid(5, 9, 0.2, 1.0 / 9)
        coeffs = CoefficientSet(d=1, n=1, m=1, c1=lambda x, p, q, xi: -xi)
        incs = CellIncrements(np.zeros((2, 5, 9, 1)), grid)
        bounds = _zero_bounds(grid, batch=(2,))
        bounds.p_0t[1] = -0.0
        keep = _kept_nodes(grid)
        sol = solve_system(coeffs, bounds, grid, incs)
        kept = solve_system(coeffs, bounds, grid, incs, keep_p=keep)
        assert np.any(np.signbit(sol.p)) and not np.all(np.signbit(sol.p))
        assert _bits(kept) == _bits(_p_at(sol, keep))

    def test_bad_requests_are_refused(self):
        coeffs, bounds, grid, incs, _ = _pin_case("bounded1d-7x3")
        with pytest.raises(ShapeError):
            solve_system(coeffs, bounds, grid, incs, keep_p=[(8, 0)])


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_hyperbolic.py --update")
    pins = {case: solution_digests(case) for case in PIN_CASES}
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {PINS}")
