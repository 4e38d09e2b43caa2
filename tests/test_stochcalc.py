"""Discrete integrals: telescoping, covariation, the special sheet identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheetcalc.errors import ConfigurationError, ShapeError
from sheetcalc.lattice import (
    CellIncrements,
    Grid,
    NoiseSpec,
    sample_boundary_bm,
    sample_cell_increments_batch,
)
from sheetcalc.sheet import SheetField, build_sheet
from sheetcalc.stochcalc import (
    IntegralKind,
    LineProcess,
    bdg_martingale,
    bdg_moments,
    bdg_quadratic_variation,
    cell_terms,
    check_mixed_annihilation,
    field_component,
    integral_two_param,
    integral_zeta1,
    integral_zeta2,
    prefix2d,
    quantize_values,
)

#: Moment bound constants: E|int a dw|^alpha <= C(alpha) E|int a^2|^(alpha/2).
#: alpha=2 is the isometry (sharp); alpha=4 is a crude Ito+Doob bound.
BDG_CONSTANTS = {2.0: 1.0, 4.0: 208.0}


def _brownian_lines(n, step, n_paths, seed):
    return sample_boundary_bm(n, step, 1, NoiseSpec(seed, 0, 1), batch=n_paths).values


def _lp(values, step=1.0 / 256):
    return LineProcess.from_values(values, step)


def _bdg(a, incs, alpha):
    """MC estimates (E|II a ddw|^alpha, E|II a^2 ds dt|^(alpha/2))."""
    return bdg_moments(bdg_martingale(a, incs), bdg_quadratic_variation(a), alpha)


class TestZeta1:
    def test_unit_integrand_telescopes_bitwise(self):
        x = quantize_values(_brownian_lines(256, 1 / 256, 3, 1))
        out = integral_zeta1(_lp(np.ones_like(x)), _lp(x))
        assert np.array_equal(out.values[:, -1, :], x[:, -1, :] - x[:, 0, :])

    def test_unit_integrand_telescopes_floats(self):
        x = _brownian_lines(256, 1 / 256, 3, 1)
        out = integral_zeta1(_lp(np.ones_like(x)), _lp(x))
        np.testing.assert_allclose(
            out.values[:, -1, :], x[:, -1, :] - x[:, 0, :], rtol=0, atol=1e-13
        )

    def test_martingale_mean_zero(self):
        n_paths = 10000
        x = _brownian_lines(64, 1 / 64, n_paths, 2)
        out = integral_zeta1(_lp(x, 1 / 64), _lp(x, 1 / 64)).values[:, -1, 0]
        se = out.std(ddof=1) / np.sqrt(n_paths)
        assert abs(out.mean()) <= 4.0 * se

    def test_stratonovich_square_telescopes_bitwise(self):
        x = quantize_values(_brownian_lines(256, 1 / 256, 3, 3))
        out = integral_zeta1(_lp(2.0 * x), _lp(x), rule="stratonovich")
        assert np.array_equal(out.values[:, -1, :], x[:, -1, :] ** 2 - x[:, 0, :] ** 2)

    def test_mismatched_lengths(self):
        with pytest.raises(ShapeError):
            integral_zeta1(_lp(np.zeros((5, 1))), _lp(np.zeros((6, 1))))

    def test_unknown_rule(self):
        x = np.zeros((4, 1))
        with pytest.raises(ConfigurationError):
            integral_zeta1(_lp(x), _lp(x), rule="midpointish")


class TestZeta2:
    def test_quadratic_variation_of_brownian_line(self):
        n, n_paths = 128, 10000
        x = _brownian_lines(n, 1.0 / n, n_paths, 4)
        qv = integral_zeta2(_lp(x, 1.0 / n), _lp(x, 1.0 / n)).values[:, -1, 0]
        # per-path QV spread is sqrt(2 ds); the mean over paths is far tighter
        assert abs(qv.mean() - 1.0) <= 4.0 * np.sqrt(2.0 / n) / np.sqrt(n_paths) * 3
        assert abs(qv.mean() - 1.0) <= 4.0 * np.sqrt(2.0 / n)

    def test_vanishes_on_smooth_path_linearly(self):
        # per-path values are mean-zero with sd ~ ds: compare RMS over paths
        rms = []
        for k, n in enumerate((64, 128)):
            s = np.linspace(0.0, 1.0, n + 1)[:, None]
            smooth = np.broadcast_to(1.5 * s, (400, n + 1, 1))
            z = _brownian_lines(n, 1.0 / n, 400, 5 + k)
            v = integral_zeta2(_lp(smooth, 1.0 / n), _lp(z, 1.0 / n)).values[:, -1, 0]
            rms.append(np.sqrt(np.mean(v**2)))
        assert 0.4 < rms[1] / rms[0] < 0.62

    def test_constant_second_factor_zero_exactly(self):
        x = _brownian_lines(32, 1 / 32, 2, 6)
        const = np.ones_like(x)
        out = integral_zeta2(_lp(x, 1 / 32), _lp(const, 1 / 32))
        assert np.all(out.values == 0.0)


class TestTwoParam:
    def _sheet(self, grid, seed, n_paths=2, m=1):
        vals = sample_cell_increments_batch(grid, NoiseSpec(seed, 0, m), n_paths)
        return build_sheet(CellIncrements(vals, grid))

    def test_zeta3_unit_integrand_corner_quantized(self):
        grid = Grid(6, 5, 0.25, 0.5)
        w = self._sheet(grid, 7)
        wq = SheetField(quantize_values(w.values, 2.0**-20), grid)
        ones = SheetField(np.ones_like(wq.values), grid)
        z3 = integral_two_param(IntegralKind.ZETA3, a=ones, x=wq)
        v = wq.values
        corner = v[..., -1, -1, :] - v[..., -1, 0, :] - v[..., 0, -1, :] + v[..., 0, 0, :]
        assert np.array_equal(z3.values[..., -1, -1, :], corner)

    def test_zeta6_diagonal_area(self):
        grid = Grid(16, 16, 1.0 / 16, 1.0 / 16)
        n_paths = 10000
        w = self._sheet(grid, 8, n_paths)
        terms = cell_terms(IntegralKind.ZETA6, x=w, y=w)[..., 0]
        z6 = np.sum(terms, axis=(-2, -1))
        se = z6.std(ddof=1) / np.sqrt(n_paths)
        assert abs(z6.mean() - 1.0) <= 4.0 * se

    def test_zeta6_offdiagonal_zero(self):
        grid = Grid(16, 16, 1.0 / 16, 1.0 / 16)
        n_paths = 10000
        w = self._sheet(grid, 9, n_paths, m=2)
        terms = cell_terms(
            IntegralKind.ZETA6, x=field_component(w, 0), y=field_component(w, 1)
        )[..., 0]
        z6 = np.sum(terms, axis=(-2, -1))
        se = z6.std(ddof=1) / np.sqrt(n_paths)
        assert abs(z6.mean()) <= 4.0 * se

    def test_zeta5_vanishes_on_smooth(self):
        rms = []
        for k, n in enumerate((16, 32)):
            grid = Grid(n, n, 1.0 / n, 1.0 / n)
            s = grid.s_nodes()
            smooth = SheetField(
                np.broadcast_to(
                    (s[:, None] * np.ones(n + 1)[None, :])[..., None], (n + 1, n + 1, 1)
                ).copy(),
                grid,
            )
            w = self._sheet(grid, 10 + k, n_paths=400)
            terms = cell_terms(IntegralKind.ZETA5, x=smooth, y=w)[..., 0]
            vals = np.sum(terms, axis=(-2, -1))
            rms.append(np.sqrt(np.mean(vals**2)))
        assert 0.4 < rms[1] / rms[0] < 0.62

    def test_missing_operand(self):
        grid = Grid(4, 4, 0.25, 0.25)
        w = self._sheet(grid, 11)
        with pytest.raises(ShapeError):
            integral_two_param(IntegralKind.ZETA3, x=w)  # no integrand
        with pytest.raises(ShapeError):
            integral_two_param(IntegralKind.ZETA6, x=w)  # no y
        with pytest.raises(ShapeError):
            integral_two_param(IntegralKind.ZETA1, x=w, y=w)  # one-parameter kind

    def test_zeta4_edge_convention(self):
        # single nonzero s-edge and t-edge meeting at one cell
        grid = Grid(2, 2, 0.5, 0.5)
        xv = np.zeros((3, 3, 1))
        xv[1:, 0, 0] = 1.0  # d_s x = 1 on lower edge of cell (0, 0) only
        yv = np.zeros((3, 3, 1))
        yv[0, 1:, 0] = 2.0  # d_t y = 2 on left edge of cell (0, 0) only
        z4 = integral_two_param(
            IntegralKind.ZETA4, x=SheetField(xv, grid), y=SheetField(yv, grid)
        )
        assert z4.values[1, 1, 0] == 2.0
        assert z4.values[2, 2, 0] == 2.0


class TestOrderExchange:
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_prefix_transpose_bit_exact(self, n_i, n_j, seed):
        terms = np.random.default_rng(seed).normal(size=(n_i, n_j))
        direct = prefix2d(terms)
        transposed = prefix2d(terms.T).T
        swept = prefix2d(terms, sweep="t-major")
        assert np.array_equal(direct, transposed)
        assert np.array_equal(direct, swept)


class TestMixedAnnihilation:
    def test_deterministic_x_mean_zero(self):
        grid = Grid(8, 8, 0.125, 0.125)
        n_paths = 20000
        vals = sample_cell_increments_batch(grid, NoiseSpec(12, 0, 1), n_paths)
        w = build_sheet(CellIncrements(vals, grid))
        s = grid.s_nodes()
        det = SheetField(
            np.broadcast_to(
                (s[:, None] * np.ones(9)[None, :])[..., None], (n_paths, 9, 9, 1)
            ),
            grid,
        )
        out = check_mixed_annihilation(det, w, 0)
        se = out.std(ddof=1) / np.sqrt(n_paths)
        assert abs(out.mean()) <= 4.0 * se

    def test_rms_refinement_ratio(self):
        rms = []
        for k, n in enumerate((16, 32)):
            grid = Grid(n, n, 1.0 / n, 1.0 / n)
            vals = sample_cell_increments_batch(grid, NoiseSpec(13 + k, 0, 2), 10000)
            w = build_sheet(CellIncrements(vals, grid))
            out = check_mixed_annihilation(field_component(w, 1), w, 0)
            rms.append(np.sqrt(np.mean(out**2)))
        ratio = rms[0] / rms[1]
        assert abs(ratio - np.sqrt(2.0)) <= 0.2 * np.sqrt(2.0)

    def test_ou_sheet_mean_zero(self):
        from sheetcalc.sheet import sample_ou_exact_batch

        grid = Grid(8, 8, 0.125, 0.125)
        n_paths = 10000
        noise = NoiseSpec(14, 0, 1)
        z = sample_ou_exact_batch(grid, noise, n_paths)
        w = build_sheet(
            CellIncrements(sample_cell_increments_batch(grid, noise, n_paths), grid)
        )
        out = check_mixed_annihilation(SheetField(z, grid), w, 0)
        se = out.std(ddof=1) / np.sqrt(n_paths)
        assert abs(out.mean()) <= 4.0 * se


class TestBDG:
    def test_unit_integrand_isometry(self):
        grid = Grid(8, 8, 0.125, 0.125)
        n_paths = 10000
        incs = CellIncrements(
            sample_cell_increments_batch(grid, NoiseSpec(15, 0, 1), n_paths), grid
        )
        ones = SheetField(np.ones((9, 9, 1)), grid)
        lhs, rhs = _bdg(ones, incs, 2.0)
        assert lhs <= rhs * (1.0 + 4.0 * np.sqrt(2.0 / n_paths))
        assert abs(rhs - 1.0) < 1e-12

    def test_zero_integrand(self):
        grid = Grid(4, 4, 0.25, 0.25)
        incs = CellIncrements(
            sample_cell_increments_batch(grid, NoiseSpec(16, 0, 1), 100), grid
        )
        zeros = SheetField(np.zeros((100, 5, 5, 1)), grid)
        assert _bdg(zeros, incs, 2.0) == (0.0, 0.0)

    def test_sheet_integrand_fourth_moment_bounded(self):
        grid = Grid(8, 8, 0.125, 0.125)
        n_paths = 10000
        noise = NoiseSpec(17, 0, 1)
        vals = sample_cell_increments_batch(grid, noise, n_paths)
        w = build_sheet(CellIncrements(vals, grid))
        lhs, rhs = _bdg(w, CellIncrements(vals, grid), 4.0)
        assert 0.0 < lhs <= BDG_CONSTANTS[4.0] * rhs

    def test_alpha_below_two_rejected(self):
        grid = Grid(2, 2, 0.5, 0.5)
        incs = CellIncrements(np.zeros((2, 2, 1)), grid)
        with pytest.raises(ConfigurationError):
            _bdg(SheetField(np.ones((3, 3, 1)), grid), incs, 1.0)


class TestBridgeAndChainRule:
    def test_ito_stratonovich_bridge_bitwise(self):
        x = quantize_values(_brownian_lines(256, 1 / 256, 4, 18))
        a = quantize_values(np.cos(x))
        la, lx = _lp(a), _lp(x)
        strat = integral_zeta1(la, lx, rule="stratonovich").values
        ito = integral_zeta1(la, lx, rule="ito").values
        half_cov = 0.5 * integral_zeta2(la, lx).values
        # strat = ito + (1/2) d a d x summed, exactly on the dyadic lattice
        da_dx = np.diff(a, axis=-2) * np.diff(x, axis=-2)
        csum = np.concatenate(
            [np.zeros_like(da_dx[:, :1]), np.cumsum(da_dx, axis=-2)], axis=-2
        )
        assert np.array_equal(strat, ito + 0.5 * csum)

    def test_ito_chain_rule_residual_order(self):
        # f(x_n) - f(x_0) - [zeta1(f'(x), x) + (1/2) zeta2 weighted by f''(x)]
        orders = []
        for k, n in enumerate((64, 256)):
            x = _brownian_lines(n, 1.0 / n, 3000, 19 + k)
            fx = x**3
            resid = (
                fx[:, -1, 0]
                - fx[:, 0, 0]
                - integral_zeta1(_lp(3 * x**2, 1 / n), _lp(x, 1 / n)).values[:, -1, 0]
                - 0.5
                * integral_zeta2(
                    _lp(x, 1 / n), _lp(x, 1 / n), weight=_lp(6 * x, 1 / n)
                ).values[:, -1, 0]
            )
            orders.append(np.sqrt(np.mean(resid**2)))
        fitted = np.log(orders[0] / orders[1]) / np.log(4.0)
        assert 0.8 <= fitted <= 1.2
