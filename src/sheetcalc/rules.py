"""The calculus-rules suite: the differential identities as runnable checks.

Each rule returns (name, value, threshold, passed); `run_rules` bundles them
into one report.  Exact rules run on dyadically quantized inputs, where the
lattice arithmetic is exact and the identity must hold bit for bit; the
statistical rules state their tolerance as a multiple of the Monte Carlo
standard error or as a fitted-order window.

A statistical rule that reduces a field or a line to one value per path
draws and reduces it one Philox chunk of paths at a time
(`lattice.normal_grid_chunk`, `lattice.path_slices`) and takes its mean,
standard deviation or RMS over the concatenated values, so its memory does
not grow with n_paths and its bits do not depend on the slices.

The rules are independent pure functions of (seed, n_paths), so `run_rules`
runs them as the items of the package's one ordered pool map
(`verify.pool_map`) and reports them in a fixed order: the report is the
same at any worker count.
"""

from __future__ import annotations

import numpy as np

from .lattice import CellIncrements, Grid, NoiseSpec, cumsum0, normal_grid_chunk, path_slices, \
    sample_boundary_bm, sample_cell_increments_batch
from .sheet import SheetField, build_sheet
from .stochcalc import (
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
    quantize_values,
    prefix2d,
)
from .verify import check_n_paths, pool_map


def _line(values, step):
    return LineProcess.from_values(values, step)


def _brownian_lines(n, step, n_paths, seed, start=0):
    return sample_boundary_bm(n, step, 1, NoiseSpec(seed, start, 1), batch=n_paths).values


def _per_path(grid: Grid, m, n_paths, seed, fn):
    """fn(cell increments) -> one value per path, over the cells of paths
    0..n_paths-1 with m components, one Philox chunk of the draw at a time."""

    def one(start, count):
        incs = sample_cell_increments_batch(grid, NoiseSpec(seed, start, m), count)
        return fn(CellIncrements(incs, grid))

    return path_slices(one, n_paths, normal_grid_chunk(grid.n_s, grid.n_t, m))


def _zeta6(c_x, c_y):
    """Per path: sum over the cells of dd w^c_x * dd w^c_y of the sheet w."""

    def per_path(incs):
        w = build_sheet(incs)
        return np.sum(cell_terms(IntegralKind.ZETA6, x=field_component(w, c_x),
                                 y=field_component(w, c_y))[..., 0], axis=(-2, -1))

    return per_path


def _annihilation(incs):
    """Per path: sum over the cells of d_s w^1 * dd w^0 of the sheet w."""
    w = build_sheet(incs)
    return check_mixed_annihilation(field_component(w, 1), w, component=0)


def rule_telescoping_zeta1(seed) -> tuple:
    """int 1 dx telescopes to x_n - x_0, bit-exactly on quantized paths."""
    x = quantize_values(_brownian_lines(256, 1 / 256, 4, seed))
    ones = np.ones_like(x)
    z1 = integral_zeta1(_line(ones, 1 / 256), _line(x, 1 / 256))
    err = np.max(np.abs(z1.values[:, -1, :] - (x[:, -1, :] - x[:, 0, :])))
    return ("telescoping-zeta1", float(err), 0.0, err == 0.0)


def rule_telescoping_stratonovich(seed) -> tuple:
    """Midpoint sums of 2x dx telescope to x_n^2 - x_0^2 bit-exactly."""
    x = quantize_values(_brownian_lines(256, 1 / 256, 4, seed))
    z = integral_zeta1(_line(2.0 * x, 1 / 256), _line(x, 1 / 256), rule="stratonovich")
    err = np.max(np.abs(z.values[:, -1, :] - (x[:, -1, :] ** 2 - x[:, 0, :] ** 2)))
    return ("telescoping-stratonovich", float(err), 0.0, err == 0.0)


def rule_telescoping_zeta3(grid: Grid, seed) -> tuple:
    """int int 1 ddx recovers the corner combination bit-exactly."""
    incs = sample_cell_increments_batch(grid, NoiseSpec(seed, 0, 1), 4)
    w = build_sheet(CellIncrements(quantize_values(incs, 2.0**-20), grid))
    ones = SheetField(np.ones_like(w.values), grid)
    z3 = integral_two_param(IntegralKind.ZETA3, a=ones, x=w)
    v = w.values
    corner = v[..., -1, -1, :] - v[..., -1, 0, :] - v[..., 0, -1, :] + v[..., 0, 0, :]
    err = np.max(np.abs(z3.values[..., -1, -1, :] - corner))
    return ("telescoping-zeta3", float(err), 0.0, err == 0.0)


def rule_ito_stratonovich_bridge(seed) -> tuple:
    """Stratonovich = Ito + half the weighted covariation, bit-exact quantized."""
    x = quantize_values(_brownian_lines(256, 1 / 256, 4, seed))
    a = quantize_values(np.sin(x))
    la, lx = _line(a, 1 / 256), _line(x, 1 / 256)
    strat = integral_zeta1(la, lx, rule="stratonovich").values
    ito = integral_zeta1(la, lx, rule="ito").values
    da_dx = np.diff(a, axis=-2) * np.diff(x, axis=-2)
    bridge = ito + 0.5 * cumsum0(da_dx, axis=-2)
    err = np.max(np.abs(strat - bridge))
    return ("ito-stratonovich-bridge", float(err), 0.0, err == 0.0)


def rule_order_exchange(seed) -> tuple:
    """Transposed evaluation of the double partial sums is bit-identical."""
    terms = np.random.default_rng(seed).normal(size=(3, 17, 13))
    direct = prefix2d(terms)
    swept = prefix2d(terms, sweep="t-major")
    transposed = np.swapaxes(prefix2d(np.swapaxes(terms, -1, -2)), -1, -2)
    same = np.array_equal(direct, transposed) and np.array_equal(direct, swept)
    return ("order-exchange-zeta3", 0.0 if same else 1.0, 0.0, same)


def rule_zeta6_diagonal(grid: Grid, n_paths, seed) -> tuple:
    """Sum of squared cell increments estimates the area, within 4 SE."""
    z6 = _per_path(grid, 1, n_paths, seed, _zeta6(0, 0))
    area = grid.s_extent * grid.t_extent
    dev = abs(float(np.mean(z6)) - area)
    tol = 4.0 * float(np.std(z6, ddof=1)) / np.sqrt(n_paths)
    return ("zeta6-diagonal-area", dev, tol, dev <= tol)


def rule_zeta6_offdiagonal(grid: Grid, n_paths, seed) -> tuple:
    z6 = _per_path(grid, 2, n_paths, seed, _zeta6(0, 1))
    dev = abs(float(np.mean(z6)))
    tol = 4.0 * float(np.std(z6, ddof=1)) / np.sqrt(n_paths)
    return ("zeta6-offdiagonal-zero", dev, tol, dev <= tol)


def _annihilation_rms(n, n_paths, seed) -> float:
    """RMS over paths of sum(dsx ddw) on the n x n grid of the unit square."""
    vals = _per_path(Grid(n, n, 1.0 / n, 1.0 / n), 2, n_paths, seed, _annihilation)
    return float(np.sqrt(np.mean(vals**2)))


def rule_mixed_annihilation(rms_16, rms_32) -> tuple:
    """RMS of sum(dsx ddw) scales like sqrt(ds dt): one refinement halves it.

    Takes `_annihilation_rms` on the 16 x 16 and the 32 x 32 grid.
    """
    ratio = rms_16 / rms_32
    ok = abs(ratio - np.sqrt(2.0)) <= 0.2 * np.sqrt(2.0)
    return ("mixed-annihilation-refinement", ratio, np.sqrt(2.0), ok)


def rule_mixed_annihilation_mean(grid: Grid, n_paths, seed) -> tuple:
    vals = _per_path(grid, 2, n_paths, seed, _annihilation)
    dev = abs(float(np.mean(vals)))
    tol = 4.0 * float(np.std(vals, ddof=1)) / np.sqrt(n_paths)
    return ("mixed-annihilation-mean", dev, tol, dev <= tol)


def rule_stratonovich_chain_order(n_paths, seed) -> tuple:
    """RMS of f(x_n)-f(x_0) - int f'(x) o dx fits order 1 in ds (window 0.8-1.2)."""
    steps = (32, 64, 128, 256)
    rms = []
    for k, n in enumerate(steps):

        def residuals(start, count, n=n, k=k):
            x = _brownian_lines(n, 1.0 / n, count, seed + k, start)
            fx = x**3
            fpx = 3.0 * x**2
            strat = integral_zeta1(_line(fpx, 1.0 / n), _line(x, 1.0 / n), rule="stratonovich")
            return (fx[:, -1, 0] - fx[:, 0, 0]) - strat.values[:, -1, 0]

        resid = path_slices(residuals, n_paths, normal_grid_chunk(n, 1, 1))
        rms.append(float(np.sqrt(np.mean(resid**2))))
    slope = np.polyfit(np.log([1.0 / n for n in steps]), np.log(rms), 1)[0]
    ok = 0.8 <= slope <= 1.2
    return ("stratonovich-chain-order", float(slope), 1.0, ok)


def rule_vanishing_on_smooth(seed, n_paths=512) -> tuple:
    """zeta2 and zeta5 against drift integrators shrink linearly in ds.

    The per-path values are mean-zero Gaussians of standard deviation
    proportional to ds, so the check compares RMS over a path batch at two
    resolutions: halving ds should halve the RMS (log2 ratio near 1).
    """
    worst = 0.0
    # zeta5: smooth s-semimartingale against the sheet's double increments
    rms5 = {}
    for k, nn in enumerate((32, 64)):
        grid = Grid(nn, nn, 1.0 / nn, 1.0 / nn)
        smooth = SheetField(
            np.broadcast_to(
                (np.sin(grid.s_nodes())[:, None] * np.cos(grid.t_nodes())[None, :])[..., None],
                (nn + 1, nn + 1, 1),
            ).copy(),
            grid,
        )

        def zeta5(incs, smooth=smooth):
            return np.sum(cell_terms(IntegralKind.ZETA5, x=smooth, y=build_sheet(incs))[..., 0],
                          axis=(-2, -1))

        z5 = _per_path(grid, 1, n_paths, seed + k, zeta5)
        rms5[nn] = float(np.sqrt(np.mean(z5**2)))
    worst = max(worst, abs(np.log2(rms5[32] / rms5[64]) - 1.0))
    # zeta2: smooth line against Brownian lines
    rms2 = {}
    for k, nn in enumerate((64, 128)):
        s = np.linspace(0.0, 1.0, nn + 1)[:, None]
        z = _brownian_lines(nn, 1.0 / nn, n_paths, seed + 10 + k)
        v = integral_zeta2(_line(1.5 * s, 1.0 / nn), _line(z, 1.0 / nn)).values[:, -1, 0]
        rms2[nn] = float(np.sqrt(np.mean(v**2)))
    worst = max(worst, abs(np.log2(rms2[64] / rms2[128]) - 1.0))
    return ("vanishing-on-smooth", float(worst), 0.35, worst <= 0.35)


def rule_bdg_isometry(grid: Grid, n_paths, seed) -> tuple:
    """alpha = 2: moment ratio is the isometry, <= 1 up to MC error."""
    ones = SheetField(np.ones((grid.n_s + 1, grid.n_t + 1, 1)), grid)
    mart = _per_path(grid, 1, n_paths, seed, lambda incs: bdg_martingale(ones, incs))
    lhs, rhs = bdg_moments(mart, bdg_quadratic_variation(ones), 2.0)
    ratio = lhs / rhs
    tol = 1.0 + 4.0 * np.sqrt(2.0 / n_paths)
    return ("bdg-isometry", float(ratio), float(tol), ratio <= tol)


def run_rules(n_paths=10000, seed=2024, workers=1) -> dict:
    """Run the whole identity suite on `workers` threads; returns a JSON-ready
    report, the same at any worker count."""
    check_n_paths(n_paths)
    grid = Grid(16, 16, 1.0 / 16, 1.0 / 16)
    # Heaviest first, so that no long item starts last while the other
    # threads idle.  Mixed-annihilation's two grids are two items: at 10000
    # paths the finer grid alone takes half of the suite's time.
    items = [
        lambda: _annihilation_rms(32, n_paths, seed + 8),
        lambda: rule_vanishing_on_smooth(seed + 10),
        lambda: rule_zeta6_offdiagonal(grid, n_paths, seed + 6),
        lambda: rule_mixed_annihilation_mean(grid, n_paths, seed + 8),
        lambda: _annihilation_rms(16, n_paths, seed + 7),
        lambda: rule_stratonovich_chain_order(min(n_paths, 4000), seed + 9),
        lambda: rule_zeta6_diagonal(grid, n_paths, seed + 5),
        lambda: rule_bdg_isometry(grid, n_paths, seed + 11),
        lambda: rule_telescoping_zeta1(seed),
        lambda: rule_telescoping_stratonovich(seed + 1),
        lambda: rule_telescoping_zeta3(Grid(8, 8, 1.0 / 8, 1.0 / 8), seed + 2),
        lambda: rule_ito_stratonovich_bridge(seed + 3),
        lambda: rule_order_exchange(seed + 4),
    ]
    (rms_32, vanishing, offdiagonal, annihilation_mean, rms_16, chain, diagonal, bdg,
     zeta1, stratonovich, zeta3, bridge, exchange) = pool_map(lambda item: item(), items, workers)
    checks = [  # report order
        zeta1, stratonovich, zeta3, bridge, exchange, diagonal, offdiagonal,
        rule_mixed_annihilation(rms_16, rms_32), annihilation_mean, chain, vanishing, bdg,
    ]
    rules = [
        {"name": name, "value": value, "threshold": threshold, "pass": bool(ok)}
        for name, value, threshold, ok in checks
    ]
    return {
        "kind": "rules-report",
        "rules": rules,
        "all_pass": all(r["pass"] for r in rules),
        "n_paths": n_paths,
        "seed": seed,
    }
