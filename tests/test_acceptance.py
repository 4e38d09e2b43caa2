"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with pytest -s; the -v
listing gives the same per-criterion verdicts).  Tolerances follow the
declared regime: exact checks are bit-level, statistical checks are k * SE,
and scheme-biased oracle checks are 3 * SE plus a Richardson bias budget
estimated from one grid refinement.
"""

import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from sheetcalc.lattice import (
    CellIncrements,
    Grid,
    NoiseSpec,
    sample_boundary_bm,
    sample_cell_increments_batch,
)
from sheetcalc.models import coordinate_payoff, linear_1d, polynomial_fields
from sheetcalc.hyperbolic import (
    bounded_test_coefficients,
    solve_system,
    zero_coefficients,
    SystemBoundaries,
)
from sheetcalc.rules import run_rules
from sheetcalc.sheet import build_sheet, sample_ou_exact_batch, solve_ou_hyperbolic
from sheetcalc.stochcalc import prefix2d
from sheetcalc.verify import (
    run_bismut,
    run_carre_limit,
    run_holder_scan,
    run_ibp,
)
from test_models import whole_line

SEED = 20260809
E2 = float(np.exp(2.0))
E_HALF = float(np.exp(0.5))


def _verdict(num, ok, detail):
    line = f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_sheet_covariance():
    """Empirical Cov(w_st, w_s't') = (s^s')(t^t') at 9 probes on [0,2]^2."""
    t0 = time.monotonic()
    grid = Grid(8, 8, 0.25, 0.25)
    n = 10000
    w = build_sheet(
        CellIncrements(sample_cell_increments_batch(grid, NoiseSpec(SEED, 0, 1), n), grid)
    ).values[..., 0]
    probes = [
        ((4, 4), (4, 4)), ((8, 8), (8, 8)), ((2, 4), (4, 2)),
        ((4, 8), (8, 4)), ((2, 2), (6, 6)), ((8, 2), (2, 8)),
        ((6, 2), (2, 6)), ((8, 4), (4, 8)), ((4, 2), (6, 8)),
    ]
    worst = 0.0
    ok = True
    for (ia, ja), (ib, jb) in probes:
        prod = w[:, ia, ja] * w[:, ib, jb]
        want = min(ia, ib) * 0.25 * min(ja, jb) * 0.25
        se = prod.std(ddof=1) / np.sqrt(n)
        dev = abs(prod.mean() - want)
        worst = max(worst, dev / se)
        ok = ok and dev <= 4.0 * se
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _verdict(1, ok, f"sheet covariance, 9 probes, worst |dev|/SE = {worst:.2f}, "
                    f"{elapsed:.1f}s (< 10s)")


def test_criterion_2_ou_cross_validation():
    """Two-sample KS between exact OU sampler and hyperbolic OU solver."""
    grid = Grid(16, 64, 1.0 / 16, 1.0 / 64)
    n = 10000
    noise = NoiseSpec(SEED, 0, 1)
    exact = sample_ou_exact_batch(grid, noise, n)[:, -1, -1, 0]
    zb = sample_boundary_bm(16, 1.0 / 16, 1, noise, batch=n)
    incs = CellIncrements(sample_cell_increments_batch(grid, noise, n), grid)
    solved = solve_ou_hyperbolic(grid, zb, incs).values[:, -1, -1, 0]
    ks = scipy_stats.ks_2samp(exact, solved)
    ok = ks.pvalue >= 0.01
    _verdict(2, ok, f"OU exact vs hyperbolic at (1,1), dt=1/64: KS stat "
                    f"{ks.statistic:.4f}, p = {ks.pvalue:.3f} (>= 0.01)")


def test_criterion_3_calculus_rules():
    """Telescoping bit-exact; zeta6 within 4 SE; annihilation ratio; chain order."""
    rep = run_rules(n_paths=10000, seed=SEED)
    rules = {r["name"]: r for r in rep["rules"]}
    checks = {
        "telescoping-zeta1": rules["telescoping-zeta1"]["value"] == 0.0,
        "telescoping-stratonovich": rules["telescoping-stratonovich"]["value"] == 0.0,
        "telescoping-zeta3": rules["telescoping-zeta3"]["value"] == 0.0,
        "zeta6-diagonal": rules["zeta6-diagonal-area"]["pass"],
        "zeta6-offdiagonal": rules["zeta6-offdiagonal-zero"]["pass"],
        "mixed-annihilation sqrt2 ratio": abs(
            rules["mixed-annihilation-refinement"]["value"] - np.sqrt(2.0)
        ) <= 0.2 * np.sqrt(2.0),
        "stratonovich chain order in [0.8, 1.2]": 0.8
        <= rules["stratonovich-chain-order"]["value"] <= 1.2,
        "all rules": rep["all_pass"],
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _verdict(3, ok, "calculus rules suite"
             + (f" (order {rules['stratonovich-chain-order']['value']:.3f}, "
                f"ratio {rules['mixed-annihilation-refinement']['value']:.3f})"
                if ok else f" FAILED: {failed}"))


def _two_grid_reports(runner, n_paths):
    fine = runner(Grid(128, 1, 1.0 / 128, 1.0), n_paths)
    coarse = runner(Grid(64, 1, 1.0 / 64, 1.0), n_paths)
    return fine, coarse


def test_criterion_4_ibp_reproduction():
    """Both IBP sides equal e^2 within 3 SE + Richardson budget; |z| < 3."""
    t0 = time.monotonic()
    model = linear_1d()
    f, g = coordinate_payoff(), coordinate_payoff()
    n = 100000
    fine, coarse = _two_grid_reports(
        lambda grid, n_paths: run_ibp(model, f, g, grid, n_paths, SEED), n
    )
    budget_l = abs(coarse.lhs_mean - fine.lhs_mean)
    budget_r = abs(coarse.rhs_mean - fine.rhs_mean)
    dev_l = abs(fine.lhs_mean - E2)
    dev_r = abs(fine.rhs_mean - E2)
    elapsed = time.monotonic() - t0
    ok = (
        dev_l <= 3.0 * fine.lhs_se + budget_l
        and dev_r <= 3.0 * fine.rhs_se + budget_r
        and abs(fine.z_score) < 3.0
        and elapsed < 60.0
    )
    _verdict(4, ok, f"IBP at ds=1/128, n=1e5: lhs {fine.lhs_mean:.4f} "
                    f"(dev {dev_l:.4f} <= {3*fine.lhs_se + budget_l:.4f}), "
                    f"rhs {fine.rhs_mean:.4f} (dev {dev_r:.4f} <= "
                    f"{3*fine.rhs_se + budget_r:.4f}), z = {fine.z_score:.2f}, "
                    f"target e^2 = {E2:.6f}, {elapsed:.1f}s (< 60s)")


def test_criterion_5_bismut_reproduction():
    """Both Bismut sides equal e^(1/2) under the same tolerance regime."""
    model = linear_1d()
    f = coordinate_payoff()
    n = 100000
    fine, coarse = _two_grid_reports(
        lambda grid, n_paths: run_bismut(model, f, grid, n_paths, SEED), n
    )
    budget_l = abs(coarse.lhs_mean - fine.lhs_mean)
    budget_r = abs(coarse.rhs_mean - fine.rhs_mean)
    dev_l = abs(fine.lhs_mean - E_HALF)
    dev_r = abs(fine.rhs_mean - E_HALF)
    ok = (
        dev_l <= 3.0 * fine.lhs_se + budget_l
        and dev_r <= 3.0 * fine.rhs_se + budget_r
        and abs(fine.z_score) < 3.0
    )
    _verdict(5, ok, f"Bismut at ds=1/128, n=1e5: lhs {fine.lhs_mean:.5f} "
                    f"(dev {dev_l:.5f} <= {3*fine.lhs_se + budget_l:.5f}), "
                    f"rhs {fine.rhs_mean:.5f} (dev {dev_r:.5f} <= "
                    f"{3*fine.rhs_se + budget_r:.5f}), z = {fine.z_score:.2f}, "
                    f"target e^0.5 = {E_HALF:.6f}")


def test_criterion_6_carre_du_champ_limit():
    """(1/t) REV-lhs at t in {1/16, 1/8, 1/4} extrapolates to the IBP lhs
    within the combined CI.  (The two estimators see Gamma through different
    discretizations, so only the combined-CI comparison is asserted; the
    paired z is reported.)"""
    model = linear_1d()
    f, g = coordinate_payoff(), coordinate_payoff()
    grid = Grid(128, 16, 1.0 / 128, 1.0 / 64)
    n = 20000
    car = run_carre_limit(model, f, g, grid, [1.0 / 16, 1.0 / 8, 1.0 / 4], n, SEED)
    ibp = run_ibp(model, f, g, Grid(128, 1, 1.0 / 128, 1.0), n, SEED)
    combined = 3.0 * np.sqrt(car.lhs_se**2 + ibp.lhs_se**2)
    ok = abs(car.lhs_mean - ibp.lhs_mean) <= combined
    _verdict(6, ok, f"carre-du-champ: extrapolated {car.lhs_mean:.4f} vs IBP lhs "
                    f"{ibp.lhs_mean:.4f} (|diff| {abs(car.lhs_mean - ibp.lhs_mean):.4f}"
                    f" <= {combined:.4f}; paired carre {car.rhs_mean:.4f}, "
                    f"z = {car.z_score:.2f})")


def test_criterion_7_holder_regression():
    """Slope of log E|d_t X|^2 vs log dt: 1 +- 0.1 for the sheet; [0.85, 1.15]
    for the U-process and the p-process of the bounded test system."""
    lags3 = [1.0 / 16, 1.0 / 8, 1.0 / 4]
    sheet = run_holder_scan("sheet", Grid(8, 4, 1.0 / 8, 1.0 / 16), 2.0, lags3, 10000, SEED)
    u = run_holder_scan("u", Grid(64, 4, 1.0 / 64, 1.0 / 16), 2.0, lags3, 10000,
                        SEED, model=linear_1d())
    p = run_holder_scan("p", Grid(32, 16, 1.0 / 32, 1.0 / 32), 2.0,
                        [1.0 / 16, 1.0 / 8, 1.0 / 4], 10000, SEED,
                        coeffs=bounded_test_coefficients())
    sheet_ok = abs(sheet.fitted_slope - 1.0) <= 0.1
    ci_ok = (sheet.slope_ci[1] - sheet.slope_ci[0]) / 2.0 < 0.1
    u_ok = 0.85 <= u.fitted_slope <= 1.15
    p_ok = 0.85 <= p.fitted_slope <= 1.15
    ok = sheet_ok and ci_ok and u_ok and p_ok
    _verdict(7, ok, f"Holder slopes: sheet {sheet.fitted_slope:.3f} (1 +- 0.1, "
                    f"CI half-width {(sheet.slope_ci[1]-sheet.slope_ci[0])/2:.3f}), "
                    f"U {u.fitted_slope:.3f}, p {p.fitted_slope:.3f} ([0.85, 1.15])")


def test_criterion_8_structural_invariants(tmp_path):
    """Gamma PSD and factorized exactly; companions exact for b = 0;
    order-exchange bit-exact; byte-level determinism of a full run."""
    # Gamma psd + exact factorization on a 2-d model
    vf = polynomial_fields(2, 2, [
        [[], []],
        [[(1.0, [0, 0])], [(0.5, [1, 0])]],
        [[(0.25, [0, 1])], [(1.0, [0, 0])]],
    ])
    z = sample_boundary_bm(32, 1.0 / 32, 2, NoiseSpec(SEED, 0, 2), batch=1000).values
    line = whole_line(vf, z, np.array([0.5, -0.5]), 1.0 / 32)
    min_eig = float(np.linalg.eigvalsh(line["Gamma"][:, -1]).min())
    psd_ok = min_eig >= -1e-10
    refactored = np.einsum("...ab,...bc,...dc->...ad", line["U"], line["C"], line["U"])
    factor_ok = np.array_equal(line["Gamma"], refactored)

    # b = 0 companions are exactly the identity
    grid = Grid(8, 8, 0.125, 0.125)
    incs = CellIncrements(
        sample_cell_increments_batch(grid, NoiseSpec(SEED, 0, 1), 2), grid
    )
    bounds = SystemBoundaries(np.zeros((2, 9, 1)), np.zeros((2, 9, 1)),
                              np.zeros((2, 9, 1)), np.zeros((2, 9, 1)))
    sol = solve_system(zero_coefficients(), bounds, grid, incs)
    ident_ok = (np.all(sol.u[..., 0, 0] == 1.0) and np.all(sol.v[..., 0, 0] == 1.0)
                and np.all(sol.u_star == 0.0) and np.all(sol.v_star == 0.0))

    # order exchange bit-exact
    terms = np.random.default_rng(SEED).normal(size=(9, 7))
    exchange_ok = np.array_equal(prefix2d(terms), prefix2d(terms.T).T) and np.array_equal(
        prefix2d(terms), prefix2d(terms, sweep="t-major")
    )

    # full determinism: identical config and workers -> identical bytes
    import json
    from sheetcalc.cli import run as cli_run

    cfg = {
        "grid": {"n_s": 64, "n_t": 1, "ds": 1.0 / 64, "dt": 1.0},
        "model": {"preset": "linear1d"},
        "mc": {"n_paths": 2000, "seed": SEED, "workers": 1},
        "run": {"command": "run-ibp"},
        "output": {"directory": str(tmp_path / "det1")},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_run(str(cfg_path)) == 0
    bytes1 = ((tmp_path / "det1" / "report.json").read_bytes(),
              (tmp_path / "det1" / "report.csv").read_bytes())
    cfg["output"]["directory"] = str(tmp_path / "det2")
    cfg_path.write_text(json.dumps(cfg))
    assert cli_run(str(cfg_path)) == 0
    bytes2 = ((tmp_path / "det2" / "report.json").read_bytes(),
              (tmp_path / "det2" / "report.csv").read_bytes())
    determinism_ok = bytes1 == bytes2

    ok = psd_ok and factor_ok and ident_ok and exchange_ok and determinism_ok
    _verdict(8, ok, f"structural: Gamma min eig {min_eig:.2e} >= -1e-10, "
                    f"Gamma = U C U^T exact: {factor_ok}, b=0 companions exact: "
                    f"{ident_ok}, order-exchange bit-exact: {exchange_ok}, "
                    f"byte determinism: {determinism_ok}")


def test_criterion_9_fault_injection_discrimination():
    """Flipping the sign of R inside L must blow the paired z past 10."""
    model = linear_1d()
    f, g = coordinate_payoff(), coordinate_payoff()
    rep = run_ibp(model, f, g, Grid(128, 1, 1.0 / 128, 1.0), 100000, SEED,
                  fault="flip-r-sign")
    ok = abs(rep.z_score) > 10.0
    _verdict(9, ok, f"fault injection (flip R sign in L): |z| = "
                    f"{abs(rep.z_score):.1f} > 10")
