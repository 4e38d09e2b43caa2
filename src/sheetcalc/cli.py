"""Config-driven command line: declare an experiment, run it, write reports.

Exit codes: 0 success; 2 invalid configuration; 3 numeric failure inside the
solution domain; 4 acceptance threshold breached while --assert is active.
Outputs (report.json, report.csv, expanded-config.json, optional field.csv)
land only under the configured output directory and contain no timestamps,
so a rerun of the expanded config reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from .config import config_digest, expand_config, load_config
from .errors import ConfigurationError, DegenerateDataError, ModelError, NumericsError, \
    ShapeError
from .hyperbolic import COEFFICIENT_PRESETS, SystemBoundaries, blowup_monitor, \
    ou_system_boundaries, solve_system
from .lattice import CellIncrements, Grid, NoiseSpec, sample_boundary_bm, \
    sample_cell_increments_batch
from .models import model_from_config, payoff_from_config
from .rules import run_rules
from .sheet import SheetField, dump_csv
from .verify import ks_two_sample, run_bismut, run_holder_scan, run_ibp, \
    run_reversibility, sample_ou_corner, sample_sheet_nodes

_PROBE_FRACTIONS = [
    ((0.5, 0.5), (0.5, 0.5)),
    ((1.0, 1.0), (1.0, 1.0)),
    ((0.25, 0.5), (0.5, 0.25)),
    ((0.5, 1.0), (1.0, 0.5)),
    ((0.25, 0.25), (0.75, 0.75)),
    ((1.0, 0.25), (0.25, 1.0)),
    ((0.75, 0.25), (0.25, 0.75)),
    ((1.0, 0.5), (0.5, 1.0)),
    ((0.5, 0.25), (0.75, 1.0)),
]


def _cmd_simulate_sheet(cfg):
    grid = Grid(**cfg["grid"])
    mc = cfg["mc"]
    tol_se = float(cfg["run"]["probe_tolerance_se"])
    pairs = [
        ((round(fa[0] * grid.n_s), round(fa[1] * grid.n_t)),
         (round(fb[0] * grid.n_s), round(fb[1] * grid.n_t)))
        for fa, fb in _PROBE_FRACTIONS
    ]
    w, w0 = sample_sheet_nodes(grid, mc["seed"], mc["n_paths"],
                               [node for pair in pairs for node in pair], mc["workers"])
    probes = []
    ok = True
    for k, ((ia, ja), (ib, jb)) in enumerate(pairs):
        prod = w[:, 2 * k] * w[:, 2 * k + 1]
        want = min(ia * grid.ds, ib * grid.ds) * min(ja * grid.dt, jb * grid.dt)
        got = float(np.mean(prod))
        se = float(np.std(prod, ddof=1)) / np.sqrt(mc["n_paths"])
        passed = abs(got - want) <= tol_se * se
        ok = ok and passed
        probes.append({
            "nodes": [[ia, ja], [ib, jb]], "expected": want, "estimate": got,
            "se": se, "pass": bool(passed),
        })
    report = {"kind": "sheet-covariance", "probes": probes, "all_pass": bool(ok),
              "n_paths": mc["n_paths"], "tolerance_se": tol_se}
    field = SheetField(w0, grid) if cfg["run"]["field_dump"] else None
    return report, ok, field


def _cmd_sample_ou(cfg):
    grid = Grid(**cfg["grid"])
    mc = cfg["mc"]
    n = mc["n_paths"]
    exact, solved, field0 = sample_ou_corner(grid, mc["seed"], n, mc["workers"])
    # scipy.stats.ks_2samp's numbers; up to 10000 paths the package computes
    # them itself, and only a larger run loads scipy.stats (about 1 s).
    statistic, pvalue = ks_two_sample(exact, solved)
    level = float(cfg["run"]["ks_level"])
    ok = bool(pvalue >= level)
    report = {
        "kind": "ou-cross-validation", "ks_statistic": statistic,
        "ks_pvalue": pvalue, "level": level, "pass": ok,
        "n_paths": n, "node": [grid.n_s, grid.n_t],
        "exact_var": float(np.var(exact, ddof=1)), "solved_var": float(np.var(solved, ddof=1)),
    }
    field = SheetField(field0, grid) if cfg["run"]["field_dump"] else None
    return report, ok, field


def _cmd_verify_rules(cfg):
    mc = cfg["mc"]
    report = run_rules(n_paths=mc["n_paths"], seed=mc["seed"], workers=mc["workers"])
    return report, bool(report["all_pass"]), None


def _system_boundaries(name, coeffs, grid, seed, n_paths):
    if name == "ou":
        spec = NoiseSpec(seed, 0, coeffs.m)
        zb = sample_boundary_bm(grid.n_s, grid.ds, coeffs.m, spec, batch=n_paths)
        return ou_system_boundaries(grid, zb)
    if name == "expgrow":
        return SystemBoundaries(
            x_s0=grid.s_nodes()[:, None],
            x_0t=np.zeros((grid.n_t + 1, 1)),
            p_0t=np.zeros((grid.n_t + 1, 1)),
            q_s0=np.zeros((grid.n_s + 1, 1)),
        )
    return SystemBoundaries.zero(grid, coeffs)


def _cmd_solve_hyperbolic(cfg):
    grid = Grid(**cfg["grid"])
    mc = cfg["mc"]
    name = cfg["run"]["system"]
    coeffs = COEFFICIENT_PRESETS[name]()
    bounds = _system_boundaries(name, coeffs, grid, mc["seed"], mc["n_paths"])
    incs = CellIncrements(
        sample_cell_increments_batch(grid, NoiseSpec(mc["seed"], 0, coeffs.m), mc["n_paths"]),
        grid,
    )
    M = cfg["run"]["blowup_M"]
    sol = solve_system(coeffs, bounds, grid, incs, blowup_M=np.inf if M is None else float(M))
    summary = blowup_monitor(sol)
    report = {
        "kind": "hyperbolic-solution",
        "system": name,
        "max_m": float(np.max(summary.max_m)),
        "frontier_nodes": int(np.sum(summary.frontier)),
        "domain_fraction": float(np.mean(sol.domain_mask)),
        "uu_inv_drift": sol.uu_inv_drift(),
        "norm_convention": sol.norm_convention,
        "n_paths": mc["n_paths"],
    }
    field = None
    if cfg["run"]["field_dump"]:
        vals = sol.x[0] if sol.x.ndim == 4 else sol.x
        field = SheetField(vals, grid)
    return report, True, field


def _cmd_run_paired(cfg):
    """run-ibp, run-bismut and run-reversibility: one paired z-test each."""
    grid = Grid(**cfg["grid"])
    mc, run = cfg["mc"], cfg["run"]
    command = run["command"]
    model = model_from_config(cfg["model"])
    f = payoff_from_config(run["payoff_f"], d=model.vf.d)
    if command == "run-bismut":
        rep = run_bismut(model, f, grid, mc["n_paths"], mc["seed"],
                         workers=mc["workers"], component=run["component"])
    else:
        g = payoff_from_config(run["payoff_g"], d=model.vf.d)
        if command == "run-ibp":
            rep = run_ibp(model, f, g, grid, mc["n_paths"], mc["seed"],
                          workers=mc["workers"], fault=run["fault"])
        else:
            rep = run_reversibility(model, f, g, grid, float(run["t_gap"]), mc["n_paths"],
                                    mc["seed"], workers=mc["workers"])
    ok = abs(rep.z_score) <= run["assert_z"]
    return rep.to_dict(), ok, None


def _cmd_holder_scan(cfg):
    grid = Grid(**cfg["grid"])
    mc, run = cfg["mc"], cfg["run"]
    target = run["target"]
    model = model_from_config(cfg["model"]) if target in ("x", "u") else None
    coeffs = COEFFICIENT_PRESETS[run["system"]]() if target == "p" else None
    rep = run_holder_scan(target, grid, float(run["alpha"]), run["lags"],
                          mc["n_paths"], mc["seed"], workers=mc["workers"],
                          model=model, coeffs=coeffs)
    lo, hi = run["slope_range"] or ((0.9, 1.1) if target == "sheet" else (0.85, 1.15))
    ok = lo <= rep.fitted_slope <= hi
    out = rep.to_dict()
    out["slope_range"] = [lo, hi]
    out["pass"] = bool(ok)
    return out, ok, None


_DISPATCH = {
    "simulate-sheet": _cmd_simulate_sheet,
    "sample-ou": _cmd_sample_ou,
    "verify-rules": _cmd_verify_rules,
    "solve-hyperbolic": _cmd_solve_hyperbolic,
    "run-ibp": _cmd_run_paired,
    "run-bismut": _cmd_run_paired,
    "run-reversibility": _cmd_run_paired,
    "holder-scan": _cmd_holder_scan,
}


def _write_csv(report: dict, path: str):
    kind = report["kind"]
    with open(path, "w") as fh:
        fh.write(f"# sheetcalc-csv v1 kind={kind} digest={report['config_digest']}\n")
        rows = None
        if kind == "rules-report":
            rows = ("name,value,threshold,pass\n", [
                f"{r['name']},{r['value']!r},{r['threshold']!r},{r['pass']}\n"
                for r in report["rules"]
            ])
        elif kind == "sheet-covariance":
            rows = ("i1,j1,i2,j2,expected,estimate,se,pass\n", [
                f"{p['nodes'][0][0]},{p['nodes'][0][1]},{p['nodes'][1][0]},{p['nodes'][1][1]},"
                f"{p['expected']!r},{p['estimate']!r},{p['se']!r},{p['pass']}\n"
                for p in report["probes"]
            ])
        elif kind == "holder-report":
            rows = ("lag,moment,moment_se\n", [
                f"{lag!r},{mom!r},{se!r}\n"
                for lag, mom, se in zip(report["lags"], report["moments"], report["moment_ses"])
            ])
        if rows is not None:
            header, lines = rows
            fh.write(header)
            fh.writelines(lines)
        else:
            keys = [k for k in sorted(report) if k != "kind"]
            fh.write(",".join(keys) + "\n")
            fh.write(",".join(
                repr(report[k]) if isinstance(report[k], float) else json.dumps(report[k])
                for k in keys
            ) + "\n")


@contextlib.contextmanager
def _output_errors():
    """An OSError creating or writing the output directory is a config error."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"output.directory: {exc}") from exc


def run(config_path, assert_thresholds=False, workers=None, seed_override=None) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        raw = load_config(config_path)
        cfg = expand_config(raw, workers=workers, seed_override=seed_override)
        digest = config_digest(cfg)
        outdir = cfg["output"]["directory"]
        with _output_errors():
            os.makedirs(outdir, exist_ok=True)
            with open(os.path.join(outdir, "expanded-config.json"), "w") as fh:
                json.dump(cfg, fh, sort_keys=True, indent=2)
                fh.write("\n")
        report, ok, field = _DISPATCH[cfg["run"]["command"]](cfg)
        report["config_digest"] = digest
        report["command"] = cfg["run"]["command"]
        with _output_errors():
            if "json" in cfg["output"]["formats"]:
                with open(os.path.join(outdir, "report.json"), "w") as fh:
                    json.dump(report, fh, sort_keys=True, indent=2)
                    fh.write("\n")
            if "csv" in cfg["output"]["formats"]:
                _write_csv(report, os.path.join(outdir, "report.csv"))
            if field is not None:
                dump_csv(field, os.path.join(outdir, "field.csv"))
    except (ConfigurationError, ModelError, ShapeError, DegenerateDataError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc} (cell={exc.cell}, path={exc.path})", file=sys.stderr)
        return 3
    if assert_thresholds and not ok:
        print("assertion failed: acceptance threshold breached", file=sys.stderr)
        return 4
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sheetcalc",
        description="Two-parameter stochastic calculus experiments on the lattice.",
    )
    parser.add_argument("--config", required=True, help="path to the experiment config (JSON)")
    parser.add_argument("--assert", dest="assert_thresholds", action="store_true",
                        help="turn acceptance tolerances into exit-code failures")
    parser.add_argument("--workers", type=int, default=None, help="worker count override")
    parser.add_argument("--seed-override", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    return run(args.config, assert_thresholds=args.assert_thresholds,
               workers=args.workers, seed_override=args.seed_override)


if __name__ == "__main__":
    sys.exit(main())
