"""Monte Carlo verification harness for the integration-by-parts identities.

Every check is a paired estimator: both sides of an identity are computed
path by path on identical driving noise (common random numbers via the
counter-addressed generator), and the report's z-score uses the variance of
the per-path differences.  Paths are processed in fixed-size blocks
(`_map_blocks`).  A block folds each of its lines in one forward pass
(`malliavin.fold_line`) and keeps only the last node, the one every runner
reads, and only the objects it reads there.  A block over OU-field lines
builds its field one Philox chunk of paths at a time (`_ou_lines`:
`lattice.normal_grid_chunk` paths of the cell draw, the unit
`philox.normal_block` draws in) and keeps only the t-lines it reads; the
folds and the sums still run once per block at block width.  The Hölder
p scan sweeps each block's hyperbolic system once and keeps p only at the
nodes it reads, (n_s, 0) and (n_s, j) for each lag j
(`solve_system(..., keep_p=...)`): the sweep then holds a window of
diagonals, never a node-major field, and at its infinite blow-up threshold
advances x, p and q alone, forming no flow, inverse or norm sup.  Each block
returns one vector of raw sums over its paths (`_block_sums`), and the runner
adds the vectors in block order (`_add_blocks`), so a report is
bit-identical for any worker count; each runner keeps its own sums and its
own standard-error formula.
A non-finite sample or a solver failure inside a block raises
`NumericsError` naming the global path index; a sum that overflows raises it
naming the first path of the block that made the total non-finite.

`pool_map` is the package's one thread pool: an ordered map of a function
over a list of items.  `_map_blocks` runs path blocks on it, for the paired
checks here and for the whole-sheet samplers behind `simulate-sheet` and
`sample-ou` (`sample_sheet_nodes`, `sample_ou_corner`); the rules suite
(`rules.run_rules`) maps its rules on it.  Numpy releases the GIL in its
array loops, so independent items overlap on threads.

Reports carry no digest: the command line digests the expanded config
(`config.config_digest`) and adds it to the outputs it writes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DegenerateDataError, NumericsError
from .hyperbolic import (
    CoefficientSet,
    SystemBoundaries,
    bounded_test_coefficients,
    solve_system,
)
from .lattice import (
    CellIncrements,
    Grid,
    NoiseSpec,
    cumsum0,
    normal_grid_chunk,
    path_slices,
    sample_boundary_bm,
    sample_cell_increments_batch,
)
from .malliavin import apply_L, fold_line
from .models import Model
from .sheet import build_sheet, sample_ou_exact_batch, solve_ou_hyperbolic

LINE_CHUNK = 16384   # paths per block for one-line runs
FIELD_CHUNK = 4096   # paths per block for runs over OU-field lines
HYP_CHUNK = 2048     # paths per block for general hyperbolic sweeps
# Most paths per block for the whole-sheet samplers (`sample_sheet_nodes`,
# `sample_ou_corner`), which also keep each block within one Philox chunk of
# its widest draw.  Measured on the shipped sheet-covariance (8x8 grid,
# 10000 paths) and ou-cross-validation (16x64 grid, 10000 paths) configs:
# 512-path blocks are faster than one whole batch even at one worker.
SHEET_CHUNK = 512
# Largest equal sample size whose KS p-value `ks_two_sample` computes itself:
# scipy's exact limit for `ks_2samp(method="auto")`.
KS_EXACT_MAX_N = 10000


@dataclass
class MCReport:
    """Paired Monte Carlo estimate of lhs = rhs."""

    lhs_mean: float
    lhs_se: float
    rhs_mean: float
    rhs_se: float
    n_paths: int
    z_score: float
    workers: int
    diff_mean: float
    diff_se: float
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "kind": "mc-report",
            "lhs_mean": self.lhs_mean,
            "lhs_se": self.lhs_se,
            "rhs_mean": self.rhs_mean,
            "rhs_se": self.rhs_se,
            "n_paths": self.n_paths,
            "z_score": self.z_score,
            "workers": self.workers,
            "diff_mean": self.diff_mean,
            "diff_se": self.diff_se,
        }
        out.update(self.extras)
        return out


@dataclass
class HolderReport:
    """Log-log regression of lag moments E|X_t - X_0|^alpha."""

    lags: list
    moments: list
    moment_ses: list
    fitted_slope: float
    slope_ci: tuple
    alpha: float
    target: str
    n_paths: int

    def to_dict(self) -> dict:
        return {
            "kind": "holder-report",
            "lags": list(self.lags),
            "moments": list(self.moments),
            "moment_ses": list(self.moment_ses),
            "fitted_slope": self.fitted_slope,
            "slope_ci": list(self.slope_ci),
            "alpha": self.alpha,
            "target": self.target,
            "n_paths": self.n_paths,
        }


def _check_finite(*samples):
    """Raise NumericsError at the first path of a block where any per-path
    sample is non-finite (a block-local index, rebased by `_map_blocks`)."""
    bad = np.flatnonzero(~np.logical_and.reduce([np.isfinite(s) for s in samples]))
    if bad.size:
        raise NumericsError("non-finite per-path sample", path=(int(bad[0]),))


def _block_sums(*terms):
    """A block's raw-sum vector: each term, then each term's square, summed
    over paths (axis 0).  The squares and sums of finite samples can
    overflow; `_add_blocks` checks the total and names the block, so numpy
    does not warn of it here, as the sweep does not for its own checks."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.hstack([np.sum(t, axis=0) for t in terms]
                         + [np.sum(t * t, axis=0) for t in terms])


def _add_blocks(parts, chunk):
    """`sum(parts)` in block order, the same at any worker count; an
    overflow raises NumericsError at the first path of the block causing it."""
    total = 0
    for b, part in enumerate(parts):
        with np.errstate(over="ignore", invalid="ignore"):
            total = total + part
        if not np.all(np.isfinite(total)):
            raise NumericsError("non-finite sum over path blocks", path=(b * chunk,))
    return total


def pool_map(fn, items, workers):
    """[fn(item) for item in items], serially or on up to `workers` threads.

    Results come back in item order whichever thread ran them, so a caller
    that combines them in that order gets the same bytes at any worker count.
    One worker, or one item, runs in the calling thread with no pool.
    """
    items = list(items)
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def check_n_paths(n_paths):
    """Every estimate needs a sample variance, so at least two paths are required."""
    if n_paths < 2:
        raise ConfigurationError(f"need n_paths >= 2, got {n_paths}")


def _map_blocks(block_fn, n_paths, chunk, workers):
    """block_fn(start, count) over fixed blocks of `chunk` paths on
    `pool_map`; returns the partials in block order.  Needs n_paths >= 2.

    A NumericsError names a failing path as a tuple of batch indices in
    the block's arrays; its leading index is rebased to the global path.
    """
    check_n_paths(n_paths)

    def one(start):
        try:
            return block_fn(start, min(chunk, n_paths - start))
        except NumericsError as exc:
            if exc.path:
                exc.path = (start + exc.path[0],) + exc.path[1:]
            raise

    return pool_map(one, range(0, n_paths, chunk), workers)


def _run_paired(sample_fn, n_paths, chunk, workers):
    """Evaluate sample_fn(start, count) -> (lhs, rhs) over fixed blocks; the
    raw sums of lhs, rhs and their difference and of their squares, added in
    block order."""

    def block(start, count):
        l, r = sample_fn(start, count)
        _check_finite(l, r)
        return _block_sums(l, r, l - r)

    return _add_blocks(_map_blocks(block, n_paths, chunk, workers), chunk)


def _report(sums, n_paths, workers, extras=None) -> MCReport:
    n = n_paths
    sl, sr, _, sll, srr, sdd = sums
    ml = sl / n
    mr = sr / n
    var_l = max(0.0, (sll - n * ml * ml) / (n - 1))
    var_r = max(0.0, (srr - n * mr * mr) / (n - 1))
    md = ml - mr
    var_d = max(0.0, (sdd - n * md * md) / (n - 1))
    se_l = np.sqrt(var_l / n)
    se_r = np.sqrt(var_r / n)
    se_d = np.sqrt(var_d / n)
    z = 0.0 if se_d == 0.0 else md / se_d
    return MCReport(
        lhs_mean=float(ml), lhs_se=float(se_l), rhs_mean=float(mr),
        rhs_se=float(se_r), n_paths=n_paths, z_score=float(z),
        workers=workers, diff_mean=float(md), diff_se=float(se_d),
        extras=extras or {},
    )


def _ou_field(grid: Grid, spec: NoiseSpec, count):
    """OU field for `count` paths from spec.path_index, driven by the t=0
    line z_{s0} and the cell increments of the same paths."""
    zb = sample_boundary_bm(grid.n_s, grid.ds, spec.m, spec, batch=count)
    incs = CellIncrements(sample_cell_increments_batch(grid, spec, count), grid)
    return solve_ou_hyperbolic(grid, zb, incs)


def _ou_lines(grid: Grid, spec: NoiseSpec, count, rows):
    """The t-lines t = j*dt, j in `rows`, of the OU field of `count` paths
    from spec.path_index, shaped (count, len(rows), n_s + 1, m).

    Each Philox chunk of the cell draw builds its paths' field on its own
    (`_ou_field`) and keeps only these rows, bit for bit the rows of the
    whole block's field.
    """

    def rows_of(offset, n):
        values = _ou_field(grid, NoiseSpec(spec.seed, spec.path_index + offset, spec.m), n).values
        return np.moveaxis(values[:, :, rows, :], 2, 1)

    return path_slices(rows_of, count, normal_grid_chunk(grid.n_s, grid.n_t, spec.m))


def sample_sheet_nodes(grid: Grid, seed: int, n_paths: int, nodes, workers: int = 1):
    """Brownian sheet at the lattice `nodes` [(i, j), ...] for paths 0..n_paths-1.

    Returns (values of shape (n_paths, len(nodes)), the whole field of path 0).
    """

    def block(start, count):
        incs = sample_cell_increments_batch(grid, NoiseSpec(seed, start, 1), count)
        w = build_sheet(CellIncrements(incs, grid)).values
        at = np.stack([w[:, i, j, 0] for i, j in nodes], axis=1)
        _check_finite(*at.T)
        return at, (w[0].copy() if start == 0 else None)

    chunk = min(SHEET_CHUNK, normal_grid_chunk(grid.n_s, grid.n_t, 1))
    parts = _map_blocks(block, n_paths, chunk, workers)
    return np.concatenate([p[0] for p in parts]), parts[0][1]


def sample_ou_corner(grid: Grid, seed: int, n_paths: int, workers: int = 1):
    """OU sheet at the far corner (n_s, n_t), sampled exactly and by the
    hyperbolic solve on the same noise, for paths 0..n_paths-1.

    Returns (exact, solved, the whole solved field of path 0).
    """

    def block(start, count):
        spec = NoiseSpec(seed, start, 1)
        exact = sample_ou_exact_batch(grid, spec, count)[:, -1, -1, 0].copy()
        fld = _ou_field(grid, spec, count).values
        solved = fld[:, -1, -1, 0].copy()
        _check_finite(exact, solved)
        return exact, solved, (fld[0].copy() if start == 0 else None)

    # the exact sampler's n_t + 1 levels are the widest of the block's draws
    chunk = min(SHEET_CHUNK, normal_grid_chunk(grid.n_s, grid.n_t + 1, 1))
    parts = _map_blocks(block, n_paths, chunk, workers)
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]), parts[0][2])


def _prob_outside_square(n, h):
    """P(D >= h/n) for two samples of size n from one continuous law: the
    exact two-sided Smirnov probability (Hodges 1958), as scipy's
    `_compute_prob_outside_square` evaluates it, operation for operation.

    2 * sum_k (-1)^(k-1) binom(2n, n - k*h) / binom(2n, n), with each term
    divided by the one before and the sum folded in Horner form,
    2 * A_0 * (1 - A_1 * (1 - A_2 * (1 - ...))), so nothing cancels.
    """
    P = 0.0
    k = int(np.floor(n / h))
    while k >= 0:
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        P = p1 * (1.0 - P)
        k -= 1
    return 2 * P


def ks_two_sample(a, b):
    """Two-sided two-sample Kolmogorov-Smirnov test of 1-D samples `a`, `b`:
    (statistic, p-value), bit for bit `scipy.stats.ks_2samp(a, b)`.

    Two samples of one size n <= KS_EXACT_MAX_N take scipy's exact path,
    repeated here in the same float operations: the largest gap between the
    two ECDFs, rounded to h/n, and `_prob_outside_square(n, h)`.  Unequal
    sizes, a larger n, a NaN, and an exact value that rounds outside
    [0, 1] (scipy then warns and uses its asymptotic law) are handed to
    scipy, whose result comes back unchanged; only they import scipy.stats,
    which costs about 1 s and 70 MiB in a fresh process.
    """
    a = np.sort(a)
    b = np.sort(b)
    n = a.shape[0]
    # np.sort puts any NaN last
    if n == b.shape[0] and 0 < n <= KS_EXACT_MAX_N and not (np.isnan(a[-1]) or np.isnan(b[-1])):
        both = np.concatenate([a, b])
        cddiffs = (np.searchsorted(a, both, side="right") / n
                   - np.searchsorted(b, both, side="right") / n)
        h = int(np.round(np.max(np.abs(cddiffs)) * n))
        if h == 0:
            return 0.0, 1.0
        p = _prob_outside_square(n, h)
        if 0 <= p <= 1:
            return h / n, p
    from scipy.stats import ks_2samp

    res = ks_2samp(a, b)
    return float(res.statistic), float(res.pvalue)


def run_ibp(model: Model, payoff_f, payoff_g, grid: Grid, n_paths: int, seed: int,
            workers: int = 1, fault: Optional[str] = None) -> MCReport:
    """Check E[grad f . Gamma . grad g] = -E[f LG] on the t=0 line at s = s_extent.

    lhs sample: grad f(x_end) Gamma_end grad g(x_end); rhs: -f(x_end) LG(x_end).
    """
    vf, x0, m = model.vf, model.x0, model.vf.m

    def sample(start, count):
        spec = NoiseSpec(seed, start, m)
        z = sample_boundary_bm(grid.n_s, grid.ds, m, spec, batch=count)
        end = fold_line(vf, z, x0, reads=("Gamma", "L"), fault=fault)
        xk = end.x
        gf = payoff_f.grad_f(xk)
        gg = payoff_g.grad_f(xk)
        lhs = np.einsum("pa,pab,pb->p", gf, end.Gamma, gg)
        rhs = -payoff_f.f(xk) * apply_L(payoff_g, end)
        return lhs, rhs

    total = _run_paired(sample, n_paths, LINE_CHUNK, workers)
    return _report(total, n_paths, workers, {"fault": fault})


def run_bismut(model: Model, payoff_f, grid: Grid, n_paths: int, seed: int,
               workers: int = 1, component: int = 0) -> MCReport:
    """Check E[grad f(x) U C]_j = -E[f(x) R_j] on the t=0 line (component j)."""
    vf, x0, m = model.vf, model.x0, model.vf.m

    def sample(start, count):
        spec = NoiseSpec(seed, start, m)
        z = sample_boundary_bm(grid.n_s, grid.ds, m, spec, batch=count)
        end = fold_line(vf, z, x0, reads=("U", "C", "R"))
        xk = end.x
        gf = payoff_f.grad_f(xk)
        lhs_vec = np.einsum("pa,pab,pbc->pc", gf, end.U, end.C)
        rhs_vec = -payoff_f.f(xk)[:, None] * end.R
        return lhs_vec[:, component], rhs_vec[:, component]

    total = _run_paired(sample, n_paths, LINE_CHUNK, workers)
    return _report(total, n_paths, workers)


def run_reversibility(model: Model, payoff_f, payoff_g, grid: Grid, t_gap: float,
                      n_paths: int, seed: int, workers: int = 1) -> MCReport:
    """Check E[(F'-F)(G'-G)] = -2 E[F (G'-G)] across a t-gap of the OU field."""
    vf, x0, m = model.vf, model.x0, model.vf.m
    j_gap = grid.t_index(t_gap)

    def sample(start, count):
        lines = _ou_lines(grid, NoiseSpec(seed, start, m), count, [0, j_gap])
        xk = fold_line(vf, lines[:, 0], x0, grid.ds).x
        xg = fold_line(vf, lines[:, 1], x0, grid.ds).x
        F = payoff_f.f(xk)
        G = payoff_g.f(xk)
        Fp = payoff_f.f(xg)
        Gp = payoff_g.f(xg)
        lhs = (Fp - F) * (Gp - G)
        rhs = -2.0 * F * (Gp - G)
        return lhs, rhs

    total = _run_paired(sample, n_paths, FIELD_CHUNK, workers)
    return _report(total, n_paths, workers, {"t_gap": t_gap})


def _t_nodes(grid: Grid, ts, name):
    """The t-node index of each of `ts`, the abscissas of a fit.  One on
    node 0 has no increment to read (and divides by zero in the carre
    limit), and two on one node are one point counted twice (all on one
    node leave the fit no slope): both raise ConfigurationError."""
    nodes = [grid.t_index(t) for t in ts]
    if 0 in nodes:
        raise ConfigurationError(f"{name} must be positive, got {ts}")
    if len(set(nodes)) < len(nodes):
        raise ConfigurationError(f"{name} {ts} fall on t-nodes {nodes}; each needs its own node")
    return nodes


def intercept_weights(ts) -> np.ndarray:
    """OLS extrapolation-to-zero weights for ordinates sampled at ts."""
    t = np.asarray(ts, dtype=np.float64)
    tbar = t.mean()
    sxx = np.sum((t - tbar) ** 2)
    return 1.0 / len(t) + tbar * (tbar - t) / sxx


def run_carre_limit(model: Model, payoff_f, payoff_g, grid: Grid, t_gaps,
                    n_paths: int, seed: int, workers: int = 1) -> MCReport:
    """Extrapolate (1/t) E[(F'-F)(G'-G)] to t=0 and pair it against the
    carre-du-champ sample grad f . Gamma . grad g on the t=0 line.

    All gaps share one OU field per path, and the limit target is computed
    on the same paths, so the comparison is a single paired z-test.
    """
    vf, x0, m = model.vf, model.x0, model.vf.m
    gaps = list(t_gaps)
    if len(gaps) < 2:
        raise ConfigurationError("need at least two t-gaps to extrapolate")
    j_gaps = _t_nodes(grid, gaps, "t_gaps")
    wts = intercept_weights(gaps)

    def sample(start, count):
        lines = _ou_lines(grid, NoiseSpec(seed, start, m), count, [0] + j_gaps)
        end = fold_line(vf, lines[:, 0], x0, grid.ds, reads=("Gamma",))
        xk = end.x
        F = payoff_f.f(xk)
        G = payoff_g.f(xk)
        carre = np.einsum(
            "pa,pab,pb->p", payoff_f.grad_f(xk), end.Gamma, payoff_g.grad_f(xk)
        )
        extrap = np.zeros(count)
        for r, (wgt, gap) in enumerate(zip(wts, gaps), start=1):
            xg = fold_line(vf, lines[:, r], x0, grid.ds).x
            Fp = payoff_f.f(xg)
            Gp = payoff_g.f(xg)
            extrap = extrap + wgt * ((Fp - F) * (Gp - G) / gap)
        return extrap, carre

    total = _run_paired(sample, n_paths, FIELD_CHUNK, workers)
    return _report(total, n_paths, workers, {"t_gaps": gaps})


def run_holder_scan(target: str, grid: Grid, alpha: float, lags, n_paths: int,
                    seed: int, workers: int = 1, model: Optional[Model] = None,
                    coeffs: Optional[CoefficientSet] = None) -> HolderReport:
    """Estimate E|X_{s,lag} - X_{s,0}|^alpha per lag and fit the log-log slope.

    target: "sheet" (component 0 of the Brownian sheet), "x"/"u" (state or
    derivative flow of `model` over the OU field) or "p" (companion of the
    hyperbolic system `coeffs`, default the bounded test system, read from a
    sweep that keeps p only at the level nodes).
    """
    lags = list(lags)
    if len(lags) < 3:
        raise ConfigurationError("holder scan needs at least 3 lags")
    j_lags = _t_nodes(grid, lags, "lags")
    if target in ("x", "u") and model is None:
        raise ConfigurationError(f"target {target!r} needs a model")
    if target == "p" and coeffs is None:
        coeffs = bounded_test_coefficients()
    k = grid.n_s
    chunk = {"sheet": LINE_CHUNK, "x": FIELD_CHUNK, "u": FIELD_CHUNK, "p": HYP_CHUNK}.get(target)
    if chunk is None:
        raise ConfigurationError(f"unknown holder target {target!r}")

    def level_values(start, count):
        """X at (s = k*ds, t = level) for levels {0} + lags: list of arrays."""
        if target == "sheet":
            spec = NoiseSpec(seed, start, 1)
            incs = sample_cell_increments_batch(grid, spec, count)[..., 0]
            levels = cumsum0(np.sum(incs[:, :k, :], axis=1), axis=-1)
            return [levels[:, 0]] + [levels[:, j] for j in j_lags]
        if target in ("x", "u"):
            lines = _ou_lines(grid, NoiseSpec(seed, start, model.vf.m), count, [0] + j_lags)
            reads, out = ("x",) if target == "x" else ("U",), []
            for r in range(lines.shape[1]):
                end = fold_line(model.vf, lines[:, r], model.x0, grid.ds, reads=reads)
                v = end.x if target == "x" else end.U.reshape(count, -1)
                out.append(np.linalg.norm(v, axis=-1) if model.vf.d > 1 else v[:, 0])
            return out
        # target == "p": general hyperbolic sweep with zero boundary data,
        # keeping p at the nodes read
        spec = NoiseSpec(seed, start, coeffs.m)
        incs = CellIncrements(sample_cell_increments_batch(grid, spec, count), grid)
        p = solve_system(coeffs, SystemBoundaries.zero(grid, coeffs), grid, incs,
                         keep_p=[(k, j) for j in [0] + j_lags])
        return [p[:, r, 0] for r in range(1 + len(j_lags))]

    def block(start, count):
        vals = level_values(start, count)
        samples = np.stack([np.abs(v - vals[0]) ** alpha for v in vals[1:]], axis=-1)
        _check_finite(*samples.T)
        return _block_sums(samples)

    sums = _add_blocks(_map_blocks(block, n_paths, chunk, workers), chunk)
    n = n_paths
    moments = sums[:len(lags)] / n
    var = np.maximum(0.0, (sums[len(lags):] - n * moments**2) / (n - 1))
    moment_ses = np.sqrt(var / n)
    if np.any(moments <= 0.0):
        raise DegenerateDataError("all-zero lag moments: nothing to regress on")

    lx = np.log(np.asarray(lags))
    ly = np.log(moments)
    xbar = lx.mean()
    sxx = np.sum((lx - xbar) ** 2)
    slope = float(np.sum((lx - xbar) * ly) / sxx)
    intercept = float(ly.mean() - slope * xbar)
    resid = ly - (intercept + slope * lx)
    dof = max(1, len(lags) - 2)
    slope_se = float(np.sqrt(np.sum(resid**2) / dof / sxx))
    # widen by the statistical error of the moments themselves
    stat = float(np.max(moment_ses / moments)) / np.sqrt(sxx)
    half = 1.96 * max(slope_se, stat)
    return HolderReport(
        lags=[float(t) for t in lags],
        moments=[float(v) for v in moments],
        moment_ses=[float(v) for v in moment_ses],
        fitted_slope=slope,
        slope_ci=(slope - half, slope + half),
        alpha=alpha,
        target=target,
        n_paths=n_paths,
    )
