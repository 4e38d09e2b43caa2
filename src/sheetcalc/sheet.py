"""Brownian sheet and Ornstein-Uhlenbeck sheet on the lattice.

Two independent OU constructions live here on purpose:
`sample_ou_exact_batch` draws from the target Gaussian law
(s ^ s') * exp(-|t-t'|/2) directly via a t-direction autoregression and
serves as the oracle, while
`solve_ou_hyperbolic` integrates the hyperbolic equation

    d_s d_t z = d_s d_t w - (1/2) d_s z dt,   z_{0t} = 0, z_{s0} given,

cell by cell and is the system under test.  The hyperbolic update keeps a
running s-increment per column, with the same association order as the
general solver in `hyperbolic`, so the two agree bit-for-bit when driven
by matched noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError
from .lattice import BoundaryPath, CellIncrements, Grid, NoiseSpec, Stream, normal_grid

CSV_SCHEMA = "sheetcalc-csv v1 kind=sheet-field columns=i,j,s,t,component,value"


@dataclass
class SheetField:
    """Vector field on lattice nodes: values[..., i, j, c], i the s-index."""

    values: np.ndarray
    grid: Grid

    @property
    def dim(self) -> int:
        return self.values.shape[-1]


def build_sheet(incs: CellIncrements) -> SheetField:
    """Cumulative double sum of cell increments; zero on both axes.

    Summation nests t inside s, matching the general solver's association,
    so a pure-noise hyperbolic system reproduces this field bit-for-bit.
    """
    v = incs.values
    grid = incs.grid
    out = np.zeros(v.shape[:-3] + (grid.n_s + 1, grid.n_t + 1, v.shape[-1]))
    out[..., 1:, 1:, :] = np.cumsum(np.cumsum(v, axis=-2), axis=-3)
    return SheetField(out, grid)


def sample_ou_exact_batch(grid: Grid, noise: NoiseSpec, batch) -> np.ndarray:
    """Gaussian field values with covariance (s ^ s') e^{-|t-t'|/2}, sampled
    exactly, for paths noise.path_index .. +batch-1 stacked on axis 0
    (batch=None: the one path noise.path_index, no batch axis).

    The t=0 line is a Brownian motion in s; each later line is the
    autoregression z_{.,t+dt} = e^{-dt/2} z_{.,t} + sqrt(1-e^{-dt}) B with a
    fresh independent Brownian motion B, which reproduces the covariance at
    every pair of lattice nodes with no discretization error.
    """
    paths = noise.path_index if batch is None else noise.path_index + np.arange(batch)
    z = normal_grid(noise.seed, paths, Stream.OU_LEVELS, grid.n_s, grid.n_t + 1, noise.m)
    line_incs = z * np.sqrt(grid.ds)
    decay = np.exp(-grid.dt / 2.0)
    fresh = np.sqrt(1.0 - np.exp(-grid.dt))
    shape = line_incs.shape[:-3] + (grid.n_s + 1, grid.n_t + 1, noise.m)
    values = np.zeros(shape)
    row = np.cumsum(line_incs[..., :, 0, :], axis=-2)
    values[..., 1:, 0, :] = row
    for j in range(1, grid.n_t + 1):
        row = decay * row + fresh * np.cumsum(line_incs[..., :, j, :], axis=-2)
        values[..., 1:, j, :] = row
    return values


def solve_ou_hyperbolic(grid: Grid, z_boundary: BoundaryPath, incs: CellIncrements) -> SheetField:
    """Explicit lattice solution of d_s d_t z = d_s d_t w - (1/2) d_s z dt.

    Boundary data: z_{s0} = z_boundary (corner value must be 0, since the
    t-axis boundary is pinned at z_{0t} = 0).
    """
    zb = np.asarray(z_boundary.values, dtype=np.float64)
    v = incs.values
    if zb.shape[-2] != grid.n_s + 1:
        raise ShapeError(
            f"boundary has {zb.shape[-2] - 1} steps, grid has n_s={grid.n_s}"
        )
    if v.shape[-3] != grid.n_s or v.shape[-2] != grid.n_t:
        raise ShapeError(f"increments shaped {v.shape[-3:]} do not fit grid {grid}")
    if np.any(zb[..., 0, :] != 0.0):
        raise ConfigurationError("z boundary must start at 0 (corner pinned by z_{0t}=0)")
    dim = v.shape[-1]
    batch = np.broadcast_shapes(zb.shape[:-2], v.shape[:-3])
    values = np.zeros(batch + (grid.n_s + 1, grid.n_t + 1, dim))
    values[..., :, 0, :] = zb
    ds_row = np.diff(zb, axis=-2) + np.zeros_like(v[..., :, 0, :])
    dt = grid.dt
    for j in range(grid.n_t):
        ds_row = ds_row + (v[..., :, j, :] + (-0.5 * ds_row) * dt)
        values[..., 1:, j + 1, :] = np.cumsum(ds_row, axis=-2)
    return SheetField(values, grid)


def dump_csv(field: SheetField, path) -> None:
    """Write a node field as CSV: one row per (node, component)."""
    grid = field.grid
    v = field.values
    if v.ndim != 3:
        raise ShapeError("CSV dump expects an unbatched field (values ndim 3)")
    # the rows csv.writer would write: no field needs quoting, lines end \r\n
    s_nodes = [repr(i * grid.ds) for i in range(grid.n_s + 1)]
    t_nodes = [repr(j * grid.dt) for j in range(grid.n_t + 1)]
    with open(path, "w", newline="") as fh:
        fh.write(f"# {CSV_SCHEMA}\n")
        fh.write("i,j,s,t,component,value\r\n")
        for i, (s, row) in enumerate(zip(s_nodes, v.astype(float, copy=False).tolist())):
            fh.writelines(
                f"{i},{j},{s},{t},{c},{x!r}\r\n"
                for j, (t, node) in enumerate(zip(t_nodes, row))
                for c, x in enumerate(node)
            )
