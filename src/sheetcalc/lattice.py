"""Discretization grid and the deterministic, index-addressed noise source.

Everything downstream of this module is a pure function of (Grid, NoiseSpec):
cell increments, boundary Brownian motions and auxiliary draws all pull
normals from disjoint regions of one Philox counter space, so draws commute
and paths can be evaluated in any order (or in parallel) without changing a
single deviate.

Counter layout (Philox4x64, key = (seed, SALT)):

    word 0   path index
    word 1   stream id | channel << 8 | component << 32
    word 2   s-block index (s index >> 2; each block carries 4 lanes)
    word 3   t index

Streams separate the independent noise consumers (cells, s/t-axis boundary
motions, the exact OU sampler's per-level motions, derivative probing);
channels separate different boundary paths sharing a stream.

Invariant: consecutive paths are consecutive counters.  The path index is
word 0, the word that counts, so for fixed words 1-3 a block of paths
start..start+n-1 is one run of n consecutive Philox counters, which
`philox.normal_block` draws with a single call to numpy's generator, one
chunk of `normal_grid_chunk` paths at a time.  Per-path work cut into
slices of that size (`path_slices`) draws the same deviates as the whole
batch and holds one chunk of the draw at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigurationError
from .philox import chunk_paths, normal_block

_KEY_SALT = np.uint64(0x243F6A8885A308D3)


class Stream(IntEnum):
    """Disjoint regions of the counter space."""

    CELLS = 1
    BOUNDARY_S = 2
    BOUNDARY_T = 3
    OU_LEVELS = 4
    PROBE = 5


class Channel(IntEnum):
    """Named boundary paths within the boundary streams."""

    Z_S0 = 0
    B_0T = 1
    X_S0 = 2
    X_0T = 3
    P_0T = 4
    Q_S0 = 5


def _node_index(axis: str, v: float, step: float, n: int) -> int:
    k = round(v / step)
    if not (0 <= k <= n) or abs(k * step - v) > 1e-9 * max(1.0, abs(v)):
        raise ConfigurationError(f"{axis}={v} is not a node of the grid (d{axis}={step})")
    return k


@dataclass(frozen=True)
class Grid:
    """Rectangular lattice: nodes (i*ds, j*dt), cells [i,i+1]x[j,j+1]."""

    n_s: int
    n_t: int
    ds: float
    dt: float

    def __post_init__(self):
        if self.n_s < 1 or self.n_t < 1:
            raise ConfigurationError(f"grid needs n_s, n_t >= 1, got {self.n_s}, {self.n_t}")
        if not (self.ds > 0.0) or not (self.dt > 0.0):
            raise ConfigurationError(f"grid needs ds, dt > 0, got ds={self.ds}, dt={self.dt}")

    @property
    def s_extent(self) -> float:
        return self.n_s * self.ds

    @property
    def t_extent(self) -> float:
        return self.n_t * self.dt

    def s_nodes(self) -> np.ndarray:
        return np.arange(self.n_s + 1) * self.ds

    def t_nodes(self) -> np.ndarray:
        return np.arange(self.n_t + 1) * self.dt

    def s_index(self, s: float) -> int:
        """Node index of coordinate s; must lie on the grid."""
        return _node_index("s", s, self.ds, self.n_s)

    def t_index(self, t: float) -> int:
        return _node_index("t", t, self.dt, self.n_t)


@dataclass(frozen=True)
class NoiseSpec:
    """Addresses one path's noise: (seed, path_index) plus the dimension m."""

    seed: int
    path_index: int = 0
    m: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ConfigurationError(f"noise dimension m must be >= 1, got {self.m}")
        if not (0 <= self.seed < 2**64):
            raise ConfigurationError("seed must fit in 64 bits")
        if self.path_index < 0:
            raise ConfigurationError("path_index must be nonnegative")


@dataclass
class CellIncrements:
    """Per-cell double increments; values[..., i, j, c] has variance ds*dt."""

    values: np.ndarray
    grid: Grid

    @property
    def m(self) -> int:
        return self.values.shape[-1]


@dataclass
class LineProcess:
    """One-parameter line values[..., k, c] at nodes k*step: boundary data,
    a driving path, or a field restricted to one line."""

    values: np.ndarray
    step: float

    @classmethod
    def from_values(cls, values, step):
        """A line from its values; a 1-D array is one component."""
        v = np.asarray(values, dtype=np.float64)
        if v.ndim == 1:
            v = v[:, None]
        return cls(v, step)


def cumsum0(terms, axis):
    """Partial sums along `axis` with a zero slab first, bit for bit
    `np.cumsum`'s, in one fresh array: the package's one partial sum.

    On the leading axis each step adds one contiguous slab (3.0 against
    36 ms for `np.cumsum(out=)`'s strided walk on a (128, 16384, 1) line);
    on any other axis `np.cumsum` writes the output.
    """
    terms = np.asarray(terms)
    axis = axis % terms.ndim
    shape = list(terms.shape)
    shape[axis] += 1
    out = np.zeros(shape, dtype=terms.dtype)
    if axis > 0:
        np.cumsum(terms, axis=axis, out=out[(slice(None),) * axis + (slice(1, None),)])
        return out
    out[1:2] = terms[:1]  # nothing to copy when terms is empty
    for k in range(1, len(terms)):
        np.add(out[k], terms[k], out=out[k + 1])
    return out


def _key(seed) -> tuple:
    return (np.uint64(seed), _KEY_SALT)


def normal_grid(seed, path_indices, stream, n_i, n_j, m, channel=0):
    """Standard normals addressed by (path, stream/channel, i, j, component).

    path_indices: int or integer array; output shape is
    ``np.shape(path_indices) + (n_i, n_j, m)``.  The deviate at a given
    address never depends on n_i/n_j/m, so enlarging a grid extends the
    draw rather than reshuffling it.
    """
    n_blocks = (n_i + 3) // 4
    word1 = (
        np.uint64(int(stream))
        | (np.uint64(channel) << np.uint64(8))
        | (np.arange(m, dtype=np.uint64) << np.uint64(32))
    )
    z = normal_block(path_indices, word1, n_blocks, n_j, _key(seed))
    # (..., blocks, lane, j, c) -> (..., i, j, c): row i is lane i % 4 of block i // 4
    z = z.reshape(np.shape(path_indices) + (4 * n_blocks, n_j, m))
    return z if n_i == 4 * n_blocks else np.ascontiguousarray(z[..., :n_i, :, :])


def normal_grid_chunk(n_i, n_j, m) -> int:
    """Paths per Philox chunk of an (n_i, n_j, m) `normal_grid` draw, whose
    paths take ceil(n_i / 4) * n_j * m counters each."""
    return chunk_paths((n_i + 3) // 4 * n_j * m)


def path_slices(fn, count, size):
    """fn(offset, n) over consecutive slices of at most `size` of `count`
    paths, its outputs stacked on axis 0 in path order.

    Per-path work over a draw, cut at the draw's Philox chunks
    (`normal_grid_chunk`), holds one chunk of the draw at a time and draws
    the same deviates as the whole batch.
    """
    out = None
    for offset in range(0, count, size):
        part = fn(offset, min(size, count - offset))
        if out is None:
            out = np.empty((count,) + part.shape[1:], dtype=part.dtype)
        out[offset:offset + len(part)] = part
    return out


def sample_cell_increments_batch(grid: Grid, noise: NoiseSpec, batch) -> np.ndarray:
    """Double increments over every cell, independent N(0, ds*dt) entries,
    for paths noise.path_index .. +batch-1, stacked on axis 0.

    batch=None gives the single path noise.path_index with no batch axis.
    """
    if batch is None:
        paths = noise.path_index
    else:
        paths = noise.path_index + np.arange(batch)
    z = normal_grid(noise.seed, paths, Stream.CELLS, grid.n_s, grid.n_t, noise.m)
    z *= np.sqrt(grid.ds * grid.dt)
    return z


def sample_boundary_bm(
    n: int,
    step: float,
    dim: int,
    noise: NoiseSpec,
    channel: int = Channel.Z_S0,
    axis: str = "s",
    batch=None,
) -> LineProcess:
    """Brownian path from 0 on n steps of size `step`, one per component.

    Disjoint from cell increments and from paths on other channels/axes by
    counter-space separation.  The only place that turns
    `boundary_increments` into a zero-started line.
    """
    if n < 1:
        raise ConfigurationError(f"boundary path needs n >= 1, got {n}")
    if not (step > 0.0):
        raise ConfigurationError(f"boundary path needs step > 0, got {step}")
    incs = boundary_increments(n, step, dim, noise, channel, axis, batch)
    return LineProcess(cumsum0(incs, axis=-2), step)


def boundary_increments(n, step, dim, noise: NoiseSpec, channel, axis="s", batch=None):
    """The raw N(0, step) increments behind sample_boundary_bm."""
    stream = Stream.BOUNDARY_S if axis == "s" else Stream.BOUNDARY_T
    paths = noise.path_index if batch is None else noise.path_index + np.arange(batch)
    z = normal_grid(noise.seed, paths, stream, n, 1, dim, channel=channel)
    z *= np.sqrt(step)
    return z[..., :, 0, :]
