"""General hyperbolic system on the lattice, with companion linearizations.

The mixed equation

    dd x = a1(dw) + a2(dw, dw) + b11(dsx, dtx) + b12(dsx, dtx, dtx)
                  + b21(dsx, dsx, dtx) + b22(dsx, dsx, dtx, dtx)

is solved with previsible (lower-left) state evaluation and raw increment
products for the quadratic terms.  One-parameter companions ride along
every line:

    p:  d_s p = c1(dsx) + c2(dsx, dsx)          q:  d_t q = e1(dtx) + e2(dtx, dtx)
    u:  d_s u = [b11(dsx, .) + b21(dsx, dsx, .)] u
    v:  d_t v = [b11(., dtx) + b12(., dtx, dtx)] v

with u^{-1}, v^{-1} evolved by their own linear recursions (I - G + GG per
step, never a per-cell inversion) and the second-order transports u*, v*
by the stated bracket combinations.  Exchanging s and t maps the system
onto itself (p, c, u trade places with q, e, v, and b12 with b21), so one
transport step serves both directions, reading each direction's callbacks
from its side table (`_Side`).  The printed u and v equations swap the
b12/b21 labels into type-inconsistent slots; the b=0 auxiliary system in
the same source fixes the assignment that the two side tables spell out.

Initial data: u00 = v00 = I; u on the t-axis copies v there and vice versa
on the s-axis; u* vanishes on the t-axis, v* on the s-axis.

The solver maintains running one-parameter increments per column/row rather
than re-differencing the field, so each fixed-t row satisfies its discrete
one-parameter equation bit-exactly, and the specialized OU solver in
`sheet` reproduces this sweep bit-for-bit with matched noise.

Blow-up: m = running sup of the Frobenius norm of the concatenated tuple
(u, u^{-1}, v, v^{-1}); nodes whose m exceeds blowup_M drop out of the
domain mask, which stays an initial open set by construction.  The first
out-of-domain node keeps the value computed at it, whatever that is (it may
be non-finite), not the last in-domain one.  A step out of a dead node
copies its state, companions and flows onward and zeroes its increments
(the cell with lower-left corner (i, j) gives (i + 1, j + 1) the x of
(i, j)), so the nodes above and to the right of it copy that value.

Sweep order and storage: node (i, j) depends only on (i-1, j), (i, j-1) and
(i-1, j-1), so the sweep advances one anti-diagonal i + j = k at a time
(Lamport's hyperplane method), S + T steps for an S x T grid, each over
every node of the diagonal at once.  Every node's arithmetic is that of a
cell-by-cell sweep, so the results do not depend on the order.  The state
lives on a window of diagonals: node (i, j) sits at slot i of diagonal
k = i + j, so a diagonal's nodes are one contiguous run of slots, each
holding the node's values for all paths.  A step reads diagonal k and
writes k + 1, and x on k + 2, so x keeps three diagonals and every other
field two; the boundary lines are fed in as their diagonal comes up.  Every
read of the state is a basic-slice view and every write a slice assignment.

Each completed diagonal goes to a recorder.  By default it is written into
node-major arrays, (S+1, T+1, *batch, ...), and the solution exposes them
batch-first; a second-order flow that is never driven is a read-only view of
zeros.  With `keep_p` only p at the named nodes is kept, so a caller that
reads a few nodes holds the window, not the field.

Per-diagonal cost: stacked small-matrix products go through
`malliavin._matmul`, elementwise over every path and node of a diagonal, so
the bits do not depend on the BLAS kernel and a d = 1 product costs one
multiply, not one matmul call per 1 x 1 matrix.  The freeze of dead paths
(`np.where`) is skipped on a diagonal with no dead path, where it would copy
each new value unchanged, and the identity basis is a broadcast view.  A
step does no work whose result is fixed before the sweep starts: u* and v*
are transported, and held, only when b12 or b22 (for v*, b21 or b22) is
present, and otherwise stay zero; the freeze mask is kept only under a
finite blowup_M, since at M = inf no node can leave the domain.  The norm
tuple's sums of squares add the entries of each 1 x 1 or 2 x 2 matrix one
by one in numpy's own order, without a reduction call.

Failing node: a non-finite value at an in-domain node raises NumericsError
naming the node (cell) and the first bad path in it (a tuple of batch
indices).  Each completed diagonal sets a bool flag per node and path (x, p,
q or m non-finite, node in the domain), under either recorder; the flags are
read once, after the sweep finishes.  When several nodes are bad, the one
named is the first in the order of an s-major cell-by-cell sweep, which
checks the corner (0, 0) first, node (a, b >= 1) in row a at cell b - 1,
and node (a + 1, 0) in row a just after node (a, 1).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigurationError, ModelError, NumericsError, ShapeError
from .lattice import CellIncrements, Grid, LineProcess, Stream, normal_grid
from .malliavin import _matmul

NORM_CONVENTION = "frobenius-of-concatenated-(u,u_inv,v,v_inv)"

_SYM_RTOL = 1e-10


@dataclass
class CoefficientSet:
    """Coefficient callbacks; None means the term is absent (exactly).

    Arities (all broadcast over leading batch axes; xi is an s-increment,
    tau a t-increment, both (..., d); dw is (..., m)):

        a1(x, p, q, dw)            a2(x, p, q, dw, dw')        -> (..., d)
        b11(x, xi, tau)            b12(x, xi, tau, tau')       -> (..., d)
        b21(x, xi, xi', tau)       b22(x, xi, xi', tau, tau')  -> (..., d)
        c1(x, p, q, xi)            c2(x, p, q, xi, xi')        -> (..., n)
        e1(x, p, q, tau)           e2(x, p, q, tau, tau')      -> (..., n)

    b-callbacks take only x by construction.  Coefficients quadratic in a
    repeated differential must be symmetric in it; this is probed on build.
    The sweep passes views of its own state, so a callback must not write to
    its arguments.
    """

    d: int
    n: int
    m: int
    a1: Optional[Callable] = None
    a2: Optional[Callable] = None
    b11: Optional[Callable] = None
    b12: Optional[Callable] = None
    b21: Optional[Callable] = None
    b22: Optional[Callable] = None
    c1: Optional[Callable] = None
    c2: Optional[Callable] = None
    e1: Optional[Callable] = None
    e2: Optional[Callable] = None

    def __post_init__(self):
        z = normal_grid(0, 0, Stream.PROBE, 8, 1, 2 * self.d + 2 * self.n + 2 * self.m)[:, 0, :]
        x = z[:, : self.d]
        xi = z[:, self.d : 2 * self.d]
        p = z[:, 2 * self.d : 2 * self.d + self.n]
        q = z[:, 2 * self.d + self.n : 2 * self.d + 2 * self.n]
        dw = z[:, 2 * self.d + 2 * self.n : 2 * self.d + 2 * self.n + self.m]
        dw2 = z[:, 2 * self.d + 2 * self.n + self.m :]
        tau = xi[::-1]
        xi2 = 0.5 * xi + 0.25
        tau2 = 0.5 * tau - 0.25
        checks = [
            ("a2", self.a2, lambda f: (f(x, p, q, dw, dw2), f(x, p, q, dw2, dw))),
            ("b12", self.b12, lambda f: (f(x, xi, tau, tau2), f(x, xi, tau2, tau))),
            ("b21", self.b21, lambda f: (f(x, xi, xi2, tau), f(x, xi2, xi, tau))),
            ("c2", self.c2, lambda f: (f(x, p, q, xi, xi2), f(x, p, q, xi2, xi))),
            ("e2", self.e2, lambda f: (f(x, p, q, tau, tau2), f(x, p, q, tau2, tau))),
            (
                "b22",
                self.b22,
                lambda f: (f(x, xi, xi2, tau, tau2), f(x, xi2, xi, tau2, tau)),
            ),
        ]
        for name, fn, runner in checks:
            if fn is None:
                continue
            lhs, rhs = runner(fn)
            scale = np.maximum(1.0, np.abs(lhs))
            if np.any(np.abs(lhs - rhs) > _SYM_RTOL * scale):
                raise ModelError(f"{name} is not symmetric in its repeated argument")


@dataclass
class SystemBoundaries:
    """Goursat data: x on both axes, p on the t-axis, q on the s-axis."""

    x_s0: np.ndarray
    x_0t: np.ndarray
    p_0t: np.ndarray
    q_s0: np.ndarray

    @staticmethod
    def _vals(b):
        return np.asarray(b.values if isinstance(b, LineProcess) else b, dtype=np.float64)

    def arrays(self):
        return (self._vals(self.x_s0), self._vals(self.x_0t),
                self._vals(self.p_0t), self._vals(self.q_s0))

    @classmethod
    def zero(cls, grid: Grid, coeffs: CoefficientSet) -> "SystemBoundaries":
        """Zero data on every line, unbatched: the sweep broadcasts it."""
        return cls(
            x_s0=np.zeros((grid.n_s + 1, coeffs.d)),
            x_0t=np.zeros((grid.n_t + 1, coeffs.d)),
            p_0t=np.zeros((grid.n_t + 1, coeffs.n)),
            q_s0=np.zeros((grid.n_s + 1, coeffs.n)),
        )


@dataclass
class HyperbolicSolution:
    x: np.ndarray
    p: np.ndarray
    q: np.ndarray
    u: np.ndarray
    u_inv: np.ndarray
    u_star: np.ndarray
    v: np.ndarray
    v_inv: np.ndarray
    v_star: np.ndarray
    ds_x: np.ndarray          # running s-increments, (..., n_s, n_t+1, d)
    dt_x: np.ndarray          # running t-increments, (..., n_s+1, n_t, d)
    domain_mask: np.ndarray   # True where in-domain
    m_field: np.ndarray       # running sup of the norm tuple
    grid: Grid
    blowup_M: float
    norm_convention: str = NORM_CONVENTION

    def uu_inv_drift(self) -> float:
        """Max in-domain deviation of u u^{-1} from the identity."""
        eye = np.eye(self.u.shape[-1])
        live = self.domain_mask[..., None, None]
        return float(np.max(np.abs(np.where(live, _matmul(self.u, self.u_inv) - eye, 0.0))))


@dataclass
class BlowupSummary:
    max_m: np.ndarray
    frontier: np.ndarray


def _sum_squares(a):
    """np.sum(a * a, axis=(-2, -1)) over square (d, d) matrices, bit for bit.

    Below eight terms numpy's pairwise sum adds left to right, so for d <= 2
    the entries are added in C order with no reduction call; from eight
    terms on it adds in a tree, and np.sum is kept.
    """
    sq = a * a
    d = a.shape[-1]
    if d * d >= 8:
        return np.sum(sq, axis=(-2, -1))
    acc = sq[..., 0, 0]  # a view: sq is scratch, so the sum may overwrite it
    for r in range(d):
        for c in range(d):
            if r or c:
                acc += sq[..., r, c]
    return acc


def _tuple_norm(u, u_inv, v, v_inv):
    return np.sqrt(_sum_squares(u) + _sum_squares(u_inv) + _sum_squares(v) + _sum_squares(v_inv))


def _on_columns(fn, mat):
    """Apply a linear-in-one-slot callback to each column of mat, as a matrix."""
    cols = np.swapaxes(mat, -1, -2)
    out = fn(cols)
    return np.swapaxes(out, -1, -2)


def solve_system(
    coeffs: CoefficientSet,
    boundaries: SystemBoundaries,
    grid: Grid,
    incs: CellIncrements,
    blowup_M: float = np.inf,
    keep_p: Optional[Sequence[Tuple[int, int]]] = None,
) -> "HyperbolicSolution | np.ndarray":
    """Explicit anti-diagonal sweep of the full system with companions.

    All boundary/increment arrays may carry leading batch axes (paths).
    Without keep_p the result is the whole `HyperbolicSolution`.  keep_p
    names nodes (i, j); then only p at those nodes is kept and returned, an
    array (*batch, len(keep_p), n) in the order given.
    Raises NumericsError on a non-finite value at an in-domain node.
    """
    if keep_p is not None:
        S, T = grid.n_s, grid.n_t
        keep_p = [(int(i), int(j)) for i, j in keep_p]
        if not all(0 <= i <= S and 0 <= j <= T for i, j in keep_p):
            raise ShapeError(f"keep_p names a node outside the {S} x {T} grid: {keep_p}")
        return _sweep(coeffs, boundaries, grid, incs, blowup_M, lambda ctx: _KeptP(ctx, keep_p))
    return _sweep(coeffs, boundaries, grid, incs, blowup_M, _Fields)


def _sweep(coeffs, boundaries, grid, incs, blowup_M, recorder):
    S, T = grid.n_s, grid.n_t
    xb_s, xb_t, pb, qb = boundaries.arrays()
    w = incs.values
    if w.shape[-3:] != (S, T, coeffs.m):
        raise ShapeError(f"increments shaped {w.shape[-3:]} do not fit grid/model")
    d, n = coeffs.d, coeffs.n
    for name, b, want in (("x_s0", xb_s, (S + 1, d)), ("x_0t", xb_t, (T + 1, d)),
                          ("p_0t", pb, (T + 1, n)), ("q_s0", qb, (S + 1, n))):
        if b.shape[-2:] != want:
            raise ShapeError(f"{name} ends in {b.shape[-2:]}, not (nodes, width) = {want}")
    ca, cb = np.broadcast_arrays(xb_s[..., 0, :], xb_t[..., 0, :])
    if not np.array_equal(ca, cb, equal_nan=True):
        raise ConfigurationError("corner inconsistency: x_s0[0] differs from x_0t[0]")

    ctx = _SweepContext(coeffs, xb_s, xb_t, pb, qb, w, blowup_M)
    rec = recorder(ctx)
    bad = np.zeros((S + 1, T + 1) + ctx.batch, dtype=bool)
    bad_k = _by_diagonal(bad)

    def finish(k):
        """Diagonal k is final: flag its bad nodes and hand it to the recorder."""
        bad_k[k, ctx.nodes(k)] = ctx.bad(k)
        rec.record(k)

    # Anti-diagonal wavefront: node (i, j) depends only on (i-1, j), (i, j-1)
    # and (i-1, j-1), so step k advances every node on diagonal i + j = k.
    # Overflow to inf is monitored semantics (caught by the mask or raised
    # as NumericsError), so the low-level warnings stay silent.
    with np.errstate(over="ignore", invalid="ignore"):
        ctx.feed(0)
        ctx.complete(0)
        finish(0)
        for k in range(S + T):
            ctx.feed(k + 1)
            ctx.diagonal(k)
            ctx.complete(k + 1)
            finish(k + 1)

    nodes = np.argwhere(bad.reshape(S + 1, T + 1, -1).any(axis=-1)).tolist()
    if nodes:
        # the first node of the cell sweep's order (module docstring)
        a, b = min(nodes, key=lambda n: (n[0], n[1] - 1, 0) if n[1] else (n[0] - 1, 0, 1))
        path = tuple(int(v) for v in np.argwhere(bad[a, b])[0])
        raise NumericsError(f"non-finite value in-domain at node {(a, b)}", cell=(a, b), path=path)
    return rec.result(grid, blowup_M)


def _by_diagonal(a):
    """A strided view of node-major a, (rows, cols, ...), whose entry [k, i]
    is node (i, k - i) of a, shaped (rows + cols - 1, rows, ...).  Only the
    entries that are nodes of a lie in its memory, so the view is read and
    written only through a diagonal's slots [lo, hi)."""
    s0, s1 = a.strides[:2]
    rows, cols = a.shape[:2]
    return as_strided(a, (rows + cols - 1, rows) + a.shape[2:], (s1, s0 - s1) + a.strides[2:])


class _Fields:
    """Recorder of the whole solution: every completed diagonal is written
    into node-major arrays, (S+1, T+1, *batch, ...), that the solution
    exposes batch-first."""

    def __init__(self, ctx):
        self.ctx = ctx
        S, T, batch, d, n = ctx.S, ctx.T, ctx.batch, ctx.c.d, ctx.c.n

        def nodes(*trail, rows=S + 1, cols=T + 1, dtype=np.float64):
            return np.zeros((rows, cols) + batch + trail, dtype=dtype)

        # node-major arrays of the fields with a ring in ctx; a second-order
        # flow without one is never driven, and is a read-only view of zeros
        self.out = {"x": nodes(d), "p": nodes(n), "q": nodes(n), "u": nodes(d, d),
                    "u_inv": nodes(d, d), "v": nodes(d, d), "v_inv": nodes(d, d),
                    "m_field": nodes()}
        self.zero = {}
        for name in ("u_star", "v_star"):
            if getattr(ctx, name) is None:
                self.zero[name] = np.broadcast_to(0.0, (S + 1, T + 1) + batch + (d, d, d))
            else:
                self.out[name] = nodes(d, d, d)
        self.ds_x = nodes(d, rows=S)
        self.dt_x = nodes(d, cols=T)
        self.blown = nodes(dtype=bool)
        # (diagonal view of the output, ring, slots of the nodes it holds)
        every = ctx.nodes
        self.writes = [(_by_diagonal(a), getattr(ctx, name), every)
                       for name, a in self.out.items()]
        self.writes += [(_by_diagonal(self.ds_x), ctx.ds_x, ctx.s_nodes),
                        (_by_diagonal(self.dt_x), ctx.dt_x, ctx.t_nodes)]
        if ctx.masked:
            self.writes.append((_by_diagonal(self.blown), ctx.blown, every))

    def record(self, k):
        at = self.ctx.at
        for out, ring, nodes in self.writes:
            sel = nodes(k)
            if sel.start < sel.stop:
                out[k, sel] = at(ring, k)[sel]

    def result(self, grid, blowup_M):
        nb = len(self.ctx.batch)

        def batch_first(a):
            return np.moveaxis(a, (0, 1), (nb, nb + 1))

        return HyperbolicSolution(
            **{name: batch_first(a) for name, a in {**self.out, **self.zero}.items()},
            ds_x=batch_first(self.ds_x), dt_x=batch_first(self.dt_x),
            domain_mask=batch_first(~self.blown), grid=grid, blowup_M=blowup_M,
        )


class _KeptP:
    """Recorder of p at the named nodes only, batch-first (*batch, nodes, n)."""

    def __init__(self, ctx, nodes):
        self.ctx = ctx
        self.p = np.zeros(ctx.batch + (len(nodes), ctx.c.n))
        self.on = {}  # diagonal -> [(column of self.p, slot)]
        for r, (i, j) in enumerate(nodes):
            self.on.setdefault(i + j, []).append((r, i))

    def record(self, k):
        p = self.ctx.at(self.ctx.p, k)
        for r, i in self.on.get(k, ()):
            self.p[..., r, :] = p[i]

    def result(self, grid, blowup_M):
        return self.p


# One transport direction: its slot shift (a step in s moves a node one slot
# up, a step in t keeps its slot), the companion and flow rings it advances,
# and its coefficient slots.  `own` is the state's increment along the step;
# slot b_kl takes k copies of it and l increments across the step.  k1, k2
# are the companion's c or e callbacks.
_Side = namedtuple("_Side", "di comp flow flow_inv flow_star k1 k2 b11 b21 b12 b22")


def _bind(fn, slot):
    return None if fn is None else slot(fn)


class _SweepContext:
    """State of one sweep on a window of diagonals.  Node (i, j) sits at
    slot i of diagonal k = i + j; each field is a ring of diagonals,
    (ring, S+1, *batch, ...), and `at(ring, k)` is diagonal k's entry.  x
    keeps three diagonals (k, k + 1 and the k + 2 it writes), every other
    field two (k and k + 1)."""

    def __init__(self, coeffs, xb_s, xb_t, pb, qb, w, blowup_M):
        c = self.c = coeffs
        d, n, m = c.d, c.n, c.m
        S, T = self.S, self.T = w.shape[-3], w.shape[-2]
        batch = self.batch = np.broadcast_shapes(
            w.shape[:-3], xb_s.shape[:-2], xb_t.shape[:-2], pb.shape[:-2], qb.shape[:-2]
        )

        def line(b):
            """Boundary (..., k, c) as a node-major (k, *batch, c) view."""
            return np.moveaxis(np.broadcast_to(b, batch + b.shape[-2:]), -2, 0)

        def ring(*trail, size=2, dtype=np.float64):
            return np.zeros((size, S + 1) + batch + trail, dtype=dtype)

        self.lines = (line(xb_s), line(xb_t), line(pb), line(qb),
                      line(np.diff(xb_s, axis=-2)), line(np.diff(xb_t, axis=-2)))
        self.x = ring(d, size=3)
        self.p, self.q = ring(n), ring(n)
        self.u, self.u_inv = ring(d, d), ring(d, d)
        self.v, self.v_inv = ring(d, d), ring(d, d)
        # u* (v*) is driven only by b12 or b22 (b21 or b22)
        self.u_star = ring(d, d, d) if c.b12 is not None or c.b22 is not None else None
        self.v_star = ring(d, d, d) if c.b21 is not None or c.b22 is not None else None
        self.ds_x, self.dt_x = ring(d), ring(d)
        self.m_field = ring()
        self.M = blowup_M
        # at M = inf no node can freeze, so `blown` stays all False
        self.masked = not np.isinf(blowup_M)
        self.blown = ring(dtype=bool) if self.masked else None
        self.eye = np.eye(d)
        # cell (i, k - i) at [k, i]: a view, where a copy would cost w's size
        self.w = _by_diagonal(
            np.moveaxis(np.broadcast_to(w, batch + (S, T, m)), (-3, -2), (0, 1)))
        # diagonal 0: the corner x(0, 0) is taken from x_0t, which the corner
        # check holds equal to x_s0[0], and the flows start at I
        self.x[0, 0] = self.lines[1][0]
        for a in (self.u, self.u_inv, self.v, self.v_inv):
            a[0, 0] = self.eye
        self.lo = 0  # first slot of the current diagonal
        self.dead = None  # the current diagonal's frozen paths, (nodes, *batch)
        self.all_live = True  # no path dead on the current diagonal

        # the b12/b21 assignment (module docstring)
        self.s_side = _Side(
            1, self.p, self.u, self.u_inv, self.u_star, c.c1, c.c2,
            b11=c.b11,
            b21=_bind(c.b21, lambda f: lambda x, o, a: f(x, o, o, a)),
            b12=c.b12,
            b22=_bind(c.b22, lambda f: lambda x, o, a, a2: f(x, o, o, a, a2)),
        )
        self.t_side = _Side(
            0, self.q, self.v, self.v_inv, self.v_star, c.e1, c.e2,
            b11=_bind(c.b11, lambda f: lambda x, o, a: f(x, a, o)),
            b21=_bind(c.b12, lambda f: lambda x, o, a: f(x, a, o, o)),
            b12=_bind(c.b21, lambda f: lambda x, o, a, a2: f(x, a, a2, o)),
            b22=_bind(c.b22, lambda f: lambda x, o, a, a2: f(x, a, a2, o, o)),
        )

    @staticmethod
    def at(ring, k):
        return ring[k % len(ring)]

    def nodes(self, k):
        """Slots of diagonal k's nodes."""
        return slice(max(0, k - self.T), min(self.S, k) + 1)

    def s_nodes(self, k):
        """Slots of diagonal k's nodes with an s-step (i < S)."""
        return slice(max(0, k - self.T), min(self.S, k + 1))

    def t_nodes(self, k):
        """Slots of diagonal k's nodes with a t-step (j < T)."""
        return slice(max(0, k - self.T + 1), min(self.S, k) + 1)

    def feed(self, k):
        """Boundary data of diagonal k, and of x on diagonal k + 1."""
        at, S, T = self.at, self.S, self.T
        xs, xt, ps, qs, dsx, dtx = self.lines
        if k + 1 <= S:
            at(self.x, k + 1)[k + 1] = xs[k + 1]
        if k + 1 <= T:
            at(self.x, k + 1)[0] = xt[k + 1]
        if k <= T:
            at(self.p, k)[0] = ps[k]
        if k <= S:
            at(self.q, k)[k] = qs[k]
        if k < S:
            at(self.ds_x, k)[k] = dsx[k]
        if k < T:
            at(self.dt_x, k)[0] = dtx[k]

    def bad(self, k):
        """Non-finite in-domain flags of diagonal k's nodes, (nodes, *batch)."""
        at, every = self.at, self.nodes(k)
        finite = np.isfinite(at(self.m_field, k)[every])
        for a in (self.x, self.p, self.q):
            finite &= np.all(np.isfinite(at(a, k)[every]), axis=-1)
        if self.masked:
            return ~at(self.blown, k)[every] & ~finite
        return ~finite

    def diagonal(self, k):
        """From the nodes (i, k - i): s-steps (i < S), then t-steps (k - i < T),
        then the x update of cells (i < S, k - i < T)."""
        at, every = self.at, self.nodes(k)
        s, t = self.s_nodes(k), self.t_nodes(k)
        cell = slice(t.start, s.stop)
        lo = self.lo = every.start
        if self.masked:
            self.dead = at(self.blown, k)[every]
            self.all_live = not self.dead.any()
        # state at each node, zeroed on dead paths so that coefficient
        # callbacks never see frozen garbage
        xs = self._live(every, at(self.x, k)[every], 0.0)
        ps = self._live(every, at(self.p, k)[every], 0.0)
        qs = self._live(every, at(self.q, k)[every], 0.0)
        xi = self._live(s, at(self.ds_x, k)[s], 0.0)
        tau = self._live(t, at(self.dt_x, k)[t], 0.0)

        def on(a, sel):
            """a over diagonal k's nodes, at the slots sel."""
            return a[sel.start - lo:sel.stop - lo]

        self._transport(self.s_side, k, s, on(xs, s), on(ps, s), on(qs, s), xi)
        if k < self.S:
            # the s-axis determines v there: v_{s0} = u_{s0}, v*_{s0} = 0
            at(self.v, k + 1)[k + 1] = at(self.u, k + 1)[k + 1]
            at(self.v_inv, k + 1)[k + 1] = at(self.u_inv, k + 1)[k + 1]

        self._transport(self.t_side, k, t, on(xs, t), on(ps, t), on(qs, t), tau)
        if k < self.T:
            # the t-axis determines u there: u_{0t} = v_{0t}, u*_{0t} = 0
            at(self.u, k + 1)[0] = at(self.v, k + 1)[0]
            at(self.u_inv, k + 1)[0] = at(self.v_inv, k + 1)[0]

        if cell.start < cell.stop:
            self._advance_x(k, cell, on(xs, cell), on(ps, cell), on(qs, cell),
                            xi[cell.start - s.start:], tau[:cell.stop - t.start])

    def _live(self, sel, value, frozen):
        """value on live paths and frozen on dead ones, at the current
        diagonal's slots sel; value itself when the diagonal has no dead path
        (np.where would copy it unchanged)."""
        if self.all_live:
            return value
        dead = self.dead[sel.start - self.lo:sel.stop - self.lo]
        return np.where(dead.reshape(dead.shape + (1,) * (value.ndim - dead.ndim)), frozen, value)

    def _advance_x(self, k, cell, xs, ps, qs, xi, tau):
        """The cells with lower-left corners at diagonal k's slots cell: x on
        diagonal k + 2, the increments out of its nodes on k + 1."""
        c, at = self.c, self.at
        up = slice(cell.start + 1, cell.stop + 1)
        dw = np.ascontiguousarray(self.w[k, cell])  # contiguous, as the state arguments are
        delta = 0.0  # a scalar start adds +0.0 as a zeros array would
        if c.a1 is not None:
            delta = delta + c.a1(xs, ps, qs, dw)
        if c.a2 is not None:
            delta = delta + c.a2(xs, ps, qs, dw, dw)
        if c.b11 is not None:
            delta = delta + c.b11(xs, xi, tau)
        if c.b12 is not None:
            delta = delta + c.b12(xs, xi, tau, tau)
        if c.b21 is not None:
            delta = delta + c.b21(xs, xi, xi, tau)
        if c.b22 is not None:
            delta = delta + c.b22(xs, xi, xi, tau, tau)
        new_dsx = at(self.ds_x, k)[cell] + delta
        new_dtx = at(self.dt_x, k)[cell] + delta
        at(self.ds_x, k + 1)[cell] = self._live(cell, new_dsx, 0.0)
        at(self.dt_x, k + 1)[up] = self._live(cell, new_dtx, 0.0)
        at(self.x, k + 2)[up] = self._live(cell, at(self.x, k + 1)[cell] + new_dsx,
                                           at(self.x, k)[cell])

    def _transport(self, side, k, sel, xs, ps, qs, own):
        """side's companion and flow triple advance one step from diagonal
        k's slots sel onto diagonal k + 1; own is the state's increment along
        it.  Without b12 and b22 the second-order flow has no ring: it is
        never driven, and the solution keeps its zeros."""
        at = self.at
        to = slice(sel.start + side.di, sel.stop + side.di)
        dc = 0.0
        if side.k1 is not None:
            dc = dc + side.k1(xs, ps, qs, own)
        if side.k2 is not None:
            dc = dc + side.k2(xs, ps, qs, own, own)
        ck = at(side.comp, k)[sel]
        at(side.comp, k + 1)[to] = self._live(sel, ck + dc, ck)

        # G and the brace below enter the flows only through _matmul, which
        # adds +0.0, and through I - G, so each may start from its first
        # term as it is: the sign of a zero in them reaches no output.
        fk = at(side.flow, k)[sel]
        fik = at(side.flow_inv, k)[sel]
        x_b = xs[..., None, :]
        own_b = own[..., None, :]
        basis = np.broadcast_to(self.eye, fk.shape)
        G = None
        for fn in (side.b11, side.b21):
            if fn is not None:
                term = _on_columns(lambda col: fn(x_b, own_b, col), basis)
                G = term if G is None else G + term
        if G is None:
            G = np.broadcast_to(0.0, fk.shape)
        new_f = fk + _matmul(G, fk)
        new_fi = _matmul(fik, self.eye - G + _matmul(G, G))
        at(side.flow, k + 1)[to] = self._live(sel, new_f, fk)
        at(side.flow_inv, k + 1)[to] = self._live(sel, new_fi, fik)

        if side.flow_star is not None:
            cols = np.swapaxes(fk, -1, -2)
            c1 = cols[..., :, None, :]
            c2 = cols[..., None, :, :]
            x_bb = xs[..., None, None, :]
            own_bb = own[..., None, None, :]
            brace = None
            if side.b12 is not None:
                brace = side.b12(x_bb, own_bb, c1, c2)
                if side.b11 is not None:
                    brace = brace - side.b11(x_bb, own_bb, brace)
            if side.b22 is not None:
                term = side.b22(x_bb, own_bb, c1, c2)
                brace = term if brace is None else brace + term
            # brace[..., j, k, :] is the vector for columns (j, k); the update
            # is fik times each, one (d, d) by (d, d * d) product
            dd = fk.shape[-1]
            flat = brace.reshape(brace.shape[:-3] + (dd * dd, dd))
            prod = _matmul(fik, np.swapaxes(flat, -1, -2))
            star_k = at(side.flow_star, k)[sel]
            new_star = star_k + prod.reshape(prod.shape[:-1] + (dd, dd))
            at(side.flow_star, k + 1)[to] = self._live(sel, new_star, star_k)

    def complete(self, k):
        """Both u and v now exist on diagonal k: update m and, under a finite
        M only, the mask.  A node's running sup takes its s-predecessor
        (a - 1, b) first, if a > 0, then its t-predecessor (a, b - 1), if b > 0;
        they sit at slots a - 1 and a of diagonal k - 1.
        """
        at, every = self.at, self.nodes(k)
        lo, hi = every.start, every.stop
        s = slice(max(lo, 1), hi)   # a > 0
        t = slice(lo, min(hi, k))   # b > 0
        rs = slice(s.start - lo, s.stop - lo)
        rt = slice(t.start - lo, t.stop - lo)
        run = _tuple_norm(at(self.u, k)[every], at(self.u_inv, k)[every],
                          at(self.v, k)[every], at(self.v_inv, k)[every])
        m_prev = at(self.m_field, k - 1)
        run[rs] = np.maximum(run[rs], m_prev[s.start - 1:s.stop - 1])
        run[rt] = np.maximum(run[rt], m_prev[t])
        at(self.m_field, k)[every] = run
        if self.masked:
            blown = ~(run <= self.M)  # NaN norms count as blown
            b_prev = at(self.blown, k - 1)
            blown[rs] |= b_prev[s.start - 1:s.stop - 1]
            blown[rt] |= b_prev[t]
            at(self.blown, k)[every] = blown


def blowup_monitor(sol: HyperbolicSolution) -> BlowupSummary:
    """Largest in-domain running sup and the out-of-domain frontier nodes.

    The frontier is the set of minimal out-of-domain nodes (their strict
    predecessors are all in-domain); empty when the domain is the full grid.
    """
    mask = sol.domain_mask
    masked_m = np.where(mask, sol.m_field, -np.inf)
    max_m = np.max(masked_m, axis=(-2, -1))
    blown = ~mask
    pred_i_ok = np.ones_like(blown)
    pred_i_ok[..., 1:, :] = mask[..., :-1, :]
    pred_j_ok = np.ones_like(blown)
    pred_j_ok[..., :, 1:] = mask[..., :, :-1]
    return BlowupSummary(max_m=max_m, frontier=blown & pred_i_ok & pred_j_ok)


def zero_coefficients(d=1, n=1, m=1) -> CoefficientSet:
    return CoefficientSet(d=d, n=n, m=m)


def identity_noise_coefficients(d=1, n=1, m=None) -> CoefficientSet:
    """a1 = componentwise injection of dw, everything else zero."""
    m = d if m is None else m
    k = min(d, m)

    def a1(x, p, q, dw):
        out = np.zeros(np.broadcast_shapes(x.shape[:-1], dw.shape[:-1]) + (d,))
        out[..., :k] = dw[..., :k]
        return out

    return CoefficientSet(d=d, n=n, m=m, a1=a1)


def ou_coefficients(m=1) -> CoefficientSet:
    """State (z, clock): dd z = dw - (1/2) dsz dt(clock), dd clock = 0.

    With boundaries z_{s0} Brownian, z_{0t} = 0, clock_{s0} = s and
    clock_{0t} = t, the z components solve the OU equation and the clock is
    s + t, so its t-increment supplies the dt factor.
    """
    d = m + 1

    def a1(x, p, q, dw):
        out = np.zeros(np.broadcast_shapes(x.shape[:-1], dw.shape[:-1]) + (d,))
        out[..., :m] = dw
        return out

    def b11(x, xi, tau):
        out = np.zeros(np.broadcast_shapes(xi.shape[:-1], tau.shape[:-1]) + (d,))
        out[..., :m] = -0.5 * xi[..., :m] * tau[..., m:]
        return out

    return CoefficientSet(d=d, n=1, m=m, a1=a1, b11=b11)


def ou_system_boundaries(grid: Grid, z_s0: LineProcess) -> SystemBoundaries:
    """Boundary block for ou_coefficients: (z boundary, clock = s resp. t)."""
    zb = np.asarray(z_s0.values, dtype=np.float64)
    m = zb.shape[-1]
    batch = zb.shape[:-2]
    s_col = np.broadcast_to(grid.s_nodes()[:, None], batch + (grid.n_s + 1, 1))
    t_col = np.broadcast_to(grid.t_nodes()[:, None], batch + (grid.n_t + 1, 1))
    x_s0 = np.concatenate([zb, s_col], axis=-1)
    x_0t = np.concatenate([np.zeros(batch + (grid.n_t + 1, m)), t_col], axis=-1)
    return SystemBoundaries(
        x_s0=x_s0,
        x_0t=x_0t,
        p_0t=np.zeros(batch + (grid.n_t + 1, 1)),
        q_s0=np.zeros(batch + (grid.n_s + 1, 1)),
    )


def bounded_test_coefficients(lam=0.5, mu=1.0) -> CoefficientSet:
    """d = n = m = 1 system with uniformly bounded Lipschitz coefficients.

    dd x = dw + lam sin(x) dsx dtx;  d_s p = mu cos(x) dsx;  d_t q = mu cos(x) dtx.
    """

    def a1(x, p, q, dw):
        return dw + np.zeros_like(x)

    def b11(x, xi, tau):
        return lam * np.sin(x) * xi * tau

    def c1(x, p, q, xi):
        return mu * np.cos(x) * xi

    def e1(x, p, q, tau):
        return mu * np.cos(x) * tau

    return CoefficientSet(d=1, n=1, m=1, a1=a1, b11=b11, c1=c1, e1=e1)


def exponential_growth_coefficients(lam=1.0) -> CoefficientSet:
    """b11 = lam * xi * tau only: with x_s0 = s, x_0t = t the companion u
    satisfies u' = lam u along s, the scalar ODE blow-up oracle."""

    def b11(x, xi, tau):
        return lam * xi * tau

    return CoefficientSet(d=1, n=1, m=1, b11=b11)


COEFFICIENT_PRESETS = {
    "zero": zero_coefficients,
    "noise": identity_noise_coefficients,
    "ou": ou_coefficients,
    "bounded1d": bounded_test_coefficients,
    "expgrow": exponential_growth_coefficients,
}
