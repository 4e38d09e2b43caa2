"""State and linearization lines driven by OU rows, and the objects C, Gamma, R, L.

For each fixed t the state solves the Ito-form equation

    d_s x = X_i(x) d_s z^i + Xt0(x) ds,      Xt0 = X0 + (1/2) sum_i grad(X_i).X_i,

by explicit Euler with previsible evaluation; the derivative flow U uses the
matching corrected drift grad(Xt0), and U^{-1} follows its own linear
recursion (never a per-step matrix inversion).  Along a line the package
then forms

    C  = int U^{-1} X_i(x) (x) U^{-1} X_i(x) dr        (left endpoint)
    R  = - int U^{-1} X_i(x) o d z^i                   (midpoint weights)
    L  = U [ R + int U^{-1} {hess(X_i):Gamma} o dz^i
               + int U^{-1} {hess(X0):Gamma} dr
               + int U^{-1} grad(X_i).X_i dr ]
    Gamma = U C U^T   (exact, by construction)

with Gamma inside the L integrand frozen at the left endpoint.  All arrays
carry arbitrary leading batch axes; callbacks must broadcast over them.

One forward pass per line.  `_state_nodes` walks the Euler line node by
node, holding x_k, and for a flow line U_k and U_k^{-1}, as one slab of every
path; it calls `VectorFieldSet.euler_terms` once at x_k and steps to node
k + 1.  A state-only line, one whose reader needs x alone, steps without U,
U^{-1} or any hess X call.  `_LineIntegrals` is the step kernel of the
objects above: from node k's U, U^{-1} and callback values it adds one slab
to the running C and R and to L's three running sums.  R's midpoint weight
and that of hess(X_i):Gamma o dz need node k + 1, so each step's midpoint
terms are finished one node late.  The kernel is slab arithmetic only; the
walk passes it every callback value, and every sum adds one slab per step
in `lattice.cumsum0`'s order.

`fold_line` runs the two together, once per line, and keeps the last node
only, the one point of a line where the identities are read: a
`MalliavinState` of what its caller reads (`reads`), each array (..., d) or
(..., d, d).  So a block of the paired runners in `verify` holds slabs and
the driver, never a whole line.  Gamma = U C U^T is formed at the last node
only, unless L's sums, which read it at every node, are on.

A non-finite state raises NumericsError naming the lowest bad path, then its
first bad node; the walk keeps each path's first bad node as it goes.  The
driver's increments come from one helper, `_driver_increments`, once per
line.  Products of stacked small matrices go through `_matmul`, elementwise
in index order, never through a stacked `@`; it is the package's one such
product, and the hyperbolic sweep imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ModelError, NumericsError, ShapeError
from .lattice import LineProcess, Stream, normal_grid

_PROBE_POINTS = 8
_PROBE_H = 1e-4
_PROBE_RTOL = 1e-4


def _probe_points(d: int) -> np.ndarray:
    return normal_grid(0, 0, Stream.PROBE, _PROBE_POINTS, 1, d)[:, 0, :]


def _check_jacobian(fn, jac, x, h, name):
    d = x.shape[-1]
    for b in range(d):
        e = np.zeros(d)
        e[b] = h
        fd = (fn(x + e) - fn(x - e)) / (2 * h)
        declared = jac(x)[..., b]
        err = np.abs(fd - declared)
        tol = _PROBE_RTOL * np.maximum(1.0, np.abs(declared))
        if np.any(err > tol):
            raise ModelError(
                f"{name}: finite differences disagree with declared derivative "
                f"(max err {float(err.max()):.3e} in column {b})"
            )


@dataclass
class VectorFieldSet:
    """Vector fields X_0..X_m with first and second derivative callbacks.

    X[i]: (..., d) -> (..., d); grad_X[i] -> (..., d, d) with [a, b] = d_b X^a;
    hess_X[i] -> (..., d, d, d) with [a, b, c] = d_b d_c X^a (symmetric in b, c).
    Probing against central differences at construction is mandatory: a wrong
    Hessian silently corrupts L.
    """

    d: int
    m: int
    X: list
    grad_X: list
    hess_X: list

    def __post_init__(self):
        if len(self.X) != self.m + 1 or len(self.grad_X) != self.m + 1 or len(self.hess_X) != self.m + 1:
            raise ModelError(f"need m+1={self.m + 1} callbacks for X, grad_X, hess_X")
        pts = _probe_points(self.d)
        for i in range(self.m + 1):
            _check_jacobian(self.X[i], self.grad_X[i], pts, _PROBE_H, f"X_{i}")
            _check_jacobian(self.grad_X[i], self.hess_X[i], pts, _PROBE_H, f"grad X_{i}")

    def euler_terms(self, x, flow=True):
        """What one Euler step needs at x, each callback called at most once.

        Returns the diffusion X_1..X_m (..., d, m), its Jacobian (..., d, d, m),
        the Ito drift Xt0 = X0 + (1/2) sum_i grad(X_i).X_i, its Jacobian
        grad X0 + (1/2) sum_i (hess X_i : X_i + grad X_i grad X_i) and the
        list of hess X_1..X_m that Jacobian takes.  With flow=False, for a
        step of the state alone, the last three are None and no hess
        callback runs.
        """
        X = [f(x) for f in self.X]
        J = [f(x) for f in self.grad_X]
        drift = X[0]
        for i in range(1, self.m + 1):
            drift = drift + 0.5 * np.einsum("...ab,...b->...a", J[i], X[i])
        if not flow:
            return np.stack(X[1:], axis=-1), None, drift, None, None
        H = [self.hess_X[i](x) for i in range(1, self.m + 1)]
        drift_jac = J[0]
        for i in range(1, self.m + 1):
            drift_jac = drift_jac + 0.5 * (
                np.einsum("...abc,...c->...ab", H[i - 1], X[i])
                + np.einsum("...ac,...cb->...ab", J[i], J[i])
            )
        return np.stack(X[1:], axis=-1), np.stack(J[1:], axis=-1), drift, drift_jac, H


@dataclass
class Payoff:
    """Test function with declared gradient and Hessian (probed on build)."""

    f: Callable
    grad_f: Callable
    hess_f: Callable
    name: str = "payoff"
    d: int = 1

    def __post_init__(self):
        pts = _probe_points(self.d)
        _check_jacobian(
            lambda x: self.f(x)[..., None],
            lambda x: self.grad_f(x)[..., None, :],
            pts, _PROBE_H, self.name,
        )
        _check_jacobian(self.grad_f, self.hess_f, pts, _PROBE_H, f"grad {self.name}")


@dataclass
class MalliavinState:
    """The line objects at one node of a line, arrays with the line's batch
    axes in front, from `fold_line`.  An array the pass did not form is
    None; a reader that needs one raises ModelError naming it.
    """

    x: np.ndarray                       # (..., d)
    U: Optional[np.ndarray] = None      # (..., d, d)
    U_inv: Optional[np.ndarray] = None  # (..., d, d)
    C: Optional[np.ndarray] = None      # (..., d, d)
    Gamma: Optional[np.ndarray] = None  # (..., d, d)
    R: Optional[np.ndarray] = None      # (..., d)
    L: Optional[np.ndarray] = None      # (..., d)

    def _require(self, reader: str, *names):
        """Raise ModelError if any line object in `names`, which `reader`
        reads, was not formed: the `reads` entry of that name forms it."""
        missing = [name for name in names if getattr(self, name) is None]
        if missing:
            raise ModelError(
                f"{reader} reads {', '.join(missing)}, which this line state did not "
                f"form; pass {', '.join(map(repr, missing))} in fold_line's reads"
            )

    def uu_inv_drift(self) -> float:
        """Max |U U^{-1} - I|: tracked scheme error of the inverse recursion."""
        self._require("uu_inv_drift", "U", "U_inv")
        eye = np.eye(self.U.shape[-1])
        return float(np.max(np.abs(_matmul(self.U, self.U_inv) - eye)))


def _driver_increments(vf: VectorFieldSet, z_line, ds):
    """(dz, ds): the driver's increments, step-major (n, ..., m) and
    contiguous, from one strided subtraction.  z_line is a `LineProcess`,
    or a bare (..., n+1, m) array, which needs ds."""
    if isinstance(z_line, LineProcess):
        z, step = np.asarray(z_line.values, dtype=np.float64), z_line.step
    else:
        z, step = np.asarray(z_line, dtype=np.float64), None
    if ds is None:
        ds = step
    if ds is None:
        raise ShapeError("ds must be given when z_line is a bare array")
    if z.shape[-1] != vf.m:
        raise ShapeError(f"driving path has {z.shape[-1]} components, model has m={vf.m}")
    zs = np.moveaxis(z, -2, 0)
    dz = np.empty((zs.shape[0] - 1,) + zs.shape[1:])
    np.subtract(zs[1:], zs[:-1], out=dz)
    return dz, ds


def _matmul(a, b):
    """a @ b over stacks of small matrices, (..., p, q) times (..., q, r).

    The q products of each entry are added in index order onto +0.0, so a
    -0.0 product gives +0.0 as `@` and `np.einsum` do; at q = 1 this is the
    one product `@` makes.  Elementwise over the whole stack, it costs what
    one product does, where a stacked `@` calls BLAS once per matrix, and
    its bits do not depend on the BLAS kernel numpy would pick.
    """
    out = a[..., :, :1] * b[..., :1, :]
    out += 0.0
    for j in range(1, a.shape[-1]):
        out += a[..., :, j:j + 1] * b[..., j:j + 1, :]
    return out


def _matvec(a, v):
    """_matmul of (..., p, q) and a stack of vectors (..., q)."""
    return _matmul(a, v[..., None])[..., 0]


def _initial_state(vf: VectorFieldSet, x0):
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim == 0:
        x0 = x0[None]
    if x0.shape[-1] != vf.d:
        raise ShapeError(f"x0 has {x0.shape[-1]} components, model has d={vf.d}")
    return x0


def _state_nodes(vf: VectorFieldSet, dz, x0, ds, flow):
    """Walk the Euler line from x0: yield (x, U, U_inv, terms) at each node
    k = 0..n, one slab of every path, with terms = `euler_terms` at x (None
    at the last node, where no step follows).  U and U_inv are None unless
    `flow`.  The yielded arrays are fresh at every node, never written again.

    After the last node, a non-finite x raises NumericsError naming the
    lowest bad path (a tuple of batch indices), then its first bad node.
    """
    n, d = len(dz), vf.d
    batch = np.broadcast_shapes(dz.shape[1:-1], x0.shape[:-1])
    x = np.empty(batch + (d,))
    x[...] = x0
    eye = np.eye(d)
    U = U_inv = None
    if flow:
        U = np.empty(batch + (d, d))
        U[...] = eye
        U_inv = U.copy()
    first_bad = None  # per path, its first node with a non-finite x
    for k in range(n + 1):
        if not np.all(np.isfinite(x)):
            if first_bad is None:
                first_bad = np.full(batch, n + 1)
            bad = ~np.all(np.isfinite(x), axis=-1) & (first_bad > n)
            first_bad[bad] = k
        terms = vf.euler_terms(x, flow) if k < n else None
        yield x, U, U_inv, terms
        if terms is None:
            break
        diff, diff_jac, drift, drift_jac, _ = terms
        x_next = x + np.einsum("...am,...m->...a", diff, dz[k]) + drift * ds
        if flow:
            A = np.einsum("...abm,...m->...ab", diff_jac, dz[k]) + drift_jac * ds
            U, U_inv = U + _matmul(A, U), _matmul(U_inv, eye - A + _matmul(A, A))
        x = x_next
    if first_bad is not None:
        p = int(np.flatnonzero(first_bad <= n)[0])
        raise NumericsError(
            "non-finite state along the line",
            cell=(int(first_bad.flat[p]),),
            path=tuple(int(i) for i in np.unravel_index(p, batch)),
        )


def _uinv_hess(uinv, h):
    """U^{-1} h for one slab: (..., d, d) times (..., d, d, d) -> (..., d, d, d)."""
    d = h.shape[-1]
    return _matmul(uinv, h.reshape(h.shape[:-2] + (d * d,))).reshape(h.shape)


def _gamma_dot(h, gamma):
    """sum_cd h[..., a, c, d] gamma[..., c, d] -> (..., a), c major."""
    d = gamma.shape[-1]
    flat = gamma.reshape(gamma.shape[:-2] + (1, 1, d * d))
    return _matmul(flat, h.reshape(h.shape[:-2] + (d * d, 1)))[..., 0, 0]


class _LineIntegrals:
    """The step kernel: C, R and, with `l_sums`, L's three running sums of
    one line, advanced one node (one slab of every path) per `visit`.

    After visiting node k it holds C_k (`C`), R_k = -P_k (`P` is the running
    dz integral), with `l_sums` Gamma_k (`Gamma`) and the hess(X_i) o dz,
    hess(X0) dr and bracket integrals up to node k (`sums`).  Each of these
    adds one slab per step, the first one copied, as `lattice.cumsum0` does.
    Step k's left-endpoint terms are formed at node k and its midpoint terms
    at node k + 1.
    """

    def __init__(self, dz, ds, l_sums=False):
        self.dz, self.ds, self.l_sums = dz, ds, l_sums
        self.k = -1

    def gamma(self, U):
        """Gamma_k = U_k C_k U_k^T at the node last visited, with U = U_k."""
        return np.einsum("...ab,...bc,...dc->...ad", U, self.C, U)

    def visit(self, U, U_inv, diff, grad=None, hess=None, hess0=None):
        """Advance to the next node k, given U_k, U_k^{-1} and the callbacks
        at x_k: X_1..X_m stacked as diff (..., d, m) and, for L's sums, grad
        X_1..X_m stacked as grad (..., d, d, m), hess X_1..X_m as a list and
        hess X_0; grad and hess0 are not read at the last node."""
        self.k += 1
        k, dz, ds = self.k, self.dz, self.ds
        g = np.einsum("...ab,...bm->...am", U_inv, diff)
        uinv_h = [_uinv_hess(U_inv, h) for h in hess] if self.l_sums else None
        if k == 0:
            d = g.shape[-2]
            self.C = np.zeros(g.shape[:-2] + (d, d))
            self.P = np.zeros(np.broadcast_shapes(g.shape[:-2], dz.shape[1:-1]) + (d,))
            zero = np.zeros(U.shape[:-1])
            self.sums = (zero, zero, zero)
        else:
            # step k - 1: R's midpoint weight needs g at node k
            t = np.einsum("...am,...m->...a", 0.5 * (self.g + g), dz[k - 1])
            self.P = t if k == 1 else self.P + t
            self.C = self.c if k == 1 else self.C + self.c
            if self.l_sums:
                # hess(X_i):Gamma o dz, Gamma frozen at the left endpoint
                mid = np.stack([0.5 * (left + _gamma_dot(right, self.Gamma))
                                for left, right in zip(self.left, uinv_h)], axis=-1)
                terms = (_matvec(mid, dz[k - 1]),) + self.dr_terms
                self.sums = terms if k == 1 else tuple(s + t for s, t in zip(self.sums, terms))
        if self.l_sums:
            self.Gamma = self.gamma(U)
        if k == len(dz):
            return
        # step k's left-endpoint terms
        self.g = g
        self.c = np.einsum("...am,...bm->...ab", g, g) * ds
        if self.l_sums:
            self.left = [_gamma_dot(h, self.Gamma) for h in uinv_h]
            jx = _matvec(grad[..., 0], diff[..., 0])
            for i in range(1, diff.shape[-1]):
                jx = jx + _matvec(grad[..., i], diff[..., i])
            self.dr_terms = (_gamma_dot(_uinv_hess(U_inv, hess0), self.Gamma) * ds,
                             _matvec(U_inv, jx) * ds)

    def R(self):
        return -self.P

    def L(self, U, fault=None):
        """L_k at the node last visited, with U = U_k; fault="flip-r-sign"
        negates R inside it."""
        r = self.P if fault == "flip-r-sign" else self.R()
        return _matvec(U, r + self.sums[0] + self.sums[1] + self.sums[2])


def _check_fault(fault):
    if fault not in (None, "flip-r-sign"):
        raise ModelError(f"unknown fault {fault!r}")


# the line objects, in `MalliavinState` field order
_OBJECTS = ("x", "U", "U_inv", "C", "Gamma", "R", "L")


def fold_line(vf: VectorFieldSet, z_line, x0, ds: float = None, reads=("x",),
              fault: Optional[str] = None) -> MalliavinState:
    """The objects named in `reads` at the last node of one line, from the one
    forward pass, which keeps one slab of each running quantity.

    z_line: driving path values (..., n+1, m), a `LineProcess` or a bare
    array with ds (an OU row at fixed t, or the boundary motion itself at
    t=0).  reads: any of "x", "U", "U_inv", "C", "Gamma", "R", "L"; they set
    the pass.  A line read for x alone takes the state-only step (no U,
    U^{-1} or hess X call); a read of C, Gamma, R or L runs the kernel,
    which forms C and R; L's sums, and hess X_0, run only when L is read,
    and then give Gamma at every node.  Otherwise Gamma, if read, is formed
    at the last node only.  An array the pass did not form is None.

    fault="flip-r-sign" negates the R term inside L only; it exists so the
    verification suite can demonstrate that a wrong formula is detected.
    """
    reads = set(reads)
    if not reads <= set(_OBJECTS):
        raise ModelError(f"unknown line objects {sorted(reads - set(_OBJECTS))}")
    _check_fault(fault)
    dz, ds = _driver_increments(vf, z_line, ds)
    x0 = _initial_state(vf, x0)
    m = vf.m
    l_sums = "L" in reads
    run = _LineIntegrals(dz, ds, l_sums) if reads & {"C", "Gamma", "R", "L"} else None
    for x, U, U_inv, terms in _state_nodes(vf, dz, x0, ds, bool(reads - {"x"})):
        if run is None:
            continue
        if terms is None:
            # the last node: only the midpoint weights need callbacks there
            diff = np.stack([vf.X[i](x) for i in range(1, m + 1)], axis=-1)
            hess = [vf.hess_X[i](x) for i in range(1, m + 1)] if l_sums else None
            run.visit(U, U_inv, diff, hess=hess)
        else:
            diff, diff_jac, _, _, hess = terms
            run.visit(U, U_inv, diff, diff_jac, hess, vf.hess_X[0](x) if l_sums else None)
    state = MalliavinState(x, U, U_inv)
    if run is not None:
        state.C, state.R = run.C, run.R()
        if l_sums:
            state.Gamma, state.L = run.Gamma, run.L(U, fault)
        elif "Gamma" in reads:
            state.Gamma = run.gamma(U)
    return state


def apply_L(payoff: Payoff, state: MalliavinState) -> np.ndarray:
    """The operator value L^i d_i g + Gamma^{ij} d_i d_j g at the state's node."""
    state._require("apply_L", "x", "L", "Gamma")
    term1 = np.einsum("...a,...a->...", state.L, payoff.grad_f(state.x))
    term2 = np.einsum("...ab,...ab->...", state.Gamma, payoff.hess_f(state.x))
    return term1 + term2
