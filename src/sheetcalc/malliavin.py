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

Line state is stored step-major, (n+1, ..., d): each Euler step and each
running integral reads and writes one contiguous slab of all paths.  The
arrays handed out keep the batch-first shapes (..., n+1, d) as
`np.moveaxis` views, so they are in general not contiguous.  The running
integrals add one step at a time (`_partial_sums`), in `np.cumsum`'s order.
Products of stacked small matrices go through `_matmul`, elementwise in
index order, never through a stacked `@`.

`VectorFieldSet.euler_terms` evaluates everything one Euler step needs with
each callback called once.  `compute_malliavin_line` evaluates X_1..X_m once
per line; L, and with it every grad X and hess X callback it needs, is
computed once on the first read of `MalliavinState.L`, so a caller that
reads only U, C, R or Gamma never pays for it.  That read calls each of
those callbacks once over the whole line, then forms L's contractions and
running integrals one step slab at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ModelError, NumericsError, ShapeError
from .lattice import Stream, normal_grid

_PROBE_POINTS = 8
_PROBE_H = 1e-4
_PROBE_RTOL = 1e-4


def _probe_points(d: int, scale: float, seed: int = 0) -> np.ndarray:
    z = normal_grid(seed, 0, Stream.PROBE, _PROBE_POINTS, 1, d)[:, 0, :]
    return scale * z


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
    probe_scale: float = 1.0

    def __post_init__(self):
        if len(self.X) != self.m + 1 or len(self.grad_X) != self.m + 1 or len(self.hess_X) != self.m + 1:
            raise ModelError(f"need m+1={self.m + 1} callbacks for X, grad_X, hess_X")
        pts = _probe_points(self.d, self.probe_scale)
        h = _PROBE_H * self.probe_scale
        for i in range(self.m + 1):
            _check_jacobian(self.X[i], self.grad_X[i], pts, h, f"X_{i}")
            _check_jacobian(self.grad_X[i], self.hess_X[i], pts, h, f"grad X_{i}")

    def euler_terms(self, x):
        """What one Euler step needs at x, each callback called at most once.

        Returns the diffusion X_1..X_m (..., d, m), its Jacobian (..., d, d, m),
        the Ito drift Xt0 = X0 + (1/2) sum_i grad(X_i).X_i and its Jacobian
        grad X0 + (1/2) sum_i (hess X_i : X_i + grad X_i grad X_i).
        """
        X = [f(x) for f in self.X]
        J = [f(x) for f in self.grad_X]
        drift, drift_jac = X[0], J[0]
        for i in range(1, self.m + 1):
            drift = drift + 0.5 * np.einsum("...ab,...b->...a", J[i], X[i])
            drift_jac = drift_jac + 0.5 * (
                np.einsum("...abc,...c->...ab", self.hess_X[i](x), X[i])
                + np.einsum("...ac,...cb->...ab", J[i], J[i])
            )
        return np.stack(X[1:], axis=-1), np.stack(J[1:], axis=-1), drift, drift_jac


@dataclass
class Payoff:
    """Test function with declared gradient and Hessian (probed on build)."""

    f: Callable
    grad_f: Callable
    hess_f: Callable
    name: str = "payoff"
    d: int = 1
    probe_scale: float = 1.0

    def __post_init__(self):
        pts = _probe_points(self.d, self.probe_scale)
        h = _PROBE_H * self.probe_scale
        _check_jacobian(
            lambda x: self.f(x)[..., None],
            lambda x: self.grad_f(x)[..., None, :],
            pts, h, self.name,
        )
        _check_jacobian(self.grad_f, self.hess_f, pts, h, f"grad {self.name}")


@dataclass
class MalliavinState:
    """Per-line trajectories over the s-index (arrays share leading batch axes).

    The arrays are batch-first views over step-major storage (the s-index
    outermost in memory), so with a batch axis they are not contiguous.  L is
    computed on its first read, from inputs that `compute_malliavin_line`
    leaves here, and kept.
    """

    x: np.ndarray       # (..., n+1, d)
    U: np.ndarray       # (..., n+1, d, d)
    U_inv: np.ndarray   # (..., n+1, d, d)
    C: np.ndarray       # (..., n+1, d, d)
    Gamma: np.ndarray   # (..., n+1, d, d)
    R: np.ndarray       # (..., n+1, d)
    ds: float
    _L: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _make_L: Optional[Callable] = field(default=None, init=False, repr=False)

    @property
    def L(self) -> np.ndarray:
        """(..., n+1, d), computed on first read and kept."""
        if self._L is None:
            self._L, self._make_L = self._make_L(), None
        return self._L

    def uu_inv_drift(self) -> float:
        """Max |U U^{-1} - I|: tracked scheme error of the inverse recursion."""
        eye = np.eye(self.U.shape[-1])
        return float(np.max(np.abs(_matmul(self.U, self.U_inv) - eye)))


def _line_values(z_line):
    if hasattr(z_line, "values"):
        return np.asarray(z_line.values, dtype=np.float64), z_line.step
    return np.asarray(z_line, dtype=np.float64), None


def _step_major(z):
    """A contiguous copy of a (..., n+1, m) line with the s-index first."""
    return np.ascontiguousarray(np.moveaxis(z, -2, 0))


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


def _partial_sums(terms):
    """Partial sums over the leading (step) axis with a zero slab first.

    One add per step, each on a contiguous slab, in the order `np.cumsum`
    adds, so it equals `lattice.cumsum0` along that axis bit for bit.
    """
    out = np.zeros((terms.shape[0] + 1,) + terms.shape[1:])
    out[1:2] = terms[:1]
    for k in range(1, terms.shape[0]):
        np.add(out[k], terms[k], out=out[k + 1])
    return out


def solve_state_line(vf: VectorFieldSet, z_line, x0, ds: float = None):
    """Euler sweep of the state, derivative flow and its inverse along one line.

    z_line: driving path values (..., n+1, m) (an OU row at fixed t, or the
    boundary motion itself at t=0).  Returns (x, U, U_inv) at all nodes, as
    batch-first views of step-major arrays.
    """
    z, step = _line_values(z_line)
    if ds is None:
        ds = step
    if ds is None:
        raise ShapeError("ds must be given when z_line is a bare array")
    if z.shape[-1] != vf.m:
        raise ShapeError(f"driving path has {z.shape[-1]} components, model has m={vf.m}")
    n = z.shape[-2] - 1
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim == 0:
        x0 = x0[None]
    d = vf.d
    if x0.shape[-1] != d:
        raise ShapeError(f"x0 has {x0.shape[-1]} components, model has d={d}")
    batch = np.broadcast_shapes(z.shape[:-2], x0.shape[:-1])
    zs = _step_major(z)
    x = np.zeros((n + 1,) + batch + (d,))
    U = np.zeros((n + 1,) + batch + (d, d))
    U_inv = np.zeros((n + 1,) + batch + (d, d))
    eye = np.eye(d)
    x[0] = x0
    U[0] = eye
    U_inv[0] = eye
    for k in range(n):
        xk = x[k]
        dz = zs[k + 1] - zs[k]
        diff, diff_jac, drift, drift_jac = vf.euler_terms(xk)
        x[k + 1] = xk + np.einsum("...am,...m->...a", diff, dz) + drift * ds
        M = np.einsum("...abm,...m->...ab", diff_jac, dz)
        A = M + drift_jac * ds
        U[k + 1] = U[k] + _matmul(A, U[k])
        U_inv[k + 1] = _matmul(U_inv[k], eye - A + _matmul(A, A))
    x = np.moveaxis(x, 0, -2)
    if not np.all(np.isfinite(x[..., n, :])):
        # lowest path first, then its first bad node
        bad = np.argwhere(~np.isfinite(x))
        raise NumericsError(
            "non-finite state along the line",
            cell=(int(bad[0][-2]),),
            path=tuple(int(v) for v in bad[0][:-2]),
        )
    return x, np.moveaxis(U, 0, -3), np.moveaxis(U_inv, 0, -3)


def _uinv_hess(uinv, h):
    """U^{-1} h for one slab: (..., d, d) times (..., d, d, d) -> (..., d, d, d)."""
    d = h.shape[-1]
    return _matmul(uinv, h.reshape(h.shape[:-2] + (d * d,))).reshape(h.shape)


def _gamma_dot(h, gamma):
    """sum_cd h[..., a, c, d] gamma[..., c, d] -> (..., a), c major."""
    d = gamma.shape[-1]
    flat = gamma.reshape(gamma.shape[:-2] + (1, 1, d * d))
    return _matmul(flat, h.reshape(h.shape[:-2] + (d * d, 1)))[..., 0, 0]


def compute_malliavin_line(
    vf: VectorFieldSet, x, U, U_inv, z_line, ds: float = None, fault: Optional[str] = None
) -> MalliavinState:
    """C, Gamma, R along one line from a solved (x, U, U^-1) trajectory, and
    the inputs of L, which the state computes on its first read.

    fault="flip-r-sign" negates the R term inside L only; it exists so the
    verification suite can demonstrate that a wrong formula is detected.
    """
    z, step = _line_values(z_line)
    if ds is None:
        ds = step
    if fault not in (None, "flip-r-sign"):
        raise ModelError(f"unknown fault {fault!r}")
    # step-major views: free on solve_state_line's output
    xs = np.moveaxis(x, -2, 0)
    Us = np.moveaxis(U, -3, 0)
    Uis = np.moveaxis(U_inv, -3, 0)
    dz = np.diff(_step_major(z), axis=0)
    # a driver with fewer batch axes than the state lines up behind the s-index
    dz = dz.reshape(dz.shape[:1] + (1,) * (xs.ndim - dz.ndim) + dz.shape[1:])
    X = [vf.X[i](xs) for i in range(1, vf.m + 1)]
    # g[k, ..., :, i] = U_k^{-1} X_{i+1}(x_k)
    g = np.einsum("...ab,...bm->...am", Uis, np.stack(X, axis=-1))
    g_l = g[:-1]
    C = _partial_sums(np.einsum("...am,...bm->...ab", g_l, g_l) * ds)
    Gamma = np.einsum("...ab,...bc,...dc->...ad", Us, C, Us)
    g_mid = 0.5 * (g_l + g[1:])
    R = -_partial_sums(np.einsum("...am,...m->...a", g_mid, dz))

    def make_L():
        # hess(X_i):Gamma with Gamma frozen at the left endpoint; midpoint
        # weights on the dz contraction, left endpoint on the dr terms.  Each
        # callback runs once over the line; everything else is one step slab
        # (*batch, ...) at a time, the integrals added in _partial_sums' order.
        hess = [f(xs) for f in vf.hess_X]
        grad = [vf.grad_X[i](xs) for i in range(1, vf.m + 1)]
        r_in_l = -R if fault == "flip-r-sign" else R
        L = np.empty(xs.shape)
        # the hess(X_i) o dz, hess(X0) dr and bracket integrals at node k
        zero = np.zeros(xs.shape[1:])
        sums = (zero, zero, zero)
        uinv_h = [_uinv_hess(Uis[0], h[0]) for h in hess[1:]]
        for k in range(len(xs)):
            L[k] = _matvec(Us[k], r_in_l[k] + sums[0] + sums[1] + sums[2])
            if k == len(dz):
                break
            uinv_h_next = [_uinv_hess(Uis[k + 1], h[k + 1]) for h in hess[1:]]
            mid = np.stack([0.5 * (_gamma_dot(left, Gamma[k]) + _gamma_dot(right, Gamma[k]))
                            for left, right in zip(uinv_h, uinv_h_next)], axis=-1)
            jx = _matvec(grad[0][k], X[0][k])
            for i in range(1, vf.m):
                jx = jx + _matvec(grad[i][k], X[i][k])
            terms = (_matvec(mid, dz[k]),
                     _gamma_dot(_uinv_hess(Uis[k], hess[0][k]), Gamma[k]) * ds,
                     _matvec(Uis[k], jx) * ds)
            sums = terms if k == 0 else tuple(s + t for s, t in zip(sums, terms))
            uinv_h = uinv_h_next
        return np.moveaxis(L, 0, -2)

    state = MalliavinState(
        x=x, U=U, U_inv=U_inv, C=np.moveaxis(C, 0, -3),
        Gamma=np.moveaxis(Gamma, 0, -3), R=np.moveaxis(R, 0, -2), ds=ds,
    )
    state._make_L = make_L
    return state


def apply_L(payoff: Payoff, state: MalliavinState, s_index: int) -> np.ndarray:
    """The operator value L^i d_i g + Gamma^{ij} d_i d_j g at one node."""
    xk = state.x[..., s_index, :]
    term1 = np.einsum("...a,...a->...", state.L[..., s_index, :], payoff.grad_f(xk))
    term2 = np.einsum("...ab,...ab->...", state.Gamma[..., s_index, :, :], payoff.hess_f(xk))
    return term1 + term2
