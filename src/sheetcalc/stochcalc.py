"""Discrete one- and two-parameter stochastic integrals and calculus rules.

Conventions, fixed across the package:

  * Ito-type integrands are evaluated at the lower-left corner of the cell
    (the lattice reading of previsibility); Stratonovich-type use the
    midpoint average of the two endpoints.
  * In the mixed integral (zeta4) the s-increment of x runs along the
    cell's lower edge and the t-increment of y along its left edge.
  * Two-parameter partial sums use an inclusion-exclusion recurrence whose
    per-cell expression is symmetric under transposition up to commuting
    one addition, so evaluating on the transposed operands gives
    bit-identical results: the discrete form of "the value of the iterated
    integral is unchanged when the order of integration is reversed".
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ConfigurationError, ShapeError
from .lattice import LineProcess, cumsum0
from .sheet import SheetField

class IntegralKind(Enum):
    ZETA1 = 1
    ZETA2 = 2
    ZETA3 = 3
    ZETA4 = 4
    ZETA5 = 5
    ZETA6 = 6


def field_component(field: SheetField, c: int) -> SheetField:
    return SheetField(field.values[..., c : c + 1], field.grid)


def quantize_values(values, quantum=2.0**-16, bound=8.0):
    """Snap values to a dyadic lattice and clip their range.

    On such inputs every sum, difference and pairwise product appearing in
    the discrete integrals is exactly representable, so identities that hold
    in real arithmetic (telescoping, the Ito-Stratonovich bridge) hold bit
    for bit; with raw doubles they hold only to rounding error.
    """
    v = np.clip(np.asarray(values, dtype=np.float64), -bound, bound)
    return np.round(v / quantum) * quantum


def _check_lines(a: LineProcess, x: LineProcess):
    if a.values.shape[-2] != x.values.shape[-2]:
        raise ShapeError(
            f"line lengths differ: {a.values.shape[-2]} vs {x.values.shape[-2]}"
        )


def integral_zeta1(a: LineProcess, x: LineProcess, rule: str = "ito") -> LineProcess:
    """Line integral int a d x as partial sums of weight * increment."""
    _check_lines(a, x)
    av = a.values
    dx = np.diff(x.values, axis=-2)
    if rule == "ito":
        w = av[..., :-1, :]
    elif rule == "stratonovich":
        w = 0.5 * (av[..., :-1, :] + av[..., 1:, :])
    else:
        raise ConfigurationError(f"unknown rule {rule!r}")
    return LineProcess(cumsum0(w * dx, axis=-2), x.step)


def integral_zeta2(x: LineProcess, x2: LineProcess, weight: LineProcess = None) -> LineProcess:
    """Discrete covariation: partial sums of d x * d x2 (optionally weighted)."""
    _check_lines(x, x2)
    terms = np.diff(x.values, axis=-2) * np.diff(x2.values, axis=-2)
    if weight is not None:
        _check_lines(weight, x)
        terms = weight.values[..., :-1, :] * terms
    return LineProcess(cumsum0(terms, axis=-2), x.step)


def prefix2d(terms: np.ndarray, sweep: str = "s-major") -> np.ndarray:
    """Double partial sums of per-cell terms, (..., n_s, n_t) -> (..., +1, +1).

    Uses P[i+1,j+1] = ((P[i,j+1] + P[i+1,j]) - P[i,j]) + term[i,j], whose
    value at a node is independent of the sweep order; both sweeps are kept
    because the solver contract lets callers cross-check them.
    """
    n_i, n_j = terms.shape[-2:]
    if sweep == "s-major":
        order = ((i, j) for i in range(n_i) for j in range(n_j))
    elif sweep == "t-major":
        order = ((i, j) for j in range(n_j) for i in range(n_i))
    else:
        raise ConfigurationError(f"unknown sweep {sweep!r}")
    out = np.zeros(terms.shape[:-2] + (n_i + 1, n_j + 1))
    for i, j in order:
        out[..., i + 1, j + 1] = (
            (out[..., i, j + 1] + out[..., i + 1, j]) - out[..., i, j]
        ) + terms[..., i, j]
    return out


def _double_increments(field: SheetField) -> np.ndarray:
    return np.diff(np.diff(field.values, axis=-3), axis=-2)


def _edge_s_increments(field: SheetField) -> np.ndarray:
    """d_s x along each cell's lower edge: x[i+1,j] - x[i,j]."""
    return np.diff(field.values[..., :, :-1, :], axis=-3)


def _edge_t_increments(field: SheetField) -> np.ndarray:
    """d_t y along each cell's left edge: y[i,j+1] - y[i,j]."""
    return np.diff(field.values[..., :-1, :, :], axis=-2)


def cell_terms(kind: IntegralKind, a: SheetField = None, x: SheetField = None,
               y: SheetField = None) -> np.ndarray:
    """Per-cell summands of the requested two-parameter integral."""
    if kind == IntegralKind.ZETA3:
        if a is None or x is None:
            raise ShapeError("zeta3 needs integrand a and integrator x")
        return a.values[..., :-1, :-1, :] * _double_increments(x)
    if kind == IntegralKind.ZETA4:
        if x is None or y is None:
            raise ShapeError("zeta4 needs both x and y")
        return _edge_s_increments(x) * _edge_t_increments(y)
    if kind == IntegralKind.ZETA5:
        if x is None or y is None:
            raise ShapeError("zeta5 needs both x and y")
        return _edge_s_increments(x) * _double_increments(y)
    if kind == IntegralKind.ZETA6:
        if x is None or y is None:
            raise ShapeError("zeta6 needs both x and y")
        return _double_increments(x) * _double_increments(y)
    raise ShapeError(f"{kind} is not a two-parameter integral")


def integral_two_param(kind: IntegralKind, a: SheetField = None, x: SheetField = None,
                       y: SheetField = None, sweep: str = "s-major") -> SheetField:
    """Two-parameter integral as a field of partial double sums."""
    terms = cell_terms(kind, a, x, y)
    grid = (x or y).grid
    stacked = np.moveaxis(terms, -1, 0)
    out = np.moveaxis(prefix2d(stacked, sweep=sweep), 0, -1)
    return SheetField(out, grid)


def check_mixed_annihilation(x: SheetField, w: SheetField, component: int = 0) -> np.ndarray:
    """Sum of d_s x * dd w^component over the whole grid, per batch entry.

    The two-parameter rule says this product differential vanishes; on the
    lattice its L2 norm over paths is O(sqrt(ds*dt)).
    """
    if x.dim != 1:
        raise ShapeError("pass a single-component x (use field_component)")
    dsx = _edge_s_increments(x)[..., 0]
    ddw = _double_increments(field_component(w, component))[..., 0]
    return np.sum(dsx * ddw, axis=(-2, -1))


def bdg_martingale(a: SheetField, incs, component: int = 0) -> np.ndarray:
    """II a ddw per batch entry: a at each cell's lower-left corner times
    the cell's double increment of component `component`, summed."""
    a_ll = a.values[..., :-1, :-1, 0]
    return np.sum(a_ll * incs.values[..., component], axis=(-2, -1))


def bdg_quadratic_variation(a: SheetField) -> np.ndarray:
    """II a^2 ds dt per batch entry of a (one value for a deterministic a)."""
    a_ll = a.values[..., :-1, :-1, 0]
    return np.sum(a_ll**2, axis=(-2, -1)) * (a.grid.ds * a.grid.dt)


def bdg_moments(mart, qv, alpha: float):
    """(E|mart|^alpha, E|qv|^(alpha/2)), each mean over all its entries."""
    if alpha < 2:
        raise ConfigurationError(f"alpha must be >= 2, got {alpha}")
    lhs = float(np.mean(np.abs(mart) ** alpha))
    rhs = float(np.mean(np.abs(qv) ** (alpha / 2.0)))
    return lhs, rhs
