"""Model and payoff definitions: one polynomial core and named presets.

A vector field is declared as a table of monomials per output component,
``[[coef, [p_1, ..., p_d]], ...]``.  The fields X_0..X_m, their gradients
and Hessians, and the payoff presets (one-term tables) all go through one
evaluator, `_evaluate`.  The gradient table is derived from each table once,
when the model is built (d/dx_b of (coef, p) is (coef * p_b, p - e_b)), and
the Hessian table is the derivative of the gradient table, so declared
derivatives are exact by construction (they still go through the mandatory
finite-difference probe).  Each output entry is summed term by term in table
order, never through a dense contraction that would reorder the sums.
`_normalize_table` is the only place a table is checked and converted, so a
malformed table raises ConfigurationError.  Arbitrary callbacks remain a
library-level API via VectorFieldSet itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .malliavin import Payoff, VectorFieldSet


def _mono(x, powers):
    """The monomial prod_k x_k^{p_k}; a constant when every power is 0."""
    out = None
    for k, p in enumerate(powers):
        if p:
            factor = x[..., k] if p == 1 else x[..., k] ** p
            out = factor if out is None else out * factor
    return np.ones(x.shape[:-1]) if out is None else out


def _evaluate(x, entries, shape):
    """The one polynomial evaluator: each entry's terms summed in table order.

    `entries` lists the output entries in C order, each a list of
    (coef, powers) terms; the result has shape x.shape[:-1] + shape.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape[:-1] + (len(entries),))
    for e, terms in enumerate(entries):
        for coef, powers in terms:
            out[..., e] += coef * _mono(x, powers)
    return out.reshape(x.shape[:-1] + shape)


def _derivative(entries, d):
    """Entries of d/dx_b for every entry and b, entry-major.

    d/dx_b of (coef, p) is (coef * p_b, p - e_b); terms with p_b = 0 drop out.
    """
    return [
        [(coef * p[b], p[:b] + (p[b] - 1,) + p[b + 1:]) for coef, p in terms if p[b]]
        for terms in entries
        for b in range(d)
    ]


def _poly_callbacks(entries, shape, d):
    """Value, gradient and Hessian callbacks of one table.

    The gradient table is derived once here, the Hessian table is the
    derivative of the gradient table, and all three go through `_evaluate`.
    """
    grad = _derivative(entries, d)
    tables = (entries, grad, _derivative(grad, d))
    return tuple(
        lambda x, _e=e, _s=shape + (d,) * k: _evaluate(x, _e, _s)
        for k, e in enumerate(tables)
    )


def _term(coef, powers):
    """One (float coef, int powers) term: a finite coefficient, integer powers."""
    term = float(coef), tuple(int(p) for p in powers)
    if (isinstance(coef, (bool, str)) or not np.isfinite(term[0])
            or any(isinstance(p, (bool, str)) or p != q for p, q in zip(powers, term[1]))):
        raise ValueError(f"term {[coef, powers]!r} needs a finite coefficient, integer powers")
    return term


def _normalize_table(table, d):
    """One field's table: d components of (float coef, int powers) terms."""
    try:
        norm = [[_term(coef, powers) for coef, powers in comp] for comp in table]
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad monomial table entry: {exc}") from exc
    for comp in norm:
        for _, powers in comp:
            if len(powers) != d or any(p < 0 for p in powers):
                raise ConfigurationError(f"bad monomial powers {list(powers)} for d={d}")
    if len(norm) != d:
        raise ConfigurationError(f"field table has {len(norm)} components, d={d}")
    return norm


def polynomial_fields(d, m, tables):
    """VectorFieldSet from m+1 monomial tables (index 0 is the drift X_0)."""
    if len(tables) != m + 1:
        raise ConfigurationError(f"need m+1={m + 1} field tables, got {len(tables)}")
    fields = [_poly_callbacks(_normalize_table(t, d), (d,), d) for t in tables]
    X, grad_X, hess_X = (list(cbs) for cbs in zip(*fields))
    return VectorFieldSet(d=d, m=m, X=X, grad_X=grad_X, hess_X=hess_X)


@dataclass
class Model:
    """A vector-field model plus its initial state and explicit config form."""

    name: str
    vf: VectorFieldSet
    x0: np.ndarray
    config: dict


def _zero_table(d):
    return [[] for _ in range(d)]


def _table_config(name, d, m, tables, x0):
    fields = [[[[c, list(pw)] for c, pw in comp] for comp in _normalize_table(table, d)]
              for table in tables]
    return {"name": name, "d": d, "m": m, "x0": [float(v) for v in np.atleast_1d(x0)],
            "fields": fields}


def _table_model(name, d, m, tables, x0) -> Model:
    vf = polynomial_fields(d, m, tables)
    x0 = np.asarray(x0, dtype=np.float64)
    return Model(name, vf, x0, _table_config(name, d, m, tables, x0))


def linear_1d() -> Model:
    """d = m = 1, X_1(x) = x, X_0 = 0, x0 = 1: the closed-form test model."""
    return _table_model("linear1d", 1, 1, [_zero_table(1), [[(1.0, [1])]]], [1.0])


def zero_model(d=1, m=1) -> Model:
    return _table_model("zero", d, m, [_zero_table(d) for _ in range(m + 1)], np.zeros(d))


def additive_1d() -> Model:
    """d = m = 1, X_1 = 1, X_0 = 0: the state is x0 plus the driving line."""
    return _table_model("ou", 1, 1, [_zero_table(1), [[(1.0, [0])]]], [0.0])


MODEL_PRESETS = {"linear1d": linear_1d, "zero": zero_model, "ou": additive_1d}


def model_from_config(cfg) -> Model:
    """Build a model from a preset name or an explicit polynomial spec.

    A spec from a config file is checked against `config.SCHEMA` first.
    """
    if isinstance(cfg, str):
        cfg = {"preset": cfg}
    if "preset" in cfg:
        name = cfg["preset"]
        if name not in MODEL_PRESETS:
            raise ConfigurationError(
                f"unknown model preset {name!r}; known: {sorted(MODEL_PRESETS)}"
            )
        model = MODEL_PRESETS[name]()
        if "x0" in cfg:
            model.x0 = np.asarray(cfg["x0"], dtype=np.float64)
            model.config["x0"] = [float(v) for v in model.x0]
        return model
    d = cfg["d"]
    return _table_model(cfg.get("name", "custom"), d, cfg["m"], cfg["fields"],
                        cfg.get("x0", np.zeros(d)))


def _poly_payoff(terms, d, name) -> Payoff:
    """A payoff f = sum of coef * x^p, built through the polynomial core."""
    f, grad_f, hess_f = _poly_callbacks([terms], (), d)
    return Payoff(f, grad_f, hess_f, name=name, d=d)


def _unit_powers(j, d, power):
    powers = [0] * d
    powers[j] = power
    return tuple(powers)


def coordinate_payoff(j=0, d=1) -> Payoff:
    return _poly_payoff([(1.0, _unit_powers(j, d, 1))], d, f"coordinate[{j}]")


def square_payoff(j=0, d=1) -> Payoff:
    return _poly_payoff([(1.0, _unit_powers(j, d, 2))], d, f"square[{j}]")


def constant_payoff(c=1.0, d=1) -> Payoff:
    return _poly_payoff([(float(c), (0,) * d)], d, f"constant[{c}]")


PAYOFF_PRESETS = {"coordinate": coordinate_payoff, "square": square_payoff,
                  "constant": constant_payoff}


def payoff_from_config(cfg, d=1) -> Payoff:
    if isinstance(cfg, str):
        cfg = {"preset": cfg}
    name = cfg.get("preset")
    if name not in PAYOFF_PRESETS:
        raise ConfigurationError(
            f"unknown payoff preset {name!r}; known: {sorted(PAYOFF_PRESETS)}"
        )
    return PAYOFF_PRESETS[name](d=d, **{k: v for k, v in cfg.items() if k != "preset"})
