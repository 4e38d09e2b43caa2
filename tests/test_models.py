"""Polynomial model core: bitwise pins of fields, payoffs and Malliavin lines.

The golden report pins only run single-term tables (`linear1d`), so they
cannot see a change in how multi-term components are summed.  The pins in
``golden/model_pins.json`` hold the sha256 of X, grad X and hess X for
multi-term tables at d = 2 and d = 3 (repeated monomials in one component,
zero coefficients, powers >= 3, constants), of f, grad f and hess f for the
payoff presets, and of every `MalliavinState` array of a d = 2, m = 2 line
in five line shapes (one batch axis, none, two, a batch that comes from x0
alone, a batched driver with x0 of shape (1, d)) and of a d = 3, m = 1 line,
all seven at every node: node k is `fold_line`'s last node of the line cut
at k, stacked by `whole_line`.  `fold_line` reading any subset of the seven
must give each of them with the all-objects pass's bits.  A pin changes
only on purpose; regenerate the file with

    PYTHONPATH=src python tests/test_models.py --update

and record in CHANGES.md which pins moved and why.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sheetcalc.lattice import NoiseSpec, sample_boundary_bm
from sheetcalc.errors import ModelError
from sheetcalc.malliavin import fold_line
from sheetcalc.models import (
    constant_payoff,
    coordinate_payoff,
    polynomial_fields,
    square_payoff,
)

PINS = Path(__file__).resolve().parent / "golden" / "model_pins.json"
SEED = 20260809

# X_0..X_2 at d = 2: a repeated monomial in one component, zero coefficients,
# powers up to 4, constants, and an empty component.
TABLES_D2 = [
    [[(0.5, [1, 1]), (-1.25, [3, 0]), (0.5, [1, 1]), (2.0, [0, 0])],
     [(0.0, [2, 1]), (1.0 / 3.0, [0, 4])]],
    [[(1.0, [0, 0]), (0.75, [2, 2]), (-0.5, [1, 3])],
     []],
    [[(0.0, [0, 0]), (-2.0, [3, 1])],
     [(1.5, [1, 0]), (1.5, [1, 0]), (-0.125, [4, 0]), (0.3, [0, 0])]],
]

# X_0, X_1 at d = 3
TABLES_D3 = [
    [[(1.0, [1, 1, 1]), (-0.7, [0, 3, 0]), (0.2, [0, 0, 0])],
     [(0.0, [1, 0, 2]), (2.5, [2, 0, 1]), (2.5, [2, 0, 1])],
     [(-1.0, [0, 0, 3]), (0.4, [1, 2, 0])]],
    [[(0.6, [0, 0, 0])],
     [(1.1, [3, 1, 0]), (-0.9, [0, 1, 1]), (0.0, [0, 0, 0])],
     [(0.25, [1, 1, 2]), (0.25, [1, 1, 2]), (-3.0, [0, 2, 0])]],
]

# X_0, X_1 of a d = 3, m = 1 line: linear terms plus quadratics with nonzero
# Hessians, mild enough that the Euler line stays bounded.
LINE_TABLES_D3 = [
    [[(-0.5, [1, 0, 0]), (0.1, [0, 1, 1])],
     [(0.2, [1, 0, 0]), (-0.3, [0, 1, 0])],
     [(0.1, [0, 0, 0]), (-0.4, [0, 0, 1])]],
    [[(0.3, [0, 0, 0]), (0.5, [1, 0, 0])],
     [(0.2, [0, 1, 0]), (0.1, [1, 0, 1])],
     [(0.4, [0, 0, 0]), (0.25, [0, 2, 0])]],
]


def _digest(a):
    a = np.asarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _points(d):
    # batched (4, 3, d) points, with an exact zero and negative coordinates
    x = np.random.default_rng(SEED + d).normal(scale=1.5, size=(4, 3, d))
    x[0, 0, 0] = 0.0
    return x


def _field_digests(d, tables):
    vf = polynomial_fields(d, len(tables) - 1, tables)
    x = _points(d)
    out = {}
    for kind, cbs in (("X", vf.X), ("grad_X", vf.grad_X), ("hess_X", vf.hess_X)):
        for i, cb in enumerate(cbs):
            out[f"{kind}_{i}"] = _digest(cb(x))
    return out


def _payoff_digests(payoff):
    x = _points(2)
    return {"f": _digest(payoff.f(x)), "grad_f": _digest(payoff.grad_f(x)),
            "hess_f": _digest(payoff.hess_f(x))}


def _acceptance_model():
    """The d = 2, m = 2 model of acceptance criterion 8."""
    return polynomial_fields(2, 2, [
        [[], []],
        [[(1.0, [0, 0])], [(0.5, [1, 0])]],
        [[(0.25, [0, 1])], [(1.0, [0, 0])]],
    ])


def _line(m, batch=None, n=32):
    return sample_boundary_bm(n, 1.0 / n, m, NoiseSpec(SEED, 0, m), batch=batch).values


# (line object, number of its per-node axes)
_OBJECTS = (("x", 1), ("U", 2), ("U_inv", 2), ("C", 2), ("Gamma", 2), ("R", 1), ("L", 1))
ALL_OBJECTS = tuple(name for name, _ in _OBJECTS)


def whole_line(vf, z, x0, ds, reads=ALL_OBJECTS, fault=None):
    """Each object in `reads` at every node of the line z (..., n+1, m), by
    name, with a node axis before its per-node axes: (..., n+1, d) or
    (..., n+1, d, d).  Node k is `fold_line`'s last node of the line cut at k."""
    ends = [fold_line(vf, z[..., :k + 1, :], x0, ds, reads=reads, fault=fault)
            for k in range(z.shape[-2])]
    return {name: np.stack([getattr(end, name) for end in ends], axis=-axes - 1)
            for name, axes in _OBJECTS if name in reads}


def _state_digests(vf, z, x0):
    """Digests of every MalliavinState array at every node of one line."""
    n = z.shape[-2] - 1
    line = whole_line(vf, z, np.asarray(x0, dtype=np.float64), 1.0 / n)
    return {name: _digest(line[name]) for name in ALL_OBJECTS}


# line shapes: one batch axis, none, two, a batch from x0 alone, a batched
# driver with a broadcast x0, and a d = 3, m = 1 table model
LINE_CASES = {
    "malliavin-d2m2": lambda: (_acceptance_model(), _line(2, batch=16), [0.5, -0.5]),
    "malliavin-unbatched": lambda: (_acceptance_model(), _line(2), [0.5, -0.5]),
    "malliavin-batch-3x5": lambda: (
        _acceptance_model(), _line(2, batch=15).reshape(3, 5, 33, 2), [0.5, -0.5]),
    "malliavin-batch-from-x0": lambda: (
        _acceptance_model(), _line(2), [[0.5, -0.5], [0.0, 0.0], [-1.0, 0.25], [2.0, 1.5]]),
    "malliavin-x0-1xd": lambda: (_acceptance_model(), _line(2, batch=6), [[0.5, -0.5]]),
    "malliavin-d3m1": lambda: (
        polynomial_fields(3, 1, LINE_TABLES_D3), _line(1, batch=8), [0.2, -0.1, 0.3]),
}

PIN_CASES = {
    "fields-d2": lambda: _field_digests(2, TABLES_D2),
    "fields-d3": lambda: _field_digests(3, TABLES_D3),
    "payoff-coordinate": lambda: _payoff_digests(coordinate_payoff(j=1, d=2)),
    "payoff-square": lambda: _payoff_digests(square_payoff(j=1, d=2)),
    "payoff-constant": lambda: _payoff_digests(constant_payoff(c=-2.5, d=2)),
    **{case: lambda case=case: _state_digests(*LINE_CASES[case]()) for case in LINE_CASES},
}


class TestModelPins:
    @pytest.mark.parametrize("case", sorted(PIN_CASES))
    def test_arrays_match_pins(self, case):
        assert PIN_CASES[case]() == json.loads(PINS.read_text())[case]


class TestLazyL:
    """A fault in L changes L alone: the other six objects of the one pass
    keep their bits at every node."""

    def test_flip_r_sign_changes_only_l(self):
        vf, z, x0 = LINE_CASES["malliavin-d2m2"]()
        honest = whole_line(vf, z, x0, 1.0 / 32)
        flipped = whole_line(vf, z, x0, 1.0 / 32, fault="flip-r-sign")
        for name in ("x", "U", "U_inv", "C", "Gamma", "R"):
            assert np.array_equal(honest[name], flipped[name])
        assert not np.array_equal(honest["L"], flipped["L"])


class TestFoldLine:
    """`fold_line` gives each object it reads at the last node, with no node
    axis, bit for bit as the all-objects pass gives it; that pass at every
    cut of a line is what the model pins hold."""

    @pytest.mark.parametrize("case", sorted(LINE_CASES))
    @pytest.mark.parametrize("reads, fault", [
        (("x",), None),
        (("U",), None),
        (("U", "C", "R"), None),
        (("Gamma",), None),
        (("Gamma", "L"), "flip-r-sign"),
        (ALL_OBJECTS, None),
    ], ids=["state", "flow", "bismut", "carre", "ibp-flipped", "all"])
    def test_last_node_of_the_whole_lines(self, case, reads, fault):
        vf, z, x0 = LINE_CASES[case]()
        x0 = np.asarray(x0, dtype=np.float64)
        n = z.shape[-2] - 1
        batch = np.broadcast_shapes(z.shape[:-2], x0.shape[:-1])
        full = fold_line(vf, z, x0, 1.0 / n, reads=ALL_OBJECTS, fault=fault)
        end = fold_line(vf, z, x0, 1.0 / n, reads=reads, fault=fault)
        for name, axes in _OBJECTS:
            if name not in reads:
                continue
            last, got = getattr(full, name), getattr(end, name)
            assert got.shape == batch + (vf.d,) * axes
            assert got.shape == last.shape and got.tobytes() == last.tobytes(), name
        if "x" in reads and len(reads) == 1:
            assert end.U is None and end.C is None

    def test_state_only_line_calls_no_hessian(self):
        calls = {}
        vf, z, x0 = LINE_CASES["malliavin-d2m2"]()
        for kind in ("X", "grad_X", "hess_X"):
            cbs = getattr(vf, kind)
            for i, cb in enumerate(cbs):
                def wrapped(x, _cb=cb, _name=f"{kind}_{i}"):
                    calls[_name] = calls.get(_name, 0) + 1
                    return _cb(x)
                cbs[i] = wrapped
        fold_line(vf, z, np.asarray(x0), 1.0 / 32)
        assert calls == {f"{k}_{i}": 32 for k in ("X", "grad_X") for i in range(3)}

    def test_unknown_object_rejected(self):
        vf, z, x0 = LINE_CASES["malliavin-d2m2"]()
        with pytest.raises(ModelError, match="unknown line objects"):
            fold_line(vf, z, np.asarray(x0), 1.0 / 32, reads=("x", "Q"))

if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_models.py --update")
    pins = {case: fn() for case, fn in PIN_CASES.items()}
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {PINS}")
