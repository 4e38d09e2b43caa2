"""State lines, derivative flow, and the C/Gamma/R/L objects against the
closed forms of the linear model (x = exp(z), Gamma = s x^2, L = x(s - z))."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sheetcalc.errors import ConfigurationError, ModelError, NumericsError, ShapeError
from sheetcalc.lattice import Grid, NoiseSpec, cumsum0, sample_boundary_bm
from sheetcalc.malliavin import (
    Payoff,
    VectorFieldSet,
    _matmul,
    apply_L,
    compute_malliavin_line,
    fold_line,
    solve_state_line,
)
from sheetcalc.models import (
    Model,
    additive_1d,
    coordinate_payoff,
    constant_payoff,
    linear_1d,
    model_from_config,
    payoff_from_config,
    polynomial_fields,
    square_payoff,
    zero_model,
)

DS = 1.0 / 128


def _zline(n, n_paths, seed, m=1):
    return sample_boundary_bm(n, 1.0 / n, m, NoiseSpec(seed, 0, m), batch=n_paths).values


def _linear_state(n_paths=2000, seed=1):
    model = linear_1d()
    z = _zline(128, n_paths, seed)
    x, U, Uinv = solve_state_line(model.vf, z, model.x0, DS)
    return model, z, x, U, Uinv


def _linear_line(n_paths, seed):
    model = linear_1d()
    z = _zline(128, n_paths, seed)
    return model, z, compute_malliavin_line(model.vf, z, model.x0, DS)


class TestPolynomialFields:
    def test_probe_passes_for_consistent_tables(self):
        vf = polynomial_fields(2, 1, [
            [[(0.5, [1, 1])], [(1.0, [0, 2])]],
            [[(1.0, [0, 0])], [(2.0, [1, 0])]],
        ])
        x = np.array([[0.3, -0.7], [1.2, 0.4]])
        np.testing.assert_allclose(vf.X[0](x)[:, 0], 0.5 * x[:, 0] * x[:, 1])
        np.testing.assert_allclose(vf.grad_X[1](x)[:, 1, 0], 2.0 * np.ones(2))

    def test_wrong_gradient_rejected(self):
        good = polynomial_fields(1, 1, [[[]], [[(1.0, [1])]]])
        with pytest.raises(ModelError):
            VectorFieldSet(
                d=1, m=1,
                X=good.X,
                grad_X=[good.grad_X[0], lambda x: 2.0 * good.grad_X[1](x)],
                hess_X=good.hess_X,
            )

    def test_wrong_hessian_rejected(self):
        sq = polynomial_fields(1, 1, [[[]], [[(1.0, [2])]]])
        with pytest.raises(ModelError):
            VectorFieldSet(
                d=1, m=1,
                X=sq.X,
                grad_X=sq.grad_X,
                hess_X=[sq.hess_X[0], lambda x: np.zeros(x.shape + (1, 1))],
            )

    def test_model_from_explicit_config(self):
        cfg = {"d": 1, "m": 1, "x0": [1.0], "fields": [[[]], [[[1.0, [1]]]]]}
        model = model_from_config(cfg)
        x = np.array([[2.0]])
        np.testing.assert_allclose(model.vf.X[1](x), [[2.0]])
        assert model.config["fields"][1][0][0][0] == 1.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            model_from_config("no-such-model")
        with pytest.raises(ConfigurationError):
            payoff_from_config("no-such-payoff")


class TestStateLine:
    def test_zero_model_constant(self):
        model = zero_model()
        z = _zline(32, 4, 2)
        x, U, Uinv = solve_state_line(model.vf, z, np.array([1.5]), 1.0 / 32)
        assert np.all(x == 1.5)
        assert np.all(U[..., 0, 0] == 1.0) and np.all(Uinv[..., 0, 0] == 1.0)

    def test_additive_model_shifts_by_line(self):
        model = additive_1d()
        z = _zline(32, 4, 3)
        x, U, _ = solve_state_line(model.vf, z, np.array([0.25]), 1.0 / 32)
        np.testing.assert_allclose(x[..., 0], 0.25 + z[..., 0], atol=1e-14)
        assert np.all(U[..., 0, 0] == 1.0)

    def test_linear_model_strong_error(self):
        _, z, x, U, Uinv = _linear_state()
        rel = np.sqrt(np.mean((x[:, -1, 0] - np.exp(z[:, -1, 0])) ** 2))
        rel /= np.sqrt(np.mean(np.exp(2.0 * z[:, -1, 0])))
        assert rel < 3.0 * np.sqrt(DS)

    def test_linear_model_weak_mean(self):
        n_paths = 20000
        model = linear_1d()
        z = _zline(128, n_paths, 4)
        x, _, _ = solve_state_line(model.vf, z, model.x0, DS)
        m = x[:, -1, 0].mean()
        se = x[:, -1, 0].std(ddof=1) / np.sqrt(n_paths)
        # weak error O(ds) + MC error around e^{1/2}
        assert abs(m - np.exp(0.5)) <= 3.0 * se + 2.0 * np.exp(0.5) * DS

    def test_uinv_diffusion_nearly_constant(self):
        _, z, x, U, Uinv = _linear_state()
        g = Uinv[..., 0, 0] * x[..., 0]  # U^{-1} X_1(x) should stay x0 = 1
        dev = np.abs(g - 1.0)
        assert np.sqrt(np.mean(dev[:, -1] ** 2)) < 6.0 * DS**0.5 * DS**0.5 + 0.05
        assert np.mean(dev[:, -1]) < 0.05

    def test_each_callback_once_per_step(self):
        vf = polynomial_fields(2, 2, [
            [[(0.1, [1, 0])], []],
            [[(1.0, [0, 0])], [(0.5, [1, 0])]],
            [[(0.25, [0, 1])], [(1.0, [0, 0])]],
        ])
        calls = {}

        def counted(name, cb):
            def wrapped(x):
                calls[name] = calls.get(name, 0) + 1
                return cb(x)
            return wrapped

        for kind in ("X", "grad_X", "hess_X"):
            cbs = getattr(vf, kind)
            for i, cb in enumerate(cbs):
                cbs[i] = counted(f"{kind}_{i}", cb)
        n = 16
        z = _zline(n, 4, 3, m=2)
        solve_state_line(vf, z, np.array([0.5, -0.5]), 1.0 / n)
        # hess X_0 is not needed by the state line
        assert calls == {f"{k}_{i}": n for k in ("X", "grad_X", "hess_X") for i in range(3)
                         if (k, i) != ("hess_X", 0)}
        calls.clear()
        compute_malliavin_line(vf, z, np.array([0.5, -0.5]), 1.0 / n)
        # once per step; R's and L's midpoint weights also read X_1..X_m and
        # hess X_1..X_m at the last node
        assert calls == {"X_0": n, "grad_X_0": n, "grad_X_1": n, "grad_X_2": n, "hess_X_0": n,
                         "X_1": n + 1, "X_2": n + 1, "hess_X_1": n + 1, "hess_X_2": n + 1}

    @pytest.mark.parametrize("batch, poisoned, path, cell", [
        # one batch axis: the lowest bad path is named, not the earliest step
        ((6,), {(3,): 5, (1,): 10}, (1,), (10,)),
        ((3, 5), {(2, 1): 4, (1, 3): 9, (1, 4): 2}, (1, 3), (9,)),
    ])
    def test_nonfinite_state_names_path_then_first_bad_node(self, batch, poisoned, path, cell):
        model = linear_1d()
        n = 16
        z = _zline(n, int(np.prod(batch)), 15).reshape(batch + (n + 1, 1))
        for p, step in poisoned.items():
            z[p + (slice(step, None),)] = np.nan
        with pytest.raises(NumericsError) as err:
            solve_state_line(model.vf, z, model.x0, 1.0 / n)
        assert err.value.path == path
        assert err.value.cell == cell

    def test_wrong_driver_width(self):
        model = linear_1d()
        with pytest.raises(ShapeError):
            solve_state_line(model.vf, np.zeros((4, 9, 2)), model.x0, 0.125)

    @pytest.mark.parametrize("x0", [[1.0, 2.0], np.ones((4, 2))], ids=["flat", "batched"])
    def test_wrong_x0_width(self, x0):
        model = linear_1d()
        with pytest.raises(ShapeError, match="x0 has 2 components"):
            solve_state_line(model.vf, np.zeros((4, 9, 1)), x0, 0.125)

    def test_ds_required_for_bare_arrays(self):
        model = linear_1d()
        with pytest.raises(ShapeError):
            solve_state_line(model.vf, np.zeros((4, 9, 1)), model.x0)


class TestPartialSums:
    """`lattice.cumsum0`, the one partial-sum function (the boundary lines
    and the Ito integrals; the Malliavin kernel adds C and R one slab per
    step in its order), against a zero slab concatenated with `np.cumsum`,
    bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 200),
        batch=st.lists(st.integers(1, 4), max_size=2),
        # paths per leading-axis step slab, from a lone unbatched line to a wide batch
        paths=st.sampled_from([1, 3, 600]),
        trailing=st.sampled_from([(1,), (2,), (3,), (2, 2), (3, 3)]),
        leading=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # an empty step axis leaves the zero slab alone, on both axis kinds
    @example(n=0, batch=[2], paths=3, trailing=(2,), leading=True, seed=0)
    @example(n=0, batch=[2], paths=3, trailing=(2,), leading=False, seed=0)
    def test_equals_cumsum0_bitwise(self, n, batch, paths, trailing, leading, seed):
        rng = np.random.default_rng(seed)
        if leading:
            # a leading step axis, as an unbatched line has
            shape, step_axis = (n, paths) + tuple(batch) + trailing, 0
        else:
            # a step axis inside batch axes, as the boundary and Ito lines
            shape, step_axis = tuple(batch) + (n,) + trailing, len(batch)
        # magnitudes from 1e-8 to 1e8, both signs, some exact (and negative) zeros
        terms = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        terms[rng.random(shape) < 0.05] = 0.0
        terms[rng.random(shape) < 0.05] = -0.0
        zero = np.zeros(shape[:step_axis] + (1,) + shape[step_axis + 1:])
        expect = np.concatenate([zero, np.cumsum(terms, axis=step_axis)], axis=step_axis)
        got = cumsum0(terms, axis=step_axis - len(shape))
        assert got.shape == expect.shape and got.flags.c_contiguous
        assert got.tobytes() == expect.tobytes()


def _index_order_matmul(a, b):
    """a @ b with each entry summed in index order onto +0.0, one scalar at a time."""
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a, b = np.broadcast_to(a, batch + a.shape[-2:]), np.broadcast_to(b, batch + b.shape[-2:])
    out = np.empty(batch + (a.shape[-2], b.shape[-1]))
    for idx in np.ndindex(out.shape):
        *p, i, j = idx
        acc = 0.0
        for k in range(a.shape[-1]):
            acc = acc + a[(*p, i, k)] * b[(*p, k, j)]
        out[idx] = acc
    return out


def _signed_values(rng, shape):
    vals = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
    vals[rng.random(shape) < 0.1] = 0.0
    vals[rng.random(shape) < 0.1] = -0.0
    return vals


class TestMatmul:
    def test_d1_bit_equal_to_matmul(self):
        rng = np.random.default_rng(3)
        a, b = _signed_values(rng, (64, 1, 1)), _signed_values(rng, (64, 1, 1))
        a[:2, 0, 0], b[:2, 0, 0] = (-1.5, -0.0), (0.0, 2.5)  # two -0.0 products
        got = _matmul(a, b)
        assert (a * b)[:2].tobytes() == np.array([-0.0, -0.0]).tobytes()
        assert got.tobytes() == (a @ b).tobytes()
        assert not np.any(np.signbit(got[got == 0.0]))

    @pytest.mark.parametrize("shapes", [
        ((5, 2, 2), (5, 2, 2)), ((3, 3, 3), (3, 3, 3)), ((4, 3, 2), (4, 2, 5)),
        ((2, 1, 3, 3), (4, 3, 1)), ((3, 3), (6, 3, 3)),
    ])
    def test_equals_index_order_sum(self, shapes):
        rng = np.random.default_rng(len(shapes[0]) + shapes[1][-1])
        a, b = (_signed_values(rng, shape) for shape in shapes)
        assert _matmul(a, b).tobytes() == _index_order_matmul(a, b).tobytes()

    def test_batched_line_equals_each_unbatched_line(self):
        vf = polynomial_fields(2, 2, [
            [[(0.1, [1, 1])], [(-0.2, [0, 2])]],
            [[(1.0, [0, 0])], [(0.5, [1, 0])]],
            [[(0.25, [0, 1])], [(1.0, [0, 0])]],
        ])
        z, x0 = _zline(32, 6, 12, m=2), np.array([0.5, -0.5])
        names = ("x", "U", "U_inv", "C", "Gamma", "R", "L")

        def arrays(z_line):
            st = compute_malliavin_line(vf, z_line, x0, 1.0 / 32)
            return [np.ascontiguousarray(getattr(st, name)) for name in names]

        batched = arrays(z)
        for p in range(len(z)):
            for name, whole, single in zip(names, batched, arrays(z[p])):
                assert whole[p].tobytes() == single.tobytes(), (p, name)


class TestLineMemory:
    def test_whole_line_peaks_at_nine_line_arrays(self):
        model = linear_1d()
        z = _zline(128, 4096, 13)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            st = compute_malliavin_line(model.vf, z, model.x0, DS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one line array is (paths, n+1, d) float64, the size of each of the
        # seven outputs at d = 1; at most two more are transients
        assert (peak - start) / st.x.nbytes <= 9.0


class TestMalliavinObjects:
    def test_linear_model_closed_forms(self):
        model, z, st = _linear_line(4000, 5)
        x1, z1 = st.x[:, -1, 0], z[:, -1, 0]
        gam_rel = np.mean(np.abs(st.Gamma[:, -1, 0, 0] - x1**2)) / np.mean(x1**2)
        assert gam_rel < 10.0 * DS**0.5  # scheme error, heavy-tail weighted
        l_exact = x1 * (1.0 - z1)
        l_rel = np.mean(np.abs(st.L[:, -1, 0] - l_exact)) / np.mean(np.abs(l_exact))
        assert l_rel < 10.0 * DS**0.5
        r_rms = np.sqrt(np.mean((st.R[:, -1, 0] + z1) ** 2))
        assert r_rms < 6.0 * DS**0.5

    def test_gamma_is_ucu_transpose_exactly(self):
        _, _, st = _linear_line(16, 6)
        rebuilt = np.einsum("...ab,...bc,...dc->...ad", st.U, st.C, st.U)
        assert np.array_equal(st.Gamma, rebuilt)

    def test_zero_diffusion_all_objects_vanish(self):
        vf = polynomial_fields(1, 1, [[[(0.5, [1])]], [[]]])  # X0 = x/2, X1 = 0
        z = _zline(32, 4, 7)
        st = compute_malliavin_line(vf, z, np.array([1.0]), 1.0 / 32)
        assert np.all(st.C == 0.0) and np.all(st.Gamma == 0.0)
        assert np.all(st.R == 0.0) and np.all(st.L == 0.0)

    def test_gamma_psd_two_dimensional_model(self):
        vf = polynomial_fields(2, 2, [
            [[], []],
            [[(1.0, [0, 0])], [(0.5, [1, 0])]],
            [[(0.25, [0, 1])], [(1.0, [0, 0])]],
        ])
        n_paths = 1000
        z = _zline(64, n_paths, 8, m=2)
        st = compute_malliavin_line(vf, z, np.array([0.5, -0.5]), 1.0 / 64)
        eigs = np.linalg.eigvalsh(st.Gamma[:, -1])
        assert eigs.min() >= -1e-10

    def test_uu_inv_drift_tracked(self):
        _, _, st = _linear_line(64, 9)
        assert st.uu_inv_drift() < 0.5

    def test_fault_flip_changes_only_r_term(self):
        model, z, honest = _linear_line(64, 10)
        flipped = compute_malliavin_line(model.vf, z, model.x0, DS, fault="flip-r-sign")
        # L + L_flipped = 2 U (bracket terms); for the linear model = 2 x * s-ish
        both = honest.L[:, -1, 0] + flipped.L[:, -1, 0]
        ur = np.einsum("...ab,...b->...a", honest.U[:, -1], honest.R[:, -1])[:, 0]
        np.testing.assert_allclose(honest.L[:, -1, 0] - flipped.L[:, -1, 0], 2.0 * ur, atol=1e-12)
        assert np.array_equal(honest.R, flipped.R)

    def test_unknown_fault_rejected(self):
        model, z = linear_1d(), _zline(128, 4, 11)
        with pytest.raises(ModelError):
            compute_malliavin_line(model.vf, z, model.x0, DS, fault="no-such-fault")

    def test_ds_required_for_bare_arrays(self):
        model, z = linear_1d(), _zline(128, 4, 11)
        with pytest.raises(ShapeError, match="ds must be given"):
            compute_malliavin_line(model.vf, np.asarray(z), model.x0)

    def test_one_node_line(self):
        # no step: C, R and L stay at their zero start
        model = linear_1d()
        z = _zline(128, 4, 11)[..., :1, :]
        st = compute_malliavin_line(model.vf, z, model.x0, DS)
        assert st.C.shape == (4, 1, 1, 1) and not np.any(st.C)
        assert st.R.shape == (4, 1, 1) and not np.any(st.R)
        assert st.L.shape == (4, 1, 1) and not np.any(st.L)

    def test_wrong_driver_width(self):
        model, z = linear_1d(), _zline(128, 4, 11)
        with pytest.raises(ShapeError, match="model has m=1"):
            compute_malliavin_line(model.vf, np.concatenate([z, z], axis=-1), model.x0, DS)


class TestApplyL:
    def test_constant_payoff_zero(self):
        _, _, st = _linear_line(32, 12)
        out = apply_L(constant_payoff(3.0), st, 128)
        assert np.all(out == 0.0)

    def test_coordinate_payoff_gives_L(self):
        _, _, st = _linear_line(32, 13)
        out = apply_L(coordinate_payoff(), st, 128)
        np.testing.assert_allclose(out, st.L[:, -1, 0], atol=1e-15)

    def test_square_payoff_identity(self):
        _, _, st = _linear_line(32, 14)
        out = apply_L(square_payoff(), st, 128)
        expect = 2.0 * st.x[:, -1, 0] * st.L[:, -1, 0] + 2.0 * st.Gamma[:, -1, 0, 0]
        np.testing.assert_allclose(out, expect, rtol=1e-12)


class TestMissingObjects:
    """A reader of a `fold_line` state that lacks an object it reads names
    the object and the `reads` entry that forms it."""

    def test_apply_L_without_L(self):
        model = linear_1d()
        st = fold_line(model.vf, _zline(8, 4, 15), model.x0, 1.0 / 8, reads=("Gamma",))
        with pytest.raises(ModelError, match=r"apply_L reads L, .*; pass 'L' in fold_line's reads$"):
            apply_L(square_payoff(), st, 0)

    def test_uu_inv_drift_without_the_flow(self):
        model = linear_1d()
        st = fold_line(model.vf, _zline(8, 4, 16), model.x0, 1.0 / 8)
        with pytest.raises(ModelError,
                           match=r"uu_inv_drift reads U, U_inv, .*; pass 'U', 'U_inv' in"):
            st.uu_inv_drift()


class TestStationarityAndQV:
    def _field_lines(self, n_paths, seed, j_levels, n_t=8):
        from sheetcalc.lattice import CellIncrements, sample_cell_increments_batch
        from sheetcalc.sheet import solve_ou_hyperbolic

        grid = Grid(64, n_t, 1.0 / 64, 1.0 / 32)
        noise = NoiseSpec(seed, 0, 1)
        zb = sample_boundary_bm(64, 1.0 / 64, 1, noise, batch=n_paths)
        incs = CellIncrements(sample_cell_increments_batch(grid, noise, n_paths), grid)
        fld = solve_ou_hyperbolic(grid, zb, incs)
        return grid, [fld.values[:, :, j, :] for j in j_levels]

    def test_t_stationarity_of_law(self):
        model = linear_1d()
        n_paths = 20000
        grid, (z0, zT) = self._field_lines(n_paths, 15, [0, 8])
        outs = []
        for zl in (z0, zT):
            st = compute_malliavin_line(model.vf, zl, model.x0, grid.ds)
            outs.append((st.x[:, -1, 0], st.Gamma[:, -1, 0, 0], st.L[:, -1, 0]))
        for k, name in enumerate(("x", "Gamma", "L")):
            a, b = outs[0][k], outs[1][k]
            se = np.sqrt(a.var(ddof=1) / n_paths + b.var(ddof=1) / n_paths)
            assert abs(a.mean() - b.mean()) <= 4.0 * se, name

    def test_t_increment_quadratic_variation_matches_gamma(self):
        # E[(d_t x)^2] = E[Gamma] dt and E[x d_t x] = (1/2) E[x L] dt + o(dt)
        model = linear_1d()
        n_paths = 30000
        grid, (z0, z1) = self._field_lines(n_paths, 16, [0, 1], n_t=1)
        dt = grid.dt
        st = compute_malliavin_line(model.vf, z0, model.x0, grid.ds)
        x0l = st.x
        x1l, _, _ = solve_state_line(model.vf, z1, model.x0, grid.ds)
        dx = x1l[:, -1, 0] - x0l[:, -1, 0]
        qv = dx * dx / dt
        se = qv.std(ddof=1) / np.sqrt(n_paths)
        gamma_mean = st.Gamma[:, -1, 0, 0].mean()
        assert abs(qv.mean() - gamma_mean) <= 4.0 * se + 1.5 * gamma_mean * dt
        fv = x0l[:, -1, 0] * dx / dt
        se_fv = fv.std(ddof=1) / np.sqrt(n_paths)
        half_xl = 0.5 * (x0l[:, -1, 0] * st.L[:, -1, 0]).mean()
        assert abs(fv.mean() - half_xl) <= 4.0 * se_fv + 2.0 * abs(half_xl) * dt
        dmean = dx.mean() / dt
        assert abs(dmean - 0.5 * st.L[:, -1, 0].mean()) <= 4.0 * dx.std(ddof=1) / dt / np.sqrt(n_paths) + 1.0


class TestPayoffValidation:
    def test_payoff_probe_catches_bad_gradient(self):
        with pytest.raises(ModelError):
            Payoff(
                f=lambda x: x[..., 0] ** 2,
                grad_f=lambda x: np.ones_like(x),
                hess_f=lambda x: np.zeros(x.shape + (1,)),
                d=1,
            )
