"""The tridiagonal factor and solve, the reduced operator and the slice extension
of the march in :mod:`xvaband.pde`."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from xvaband.pde import extend_slice, reduced_operator, tridiag_factor, tridiag_solve


class TestThomasSolve:
    """The march's factor-and-solve pair; on diagonally dominant systems
    its partial pivoting pivots like the Thomas recursion."""

    @pytest.mark.parametrize("n", [5, 64, 257])
    def test_matches_lapack_on_dominant_systems(self, n):
        rng = np.random.default_rng(n)
        lo = rng.uniform(-1.0, 1.0, n)
        up = rng.uniform(-1.0, 1.0, n)
        di = 3.0 + rng.uniform(0.0, 1.0, n)  # strictly dominant
        rhs = rng.uniform(-1.0, 1.0, n)
        lo[0] = 0.0
        up[-1] = 0.0
        got = tridiag_solve(tridiag_factor(lo, di, up), rhs.copy())
        ab = np.zeros((3, n))
        ab[0, 1:] = up[:-1]
        ab[1] = di
        ab[2, :-1] = lo[1:]
        want = solve_banded((1, 1), ab, rhs)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_identity_system(self):
        rhs = np.array([1.0, -2.0, 3.0])
        got = tridiag_solve(tridiag_factor(np.zeros(3), np.ones(3), np.zeros(3)),
                            rhs.copy())
        assert np.array_equal(got, rhs)


class TestReducedOperator:
    N_X = 11
    DX = 0.1
    A = -0.03
    B = 0.02
    KAPPA = 0.35

    def _apply(self, u):
        lo, di, up = reduced_operator(self.N_X, self.DX, self.A, self.B, self.KAPPA)
        out = np.empty_like(u)
        out[1:-1] = lo[1:-1] * u[:-2] + di[1:-1] * u[1:-1] + up[1:-1] * u[2:]
        out[0] = di[0] * u[0] + up[0] * u[1]
        out[-1] = lo[-1] * u[-2] + di[-1] * u[-1]
        return out

    def test_constants_feel_only_the_killing_term(self):
        u = np.full(self.N_X - 2, 2.5)
        assert np.allclose(self._apply(u), self.KAPPA * 2.5, atol=1e-13)

    def test_linear_data_feels_killing_and_convection(self):
        # boundary elimination assumes the linear extension, so even the
        # edge rows must reproduce kappa*x - a exactly on linear data
        x = self.DX * np.arange(1, self.N_X - 1)
        want = self.KAPPA * x - self.A
        assert np.allclose(self._apply(x), want, atol=1e-13)

    def test_node_wise_constants_match_the_scalar_call_bitwise(self):
        m = self.N_X - 2
        want = reduced_operator(self.N_X, self.DX, self.A, self.B, self.KAPPA)
        for a, kappa in ((np.full(m, self.A), self.KAPPA),
                         (self.A, np.full(m, self.KAPPA)),
                         (np.full(m, self.A), np.full(m, self.KAPPA))):
            got = reduced_operator(self.N_X, self.DX, a, self.B, kappa)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_node_wise_coefficients_act_row_by_row(self):
        # each row reads its own node's convection and rate, edge rows too
        rng = np.random.default_rng(0)
        m = self.N_X - 2
        a = rng.uniform(-0.1, 0.1, m)
        kappa = rng.uniform(0.0, 0.5, m)
        lo, di, up = reduced_operator(self.N_X, self.DX, a, self.B, kappa)
        for i in (0, 4, m - 1):
            row = reduced_operator(self.N_X, self.DX, a[i], self.B, kappa[i])
            assert [band[i] for band in (lo, di, up)] == [band[i] for band in row]

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError, match="n_x"):
            reduced_operator(4, 0.1, 0.0, 0.01, 0.0)


class TestExtendSlice:
    def test_linear_extension(self):
        w = extend_slice(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(w, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_preserves_affine_data(self):
        u = 0.7 * np.arange(5, 12.0) - 1.3
        w = extend_slice(u)
        assert np.allclose(np.diff(w), 0.7, atol=1e-14)

    def test_writes_into_a_given_buffer(self):
        out = np.full(5, np.nan)
        w = extend_slice(np.array([1.0, 2.0, 3.0]), out=out)
        assert w is out
        assert np.array_equal(out, [0.0, 1.0, 2.0, 3.0, 4.0])
