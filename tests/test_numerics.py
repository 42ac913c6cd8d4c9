import numpy as np
import pytest
import scipy.linalg

from avgtrack import (
    NumericsConfig,
    is_stabilizable,
    matrix_exp,
    solve_are,
    solve_lyapunov,
    sym_eigvals,
)
from avgtrack.errors import NoConvergence, NonFinite, NotStabilizable, NotSymmetric, SingularSystem
from avgtrack.numerics import finite_norms
from conftest import random_stabilizable


class TestFiniteNorms:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rows_whose_squares_overflow(self):
        v = np.array([[3e200, -4e200], [3.0, 4.0], [0.0, 0.0], [np.inf, 1.0], [1.5e308, 1.5e308]])
        nrm = finite_norms(np.linalg.norm(v, axis=-1), v)
        assert nrm[0] == pytest.approx(5e200, rel=1e-15)
        assert nrm[1:4].tolist() == [5.0, 0.0, np.inf]
        assert nrm[4] == np.inf       # the norm itself is beyond the largest double

    def test_finite_norms_returned_as_given(self):
        v = np.arange(6.0).reshape(3, 2)
        nrm = np.linalg.norm(v, axis=-1)
        assert finite_norms(nrm, v) is nrm

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_all_axes(self):
        v = np.array([[3e200, 0.0], [0.0, -4e200]])
        nrm = finite_norms(np.linalg.norm(v), v, axis=None)
        assert type(nrm) is np.float64 and nrm == pytest.approx(5e200, rel=1e-15)


class TestSymEig:
    def test_identity(self):
        np.testing.assert_allclose(sym_eigvals(np.eye(3)), [1, 1, 1])

    def test_diag_sorted_ascending(self):
        np.testing.assert_allclose(sym_eigvals(np.diag([2.0, -1.0])), [-1.0, 2.0])

    def test_2x2_closed_form(self):
        vals = sym_eigvals(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(vals, [1.0, 3.0], atol=1e-12)

    def test_matches_scipy_eigvalsh(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((5, 5))
            m = m + m.T
            np.testing.assert_allclose(sym_eigvals(m), scipy.linalg.eigvalsh(m), atol=1e-9)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestLyapunov:
    def test_minus_identity(self):
        X = solve_lyapunov(-np.eye(2), np.eye(2))
        np.testing.assert_allclose(X, np.eye(2) / 2.0, atol=1e-12)

    def test_decoupled_diagonal(self):
        X = solve_lyapunov(np.diag([-1.0, -2.0]), np.diag([2.0, 4.0]))
        np.testing.assert_allclose(X, np.eye(2), atol=1e-12)

    def test_residual_oracle(self):
        F = np.array([[0.0, 1.0], [-1.0, -2.0]])
        Q = np.eye(2)
        X = solve_lyapunov(F, Q)
        assert np.linalg.norm(F.T @ X + X @ F + Q, "fro") <= 1e-10
        np.testing.assert_allclose(X, X.T)

    def test_singular_raises(self):
        # F with eigenvalues +1/-1: a pair sums to zero
        with pytest.raises(SingularSystem):
            solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))

    def test_nan_in_q_raises(self):
        # the residual test is the one failure test, and a NaN residual fails it
        with pytest.raises(SingularSystem, match="Lyapunov residual nan"):
            solve_lyapunov(-np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_tiny_eigenvalue_pair_is_not_singular(self):
        # the pair sum -2e-300 is tiny against the other of -2, but the
        # closed loop is Hurwitz and X = diag(1/2, 1/(2e-300)) solves it
        X = solve_lyapunov(np.diag([-1.0, -1e-300]), np.eye(2))
        np.testing.assert_array_equal(X, np.diag([0.5, 5e299]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_operator_not_finite_raises_linalg_error(self):
        # -1e308 - 1e308 overflows on the diagonal of the Kronecker sum
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            solve_lyapunov(np.diag([-1.0, -1e308]), np.eye(2))

    def test_random_hurwitz(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            F = rng.standard_normal((n, n)) - (n + 2) * np.eye(n)
            Q = rng.standard_normal((n, n))
            Q = Q @ Q.T + np.eye(n)
            X = solve_lyapunov(F, Q)
            assert np.linalg.norm(F.T @ X + X @ F + Q, "fro") <= 1e-8


class TestStabilizable:
    def test_hurwitz_always(self):
        assert is_stabilizable(np.array([[0.0, 1.0], [-1.0, -2.0]]), np.array([[0.0], [1.0]]))

    def test_unstable_no_input(self):
        assert not is_stabilizable(np.eye(2), np.zeros((2, 1)))

    def test_pbh_rank_at_unstable_mode(self):
        # lam=1 mode is reachable through B's first row
        assert is_stabilizable(np.diag([1.0, -1.0]), np.array([[1.0], [0.0]]))
        assert not is_stabilizable(np.diag([1.0, -1.0]), np.array([[0.0], [1.0]]))


class TestAre:
    def test_scalar(self):
        sol = solve_are(np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]))
        assert sol.P[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_minus_identity_plant(self):
        sol = solve_are(-np.eye(2), np.eye(2), np.eye(2))
        np.testing.assert_allclose(sol.P, (np.sqrt(2.0) - 1.0) * np.eye(2), atol=1e-10)

    def test_second_order_plant(self):
        # the (1,1) ARE entry forces p12^2 + 2 p12 - 1 = 0, so p12 = sqrt(2)-1;
        # cross-checked against scipy below
        A = np.array([[0.0, 1.0], [-1.0, -2.0]])
        B = np.array([[0.0], [1.0]])
        sol = solve_are(A, B, np.eye(2))
        assert sol.residual_norm <= 1e-9
        assert sol.P[0, 1] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-9)
        P_ref = scipy.linalg.solve_continuous_are(A, B, np.eye(2), np.eye(1))
        np.testing.assert_allclose(sol.P, P_ref, atol=1e-8)

    def test_not_stabilizable(self):
        with pytest.raises(NotStabilizable):
            solve_are(np.eye(2), np.zeros((2, 1)), np.eye(2))

    def test_q_not_pd(self):
        with pytest.raises(SingularSystem):
            solve_are(-np.eye(2), np.eye(2), np.zeros((2, 2)))

    def test_uncontrollable_but_stabilizable(self):
        A = np.diag([1.0, -1.0])
        B = np.array([[1.0], [0.0]])
        sol = solve_are(A, B, np.eye(2))
        assert sol.residual_norm <= 1e-9
        assert np.linalg.eigvals(A - B @ B.T @ sol.P).real.max() < 0

    def test_random_residual_and_stability(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            A, B, Q = random_stabilizable(rng)
            sol = solve_are(A, B, Q)
            assert sol.residual_norm <= 1e-9
            assert np.linalg.eigvals(A - B @ B.T @ sol.P).real.max() < 0
            P_ref = scipy.linalg.solve_continuous_are(A, B, Q, np.eye(B.shape[1]))
            np.testing.assert_allclose(sol.P, P_ref, atol=1e-6 * max(1, np.abs(P_ref).max()))

    def test_hard_plants_solve_to_scipy_or_raise(self):
        # scaled A, weak B and shifted integrator chains, harder than
        # random_stabilizable draws: a returned P is scipy's and stabilizes,
        # and a failure is one of the solver's own errors
        rng = np.random.default_rng(7)
        solved = 0
        for _ in range(60):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, min(n, 3) + 1))
            kind = rng.integers(3)
            if kind == 0:
                A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
                B = rng.standard_normal((n, m))
            elif kind == 1:
                A = rng.standard_normal((n, n))
                B = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-6, -2)
            else:
                A = np.eye(n, k=1) + rng.uniform(-2, 2) * np.eye(n)
                B = np.zeros((n, m))
                B[-1] = rng.standard_normal(m)
            Q = np.eye(n) if rng.random() < 0.5 else np.diag(10.0 ** rng.uniform(-3, 3, n))
            try:
                P = solve_are(A, B, Q).P
            except (NoConvergence, SingularSystem, NotStabilizable):
                continue
            solved += 1
            P_ref = scipy.linalg.solve_continuous_are(A, B, Q, np.eye(m))
            assert np.abs(P - P_ref).max() <= 1e-8 * max(1.0, np.abs(P_ref).max())
            assert np.linalg.eigvals(A - B @ B.T @ P).real.max() < 0
        assert solved > 0

    def test_solution_satisfies_own_closed_loop_lyapunov(self):
        A = np.array([[0.0, 1.0], [-1.0, -2.0]])
        B = np.array([[0.0], [1.0]])
        Q = np.eye(2)
        P = solve_are(A, B, Q).P
        F = A - B @ B.T @ P
        resid = F.T @ P + P @ F + Q + P @ B @ B.T @ P
        assert np.linalg.norm(resid, "fro") <= 1e-9


class TestMatrixExp:
    # the failure is the one NonFinite, with no numpy warning before it
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("A, t, message", [
        pytest.param([[np.nan]], 1.0, r"non-finite entries in A\*t", id="nan"),
        pytest.param([[0.0, np.inf], [0.0, 0.0]], 1.0, r"non-finite entries in A\*t", id="inf"),
        pytest.param([[1000.0]], 1.0, "matrix exponential overflowed", id="squaring"),
        # inf * 0 in the squaring: NaN entries
        pytest.param([[1000.0, 0.0], [0.0, 0.0]], 1.0, "matrix exponential overflowed",
                     id="squaring-nan"),
        # A*t itself beyond the double range
        pytest.param([[1e300]], 1e10, r"non-finite entries in A\*t", id="scaling"),
    ])
    def test_failure_is_one_nonfinite(self, A, t, message):
        with pytest.raises(NonFinite, match=f"^{message}$"):
            matrix_exp(A, t)

    def test_zero(self):
        np.testing.assert_array_equal(matrix_exp(np.zeros((3, 3)), 2.0), np.eye(3))

    def test_nilpotent(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(matrix_exp(A, 1.0), [[1, 1], [0, 1]], atol=1e-14)

    def test_sec5_closed_form(self):
        # A = -I + J with J^2 = 0, so e^{At} = e^{-t} (I + J t)
        A = np.array([[0.0, 1.0], [-1.0, -2.0]])
        expected = np.exp(-1.0) * np.array([[2.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(matrix_exp(A, 1.0), expected, atol=1e-12)

    def test_vs_scipy_large_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            t = rng.uniform(0.1, 50.0 / max(1.0, np.linalg.norm(A)))
            E_ref = scipy.linalg.expm(A * t)
            E = matrix_exp(A, t)
            assert np.abs(E - E_ref).max() <= 1e-10 * max(1.0, np.abs(E_ref).max())

    def test_semigroup(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            A = rng.standard_normal((3, 3))
            s, t = rng.uniform(0.1, 2.0, 2)
            np.testing.assert_allclose(
                matrix_exp(A, s + t), matrix_exp(A, s) @ matrix_exp(A, t), atol=1e-8
            )

    def test_vs_rk4(self):
        # columns of e^{At} match RK4 integration of xdot = A x
        A = np.array([[0.0, 1.0], [-1.0, -2.0]])
        t_end, dt = 1.0, 1e-4
        X = np.eye(2)
        for _ in range(int(t_end / dt)):
            k1 = A @ X
            k2 = A @ (X + dt / 2 * k1)
            k3 = A @ (X + dt / 2 * k2)
            k4 = A @ (X + dt * k3)
            X = X + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        np.testing.assert_allclose(matrix_exp(A, t_end), X, atol=1e-6)


class TestConfig:
    def test_tolerances_overridable(self):
        cfg = NumericsConfig(are_max_iter=3)
        A = np.array([[0.0, 1.0], [-1.0, -2.0]])
        B = np.array([[0.0], [1.0]])
        sol = solve_are(A, B, np.eye(2))  # default converges
        assert sol.iterations <= 100
        assert cfg.are_max_iter == 3
