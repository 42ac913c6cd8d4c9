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
from avgtrack.errors import NotStabilizable, NotSymmetric, SingularSystem
from conftest import random_stabilizable


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

    def test_solution_satisfies_own_closed_loop_lyapunov(self):
        A = np.array([[0.0, 1.0], [-1.0, -2.0]])
        B = np.array([[0.0], [1.0]])
        Q = np.eye(2)
        P = solve_are(A, B, Q).P
        F = A - B @ B.T @ P
        resid = F.T @ P + P @ F + Q + P @ B @ B.T @ P
        assert np.linalg.norm(resid, "fro") <= 1e-9


class TestMatrixExp:
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
