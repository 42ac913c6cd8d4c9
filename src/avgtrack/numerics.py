"""Dense linear-algebra kernel: symmetric eigenvalues, Lyapunov and Riccati
solvers, matrix exponential, and the PBH stabilizability test.

Everything here targets the small matrices of a plant (n up to ~10), so
dense O(n^3)-and-worse methods are deliberate; a Lyapunov or Riccati solve is
judged by its residual alone. Graph Laplacians do not come here: graph.lambda2
calls eigvalsh on them directly, up to the 1000 nodes of network-1k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ConfigError,
    NoConvergence,
    NonFinite,
    NotStabilizable,
    NotSymmetric,
    SingularSystem,
)


@dataclass(frozen=True)
class NumericsConfig:
    """Tolerances for the numerics kernel. Defaults match the documented
    contracts; every value is positive and finite, and has its default's type."""

    lyap_residual_tol: float = 1e-10
    are_residual_tol: float = 1e-9
    are_max_iter: int = 100

    def __post_init__(self):
        for f in fields(self):
            given = getattr(self, f.name)
            try:
                value = type(f.default)(given)
            except (TypeError, ValueError, OverflowError):
                value = None
            if value is None or value != given or not 0 < value < math.inf:
                raise ConfigError(f"{f.name} must be a positive finite "
                                  f"{type(f.default).__name__}, got {given!r}")
            object.__setattr__(self, f.name, value)


DEFAULT_CONFIG = NumericsConfig()
_ARE_STEP_TOL = 1e-12       # successive-iterate Frobenius tolerance of the ARE solve
_RANK_RTOL = 1e-10          # relative singular-value cutoff of the PBH test


@dataclass(frozen=True)
class AreSolution:
    """Stabilizing solution of PA + A^T P - P B B^T P + Q = 0."""

    P: NDArray[np.float64]
    residual_norm: float
    iterations: int


def sym_eigvals(m: NDArray) -> NDArray[np.float64]:
    """Eigenvalues, ascending, of a matrix symmetric to 1e-10 relative."""
    m = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.T).max(initial=0.0) > 1e-10 * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(m / 2.0 + m.T / 2.0)      # halves first: m + m.T may overflow


def finite_norms(nrm: NDArray, v: NDArray, axis: int | None = -1) -> NDArray[np.float64]:
    """`nrm`, the 2-norms of v along `axis` (all of v for None), each one not
    finite formed again from its vector divided by its largest entry, as a
    square overflows where the norm need not. Finite norms keep their bits."""
    bad = ~np.isfinite(nrm)
    if not bad.any():
        return nrm
    s = np.abs(v).max(axis=axis, keepdims=True)
    s[~(np.isfinite(s) & (s > 0))] = 1.0      # 0 or not finite: the norm as it was
    again = np.linalg.norm(v / s, axis=axis, keepdims=True) * s
    return np.where(bad, again.reshape(np.shape(nrm)), nrm)[()]


def solve_lyapunov(
    F: NDArray, Q: NDArray, cfg: NumericsConfig = DEFAULT_CONFIG
) -> NDArray[np.float64]:
    """Solve F^T X + X F + Q = 0 for symmetric X.

    Vectorizes into the n^2 x n^2 Kronecker-sum system
    (I (x) F^T + F^T (x) I) vec(X) = -vec(Q). O(n^6), fine at these sizes.
    X is exactly symmetric. Its one failure test is the residual: SingularSystem
    unless ||F^T X + X F + Q||_F <= lyap_residual_tol * max(1, ||Q||_F), NaN
    failing, and for an exactly singular sum; LinAlgError for a sum not finite.
    """
    F = np.asarray(F, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = F.shape[0]
    eye = np.eye(n)
    M = np.kron(eye, F.T) + np.kron(F.T, eye)
    if not np.isfinite(M).all():
        raise np.linalg.LinAlgError("the Lyapunov operator I (x) F^T + F^T (x) I is not finite")
    try:
        vecX = np.linalg.solve(M, -Q.reshape(-1, order="F"))
    except np.linalg.LinAlgError:
        raise SingularSystem("Lyapunov operator is singular (eigenvalue pair sums to zero)") from None
    # one round of iterative refinement recovers a digit or two on
    # ill-conditioned closed loops
    defect = M @ vecX + Q.reshape(-1, order="F")
    vecX -= np.linalg.solve(M, defect)
    X = vecX.reshape((n, n), order="F")
    X = (X + X.T) / 2.0
    resid = np.linalg.norm(F.T @ X + X @ F + Q, "fro")
    if not resid <= cfg.lyap_residual_tol * max(1.0, np.linalg.norm(Q, "fro")):
        raise SingularSystem(f"Lyapunov residual {resid:.3e} above tolerance")
    return X


@np.errstate(over="ignore", invalid="ignore")
def matrix_exp(A: NDArray, t: float = 1.0) -> NDArray[np.float64]:
    """e^{A t} by scaling and squaring with a fully converged Taylor core.

    The scaled matrix has norm <= 0.5, so the series converges to machine
    precision in well under 30 terms. An overflow raises NonFinite alone,
    with no numpy warning before it.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    M = A * t
    if not np.all(np.isfinite(M)):
        raise NonFinite("non-finite entries in A*t")
    norm = np.linalg.norm(M, 1)
    s = 0
    if norm > 0.5:
        s = int(np.ceil(np.log2(norm / 0.5)))
        M = M / (2.0 ** s)
    E = np.eye(n)
    term = np.eye(n)
    for k in range(1, 40):
        term = term @ M / k
        E = E + term
        if np.abs(term).max() < 1e-18 * max(1.0, np.abs(E).max()):
            break
    for _ in range(s):
        E = E @ E
    if not np.all(np.isfinite(E)):
        raise NonFinite("matrix exponential overflowed")
    return E


def is_stabilizable(A: NDArray, B: NDArray) -> bool:
    """PBH test: [A - lam*I, B] has full row rank at every eigenvalue with Re >= 0."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if lam.real < -1e-12:
            continue
        M = np.hstack([A - lam * np.eye(n), B]).astype(complex)
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[-1] <= _RANK_RTOL * sv[0]:
            return False
    return True


def _initial_gain(A: NDArray, B: NDArray, Q: NDArray) -> NDArray:
    """Stabilizing initial gain from the stable invariant subspace of the
    Hamiltonian matrix H = [[A, -B B^T], [-Q, -A^T]].

    With Q > 0 and (A, B) stabilizable, H has no imaginary-axis eigenvalues
    and exactly n stable ones; stacking their eigenvectors as [U1; U2] gives
    P0 = Re(U2 U1^{-1}), the stabilizing Riccati solution up to rounding.
    The Newton iteration downstream polishes the residual.
    """
    n = A.shape[0]
    H = np.block([[A, -B @ B.T], [-Q, -A.T]])
    if not np.isfinite(H).all():
        raise SingularSystem("the Hamiltonian [[A, -B B^T], [-Q, -A^T]] is not finite")
    vals, vecs = np.linalg.eig(H)
    stable = np.argsort(vals.real)[:n]
    U = vecs[:, stable]
    P0 = U[n:] @ np.linalg.inv(U[:n])
    P0 = np.real(P0 + P0.conj().T) / 2.0
    K0 = B.T @ P0
    if np.linalg.eigvals(A - B @ K0).real.max() < 0.0:
        return K0
    raise NotStabilizable("could not construct a stabilizing initial gain")


def solve_are(
    A: NDArray,
    B: NDArray,
    Q: NDArray,
    cfg: NumericsConfig = DEFAULT_CONFIG,
) -> AreSolution:
    """Stabilizing solution of PA + A^T P - P B B^T P + Q = 0 with Q > 0.

    Newton-Kleinman iteration: from a stabilizing gain K_k, solve the
    Lyapunov equation of the closed loop A - B K_k for P_k and update
    K_{k+1} = B^T P_k. Quadratically convergent; the initial stabilizing
    gain comes from the Hamiltonian stable subspace; the first step that meets
    are_residual_tol is returned. A LinAlgError on the way, such as a closed
    loop whose Lyapunov operator is not finite, raises SingularSystem.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    Q = np.asarray(Q, dtype=float)
    try:
        # a failure is reported in one line, which numpy's warnings would add to
        with np.errstate(all="ignore"):
            return _newton_kleinman(A, B, Q, cfg)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"the ARE solve: {exc}") from None


def _newton_kleinman(A: NDArray, B: NDArray, Q: NDArray, cfg: NumericsConfig) -> AreSolution:
    if not is_stabilizable(A, B):
        raise NotStabilizable("(A, B) is not stabilizable: it fails the PBH test")
    if sym_eigvals(Q)[0] <= 0:
        raise SingularSystem("Q must be positive definite")

    K = _initial_gain(A, B, Q)
    P_prev = None
    for it in range(1, cfg.are_max_iter + 1):
        F = A - B @ K
        # closed-loop Lyapunov: F^T P + P F + (Q + K^T K) = 0; P comes back symmetric
        P = solve_lyapunov(F, Q + K.T @ K, cfg)
        K = B.T @ P
        resid = float(np.linalg.norm(P @ A + A.T @ P - P @ B @ B.T @ P + Q, "fro"))
        if resid <= cfg.are_residual_tol:
            return AreSolution(P=P, residual_norm=resid, iterations=it)
        if P_prev is not None and (np.linalg.norm(P - P_prev, "fro")
                                   <= _ARE_STEP_TOL * max(1.0, np.linalg.norm(P, "fro"))):
            break
        P_prev = P
    raise NoConvergence(f"ARE residual {resid:.3e} above tolerance {cfg.are_residual_tol:.1e}")
