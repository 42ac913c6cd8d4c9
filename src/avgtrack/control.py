"""The two distributed average-tracking laws: boundary-layer smoothing, the
edge-coupling kernel of the static, discontinuous and adaptive closed loops,
and the gain design recipe."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import graph as graphmod
from .errors import ConfigError, NotConnected
from .numerics import NumericsConfig, DEFAULT_CONFIG, solve_are
from .signals import LinearPlant, ReferenceSet


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal


def boundary_layer(w: NDArray, eps: float, phi: float, t: float) -> NDArray[np.float64]:
    """Smoothed unit direction w / (||w|| + eps * e^{-phi t}).

    Continuous everywhere (including w = 0). The norm is strictly below 1 in
    exact arithmetic and at most 1 in doubles, for every finite w and
    eps, phi, t >= 0. The eps*e^{-phi t} term is the shrinking boundary-layer
    width. Rows of a 2-D w (one per edge) are smoothed independently.
    """
    w = np.asarray(w, dtype=float)
    width = max(eps * np.exp(-phi * t), _TINY)
    # The width stays above zero so that w = 0 gives h = 0 after e^{-phi t}
    # underflows. Where the divisor overflows, those rows and their width
    # are divided by the row's largest entry, which leaves h unchanged in
    # exact arithmetic.
    div = _divisor(w, width)
    if not math.isfinite(div.max(initial=0.0)):
        over = ~np.isfinite(div)
        scale = np.where(over, np.abs(w).max(axis=-1, keepdims=True), 1.0)
        w, width = w / scale, width / scale
        div = _divisor(w, width)
    return w / div


def _divisor(w: NDArray, width: float | NDArray) -> NDArray[np.float64]:
    # The hypot chain gives row norms without underflow, to within m - 1
    # ulps for rows of length m. The divisor never drops below
    # ||w|| (1 + 4 m ulp). That outweighs the norm's error plus the rounding
    # of the division and of a later sum-of-squares norm of h, so ||h|| <= 1
    # holds in doubles; the floor binds only where the width is already
    # below that rounding.
    nrm = np.hypot.reduce(w, axis=-1, keepdims=True, initial=0.0)
    return np.maximum(nrm + width, nrm * (1.0 + 4 * w.shape[-1] * _EPS))


def discontinuous_sign(w: NDArray) -> NDArray[np.float64]:
    """Unit direction w/||w||, zero at (numerically) zero w. Rows of a 2-D w
    are normalised independently; on rows where ||w|| overflows, it is the
    zero-width boundary_layer, which rescales them first."""
    w = np.asarray(w, dtype=float)
    nrm = np.linalg.norm(w, axis=-1, keepdims=True)
    s = np.where(nrm > 1e-15, w / np.where(nrm > 0, nrm, 1.0), 0.0)
    if not math.isfinite(nrm.max(initial=0.0)):
        s = np.where(np.isinf(nrm), boundary_layer(w, 0.0, 0.0, 0.0), s)
    return s


@dataclass(frozen=True)
class StaticGains:
    """Designed constants of the static-coupling law."""

    K: NDArray[np.float64]       # m x n feedback gain, K = -B^T P
    c1: float
    c2: float
    eps: float
    phi: float
    P: NDArray[np.float64]       # ARE solution behind K

    def __post_init__(self):
        if not (0 < self.eps < math.inf and 0 < self.phi < math.inf):  # NaN fails too
            raise ConfigError("eps and phi must be positive and finite")
        if self.c1 < 0 or self.c2 < 0:
            raise ConfigError("coupling strengths must be nonnegative")


@dataclass(frozen=True)
class AdaptiveParams:
    """Designed constants of the adaptive-coupling law."""

    K: NDArray[np.float64]       # m x n, K = -B^T P
    Gamma: NDArray[np.float64]   # n x n, Gamma = P B B^T P = K^T K
    mu: float
    nu: float
    theta: float
    chi: float
    eps: float
    phi: float
    P: NDArray[np.float64]
    alpha0: float = 0.0          # shared per-edge initial gains
    beta0: float = 0.0

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.mu, self.nu, self.theta, self.chi)):
            raise ConfigError("mu, nu, theta, chi must be positive and finite")
        if not (0 < self.eps < math.inf and 0 < self.phi < math.inf):  # NaN fails too
            raise ConfigError("eps and phi must be positive and finite")
        if not (math.isfinite(self.alpha0) and math.isfinite(self.beta0)):
            raise ConfigError("alpha0 and beta0 must be finite")


@dataclass
class NetworkState:
    """Agent states plus, in adaptive mode, one gain pair per undirected edge.

    Storing edge gains once per edge (not per ordered pair) enforces the
    alpha_ij = alpha_ji symmetry exactly.
    """

    t: float
    x: NDArray[np.float64]                 # (N, n)
    alpha: NDArray[np.float64] | None = None   # (E,)
    beta: NDArray[np.float64] | None = None    # (E,)


def feedback_gain(
    plant: LinearPlant, Q: NDArray, cfg: NumericsConfig = DEFAULT_CONFIG
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """(P, K): the stabilizing ARE solution and K = -B^T P, shared by both laws."""
    P = solve_are(plant.A, plant.B, np.asarray(Q, dtype=float), cfg).P
    return P, -plant.B.T @ P


def design_gains(
    plant: LinearPlant,
    g: graphmod.Graph,
    Q: NDArray,
    f0: float,
    eps: float = 5.0,
    phi: float = 0.5,
    margins: tuple[float, float] = (1.0, 1.0),
    cfg: NumericsConfig = DEFAULT_CONFIG,
    lam2: float | None = None,
) -> StaticGains:
    """Gain design recipe: ARE solve, then minimal compliant couplings.

    c1 = margin1 / (2*lambda2), c2 = margin2 * f0 * (N - 1); margins of 1
    sit exactly on the design bounds. `lam2` may carry lambda2(g) when the
    caller already has it.
    """
    if not graphmod.is_connected(g):
        raise NotConnected("gain design requires a connected graph")
    if not (1.0 <= margins[0] < math.inf and 1.0 <= margins[1] < math.inf):
        raise ConfigError("margins must be finite and >= 1")
    P, K = feedback_gain(plant, Q, cfg)
    if lam2 is None:
        lam2 = graphmod.lambda2(g)
    c1 = margins[0] / (2.0 * lam2)
    c2 = margins[1] * f0 * (g.n_nodes - 1)
    return StaticGains(K=K, c1=c1, c2=c2, eps=eps, phi=phi, P=P)


class EdgeKernel:
    """Edge coupling of one law on one graph, built once per run.

    Agent i is driven by its edges alone, through u_ij = a_ij w_ij + b_ij h_ij
    with w_ij = K(x_i - x_j) and (a, b) = (c1, c2) in the static and
    discontinuous laws, the edge gains (alpha, beta) in the adaptive law. A
    call gathers x at the precomputed tail and head indices, scatters +u to
    tails and -u to heads with one bincount over the (node, input) cells and
    applies B^T once, so it costs O(E).
    """

    def __init__(
        self,
        g: graphmod.Graph,
        plant: LinearPlant,
        gains: StaticGains | AdaptiveParams,
        mode: str = "static",
    ):
        if mode not in ("static", "adaptive", "discontinuous"):
            raise ConfigError(f"unknown mode {mode!r}")
        needed = AdaptiveParams if mode == "adaptive" else StaticGains
        if not isinstance(gains, needed):
            raise ConfigError(f"{mode} mode needs {needed.__name__}")
        self.gains, self.mode, self._BT = gains, mode, plant.B.T
        self.tails, self.heads = graphmod.edge_index(g)
        cells = np.concatenate([self.tails, self.heads])[:, None] * plant.m + np.arange(plant.m)
        self._cells, self._n_cells = cells.ravel(), g.n_nodes * plant.m

    def __call__(
        self, t: float, x: NDArray, alpha: NDArray | None = None, beta: NDArray | None = None
    ) -> tuple[NDArray, NDArray | None, NDArray | None]:
        """(coupling, dalpha, dbeta) at time t and agent states x (N, n):
        coupling[i] sums +-u_ij B^T over the edges at i; the edge-gain rates
        are those of the adaptive law and None in the others."""
        p = self.gains
        d = x[self.tails] - x[self.heads]           # (E, n)
        w = d @ p.K.T                                # (E, m)
        if self.mode == "discontinuous":
            h = discontinuous_sign(w)
        else:
            h = boundary_layer(w, p.eps, p.phi, t)
        if self.mode == "adaptive":
            u = alpha[:, None] * w + beta[:, None] * h
        else:
            u = p.c1 * w + p.c2 * h
        cells = np.bincount(
            self._cells, weights=np.concatenate([u, -u]).ravel(), minlength=self._n_cells
        )
        coupling = cells.reshape(-1, u.shape[1]) @ self._BT
        if self.mode != "adaptive":
            return coupling, None, None
        dalpha = p.mu * (-p.theta * alpha + np.einsum("ei,ij,ej->e", d, p.Gamma, d))
        # ||w||^2 / (||w|| + width) = w . h
        dbeta = p.nu * (-p.chi * beta + np.einsum("em,em->e", w, h))
        return coupling, dalpha, dbeta


def edge_signals(
    x: NDArray, K: NDArray, g: graphmod.Graph
) -> NDArray[np.float64]:
    """Per-edge coupling signals K(x_i - x_j), one row per stored edge."""
    ei, ej = graphmod.edge_index(g)
    return (x[ei] - x[ej]) @ K.T


def static_rhs(
    state: NetworkState,
    rs: ReferenceSet,
    gains: StaticGains,
    g: graphmod.Graph,
    discontinuous: bool = False,
    inputs: NDArray | None = None,
) -> NetworkState:
    """Closed-loop vector field of the static law.

    dx_i = A x_i + c1 B sum_j K(x_i - x_j) + c2 B sum_j h_i[K(x_i - x_j)] + B f_i.
    With discontinuous=True the smoothed h_i is replaced by the unit-direction
    sign term (chattering-comparison mode). `inputs` may carry a precomputed
    rs.eval_inputs(t) to avoid re-evaluation.
    """
    return _closed_loop(state, rs, gains, g, "discontinuous" if discontinuous else "static", inputs)


def adaptive_rhs(
    state: NetworkState,
    rs: ReferenceSet,
    params: AdaptiveParams,
    g: graphmod.Graph,
    inputs: NDArray | None = None,
) -> NetworkState:
    """Closed-loop vector field of the adaptive law plus the two
    sigma-modified edge adaptation laws."""
    if state.alpha is None or state.beta is None:
        raise ConfigError("adaptive mode needs edge gains in the state")
    return _closed_loop(state, rs, params, g, "adaptive", inputs)


def _closed_loop(
    state: NetworkState,
    rs: ReferenceSet,
    gains: StaticGains | AdaptiveParams,
    g: graphmod.Graph,
    mode: str,
    inputs: NDArray | None,
) -> NetworkState:
    # one call builds its own kernel; sim.run builds one per run
    f = rs.eval_inputs(state.t) if inputs is None else inputs
    kernel = EdgeKernel(g, rs.plant, gains, mode)
    coupling, dalpha, dbeta = kernel(state.t, state.x, state.alpha, state.beta)
    dx = state.x @ rs.plant.A.T + f @ rs.plant.B.T + coupling
    return NetworkState(t=1.0, x=dx, alpha=dalpha, beta=dbeta)
