"""The two distributed average-tracking laws: boundary-layer smoothing, the
edge-coupling kernel of the static, discontinuous and adaptive closed loops,
and the gain design recipe."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import graph as graphmod
from .errors import ConfigError, located
from .numerics import NumericsConfig, DEFAULT_CONFIG, solve_are
from .signals import LinearPlant, ReferenceSet


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal


def boundary_layer(
    w: NDArray, eps: float | NDArray, phi: float | NDArray, t: float
) -> NDArray[np.float64]:
    """Smoothed unit direction w / (||w|| + eps * e^{-phi t}).

    Continuous everywhere (including w = 0). The norm is strictly below 1 in
    exact arithmetic and at most 1 in doubles, for every finite w and
    eps, phi, t >= 0. The eps*e^{-phi t} term is the shrinking boundary-layer
    width. Rows of a 2-D w (one per edge) are smoothed independently, and
    eps and phi may be columns with one entry per row.
    """
    w = np.asarray(w, dtype=float)
    width = np.maximum(eps * np.exp(-phi * t), _TINY)
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
        for name in ("eps", "phi"):
            located(name, in_range, name, getattr(self, name))
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
        for name in ("mu", "nu", "theta", "chi", "eps", "phi", "alpha0", "beta0"):
            located(name, in_range, name, getattr(self, name))


def in_range(name: str, value) -> float:
    """`value` as a float in the range of the gain field `name`: alpha0 and
    beta0 finite, the others positive and finite. Shared with the parser."""
    v, positive = float(value), name not in ("alpha0", "beta0")
    if not (0 if positive else -math.inf) < v < math.inf:     # NaN fails too
        raise ConfigError(f"must be {'positive and ' * positive}finite, got {v!r}")
    return v


def design_margins(value) -> tuple[float, float]:
    """The two design margins as floats, each finite and >= 1. Shared with the parser."""
    m1, m2 = (float(m) for m in value)
    if not (1.0 <= m1 < math.inf and 1.0 <= m2 < math.inf):
        raise ConfigError(f"must be finite and >= 1, got [{m1!r}, {m2!r}]")
    return m1, m2


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
    caller already has it; else lambda2(g) raises NotConnected if g is not connected.
    """
    if lam2 is None:
        lam2 = graphmod.lambda2(g)
    margins = located("margins", design_margins, margins)
    P, K = feedback_gain(plant, Q, cfg)
    c1 = margins[0] / (2.0 * lam2)
    c2 = margins[1] * f0 * (g.n_nodes - 1)
    return StaticGains(K=K, c1=c1, c2=c2, eps=eps, phi=phi, P=P)


LAWS = ("discontinuous", "static", "adaptive")   # the order of a kernel's edge slices


class EdgeKernel:
    """Edge coupling of the three laws on one graph, built once per run.

    Agent i is driven by its edges alone, through u_ij = a_ij w_ij + b_ij h_ij
    with w_ij = K(x_i - x_j). On static and discontinuous edges (a, b) =
    (c1, c2), on adaptive edges the edge gains (alpha, beta); h is
    discontinuous_sign on discontinuous edges and boundary_layer on the
    others. A call gathers x at the precomputed tail and head indices,
    scatters +u to tails and -u to heads with one bincount over the
    (node, input) cells and applies B^T once, so it costs O(E).

    `g`, `gains` and `mode` may instead be equal-length sequences (`mode` may
    also stay one law for all). The kernel then couples the disjoint union of
    the graphs, block b with gains[b] under law mode[b]. It holds the blocks
    in the order of LAWS, the caller's order within a law, so each law's
    edges are one slice, and no function is called on an empty slice. In
    that order, `order` and `laws` give each block's index in the caller's
    order and its law, and `node_offsets` and `gain_offsets` where its nodes
    start in the union and its edge gains among the adaptive edges, with the
    totals at the end. The kernel holds c1, c2 on the static and
    discontinuous edges, eps, phi on the static and adaptive edges, and mu,
    nu, theta, chi on the adaptive edges, each as one number where all those
    blocks hold the same bits, else one entry per edge; the initial edge
    gains alpha0/beta0 are held per adaptive edge. K must be the same in
    every block, and Gamma in every adaptive block. Every term is edge-local,
    so no block sees another's.
    """

    def __init__(
        self,
        g: graphmod.Graph | Sequence[graphmod.Graph],
        plant: LinearPlant,
        gains: StaticGains | AdaptiveParams | Sequence[StaticGains | AdaptiveParams],
        mode: str | Sequence[str] = "static",
    ):
        graphs, blocks = ([g], [gains]) if isinstance(g, graphmod.Graph) else (list(g), list(gains))
        modes = [mode] * len(blocks) if isinstance(mode, str) else list(mode)
        if len(modes) != len(blocks):
            raise ConfigError(f"{len(modes)} modes for {len(blocks)} blocks")
        for m, p in zip(modes, blocks):
            if m not in LAWS:
                raise ConfigError(f"unknown mode {m!r}")
            needed = AdaptiveParams if m == "adaptive" else StaticGains
            if not isinstance(p, needed):
                raise ConfigError(f"{m} mode needs {needed.__name__}")
        self.order = sorted(range(len(blocks)), key=lambda b: LAWS.index(modes[b]))
        graphs, blocks = [graphs[b] for b in self.order], [blocks[b] for b in self.order]
        self.laws = modes = [modes[b] for b in self.order]
        adaptive = [p for p, m in zip(blocks, modes) if m == "adaptive"]
        for shared, name in ((blocks, "K"), (adaptive, "Gamma")):
            if any(_bits(getattr(p, name)) != _bits(getattr(shared[0], name)) for p in shared):
                raise ConfigError(f"the blocks of one kernel must share {name}")
        counts = [h.n_edges for h in graphs]
        self.node_offsets = np.cumsum([0] + [h.n_nodes for h in graphs])
        self.gain_offsets = np.cumsum([0] + [c * (m == "adaptive") for c, m in zip(counts, modes)])

        def held(name: str, laws: tuple[str, ...], per_edge: bool = False):
            # one number when all blocks under `laws` hold the same bits: a
            # shared width then costs one exp per call, not one per edge
            vals = [float(getattr(p, name)) for p, m in zip(blocks, modes) if m in laws]
            if not vals:
                return None
            if len({_bits(v) for v in vals}) == 1 and not per_edge:
                return vals[0]
            return np.repeat(vals, [c for c, m in zip(counts, modes) if m in laws])

        def column(name: str, laws: tuple[str, ...]):
            v = held(name, laws)
            return v[:, None] if isinstance(v, np.ndarray) else v

        fixed, smooth = ("discontinuous", "static"), ("static", "adaptive")
        self.c1, self.c2 = column("c1", fixed), column("c2", fixed)
        self.eps, self.phi = column("eps", smooth), column("phi", smooth)
        self.mu, self.nu, self.theta, self.chi = (
            held(k, ("adaptive",)) for k in ("mu", "nu", "theta", "chi")
        )
        self.alpha0 = held("alpha0", ("adaptive",), per_edge=True)
        self.beta0 = held("beta0", ("adaptive",), per_edge=True)
        laws = set(modes)
        # edges [0, n_sign) are discontinuous, [n_sign, n_fixed) static, the rest adaptive
        self._n_sign = sum(c for c, m in zip(counts, modes) if m == "discontinuous")
        self._n_fixed = self._n_sign + sum(c for c, m in zip(counts, modes) if m == "static")
        self._sign, self._adaptive = "discontinuous" in laws, "adaptive" in laws
        self._smooth, self._fixed = laws != {"discontinuous"}, laws != {"adaptive"}
        self._KT, self._BT = blocks[0].K.T, plant.B.T
        self._Gamma = adaptive[0].Gamma if adaptive else None
        index = [graphmod.edge_index(h) + o for h, o in zip(graphs, self.node_offsets)]
        self.tails, self.heads = np.concatenate(index, axis=1)
        cells = np.concatenate([self.tails, self.heads])[:, None] * plant.m + np.arange(plant.m)
        self._cells, self._n_cells = cells.ravel(), int(self.node_offsets[-1]) * plant.m

    def __call__(
        self, t: float, x: NDArray, alpha: NDArray | None = None, beta: NDArray | None = None
    ) -> tuple[NDArray, NDArray | None, NDArray | None]:
        """(coupling, dalpha, dbeta) at time t, agent states x (N, n) and the
        gains alpha, beta of the adaptive edges: coupling[i] sums +-u_ij B^T
        over the edges at i; the edge-gain rates cover the adaptive edges and
        are None where there are none."""
        d = x[self.tails] - x[self.heads]           # (E, n)
        w = d @ self._KT                             # (E, m)
        ns, nf = self._n_sign, self._n_fixed
        h = _joined(discontinuous_sign(w[:ns]) if self._sign else None,
                    boundary_layer(w[ns:], self.eps, self.phi, t) if self._smooth else None)
        u = _joined(self.c1 * w[:nf] + self.c2 * h[:nf] if self._fixed else None,
                    alpha[:, None] * w[nf:] + beta[:, None] * h[nf:] if self._adaptive else None)
        cells = np.bincount(
            self._cells, weights=np.concatenate([u, -u]).ravel(), minlength=self._n_cells
        )
        coupling = cells.reshape(-1, u.shape[1]) @ self._BT
        if not self._adaptive:
            return coupling, None, None
        d, w, h = d[nf:], w[nf:], h[nf:]
        dalpha = self.mu * (-self.theta * alpha + np.einsum("ei,ij,ej->e", d, self._Gamma, d))
        # ||w||^2 / (||w|| + width) = w . h
        dbeta = self.nu * (-self.chi * beta + np.einsum("em,em->e", w, h))
        return coupling, dalpha, dbeta


def _joined(first: NDArray | None, second: NDArray | None) -> NDArray:
    """The rows of two consecutive edge slices; a lone slice as it is."""
    if first is None or second is None:
        return second if first is None else first
    return np.concatenate([first, second])


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


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
