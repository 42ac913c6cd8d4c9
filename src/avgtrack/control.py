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
_ZERO_NORM = 1e-15          # discontinuous_sign is 0 on rows with ||w|| at most this


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
    return _direction(w, _width(eps, phi, t), _floor(w.shape[-1]))


def discontinuous_sign(w: NDArray) -> NDArray[np.float64]:
    """Unit direction w/||w||, zero at (numerically) zero w: the boundary
    layer of eps = 0, whose width is the smallest subnormal, with floor 1
    and h = 0 where ||w|| <= 1e-15. Rows of a 2-D w are normalised
    independently."""
    return _direction(np.asarray(w, dtype=float), _TINY, 1.0, _ZERO_NORM)


def _width(eps: float | NDArray, phi: float | NDArray, t: float) -> NDArray[np.float64]:
    # The width stays above zero so that w = 0 gives h = 0 after e^{-phi t}
    # underflows. Above 1e-15 the smallest subnormal adds nothing to a norm.
    return np.maximum(eps * np.exp(-phi * t), _TINY)


def _floor(m: int) -> float:
    # The hypot chain gives row norms without underflow, to within m - 1
    # ulps for rows of length m. The divisor never drops below ||w|| times
    # this floor, 1 + 4 m ulp. That outweighs the norm's error plus the
    # rounding of the division and of a later sum-of-squares norm of h, so
    # ||h|| <= 1 holds in doubles; the floor binds only where the width is
    # already below that rounding.
    return 1.0 + 4 * m * _EPS


def _direction(
    w: NDArray, width: float | NDArray, floor: float | NDArray, zero: float | NDArray | None = None,
    out: NDArray | None = None, work: tuple = (None, None, None),
) -> NDArray[np.float64]:
    """h = w / div with div = max(||w|| + width, ||w|| floor) and ||w|| the
    hypot chain, and h = 0 on rows whose div is at most `zero`: the one
    formula for the direction h of every law. Where div overflows, those
    rows and their width are first divided by the row's largest entry,
    which leaves h unchanged in exact arithmetic; the other rows keep their
    bits. width, floor and zero may be columns with one entry per row. h is
    written into `out`, and `work` may hold the norm and divisor columns
    and the boolean column of the zero rows."""
    nrm, div, low = work
    nrm = _row_norms(w, nrm)
    div = np.add(nrm, width, out=div)
    np.maximum(div, np.multiply(nrm, floor, out=nrm), out=div)
    if not math.isfinite(np.maximum.reduce(div, axis=None, initial=0.0)):
        scale = np.where(np.isfinite(div), 1.0, np.abs(w).max(axis=-1, keepdims=True))
        w, width = w / scale, width / scale
        nrm = _row_norms(w)
        div = np.maximum(nrm + width, nrm * floor)
    h = np.divide(w, div, out=out)
    if zero is not None:
        np.copyto(h, 0.0, where=np.less_equal(div, zero, out=low))
    return h


def _row_norms(w: NDArray, out: NDArray | None = None) -> NDArray[np.float64]:
    """The norms of the rows of w (last axis kept) by a chain of np.hypot
    over the columns. The chain starts from |w_0|, as hypot(0, a) = |a|
    exactly, so it has the bits of a hypot reduction over each row from an
    initial 0, without that reduction's per-row libm loop. `out`, shaped
    like one column of w, may take the norms."""
    nrm = np.abs(w[..., :1], out=out)
    for k in range(1, w.shape[-1]):
        np.hypot(nrm, w[..., k : k + 1], out=nrm)
    return nrm


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
        for name in ("c1", "c2"):
            v = float(getattr(self, name))
            if not 0 <= v < math.inf:                          # NaN fails too
                raise ConfigError(f"coupling strength {name} must be nonnegative and finite, "
                                  f"got {v!r}")


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
    (c1, c2), on adaptive edges the edge gains (alpha, beta). Every edge
    takes h = w / max(||w|| + width, ||w|| floor), ||w|| the hypot chain,
    from the one routine that forms the direction. Each block holds its own
    width and floor: boundary_layer's on static and adaptive blocks, so h
    is boundary_layer; on discontinuous blocks the width of eps = 0, the
    smallest subnormal, and floor 1, with h = 0 where the divisor is at
    most 1e-15, so h is discontinuous_sign. A call gathers x at the
    precomputed tail and head indices, forms h over all edges at once, then
    one multiply-add for u, scatters +u to tails and -u to heads with one
    bincount over the (node, input) cells and applies B^T once, so it costs
    O(E).

    The kernel holds each block's constants only in the per-edge stacks a
    call reads: (a, b) as one (2, E, 1) stack, with (c1, c2) on the fixed
    edges; the width, floor and zero threshold as (E, 1) columns, the width
    taking one exp per block once per distinct call time, and no threshold
    column without a discontinuous block; and the rates (mu, nu), decays
    (theta, chi) and initial edge gains `gains0` (alpha0, beta0) as (2, Ea)
    stacks over the adaptive edges, empty where there are none.

    `g`, `gains` and `mode` may instead be equal-length sequences (`mode` may
    also stay one law for all). The kernel then couples the disjoint union of
    the graphs, block b with gains[b] under law mode[b]. It holds the blocks
    in the order of LAWS, the caller's order within a law, so each law's
    edges are one slice, and a group of one law does no work of another. In
    that order, `order` and `laws` give each block's index in the caller's
    order and its law, and `node_offsets` and `gain_offsets` where its nodes
    start in the union and its edge gains among the adaptive edges, with the
    totals at the end. K must be the same in every block, and Gamma in every
    adaptive block. Every term is edge-local, so no block sees another's.
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

        def per_edge(laws: tuple[str, ...], values) -> NDArray:
            # values[..., k] of the k-th block under `laws`, repeated over its edges
            return np.repeat(values, [c for c, m in zip(counts, modes) if m in laws], axis=-1)

        def stack(laws: tuple[str, ...], *names: str) -> NDArray[np.float64]:
            # one row per name, one column per edge of the blocks under `laws`
            ours = [p for p, m in zip(blocks, modes) if m in laws]
            return per_edge(laws, np.array([[float(getattr(p, k)) for p in ours] for k in names]))

        self._KT, self._BT = blocks[0].K.T, plant.B.T
        self._Gamma = adaptive[0].Gamma if adaptive else None
        index = [graphmod.edge_index(h) + o for h, o in zip(graphs, self.node_offsets)]
        self.tails, self.heads = np.concatenate(index, axis=1)
        self._ends = np.concatenate([self.tails, self.heads])
        cells = self._ends[:, None] * plant.m + np.arange(plant.m)
        self._cells, self._n_cells = cells.ravel(), int(self.node_offsets[-1]) * plant.m

        # edges [0, nf) are discontinuous or static, [nf, E) adaptive
        E, m, Ea = len(self.tails), plant.m, int(self.gain_offsets[-1])
        self._nf = nf = sum(c for c, law in zip(counts, modes) if law != "adaptive")
        # The work arrays of a call: x at the tails then at the heads, d =
        # x_i - x_j, w and h as one stack, and the direction's work. The
        # products a*w and b*h, stacked alike, become [u; -u] for the
        # scatter. The views a call works on are made here once.
        x_ends, d = self._x_ends, self._d = np.empty((2 * E, plant.n)), np.empty((E, plant.n))
        self._wh, u = np.empty((2, E, m)), np.empty((2, E, m))
        self._w, self._h = w, h = self._wh
        self._work = (np.empty((E, 1)), np.empty((E, 1)), np.empty((E, 1), dtype=bool))
        self._ends_x, self._u, self._u_rows = (x_ends[:E], x_ends[E:]), u, (u[0], u[1])
        # (a, b) per edge: (c1, c2) on the fixed edges; the adaptive edges
        # take their gains in on each call
        self._ab = np.empty((2, E, 1))
        self._ab[:, :nf, 0] = stack(("discontinuous", "static"), "c1", "c2")
        # the edge-gain rates, rate * (-decay * gain + drive), and the initial
        # gains, each in rows alpha then beta; empty where no block is adaptive
        self._rate = stack(("adaptive",), "mu", "nu")
        self._decay = -stack(("adaptive",), "theta", "chi")
        self.gains0 = stack(("adaptive",), "alpha0", "beta0")
        self._gains, drive = self._ab[:, nf:, 0], np.empty((2, Ea))
        self._adaptive = (d[nf:], w[nf:], h[nf:], drive, drive[0], drive[1])
        # The direction's constants per block, repeated over its edges: a
        # discontinuous block is the boundary layer of eps = 0, with floor 1
        # and h = 0 at or below the zero threshold; the others have
        # boundary_layer's floor and no threshold
        sign = np.array([law == "discontinuous" for law in modes], dtype=bool)
        self._eps = np.where(sign, 0.0, [float(p.eps) for p in blocks])
        self._phi = np.array([float(p.phi) for p in blocks])
        self._block_of_edge = edge = np.repeat(np.arange(len(blocks)), counts)
        self._width, self._width_t = np.empty((E, 1)), None
        self._floor = np.where(sign, 1.0, _floor(m))[edge, None]
        self._zero = np.where(sign, _ZERO_NORM, -1.0)[edge, None] if sign.any() else None

    def _set_width(self, t: float) -> None:
        # one exp per block, repeated over its edges; the indices are in
        # range, and "clip" writes out without a buffer
        _width(self._eps, self._phi, t).take(self._block_of_edge, out=self._width[:, 0],
                                             mode="clip")
        self._width_t = t

    def add_to(self, t: float, x: NDArray, gains: NDArray, dx: NDArray, rates: NDArray) -> None:
        """Add the coupling at time t and agent states x (N, n) into dx, and
        write the rates of the adaptive edges' gains, gains = [alpha; beta]
        (2, Ea), into rates (2, Ea) (not touched where there are no adaptive
        edges). It works in the kernel's own arrays, so one kernel serves one
        call at a time."""
        E, nf = len(self.tails), self._nf
        x.take(self._ends, axis=0, out=self._x_ends, mode="clip")   # the ends are in range
        np.subtract(*self._ends_x, out=self._d)
        np.matmul(self._d, self._KT, out=self._w)
        if t != self._width_t:
            self._set_width(t)
        _direction(self._w, self._width, self._floor, self._zero, self._h, self._work)
        if nf < E:
            np.copyto(self._gains, gains)
        u, (u0, u1) = self._u, self._u_rows
        np.multiply(self._ab, self._wh, out=u)
        np.add(u0, u1, out=u0)
        np.negative(u0, out=u1)
        cells = np.bincount(self._cells, weights=u.ravel(), minlength=self._n_cells)
        np.add(dx, cells.reshape(-1, u.shape[2]) @ self._BT, out=dx)
        if nf == E:
            return
        d, w, h, drive, d_gamma_d, w_dot_h = self._adaptive
        np.einsum("ei,ij,ej->e", d, self._Gamma, d, out=d_gamma_d)
        # ||w||^2 / (||w|| + width) = w . h
        np.einsum("em,em->e", w, h, out=w_dot_h)
        np.multiply(self._decay, gains, out=rates)
        np.add(rates, drive, out=rates)
        np.multiply(self._rate, rates, out=rates)

    def __call__(
        self, t: float, x: NDArray, alpha: NDArray | None = None, beta: NDArray | None = None
    ) -> tuple[NDArray, NDArray | None, NDArray | None]:
        """(coupling, dalpha, dbeta) at time t, agent states x (N, n) and the
        gains alpha, beta of the adaptive edges: coupling[i] sums +-u_ij B^T
        over the edges at i; the edge-gain rates cover the adaptive edges and
        are None where there are none."""
        x = np.asarray(x, dtype=float)
        N, n = int(self.node_offsets[-1]), self._KT.shape[0]
        if x.shape != (N, n):
            raise ConfigError(f"x needs shape ({N}, {n}), {N} rows for {N} agents of {n} "
                              f"states, got {x.shape}")
        # -0.0 is the identity of addition: coupling keeps the bits of the product
        coupling = np.full((N, n), -0.0)
        Ea = int(self.gain_offsets[-1])
        gains, rates = np.empty((2, Ea)), np.empty((2, Ea))
        if Ea:
            for name, v in (("alpha", alpha), ("beta", beta)):
                if v is None or np.shape(v) != (Ea,):
                    raise ConfigError(f"{name} needs {Ea} entries, one per adaptive edge, got "
                                      f"{'none' if v is None else np.shape(v)}")
            gains[:] = alpha, beta
        self.add_to(t, x, gains, coupling, rates)
        return (coupling, *(rates if Ea else (None, None)))


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def edge_signals(
    x: NDArray, K: NDArray, g: graphmod.Graph
) -> NDArray[np.float64]:
    """Per-edge coupling signals K(x_i - x_j), one row per stored edge."""
    ei, ej = graphmod.edge_index(g)
    return (np.take(x, ei, axis=0) - np.take(x, ej, axis=0)) @ K.T


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
