"""The two distributed average-tracking laws: boundary-layer smoothing, the
one closed loop of the static, discontinuous and adaptive laws, and the gain
design recipe."""

from __future__ import annotations

import inspect
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import graph as graphmod
from .errors import ConfigError, located
from .numerics import NumericsConfig, DEFAULT_CONFIG, solve_are
from .signals import LinearPlant, ReferenceSet, concat_references


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
    out: NDArray | None = None, work: tuple = (None, None, None, None),
) -> NDArray[np.float64]:
    """h = w / div with div = max(||w|| + width, ||w|| floor) and ||w|| the
    hypot chain, and h = 0 on rows whose div is at most `zero`: the one
    formula for the direction h of every law. Where div overflows, those
    rows and their width are first divided by the row's largest entry,
    which leaves h unchanged in exact arithmetic; the other rows keep their
    bits. width, floor and zero may be columns with one entry per row. h is
    written into `out`, and `work` may hold the norm and divisor columns,
    which keep ||w|| and div of the rows as given, the column of ||w|| floor
    and the boolean column of the zero rows."""
    nrm, div, floored, low = work
    nrm = _row_norms(w, nrm)
    div = np.add(nrm, width, out=div)
    np.maximum(div, np.multiply(nrm, floor, out=floored), out=div)
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
    mu: float
    nu: float
    theta: float
    chi: float
    eps: float
    phi: float
    P: NDArray[np.float64]
    alpha0: float = 0.0          # shared per-edge initial gains
    beta0: float = 0.0
    # n x n, Gamma = P B B^T P = K^T K, derived from K. __init__ takes a Gamma
    # only to check it, so dataclasses.replace derives it again from a new K
    Gamma: NDArray[np.float64] = field(init=False)

    def __post_init__(self):
        for name in ("mu", "nu", "theta", "chi", "eps", "phi", "alpha0", "beta0"):
            located(name, in_range, name, getattr(self, name))
        K = np.asarray(self.K, dtype=float)
        object.__setattr__(self, "Gamma", K.T @ K)


_fields_init = AdaptiveParams.__init__
_fields_signature = inspect.signature(_fields_init)


def _init_taking_gamma(self, *args, Gamma=None, **kwargs):
    _fields_init(self, *args, **kwargs)
    if Gamma is not None:
        located("Gamma", _is_gram, Gamma, np.asarray(self.K, dtype=float), self.Gamma)


# help() and editors show the fields, then the keyword-only Gamma
_init_taking_gamma.__signature__ = _fields_signature.replace(parameters=[
    *_fields_signature.parameters.values(),
    inspect.Parameter("Gamma", inspect.Parameter.KEYWORD_ONLY, default=None)])
AdaptiveParams.__init__ = _init_taking_gamma


def _is_gram(given, K: NDArray, gamma: NDArray) -> None:
    # to rounding: within 1e-12 of the largest entry of |K|^T |K|, the
    # scale of the sums that form K^T K
    given = np.asarray(given, dtype=float)
    scale = (np.abs(K).T @ np.abs(K)).max(initial=0.0)
    if given.shape != gamma.shape or not np.abs(given - gamma).max(initial=0.0) <= 1e-12 * scale:
        raise ConfigError(f"must be K^T K = P B B^T P, the {gamma.shape} Gram matrix of K, to "
                          f"rounding; leave it out to have it derived from K")


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


def design_gains(
    plant: LinearPlant,
    g: graphmod.Graph,
    Q: NDArray,
    f0: float,
    eps: float = 5.0,
    phi: float = 0.5,
    margins: tuple[float, float] = (1.0, 1.0),
    cfg: NumericsConfig = DEFAULT_CONFIG,
) -> StaticGains:
    """Gain design recipe of every law: ARE solve for P and K = -B^T P, then
    minimal compliant couplings. The adaptive law takes its P and K from here.

    c1 = margin1 / (2*lambda2), c2 = margin2 * f0 * (N - 1); margins of 1
    sit exactly on the design bounds. g.lambda2 raises NotConnected, before
    anything else is checked, if g is not connected.
    """
    lam2 = g.lambda2
    margins = located("margins", design_margins, margins)
    P = solve_are(plant.A, plant.B, np.asarray(Q, dtype=float), cfg).P
    c1 = margins[0] / (2.0 * lam2)
    c2 = margins[1] * f0 * (g.n_nodes - 1)
    return StaticGains(K=-plant.B.T @ P, c1=c1, c2=c2, eps=eps, phi=phi, P=P)


LAWS = ("discontinuous", "static", "adaptive")   # the order of a closed loop's edge slices


class ClosedLoop:
    """The closed loop of the three laws over (graph, references, gains)
    blocks, built once per run. Agent i follows x_i' = A x_i + B f_i +
    B sum_j u_ij beside its reference r_i' = A r_i + B f_i, with
    u_ij = a_ij w_ij + b_ij h_ij and w_ij = K(x_i - x_j): (a, b) = (c1, c2)
    on static and discontinuous edges, the edge gains (alpha, beta), whose
    rates are rate * (-decay * gain + drive), on adaptive edges.

    Block b runs under law mode[b] (or `mode` for all) on the disjoint union
    of the graphs. The loop holds the blocks in the order of LAWS, the
    caller's order within a law, so each law's edges are one slice and a
    group of one law does no work of another. In that order, `order` and
    `laws` give each block's index in the caller's order and its law,
    `node_offsets` and `gain_offsets` where its nodes and its adaptive edge
    gains start, with the totals at the end, and `references` joins the
    blocks' references. The blocks share the plant and K, and every term is
    edge-local, so no block sees another's. The state [x, r, alpha, beta]
    starts at `y0`, and `owner` gives each entry's block in the caller's
    order. `terms(times)` forms the terms that depend on time alone, and
    `loop(row, y, out)` is the vector field.

    Every edge takes h = w / max(||w|| + width, ||w|| floor), ||w|| the
    hypot chain, from the one routine that forms the direction: with
    boundary_layer's width and floor on static and adaptive blocks, and on
    discontinuous blocks with the width of eps = 0, the smallest subnormal,
    floor 1 and h = 0 where the divisor is at most 1e-15, which is
    discontinuous_sign. The coupling gathers x at the tail and head indices,
    forms h and u over all edges at once, and scatters +u to tails and -u to
    heads with one bincount over the (node, input) cells, in O(E). The
    adaptive drives, (x_i - x_j)^T Gamma (x_i - x_j) = ||w||^2 and
    w . h = ||w||^2 / div, come from the norm and divisor that forming h
    leaves. Each block's constants are held only in the per-edge stacks a
    call reads: (a, b) as one (2, E, 1) stack, the floor and zero threshold
    as (E, 1) columns (no threshold without a discontinuous block), and the
    rates (mu, nu), decays (theta, chi) and `gains0` (alpha0, beta0) as
    (2, Ea) stacks, empty where no block is adaptive.
    """

    def __init__(
        self,
        blocks: Sequence[tuple[graphmod.Graph, ReferenceSet, StaticGains | AdaptiveParams]],
        mode: str | Sequence[str] = "static",
    ):
        modes = [mode] * len(blocks) if isinstance(mode, str) else list(mode)
        if len(modes) != len(blocks):
            raise ConfigError(f"{len(modes)} modes for {len(blocks)} blocks")
        for (g, rs, p), m in zip(blocks, modes):
            if g.n_nodes != rs.n_agents:
                raise ConfigError("graph size must match the number of agents")
            if m not in LAWS:
                raise ConfigError(f"unknown mode {m!r}")
            needed = AdaptiveParams if m == "adaptive" else StaticGains
            if not isinstance(p, needed):
                raise ConfigError(f"{m} mode needs {needed.__name__}")
        self.order = sorted(range(len(blocks)), key=lambda b: LAWS.index(modes[b]))
        graphs, sets, gains = zip(*[blocks[b] for b in self.order])
        self.laws = modes = [modes[b] for b in self.order]
        if any(_bits(p.K) != _bits(gains[0].K) for p in gains):
            raise ConfigError("the blocks of one closed loop must share K")
        self.references = concat_references(sets)
        plant, N = self.references.plant, self.references.n_agents
        counts = [h.n_edges for h in graphs]
        self.node_offsets = np.cumsum([0] + [h.n_nodes for h in graphs])
        self.gain_offsets = np.cumsum([0] + [c * (m == "adaptive") for c, m in zip(counts, modes)])

        def stack(laws: tuple[str, ...], *names: str) -> NDArray[np.float64]:
            # one row per name, one column per edge of the blocks under
            # `laws`: each block's value repeated over its edges
            ours = [(p, c) for p, c, m in zip(gains, counts, modes) if m in laws]
            values = np.array([[float(getattr(p, k)) for p, _ in ours] for k in names])
            return np.repeat(values, [c for _, c in ours], axis=-1)

        # A^T held C-contiguous: the product keeps its bits and takes a faster route
        self._AT, self._KT, self._BT = np.ascontiguousarray(plant.A.T), gains[0].K.T, plant.B.T
        index = [graphmod.edge_index(h) + o for h, o in zip(graphs, self.node_offsets)]
        self.tails, self.heads = np.concatenate(index, axis=1)
        self._ends = np.concatenate([self.tails, self.heads])
        cells = self._ends[:, None] * plant.m + np.arange(plant.m)
        self._cells, self._n_cells = cells.ravel(), N * plant.m

        # edges [0, nf) are discontinuous or static, [nf, E) adaptive
        E, n, m, Ea = len(self.tails), plant.n, plant.m, int(self.gain_offsets[-1])
        self._nf = nf = sum(c for c, law in zip(counts, modes) if law != "adaptive")
        # The work arrays of a call: x at the tails then at the heads, d =
        # x_i - x_j, w and h as one stack, and the direction's work. The
        # products a*w and b*h, stacked alike, become [u; -u] for the
        # scatter. The views a call works on are made here once.
        x_ends, d = self._x_ends, self._d = np.empty((2 * E, n)), np.empty((E, n))
        self._wh, u = np.empty((2, E, m)), np.empty((2, E, m))
        self._w, self._h = w, h = self._wh
        nrm, div, floored = np.empty((3, E, 1))
        self._work = (nrm, div, floored, np.empty((E, 1), dtype=bool))
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
        self._adaptive = (nrm[nf:, 0], div[nf:, 0], drive, drive[0], drive[1])
        # The direction's constants per block, repeated over its edges: a
        # discontinuous block is the boundary layer of eps = 0, with floor 1
        # and h = 0 at or below the zero threshold; the others have
        # boundary_layer's floor and no threshold
        sign = np.array([law == "discontinuous" for law in modes], dtype=bool)
        self._eps = np.where(sign, 0.0, [float(p.eps) for p in gains])
        self._phi = np.array([float(p.phi) for p in gains])
        self._block_of_edge = edge = np.repeat(np.arange(len(gains)), counts)
        self._floor = np.where(sign, 1.0, _floor(m))[edge, None]
        self._zero = np.where(sign, _ZERO_NORM, -1.0)[edge, None] if sign.any() else None

        # the state [x, r, alpha, beta] and the block of each entry; one
        # time's terms are f(t) B^T and the edges' widths
        r0 = self.references.initial_states.ravel()
        self.y0 = np.concatenate([r0, r0, self.gains0.ravel()])
        nodes = np.repeat(self.order, np.diff(self.node_offsets) * n)
        edges = np.repeat(self.order, np.diff(self.gain_offsets))
        self.owner = np.concatenate([nodes, nodes, edges, edges])
        self._split, self._shapes = 2 * N * n, ((2, N, n), (2, Ea))

    def widths(self, times: Sequence[float]) -> NDArray[np.float64]:
        """The width of every edge at each of the T given times, (T, E): one
        exp per block and time, repeated over the block's edges."""
        per_block = _width(self._eps, self._phi, np.asarray(times, dtype=float)[:, None])
        return per_block.take(self._block_of_edge, axis=1)

    def terms(self, times: Sequence[float]) -> list[tuple[NDArray, NDArray]]:
        """The terms of the vector field that depend on time alone, in new
        arrays: one row (f(t) B^T, the (E, 1) width column) per given time,
        which `loop` reads in place of the time."""
        fB = self.references.eval_inputs(times) @ self._BT
        return list(zip(fB, self.widths(times)[:, :, None]))

    def loop(self, row: tuple[NDArray, NDArray], y: NDArray, out: NDArray) -> None:
        """Write the vector field at the state y into out, an array shaped
        like y, at the time of `row`, a row of `terms`. x and r go through
        one product over their (2, N, n) stack, of the shape of a product
        over x or r alone."""
        f_BT, width = row
        split, (xr_shape, gains_shape) = self._split, self._shapes
        xr, dxr = y[:split].reshape(xr_shape), out[:split].reshape(xr_shape)
        np.matmul(xr, self._AT, out=dxr)
        np.add(dxr, f_BT, out=dxr)
        # the edge gains and their rates are empty unless a block is adaptive
        self.add_to(width, xr[0], y[split:].reshape(gains_shape), dxr[0],
                    out[split:].reshape(gains_shape))

    def add_to(
        self, width: NDArray, x: NDArray, gains: NDArray, dx: NDArray, rates: NDArray
    ) -> None:
        """Add the coupling at agent states x (N, n) into dx, and write the
        rates of the adaptive edges' gains, gains = [alpha; beta] (2, Ea),
        into rates (2, Ea) (not touched where there are no adaptive edges).
        `width` is the (E, 1) column of the widths at the call's time. It
        works in the loop's own arrays, so one loop serves one call at a
        time."""
        E, nf = len(self.tails), self._nf
        x.take(self._ends, axis=0, out=self._x_ends, mode="clip")   # the ends are in range
        np.subtract(*self._ends_x, out=self._d)
        np.matmul(self._d, self._KT, out=self._w)
        _direction(self._w, width, self._floor, self._zero, self._h, self._work)
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
        # (x_i - x_j)^T K^T K (x_i - x_j) = ||w||^2, and w . h = ||w||^2 / div,
        # from the norm and divisor columns that forming h left
        nrm, div, drive, squares, over_div = self._adaptive
        np.multiply(nrm, nrm, out=squares)
        np.divide(squares, div, out=over_div)
        np.multiply(self._decay, gains, out=rates)
        np.add(rates, drive, out=rates)
        np.multiply(self._rate, rates, out=rates)


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
    rs.eval_inputs(t), (N, m), to avoid re-evaluation.
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
    return _closed_loop(state, rs, params, g, "adaptive", inputs)


def _closed_loop(
    state: NetworkState,
    rs: ReferenceSet,
    gains: StaticGains | AdaptiveParams,
    g: graphmod.Graph,
    mode: str,
    inputs: NDArray | None,
) -> NetworkState:
    # one call of a one-block ClosedLoop at y = [x, x, alpha, beta], which
    # keeps the x part and the edge-gain rates; sim.run builds one per run
    loop = ClosedLoop([(g, rs, gains)], mode)
    N, n, m, Ea = rs.n_agents, rs.plant.n, rs.plant.m, int(loop.gain_offsets[-1])
    x = np.asarray(state.x, dtype=float)
    if x.shape != (N, n):
        raise ConfigError(f"x needs shape ({N}, {n}), {N} rows for {N} agents of {n} "
                          f"states, got {x.shape}")
    edge_gains = (state.alpha, state.beta) if Ea else ()
    for name, v in zip(("alpha", "beta"), edge_gains):
        if v is None or np.shape(v) != (Ea,):
            raise ConfigError(f"{name} needs {Ea} entries, one per adaptive edge, got "
                              f"{'none' if v is None else np.shape(v)}")
    f = rs.eval_inputs(state.t) if inputs is None else np.asarray(inputs, dtype=float)
    if f.shape != (N, m):
        raise ConfigError(f"inputs needs shape ({N}, {m}), one row per agent and one column "
                          f"per input, got {f.shape}")
    y = np.concatenate([x.ravel(), x.ravel(), *edge_gains])
    dy = np.empty_like(y)
    loop.loop((f @ rs.plant.B.T, loop.widths([state.t])[0, :, None]), y, dy)
    rates = dy[2 * N * n :].reshape(2, Ea) if Ea else (None, None)
    return NetworkState(t=1.0, x=dy[: N * n].reshape(N, n), alpha=rates[0], beta=rates[1])
