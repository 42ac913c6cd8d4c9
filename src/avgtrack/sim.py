"""Deterministic fixed-step integration of the closed-loop network.

References are co-integrated on the same grid as the agents; the
variation-of-constants path in `signals` stays available as an oracle.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from numbers import Real

import numpy as np
from numpy.typing import NDArray

from . import control
from .errors import ConfigError, NonFinite
from .graph import Graph
from .signals import ReferenceSet, concat_references


@dataclass(frozen=True)
class SimConfig:
    t_end: float
    dt: float = 1e-3
    record_every: int = 1
    integrator: str = "rk4"

    def __post_init__(self):
        for name in ("t_end", "dt"):
            given = getattr(self, name)
            try:
                object.__setattr__(self, name, float(given))
            except (TypeError, ValueError):
                raise ConfigError(f"{name} must be a number, got {given!r}") from None
        every = self.record_every
        if not (isinstance(every, Real) and math.isfinite(every) and int(every) == every >= 1):
            raise ConfigError(f"record_every must be an integer >= 1, got {every!r}")
        object.__setattr__(self, "record_every", int(every))
        if not 0 < self.dt <= self.t_end < math.inf:
            raise ConfigError(f"need 0 < dt <= t_end < inf, got dt={self.dt}, t_end={self.t_end}")
        steps = self.t_end / self.dt    # integrate runs round(steps) steps
        if not steps <= sys.maxsize:
            raise ConfigError(f"t_end/dt = {steps:.10g} must be at most {sys.maxsize} steps")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError(f"t_end/dt = {steps:.10g} must be a whole number of steps")
        if self.integrator != "rk4":
            raise ConfigError(f"unknown integrator {self.integrator!r}")


@dataclass
class Trajectory:
    """Recorded run: uniform time grid plus per-time snapshots."""

    times: NDArray[np.float64]            # (T,)
    x: NDArray[np.float64]                # (T, N, n) agent states
    r: NDArray[np.float64]                # (T, N, n) co-integrated references
    alpha: NDArray[np.float64] | None     # (T, E) adaptive only
    beta: NDArray[np.float64] | None
    mode: str


def integrate(
    rhs: Callable[[float, NDArray, NDArray], None],
    initial: NDArray,
    cfg: SimConfig,
    owner: NDArray[np.intp] | None = None,
) -> tuple[NDArray, NDArray]:
    """Fixed-step RK4 on a flat state vector.

    `rhs(t, y, out)` writes the vector field at (t, y) into `out`, an array
    shaped like y; it must not write y or keep either array. The stages
    live in arrays allocated once per run, and each stage and update keeps
    the operation order of y + dt/2*k1 and y + dt/6*(((k1 + 2k2) + 2k3) + k4).
    Time stamps are computed as step_index * dt (no accumulated addition),
    and the time-varying terms of the vector field see the exact stage
    times. Returns (times, states) with states[k] at times[k]. `owner` may
    give the block of each state entry; a NonFinite then names the lowest
    block with a non-finite entry.
    """
    n_steps = int(round(cfg.t_end / cfg.dt))
    y = np.array(initial, dtype=float)
    rec_idx = list(range(0, n_steps, cfg.record_every)) + [n_steps]
    rec = np.empty((len(rec_idx), y.size))
    rec[0] = y
    n_rec = 1
    dt = cfg.dt
    half, sixth = dt / 2.0, dt / 6.0
    k1, k2, k3, k4, stage = (np.empty_like(y) for _ in range(5))
    for k in range(n_steps):
        t = k * dt
        rhs(t, y, k1)
        np.add(y, np.multiply(half, k1, out=stage), out=stage)
        rhs(t + half, stage, k2)
        np.add(y, np.multiply(half, k2, out=stage), out=stage)
        rhs(t + half, stage, k3)
        np.add(y, np.multiply(dt, k3, out=stage), out=stage)
        rhs(t + dt, stage, k4)
        np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
        np.add(k1, np.multiply(2.0, k3, out=k3), out=k1)
        np.add(k1, k4, out=k1)
        np.add(y, np.multiply(sixth, k1, out=k1), out=y)
        # every step, so that the reported time is the first non-finite one;
        # a finite sum means finite entries, and only its overflow or a
        # non-finite entry takes the exact scan
        if not math.isfinite(np.add.reduce(y)) and not np.isfinite(y).all():
            block = None if owner is None else int(owner[~np.isfinite(y)].min())
            raise NonFinite(f"non-finite state at t={(k + 1) * dt:g}", time=(k + 1) * dt,
                            block=block)
        if k + 1 == rec_idx[n_rec]:
            rec[n_rec] = y
            n_rec += 1
    times = np.array(rec_idx, dtype=float) * dt
    return times, rec


def run(
    g: Graph,
    rs: ReferenceSet,
    gains: control.StaticGains | control.AdaptiveParams,
    cfg: SimConfig,
    mode: str = "static",
) -> Trajectory:
    """Integrate the selected closed loop together with the references.

    The filter initial condition s_i(0) = 0 forces x_i(0) = r_i(0). Adaptive
    edge gains start at the configured alpha0/beta0 (default 0). This is
    run_blocks with one block.
    """
    return run_blocks([(g, rs, gains)], cfg, mode)[0]


def run_blocks(
    blocks: Sequence[tuple[Graph, ReferenceSet, control.StaticGains | control.AdaptiveParams]],
    cfg: SimConfig,
    mode: str | Sequence[str] = "static",
) -> list[Trajectory]:
    """Integrate several (graph, references, gains) blocks as one closed loop
    on the disjoint union of their graphs, and return one Trajectory per
    block, in the order given, whose arrays are views into the run's.

    `mode` is one law for all blocks, or one law per block. The blocks must
    share the plant, K and, among adaptive blocks, Gamma. The state
    [x, r, alpha, beta], with alpha and beta on the adaptive edges only,
    follows the order in which the EdgeKernel holds the blocks. Every term
    is edge-local, so a block's states see the same operations as in a run
    of its own. They keep its bits when the block's graph has three or more
    edges and the plant at most seven states and inputs; beyond that, numpy
    forms a row of a product by a route that depends on the row's place. A
    non-finite value raises NonFinite at the first step that has one, with
    `block` the lowest index, in the order given, of a block that does.
    """
    for g, rs, _ in blocks:
        if g.n_nodes != rs.n_agents:
            raise ConfigError("graph size must match the number of agents")
    graphs, sets, gains = zip(*blocks)
    kernel = control.EdgeKernel(graphs, sets[0].plant, gains, mode)
    order, nodes, edges = kernel.order, kernel.node_offsets, kernel.gain_offsets
    rs = concat_references([sets[b] for b in order])
    N, n, Ea = rs.n_agents, rs.plant.n, int(edges[-1])
    Nn = N * n
    A, B = rs.plant.A, rs.plant.B

    # the time-only term, for the last stage time: k3 shares k2's time and
    # a step's k1 shares the previous k4's wherever their bits agree
    last = [None, None]
    AT = A.T

    def rhs(t: float, y: NDArray, out: NDArray) -> None:
        if t != last[0]:
            last[:] = t, rs.eval_inputs(t) @ B.T
        # x and r as one (2, N, n) stack: one product per half, of the shape
        # of a product over x or r alone
        xr, dxr = y[: 2 * Nn].reshape(2, N, n), out[: 2 * Nn].reshape(2, N, n)
        np.matmul(xr, AT, out=dxr)
        np.add(dxr, last[1], out=dxr)
        # the edge gains [alpha; beta] and their rates are empty unless a block is adaptive
        kernel.add_to(t, xr[0], y[2 * Nn :].reshape(2, Ea), dxr[0], out[2 * Nn :].reshape(2, Ea))

    r0 = rs.initial_states
    y0 = [r0.ravel(), r0.ravel(), kernel.gains0.ravel()]
    node_owner = np.repeat(order, np.diff(nodes) * n)
    edge_owner = np.repeat(order, np.diff(edges))
    owner = np.concatenate([node_owner, node_owner, edge_owner, edge_owner])
    times, ys = integrate(rhs, np.concatenate(y0), cfg, owner)
    T = len(times)
    x = ys[:, :Nn].reshape(T, N, n)
    r = ys[:, Nn : 2 * Nn].reshape(T, N, n)
    alpha = ys[:, 2 * Nn : 2 * Nn + Ea]
    beta = ys[:, 2 * Nn + Ea :]
    trajs = [None] * len(blocks)
    for b, law, n0, n1, e0, e1 in zip(order, kernel.laws, nodes, nodes[1:], edges, edges[1:]):
        trajs[b] = Trajectory(
            times=times,
            x=x[:, n0:n1],
            r=r[:, n0:n1],
            alpha=alpha[:, e0:e1] if law == "adaptive" else None,
            beta=beta[:, e0:e1] if law == "adaptive" else None,
            mode=law,
        )
    return trajs
