"""Deterministic fixed-step integration of the closed-loop network.

References are co-integrated on the same grid as the agents; the
variation-of-constants path in `signals` stays available as an oracle.
"""

from __future__ import annotations

import math
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
    rhs: Callable[[float, NDArray], NDArray],
    initial: NDArray,
    cfg: SimConfig,
    owner: NDArray[np.intp] | None = None,
) -> tuple[NDArray, NDArray]:
    """Fixed-step RK4 on a flat state vector.

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
    for k in range(n_steps):
        t = k * dt
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2.0, y + dt / 2.0 * k1)
        k3 = rhs(t + dt / 2.0, y + dt / 2.0 * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # every step, so that the reported time is the first non-finite one
        if not np.isfinite(y).all():
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
    adaptive = kernel.alpha0 is not None
    N, n, Ea = rs.n_agents, rs.plant.n, int(edges[-1])
    Nn = N * n
    A, B = rs.plant.A, rs.plant.B

    def rhs(t: float, y: NDArray) -> NDArray:
        x = y[:Nn].reshape(N, n)
        r = y[Nn : 2 * Nn].reshape(N, n)
        fB = rs.eval_inputs(t) @ B.T
        # the edge gains are empty slices unless a block is adaptive
        coupling, *rates = kernel(t, x, y[2 * Nn : 2 * Nn + Ea], y[2 * Nn + Ea :])
        parts = [(x @ A.T + fB + coupling).ravel(), (r @ A.T + fB).ravel()]
        return np.concatenate(parts + rates if adaptive else parts)

    r0 = rs.initial_states
    y0 = [r0.ravel(), r0.ravel()] + ([kernel.alpha0, kernel.beta0] if adaptive else [])
    node_owner = np.repeat(order, np.diff(nodes) * n)
    edge_owner = np.repeat(order, np.diff(edges))
    owner = np.concatenate([node_owner, node_owner] + [edge_owner, edge_owner] * adaptive)
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
