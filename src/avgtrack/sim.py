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
from .signals import ReferenceSet


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


BLOCK_STEPS = 32    # the steps of one block, whose time-only terms are formed in one pass


def integrate(
    rhs: Callable[[object, NDArray, NDArray], None],
    initial: NDArray,
    cfg: SimConfig,
    owner: NDArray[np.intp] | None = None,
    terms: Callable[[list[float]], Sequence] = list,
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
    block with a non-finite entry. A record array that numpy cannot
    allocate raises ConfigError before the first step.

    The steps run in blocks of BLOCK_STEPS. `terms` forms the terms of the
    vector field that depend on time alone: terms(times) gets all of a
    block's distinct stage times, in order, and returns a sequence whose
    i-th item rhs then gets in place of times[i], with the same bits
    whatever other times share the call. A step's k2 and k3 share a time,
    and its k1 shares the previous step's k4's where the two agree bit for
    bit, so a block of S steps has at most 3S distinct times.
    """
    n_steps, every = int(round(cfg.t_end / cfg.dt)), cfg.record_every
    y = np.array(initial, dtype=float)
    rows = -(-n_steps // every) + 1     # each every-th step below n_steps, and n_steps
    try:
        rec = np.empty((rows, y.size))
    except (MemoryError, ValueError):    # ValueError: more bytes than an index can count
        raise ConfigError(f"sim: cannot allocate {rows} x {y.size} records for {n_steps} steps; "
                          "raise dt or record_every") from None
    rec[0] = y
    n_rec = 1
    dt = cfg.dt
    half, sixth = dt / 2.0, dt / 6.0
    k1, k2, k3, k4, stage = (np.empty_like(y) for _ in range(5))
    for start in range(0, n_steps, BLOCK_STEPS):
        steps = range(start, min(start + BLOCK_STEPS, n_steps))
        # each stage time's row among the block's distinct times: three per
        # step, for k1, for k2 and k3, and for k4
        times, rows = [], []
        for k in steps:
            t = k * dt
            for s in (t, t + half, t + dt):
                if not times or s != times[-1]:
                    times.append(s)
                rows.append(len(times) - 1)
        args = terms(times)
        stage_args = iter([args[i] for i in rows])     # three per step
        for k, a1, a23, a4 in zip(steps, stage_args, stage_args, stage_args):
            rhs(a1, y, k1)
            np.add(y, np.multiply(half, k1, out=stage), out=stage)
            rhs(a23, stage, k2)
            np.add(y, np.multiply(half, k2, out=stage), out=stage)
            rhs(a23, stage, k3)
            np.add(y, np.multiply(dt, k3, out=stage), out=stage)
            rhs(a4, stage, k4)
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
            if (k + 1) % every == 0 or k + 1 == n_steps:
                rec[n_rec] = y
                n_rec += 1
    times = np.append(np.arange(0, n_steps, every), n_steps) * dt
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
    share the plant and K. The state [x, r, alpha, beta], with alpha and
    beta on the adaptive edges only, follows the order in which the
    ClosedLoop holds the blocks. Every term is edge-local, so a block's
    states see the same operations as in a run of its own. They keep its
    bits when the block's graph has three or more edges and the plant at
    most seven states and inputs; beyond that, numpy forms a row of a
    product by a route that depends on the row's place. A non-finite value
    raises NonFinite at the first step that has one, with `block` the lowest
    index, in the order given, of a block that does.
    """
    loop = control.ClosedLoop(blocks, mode)
    nodes, edges = loop.node_offsets, loop.gain_offsets
    times, ys = integrate(loop.loop, loop.y0, cfg, loop.owner, loop.terms)
    (N, n), Ea = loop.references.initial_states.shape, int(edges[-1])
    xr = ys[:, : 2 * N * n].reshape(len(times), 2, N, n)
    gains = ys[:, 2 * N * n :].reshape(len(times), 2, Ea)
    trajs = [None] * len(blocks)
    for b, law, n0, n1, e0, e1 in zip(loop.order, loop.laws, nodes, nodes[1:], edges, edges[1:]):
        alpha, beta = gains[:, :, e0:e1].swapaxes(0, 1) if law == "adaptive" else (None, None)
        trajs[b] = Trajectory(times, xr[:, 0, n0:n1], xr[:, 1, n0:n1], alpha, beta, law)
    return trajs
