"""Deterministic fixed-step integration of the closed-loop network.

References are co-integrated on the same grid as the agents; the
variation-of-constants path in `signals` stays available as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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
        if self.t_end <= 0 or self.dt <= 0 or self.dt > self.t_end:
            raise ConfigError("need 0 < dt <= t_end")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if self.integrator not in ("rk4", "euler"):
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
    diagnostics: dict = field(default_factory=dict)


def integrate(
    rhs: Callable[[float, NDArray], NDArray],
    initial: NDArray,
    cfg: SimConfig,
) -> tuple[NDArray, NDArray]:
    """Fixed-step RK4 (or explicit Euler) on a flat state vector.

    Time stamps are computed as step_index * dt (no accumulated addition),
    and the time-varying terms of the vector field see the exact stage
    times. Returns (times, states) with states[k] at times[k].
    """
    n_steps = int(round(cfg.t_end / cfg.dt))
    y = np.array(initial, dtype=float)
    rec_idx = [0]
    rec = [y.copy()]
    dt = cfg.dt
    for k in range(n_steps):
        t = k * dt
        if cfg.integrator == "euler":
            y = y + dt * rhs(t, y)
        else:
            k1 = rhs(t, y)
            k2 = rhs(t + dt / 2.0, y + dt / 2.0 * k1)
            k3 = rhs(t + dt / 2.0, y + dt / 2.0 * k2)
            k4 = rhs(t + dt, y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # every step, so that the reported time is the first non-finite one
        if not np.isfinite(y).all():
            raise NonFinite(f"non-finite state at t={(k + 1) * dt:g}", time=(k + 1) * dt)
        if (k + 1) % cfg.record_every == 0 or k + 1 == n_steps:
            rec_idx.append(k + 1)
            rec.append(y.copy())
    times = np.array(rec_idx, dtype=float) * dt
    return times, np.array(rec)


def run(
    g: Graph,
    rs: ReferenceSet,
    gains: control.StaticGains | control.AdaptiveParams,
    cfg: SimConfig,
    mode: str = "static",
) -> Trajectory:
    """Integrate the selected closed loop together with the references.

    The filter initial condition s_i(0) = 0 forces x_i(0) = r_i(0). Adaptive
    edge gains start at the configured alpha0/beta0 (default 0).
    """
    N, n = rs.n_agents, rs.plant.n
    if g.n_nodes != N:
        raise ConfigError("graph size must match the number of agents")
    kernel = control.EdgeKernel(g, rs.plant, gains, mode)
    E = g.n_edges
    Nn = N * n
    A, B = rs.plant.A, rs.plant.B
    adaptive = mode == "adaptive"

    def rhs(t: float, y: NDArray) -> NDArray:
        x = y[:Nn].reshape(N, n)
        r = y[Nn : 2 * Nn].reshape(N, n)
        fB = rs.eval_inputs(t) @ B.T
        # the edge gains are empty slices unless the law is adaptive
        coupling, *rates = kernel(t, x, y[2 * Nn : 2 * Nn + E], y[2 * Nn + E :])
        parts = [(x @ A.T + fB + coupling).ravel(), (r @ A.T + fB).ravel()]
        return np.concatenate(parts + rates if adaptive else parts)

    r0 = rs.initial_states
    y0 = [r0.ravel(), r0.ravel()]
    if adaptive:
        y0 += [np.full(E, gains.alpha0, dtype=float), np.full(E, gains.beta0, dtype=float)]
    times, ys = integrate(rhs, np.concatenate(y0), cfg)
    T = len(times)
    return Trajectory(
        times=times,
        x=ys[:, :Nn].reshape(T, N, n),
        r=ys[:, Nn : 2 * Nn].reshape(T, N, n),
        alpha=ys[:, 2 * Nn : 2 * Nn + E] if adaptive else None,
        beta=ys[:, 2 * Nn + E :] if adaptive else None,
        mode=mode,
    )
