"""Diagnostics evaluated over trajectories: consensus/tracking errors, the
sum invariant, Lyapunov values, decay envelope, ultimate-bound radii, and the
consensus-manifold oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import RhoExceedsGamma
from .graph import Graph
from .numerics import finite_norms, sym_eigvals
from .signals import ReferenceSet, _trajectories


@dataclass(frozen=True)
class TheoremConstants:
    """Scalar constants the convergence statements are phrased in."""

    gamma: float        # lambda_min(Q) / lambda_max(P)
    alpha_bar: float    # >= 1/(2*lambda2)
    beta_bar: float     # >= f0*(N-1)
    delta: float        # <= min{gamma, mu*theta, nu*chi}
    varrho: float       # max{mu*theta, nu*chi}


def consensus_error(x: NDArray) -> NDArray[np.float64]:
    """Per-agent deviation from the network mean (centering projection).

    Accepts (N, n) or (T, N, n); centers over the agent axis.
    """
    x = np.asarray(x, dtype=float)
    return x - x.mean(axis=-2, keepdims=True)


def tracking_error(x: NDArray, r: NDArray) -> NDArray[np.float64]:
    """x_i minus the average of the references, same shapes as consensus_error."""
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    return x - r.mean(axis=-2, keepdims=True)


def sum_invariant(x: NDArray, r: NDArray) -> float | NDArray[np.float64]:
    """||sum_i x_i - sum_i r_i||; identically zero in exact arithmetic. Where
    the sums or their squares overflow, it is the norm of the sum of the
    differences x_i - r_i, by finite_norms."""
    x, r = np.asarray(x), np.asarray(r)
    nrm = np.linalg.norm(x.sum(axis=-2) - r.sum(axis=-2), axis=-1)
    return nrm if np.isfinite(nrm).all() else finite_norms(nrm, (x - r).sum(axis=-2))


def _scalar(v: NDArray) -> float | NDArray[np.float64]:
    # a single sample gives a Python float, a series an array
    return float(v) if np.ndim(v) == 0 else v


def lyapunov_v1(xi: NDArray, P: NDArray) -> float | NDArray[np.float64]:
    """Quadratic consensus energy xi^T (M (x) P) xi of one stacked sample
    (N, n), or of each sample of a series (T, N, n). The energy of finite
    states that overflows is +inf, never NaN: it is at least 0."""
    xi = np.asarray(xi, dtype=float)
    c = xi - xi.mean(axis=-2, keepdims=True)
    v = np.einsum("...in,nm,...im->...", c, P, xi)
    if not np.isfinite(v).all():
        v = np.where(np.isfinite(v) | ~np.isfinite(xi).all(axis=(-2, -1)), v, np.inf)
    return _scalar(v)


def v1_envelope(
    t: float | NDArray,
    v1_0: float,
    gamma: float,
    c2: float,
    eps: float,
    phi: float,
    edge_count_sum: int,
) -> float | NDArray[np.float64]:
    """Closed-form upper bound on V1(t) from the decay inequality, at one
    time or at each time of an array.

    e^{-gamma t} V1(0) plus c2 * sum_i |N_i| times the convolution integral
    of eps*e^{-gamma(t-tau) - phi tau}, with the te^{-gamma t} branch at
    gamma == phi.
    """
    t = np.asarray(t, dtype=float)
    if abs(gamma - phi) <= 1e-12:
        integral = eps * t * np.exp(-gamma * t)
    else:
        integral = eps / (gamma - phi) * (np.exp(-phi * t) - np.exp(-gamma * t))
    # an infinite V1(0) bounds nothing at any t, where e^{-gamma t} may
    # underflow to 0 and 0 * inf is NaN
    decay = np.exp(-gamma * t) * v1_0 if v1_0 < np.inf else np.full(np.shape(t), v1_0)
    return _scalar(decay + c2 * edge_count_sum * integral)


def lyapunov_v2(
    xi: NDArray,
    P: NDArray,
    alpha_e: NDArray,
    beta_e: NDArray,
    consts: TheoremConstants,
    mu: float,
    nu: float,
) -> float | NDArray[np.float64]:
    """V1 plus the edge-gain deviation energy, of one sample (xi (N, n),
    edge gains (E,)) or of each sample of a series ((T, N, n) and (T, E)).

    Each undirected edge counts twice: the double sum runs over ordered
    neighbor pairs.
    """
    a = np.asarray(alpha_e, dtype=float) - consts.alpha_bar
    b = np.asarray(beta_e, dtype=float) - consts.beta_bar
    gain_energy = np.sum(a**2 / (2.0 * mu) + b**2 / (2.0 * nu), axis=-1)
    return _scalar(lyapunov_v1(xi, P) + 2.0 * gain_energy)


def omega1_bound(consts: TheoremConstants, theta: float, chi: float, edge_count_sum: int) -> float:
    """Level of V2 below which trajectories are ultimately confined:
    (1/delta) * sum_i sum_{j in N_i} (theta*abar^2/2 + chi*bbar^2/2)."""
    per_pair = theta * consts.alpha_bar**2 / 2.0 + chi * consts.beta_bar**2 / 2.0
    return edge_count_sum * per_pair / consts.delta


def omega2_radius(
    consts: TheoremConstants,
    theta: float,
    chi: float,
    P: NDArray,
    edge_count_sum: int,
) -> float:
    """Ultimate-bound radius on ||xi|| when varrho < gamma."""
    if consts.varrho >= consts.gamma:
        raise RhoExceedsGamma(
            f"varrho={consts.varrho:g} >= gamma={consts.gamma:g}: bound vacuous"
        )
    lam_min_p = float(sym_eigvals(P)[0])
    per_pair = theta * consts.alpha_bar**2 + chi * consts.beta_bar**2
    return float(
        np.sqrt(edge_count_sum * per_pair / (2.0 * lam_min_p * (consts.gamma - consts.varrho)))
    )


def theorem_constants(
    P: NDArray,
    Q: NDArray,
    g: Graph,
    f0: float,
    *,
    mu: float = 1.0,
    nu: float = 1.0,
    theta: float = 1.0,
    chi: float = 1.0,
) -> TheoremConstants:
    """Assemble the scalar constants, defaulting the analysis constants to
    their minimal compliant values (the bounds tighten as they shrink). The
    N agents are the nodes of g."""
    gamma = float(sym_eigvals(Q)[0] / sym_eigvals(P)[-1])
    alpha_bar = 1.0 / (2.0 * g.lambda2)
    beta_bar = f0 * (g.n_nodes - 1)
    delta = min(gamma, mu * theta, nu * chi)
    varrho = max(mu * theta, nu * chi)
    return TheoremConstants(
        gamma=gamma, alpha_bar=alpha_bar, beta_bar=beta_bar, delta=delta, varrho=varrho
    )


def consensus_manifold(rs: ReferenceSet, t: float, quad_steps: int = 256) -> NDArray[np.float64]:
    """The common trajectory all agents converge to: the average of the
    reference solutions, by variation of constants, summed in agent order."""
    trajectories = _trajectories(rs, range(rs.n_agents), t, quad_steps)
    return sum(trajectories, np.zeros(rs.plant.n)) / rs.n_agents


def direction_flip_count(w: NDArray) -> int:
    """Count sample-to-sample reversals of the control direction.

    w is a (T, m) or (T,) series of edge signals; a flip is a pair of
    consecutive nonzero samples whose directions point into opposite
    half-spaces.
    """
    w = np.asarray(w, dtype=float).reshape(len(w), -1)
    dots = np.einsum("tm,tm->t", w[:-1], w[1:])
    nz = (np.linalg.norm(w[:-1], axis=1) > 0) & (np.linalg.norm(w[1:], axis=1) > 0)
    return int(np.count_nonzero(nz & (dots < 0)))
