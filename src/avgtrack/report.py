"""Post-run diagnostics assembly and file emission (CSV + summary JSON)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__, analysis
from .config import Scenario
from .control import AdaptiveParams, StaticGains
from .errors import RhoExceedsGamma
from .signals import input_bound
from .sim import Trajectory

ENVELOPE_SLACK = 1e-6  # numerical slack when counting envelope violations


def diagnostics_series(
    scn: Scenario, gains: StaticGains | AdaptiveParams, traj: Trajectory
) -> dict:
    """Per-recorded-time diagnostics plus the scalar summary quantities."""
    P = gains.P
    rs = scn.reference_set
    f0 = input_bound(rs)
    N = rs.n_agents
    edge_sum = 2 * scn.graph.n_edges  # sum_i |N_i|, ordered neighbor pairs
    adaptive = traj.mode == "adaptive"

    rates = dict(mu=gains.mu, nu=gains.nu, theta=gains.theta, chi=gains.chi) if adaptive else {}
    consts = analysis.theorem_constants(
        P, scn.design_Q, scn.graph, f0, N, lam2=scn.lambda2, **rates
    )

    xi = analysis.consensus_error(traj.x)
    v1 = analysis.lyapunov_v1(xi, P)
    sum_inv = np.asarray(analysis.sum_invariant(traj.x, traj.r))
    track = analysis.tracking_error(traj.x, traj.r)
    final_err = np.linalg.norm(track[-1], axis=1)

    out = {
        "times": traj.times,
        "V1": v1,
        "V2": None,
        "envelope": None,
        "sum_invariant": sum_inv,
        "consts": consts,
        "final_tracking_error": final_err,
        "sup_sum_invariant": float(sum_inv.max()),
        "envelope_violations": None,
        "omega2_radius": None,
        "omega1_bound": None,
        "final_xi_norm": float(np.linalg.norm(xi[-1])),
    }

    if not adaptive:
        env = analysis.v1_envelope(
            traj.times, v1[0], consts.gamma, gains.c2, gains.eps, gains.phi, edge_sum
        )
        out["envelope"] = env
        out["envelope_violations"] = int(np.count_nonzero(v1 > env + ENVELOPE_SLACK))
    else:
        out["V2"] = analysis.lyapunov_v2(
            xi, P, traj.alpha, traj.beta, consts, gains.mu, gains.nu
        )
        out["omega1_bound"] = analysis.omega1_bound(consts, gains.theta, gains.chi, edge_sum)
        try:
            out["omega2_radius"] = analysis.omega2_radius(
                consts, gains.theta, gains.chi, P, edge_sum
            )
        except RhoExceedsGamma:
            out["omega2_radius"] = None
    return out


def build_summary(
    scn: Scenario, gains: StaticGains | AdaptiveParams, traj: Trajectory, diag: dict
) -> dict:
    """summary.json payload; every schema key present, null where the mode
    leaves a metric undefined."""
    static_like = traj.mode != "adaptive"
    return {
        "gamma": diag["consts"].gamma,
        "lambda2": scn.lambda2,
        "c1": gains.c1 if static_like else None,
        "c2": gains.c2 if static_like else None,
        "omega2_radius": diag["omega2_radius"],
        "omega1_bound": diag["omega1_bound"],
        "final_tracking_error": [float(v) for v in diag["final_tracking_error"]],
        "sup_sum_invariant": diag["sup_sum_invariant"],
        "envelope_violations": diag["envelope_violations"],
        "final_consensus_error_norm": diag["final_xi_norm"],
        "mode": traj.mode,
        "config": scn.raw,
        "version": f"avgtrack-{__version__}",
    }


def write_trajectory_csv(path: Path, scn: Scenario, traj: Trajectory) -> None:
    """Long-format CSV: one agent row per agent per time; adaptive runs add
    one edge row per edge per time (alpha/beta columns). Rows end in CRLF."""
    n = scn.reference_set.plant.n
    track = analysis.tracking_error(traj.x, traj.r)
    # row-by-row inner products, as np.linalg.norm takes them on one row
    track_norm = np.sqrt(track[..., None, :] @ track[..., :, None])[..., 0]
    # Python floats format as numpy's do and index faster
    agents = np.concatenate([traj.x, track_norm], axis=-1).tolist()
    edge_gains = None if traj.alpha is None else np.stack([traj.alpha, traj.beta], -1).tolist()
    agent_row = "agent,%s,%d" + ",%.12g" * (n + 1) + ",,\r\n"
    edge_row = "edge,%s,%d" + "," * (n + 1) + ",%.12g,%.12g\r\n"
    with path.open("w", newline="") as fh:
        fh.write("kind,t,index," + "".join(f"x_{k}," for k in range(n))
                 + "tracking_error_norm,alpha,beta\r\n")
        for k, t in enumerate(traj.times.tolist()):
            stamp = f"{t:.10g}"
            rows = [agent_row % (stamp, i, *v) for i, v in enumerate(agents[k])]
            if edge_gains is not None:
                rows += [edge_row % (stamp, e, *ab) for e, ab in enumerate(edge_gains[k])]
            fh.write("".join(rows))


def write_diagnostics_csv(path: Path, diag: dict) -> None:
    """One row per record time, with empty cells where the mode leaves a value undefined."""
    cols = [diag[k] for k in ("times", "V1", "V2", "envelope", "sum_invariant")]
    fmts = ["%.10g"] + ["%.12g"] * 4
    row = ",".join("" if c is None else f for f, c in zip(fmts, cols)) + "\r\n"
    values = np.column_stack([c for c in cols if c is not None]).tolist()
    with path.open("w", newline="") as fh:
        fh.write("t,V1,V2,envelope,sum_invariant\r\n")
        fh.write("".join(row % tuple(v) for v in values))


def write_outputs(
    out_dir: Path, scn: Scenario, gains: StaticGains | AdaptiveParams, traj: Trajectory
) -> dict:
    """Write trajectory.csv, diagnostics.csv and summary.json; returns the summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    diag = diagnostics_series(scn, gains, traj)
    summary = build_summary(scn, gains, traj, diag)
    write_trajectory_csv(out_dir / "trajectory.csv", scn, traj)
    write_diagnostics_csv(out_dir / "diagnostics.csv", diag)
    with (out_dir / "summary.json").open("w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
