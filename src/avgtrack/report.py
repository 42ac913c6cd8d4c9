"""Post-run diagnostics assembly and file emission (CSV + summary JSON)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__, analysis
from .config import Scenario
from .control import AdaptiveParams, StaticGains
from .numerics import finite_norms
from .sim import Trajectory

ENVELOPE_SLACK = 1e-6  # numerical slack when counting envelope violations


def diagnostics_series(
    scn: Scenario, gains: StaticGains | AdaptiveParams, traj: Trajectory
) -> dict:
    """Per-recorded-time diagnostics plus the scalar summary quantities."""
    P = gains.P
    edge_sum = 2 * scn.graph.n_edges  # sum_i |N_i|, ordered neighbor pairs
    adaptive = traj.mode == "adaptive"

    rates = dict(mu=gains.mu, nu=gains.nu, theta=gains.theta, chi=gains.chi) if adaptive else {}
    consts = analysis.theorem_constants(P, scn.design_Q, scn.graph, scn.f0, **rates)

    xi = analysis.consensus_error(traj.x)
    v1 = analysis.lyapunov_v1(xi, P)
    sum_inv = np.asarray(analysis.sum_invariant(traj.x, traj.r))
    track = analysis.tracking_error(traj.x[-1], traj.r[-1])
    final_err = finite_norms(np.linalg.norm(track, axis=1), track)

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
        "final_xi_norm": float(finite_norms(np.linalg.norm(xi[-1]), xi[-1], None)),
    }

    if not adaptive:
        env = analysis.v1_envelope(
            traj.times, v1[0], consts.gamma, gains.c2, gains.eps, gains.phi, edge_sum
        )
        out["envelope"] = env
        # an overflowing V1, +inf, violates whatever the envelope
        over = (v1 > env + ENVELOPE_SLACK) | (v1 == np.inf)
        out["envelope_violations"] = int(np.count_nonzero(over))
    else:
        out["V2"] = analysis.lyapunov_v2(
            xi, P, traj.alpha, traj.beta, consts, gains.mu, gains.nu
        )
        out["omega1_bound"] = analysis.omega1_bound(consts, gains.theta, gains.chi, edge_sum)
        out["omega2_radius"] = analysis.omega2_radius(consts, gains.theta, gains.chi, P, edge_sum)
    return out


def build_summary(
    scn: Scenario, gains: StaticGains | AdaptiveParams, traj: Trajectory, diag: dict
) -> dict:
    """summary.json payload; every schema key present, null where the mode
    leaves a metric undefined."""
    static_like = traj.mode != "adaptive"
    return {
        "gamma": diag["consts"].gamma,
        "lambda2": scn.graph.lambda2,
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
    track_norm = finite_norms(np.sqrt(track[..., None, :] @ track[..., :, None])[..., 0], track)
    # each record's values, flat: agent rows, then edge rows
    T, N = traj.x.shape[:2]
    agents = np.concatenate([traj.x, track_norm], axis=-1).reshape(T, -1)
    edges = (np.empty((T, 0)) if traj.alpha is None
             else np.stack([traj.alpha, traj.beta], -1).reshape(T, -1))
    # one template per record with the indices baked in; NUL stands for the time stamp
    record = "".join([f"agent,\0,{i}" + ",%.12g" * (n + 1) + ",,\r\n" for i in range(N)]
                     + [f"edge,\0,{e}" + "," * (n + 1) + ",%.12g,%.12g\r\n"
                        for e in range(edges.shape[1] // 2)])
    with path.open("w", newline="") as fh:
        fh.write("kind,t,index," + "".join(f"x_{k}," for k in range(n))
                 + "tracking_error_norm,alpha,beta\r\n")
        # Python floats format as numpy's do
        for t, a, e in zip(traj.times.tolist(), agents, edges):
            fh.write(record.replace("\0", f"{t:.10g}") % tuple(a.tolist() + e.tolist()))


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
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
