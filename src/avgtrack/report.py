"""Post-run diagnostics assembly and file emission (CSV + summary JSON)."""

from __future__ import annotations

import csv
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
    edge_sum = scn.graph.degree_sum()
    adaptive = traj.mode == "adaptive"

    rates = dict(mu=gains.mu, nu=gains.nu, theta=gains.theta, chi=gains.chi) if adaptive else {}
    consts = analysis.theorem_constants(
        P, scn.design_Q, scn.graph, f0, N, lam2=scn.lambda2, **rates
    )

    xi = analysis.consensus_error(traj.x)
    v1 = np.array([analysis.lyapunov_v1(xi[k], P) for k in range(len(traj.times))])
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
        env = np.array([
            analysis.v1_envelope(t, v1[0], consts.gamma, gains.c2, gains.eps, gains.phi, edge_sum)
            for t in traj.times
        ])
        out["envelope"] = env
        out["envelope_violations"] = int(np.count_nonzero(v1 > env + ENVELOPE_SLACK))
    else:
        v2 = np.array([
            analysis.lyapunov_v2(
                xi[k], P, traj.alpha[k], traj.beta[k], consts, gains.mu, gains.nu
            )
            for k in range(len(traj.times))
        ])
        out["V2"] = v2
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
    one edge row per edge per time (alpha/beta columns)."""
    n = scn.reference_set.plant.n
    track = analysis.tracking_error(traj.x, traj.r)
    # row-by-row inner products, as np.linalg.norm takes them on one row;
    # Python floats format as numpy's do and index faster
    track_norm = np.sqrt(track[..., None, :] @ track[..., :, None])[..., 0, 0].tolist()
    x = traj.x.tolist()
    header = (
        ["kind", "t", "index"]
        + [f"x_{k}" for k in range(n)]
        + ["tracking_error_norm", "alpha", "beta"]
    )
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k, t in enumerate(traj.times):
            stamp = f"{t:.10g}"
            for i in range(scn.reference_set.n_agents):
                row = ["agent", stamp, i]
                row += [f"{v:.12g}" for v in x[k][i]]
                row += [f"{track_norm[k][i]:.12g}", "", ""]
                w.writerow(row)
            if traj.alpha is not None:
                for e in range(traj.alpha.shape[1]):
                    row = ["edge", stamp, e] + [""] * n
                    row += ["", f"{traj.alpha[k, e]:.12g}", f"{traj.beta[k, e]:.12g}"]
                    w.writerow(row)


def write_diagnostics_csv(path: Path, diag: dict) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "V1", "V2", "envelope", "sum_invariant"])
        for k, t in enumerate(diag["times"]):
            w.writerow([
                f"{t:.10g}",
                f"{diag['V1'][k]:.12g}",
                "" if diag["V2"] is None else f"{diag['V2'][k]:.12g}",
                "" if diag["envelope"] is None else f"{diag['envelope'][k]:.12g}",
                f"{diag['sum_invariant'][k]:.12g}",
            ])


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
