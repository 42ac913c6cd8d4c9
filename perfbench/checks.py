"""Output checks made apart from the program.

Nothing here imports avgtrack. The reference signals come from the exact
matrix exponential of an augmented linear system, the Riccati solution and
the Laplacian spectrum from scipy, and the gains from the paper's design
formulas. Every tolerance is derived in README.md.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import eigh, expm, solve_continuous_are

import workloads

OUTPUT_FILES = ("trajectory.csv", "diagnostics.csv", "summary.json")
CSV_REL = 1e-11  # 12 significant digits: each printed value is within 5e-12 relative
SQ2 = np.sqrt(2.0)
SEC5_P = np.array([[SQ2, SQ2 - 1.0], [SQ2 - 1.0, SQ2 - 1.0]])  # closed form, see README
# the Sec. 5 design by hand: lambda2 = 1 on the 6-ring, f0 = 3.5, N = 6
SEC5_DESIGN = {"lambda2": 1.0, "c1": 0.5, "c2": 17.5,
               "gamma": 1.0 / float(np.linalg.eigvalsh(SEC5_P)[-1])}
_SEC5 = workloads.sec5("static")


@dataclass
class Run:
    """One scenario's outputs as read back from disk."""

    times: np.ndarray            # (T,)
    x: np.ndarray                # (T, N, n)
    alpha: np.ndarray | None     # (T, E)
    beta: np.ndarray | None
    summary: dict


def scenarios(cfg: dict | list) -> list[dict]:
    return cfg if isinstance(cfg, list) else [cfg]


def scenario_dir(cfg: dict | list, out: Path, scn: dict) -> Path:
    """`avgtrack run` writes a single scenario to --out and each scenario of
    a list to --out/<name>."""
    return out / scn["name"] if isinstance(cfg, list) else out


def read_run(d: Path, n_agents: int, n: int, n_edges: int) -> Run:
    with (d / "trajectory.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    head = rows[0]
    xcols = [head.index(f"x_{k}") for k in range(n)]
    acol, bcol = head.index("alpha"), head.index("beta")
    agent = [r for r in rows[1:] if r[0] == "agent"]
    edge = [r for r in rows[1:] if r[0] == "edge"]
    t = np.array([float(r[1]) for r in agent])
    times = np.unique(t)
    x = np.full((len(times), n_agents, n), np.nan)
    x[np.searchsorted(times, t), [int(r[2]) for r in agent]] = [
        [float(r[c]) for c in xcols] for r in agent
    ]
    alpha = beta = None
    if edge:
        te = np.searchsorted(times, [float(r[1]) for r in edge])
        idx = [int(r[2]) for r in edge]
        alpha = np.full((len(times), n_edges), np.nan)
        beta = np.full((len(times), n_edges), np.nan)
        alpha[te, idx] = [float(r[acol]) for r in edge]
        beta[te, idx] = [float(r[bcol]) for r in edge]
    with (d / "summary.json").open() as fh:
        summary = json.load(fh)
    return Run(times=times, x=x, alpha=alpha, beta=beta, summary=summary)


def references(scn: dict, times: np.ndarray) -> np.ndarray:
    """Exact r_i(t), shape (T, N, n), for sinusoid, constant and zero inputs.

    Each agent's state is augmented with its input's phase pair
    s = amp sin(wt + p), c = amp cos(wt + p), which obey s' = w c and
    c' = -w s. A constant input is the pair with w = 0 and p = pi/2, whose s
    stays at amp. The augmented system is linear, so r_i(t) is one matrix
    exponential.
    """
    A = np.asarray(scn["plant"]["A"], dtype=float)
    B = np.asarray(scn["plant"]["B"], dtype=float)
    n, m = B.shape
    out = np.empty((len(times), len(scn["agents"]), n))
    for i, agent in enumerate(scn["agents"]):
        f = agent.get("input", {"kind": "zero"})
        w, p, amp = 0.0, np.pi / 2.0, np.zeros(m)
        if f["kind"] == "sinusoid":
            w, p, amp = float(f.get("omega", 1.0)), float(f.get("phase", 0.0)), np.asarray(f["amp"])
        elif f["kind"] == "constant":
            amp = np.asarray(f["value"], dtype=float)
        elif f["kind"] != "zero":
            raise ValueError(f"no exact reference for input kind {f['kind']!r}")
        M = np.zeros((n + 2 * m, n + 2 * m))
        M[:n, :n] = A
        M[:n, n : n + m] = B
        M[n : n + m, n + m :] = w * np.eye(m)
        M[n + m :, n : n + m] = -w * np.eye(m)
        z0 = np.concatenate([agent["r0"], amp * np.sin(p), amp * np.cos(p)])
        out[:, i] = (expm(M[None] * times[:, None, None]) @ z0)[:, :n]
    return out


def design(scn: dict) -> dict:
    """The paper's static design, computed here: P from the Riccati equation,
    lambda2 from the Laplacian, c1 = margin1/(2 lambda2), c2 = margin2 f0 (N-1)."""
    A = np.asarray(scn["plant"]["A"], dtype=float)
    B = np.asarray(scn["plant"]["B"], dtype=float)
    Q = np.asarray(scn.get("design", {}).get("Q", np.eye(len(A))), dtype=float)
    P = solve_continuous_are(A, B, Q, np.eye(B.shape[1]))
    N = scn["graph"]["n"]
    edges = np.asarray(scn["graph"]["edges"], dtype=int)
    L = np.zeros((N, N))
    np.add.at(L, (edges[:, 0], edges[:, 0]), 1.0)
    np.add.at(L, (edges[:, 1], edges[:, 1]), 1.0)
    np.add.at(L, (edges[:, 0], edges[:, 1]), -1.0)
    np.add.at(L, (edges[:, 1], edges[:, 0]), -1.0)
    lam2 = float(eigh(L, eigvals_only=True, subset_by_index=[1, 1])[0])
    f0 = 0.0
    for agent in scn["agents"]:
        f = agent.get("input", {"kind": "zero"})
        vec = f.get("amp", f.get("value", [0.0]))
        f0 = max(f0, float(np.linalg.norm(vec)))
    margins = scn.get("design", {}).get("margins", [1.0, 1.0])
    degree = np.bincount(edges.ravel(), minlength=N)
    return {
        "P": P,
        "gamma": float(np.linalg.eigvalsh(Q)[0] / np.linalg.eigvalsh(P)[-1]),
        "lam_min_P": float(np.linalg.eigvalsh(P)[0]),
        "lambda2": lam2,
        "c1": margins[0] / (2.0 * lam2),
        "c2": margins[1] * f0 * (N - 1),
        "beta_bar": f0 * (N - 1),
        "d_max": int(degree.max()),
        "n_edges": len(edges),
        "B_norm": float(np.linalg.norm(B, 2)),
    }


def v1(x: np.ndarray, P: np.ndarray) -> np.ndarray:
    xi = x - x.mean(axis=-2, keepdims=True)
    return np.einsum("...in,nm,...im->...", xi, P, xi)


def envelope(t: np.ndarray, v1_0: float, gamma: float, c2: float, eps: float, phi: float,
             edge_sum: int) -> np.ndarray:
    """Closed-form bound on V1(t) for the smoothed static law."""
    if abs(gamma - phi) <= 1e-12:
        integral = eps * t * np.exp(-gamma * t)
    else:
        integral = eps / (gamma - phi) * (np.exp(-phi * t) - np.exp(-gamma * t))
    return np.exp(-gamma * t) * v1_0 + c2 * edge_sum * integral


def omega2_radius(scn: dict, des: dict) -> float:
    a = scn["adaptive"]
    varrho = max(a["mu"] * a["theta"], a["nu"] * a["chi"])
    per_pair = a["theta"] * (1.0 / (2.0 * des["lambda2"])) ** 2 + a["chi"] * des["beta_bar"] ** 2
    return float(np.sqrt(2 * des["n_edges"] * per_pair
                         / (2.0 * des["lam_min_P"] * (des["gamma"] - varrho))))


def is_sec5(scn: dict) -> bool:
    """Whether a scenario has the Sec. 5 graph, plant, inputs and design,
    whatever its law, initial states, eps and phi."""
    design_keys = ("Q", "margins")
    return (
        scn["graph"] == _SEC5["graph"]
        and scn["plant"] == _SEC5["plant"]
        and [a.get("input") for a in scn["agents"]] == [a["input"] for a in _SEC5["agents"]]
        and all(scn.get("design", {}).get(k) == _SEC5["design"][k] for k in design_keys)
    )


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def check_scenario(scn: dict, d: Path) -> list[str]:
    """Every failed check for one scenario's output directory, as messages."""
    name = scn["name"]
    missing = [f for f in OUTPUT_FILES if not (d / f).is_file()]
    if missing:
        return [f"{name}: missing {', '.join(missing)} in {d}"]
    N = scn["graph"]["n"]
    n = len(scn["plant"]["A"])
    des = design(scn)
    run = read_run(d, N, n, des["n_edges"])
    s = run.summary
    bad: list[str] = []
    if np.isnan(run.x).any():
        return [f"{name}: trajectory.csv lacks agent rows"]
    t_end, rec, dt = scn["sim"]["t_end"], scn["sim"].get("record_every", 1), scn["sim"]["dt"]
    steps = int(round(t_end / dt))
    n_rec = len(range(0, steps + 1, rec)) + (steps % rec != 0)
    if len(run.times) != n_rec or not _close(run.times[-1], t_end):
        bad.append(f"{name}: {len(run.times)} recorded times up to {run.times[-1]}, "
                   f"expected {n_rec} up to {t_end}")
        return bad

    r = references(scn, run.times)
    r0 = np.asarray([a["r0"] for a in scn["agents"]], dtype=float)
    if not np.allclose(run.x[0], r0, rtol=CSV_REL, atol=1e-300):
        bad.append(f"{name}: x_i(0) != r_i(0)")
    drift = np.linalg.norm(run.x.sum(axis=1) - r.sum(axis=1), axis=1)
    allowed = CSV_REL * np.abs(run.x).sum(axis=(1, 2)) + 1e-12
    if np.any(drift > allowed):
        k = int(np.argmax(drift - allowed))
        bad.append(f"{name}: sum invariant {drift[k]:.3g} > {allowed[k]:.3g} at t={run.times[k]:g}")

    law = scn["algorithm"]
    if not _close(s["lambda2"], des["lambda2"]):
        bad.append(f"{name}: lambda2 {s['lambda2']} != {des['lambda2']}")
    if law != "adaptive":
        for key in ("c1", "c2"):
            if not _close(s[key], des[key]):
                bad.append(f"{name}: {key} {s[key]} != {des[key]}")
    if not _close(s["gamma"], des["gamma"]):
        bad.append(f"{name}: gamma {s['gamma']} != {des['gamma']}")

    V1 = v1(run.x, des["P"])
    eps = scn.get("design", {}).get("eps", 5.0)
    phi = scn.get("design", {}).get("phi", 0.5)
    if law == "static":
        env = envelope(run.times, V1[0], des["gamma"], des["c2"], eps, phi, 2 * des["n_edges"])
        over = V1 - env * (1.0 + 1e-9) - 1e-12
        if np.any(over > 0):
            k = int(np.argmax(over))
            bad.append(f"{name}: V1 {V1[k]:.6g} above its envelope {env[k]:.6g} "
                       f"at t={run.times[k]:g}")
    if law == "adaptive":
        if run.alpha is None or np.isnan(run.alpha).any() or np.isnan(run.beta).any():
            bad.append(f"{name}: trajectory.csv lacks edge rows")
        elif run.alpha.min() < 0 or run.beta.min() < 0:
            bad.append(f"{name}: negative edge gain (alpha {run.alpha.min():g}, "
                       f"beta {run.beta.min():g})")
        radius = omega2_radius(scn, des)
        xi = np.linalg.norm(run.x[-1] - run.x[-1].mean(axis=0))
        if s["omega2_radius"] is None or not _close(s["omega2_radius"], radius):
            bad.append(f"{name}: omega2_radius {s['omega2_radius']} != {radius}")
        if xi > radius:
            bad.append(f"{name}: final consensus error {xi:.4g} outside omega2 radius {radius:.4g}")

    if is_sec5(scn):
        for key, value in SEC5_DESIGN.items():
            if s[key] is not None and not _close(s[key], value, 1e-12):
                bad.append(f"{name}: {key} {s[key]} is not the Sec. 5 hand design {value}")

    # Once the boundary layer eps e^{-phi t} is thinner than one step of the
    # switching term, the final state must lie within that step of the
    # reference average, plus what the initial disagreement can leave at t_end.
    step = des["d_max"] * des["beta_bar"] * des["B_norm"] * dt
    if eps * np.exp(-phi * t_end) < step:
        transient = np.sqrt(np.exp(-des["gamma"] * t_end) * V1[0] / des["lam_min_P"])
        err = np.linalg.norm(run.x[-1] - r[-1].mean(axis=0), axis=1)
        if err.max() > transient + step:
            i = int(np.argmax(err))
            bad.append(f"{name}: agent {i} ends {err[i]:.4g} from the reference average "
                       f"(tolerance {transient + step:.4g})")
    return bad


def check(cfg: dict | list, out: Path) -> list[str]:
    """Every failed check for one `avgtrack run` on `cfg` into `out`."""
    scns = scenarios(cfg)
    bad: list[str] = []
    if isinstance(cfg, list):
        made = sorted(p.name for p in out.iterdir() if p.is_dir()) if out.is_dir() else []
        if made != sorted(s["name"] for s in scns):
            bad.append(f"sweep wrote {len(made)} scenario directories for {len(scns)} scenarios")
    for scn in scns:
        bad += check_scenario(scn, scenario_dir(cfg, out, scn))
    return bad


def final_tracking_error(cfg: dict | list, out: Path) -> float:
    """Largest ||x_i(t_end) - rbar(t_end)|| over agents and scenarios, as the
    run's summary.json files report it."""
    worst = 0.0
    for scn in scenarios(cfg):
        with (scenario_dir(cfg, out, scn) / "summary.json").open() as fh:
            worst = max(worst, max(json.load(fh)["final_tracking_error"]))
    return worst
