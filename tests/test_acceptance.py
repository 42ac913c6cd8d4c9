"""Acceptance gate: one test per shipped criterion, each emitting a single
PASS/FAIL line (visible with -s; the -v test status carries the same verdict).

Tolerances are pinned here and must not be loosened to make a criterion pass.
"""

import time

import numpy as np
import pytest

import avgtrack as at
from avgtrack import (
    Graph,
    InputDescriptor,
    LinearPlant,
    ReferenceSet,
    SimConfig,
    boundary_layer,
    consensus_manifold,
    design_gains,
    direction_flip_count,
    discontinuous_sign,
    lambda2,
    laplacian,
    reference_trajectory,
    solve_are,
)
from avgtrack.control import edge_signals
from avgtrack.graph import incidence_matrix
from avgtrack.report import diagnostics_series
from avgtrack.scenarios import scenario_config
from conftest import SEC5_A, SEC5_B, neighbors, random_stabilizable, ring_graph


def verdict(num: int, label: str, ok: bool) -> None:
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


@pytest.fixture(scope="module")
def sec5_static_fine_run():
    """paper-sec5-static at dt=5e-4 for the final-error clause of criterion 4.

    At the scenario's dt=1e-3 the per-step quantum of the c2*h term alone
    exceeds the 1e-2 final-error threshold (final error 1.8e-2). The final
    error falls with dt: 7.2e-3 at dt=5e-4 and 6.8e-4 at dt=1e-4."""
    cfg = scenario_config("paper-sec5-static")
    cfg["sim"]["dt"] = 5e-4
    cfg["sim"]["record_every"] = 20
    scn = at.parse_scenario(cfg)
    gains = scn.build_static_gains()
    traj = at.run(scn.graph, scn.reference_set, gains, scn.sim, mode="static")
    return diagnostics_series(scn, gains, traj)


def test_criterion_1_gain_reproduction():
    # Sec. 5 design: A = [[0, 1], [-1, -2]], B = [0; 1], Q = I, K = -B^T P,
    # Gamma = K^T K. Writing P = [[p11, p12], [p12, p22]], the entries of
    # PA + A^T P - P B B^T P + Q = 0 read
    #   (1,1): 1 - 2 p12 - p12^2 = 0
    #   (2,2): 1 + 2 p12 - 4 p22 - p22^2 = 0
    #   (1,2): p11 - 2 p12 - p22 - p12 p22 = 0.
    # The (1,1) entry gives p12 = -1 +- sqrt2. With p12 = -1 - sqrt2 both roots
    # of the (2,2) entry are negative, so P > 0 forces p12 = sqrt2 - 1; then
    # p22^2 + 4 p22 - (2 sqrt2 - 1) = 0 has the positive root p22 = sqrt2 - 1,
    # and p11 = 2 p12 + p22 + p12 p22 = sqrt2. Hence
    #   P = [[sqrt2, sqrt2 - 1], [sqrt2 - 1, sqrt2 - 1]],
    #   K = -(sqrt2 - 1) [1, 1],  Gamma = (3 - 2 sqrt2) 1 1^T,
    # and A + BK has eigenvalues -1 and -sqrt2.
    t0 = time.perf_counter()
    gains = at.parse_scenario(scenario_config("paper-sec5-static")).build_static_gains()
    params = at.parse_scenario(scenario_config("paper-sec5-adaptive")).build_adaptive_params()
    elapsed = time.perf_counter() - t0
    r = np.sqrt(2.0)
    P_exact = np.array([[r, r - 1.0], [r - 1.0, r - 1.0]])
    K_exact = -(r - 1.0) * np.ones((1, 2))
    Gamma_exact = (3.0 - 2.0 * r) * np.ones((2, 2))
    ok = (
        np.abs(gains.P - P_exact).max() <= 1e-12
        and np.abs(gains.K - K_exact).max() <= 1e-12
        and np.abs(params.Gamma - Gamma_exact).max() <= 1e-12
        and elapsed < 1.0
    )
    # Gains as printed in the source example. They are a stabilizing pair
    # (A + B K_pub has eigenvalues -0.437 and -5.893) and Gamma_pub is
    # K_pub^T K_pub to print precision, but they do not solve the stated ARE:
    # -B^T P = K_pub forces p12 = 1.5728, and the (1,1) entry above is then
    # 1 - 2 p12 - p12^2 = -4.62 for every symmetric P.
    K_pub = np.array([[-1.5728, -4.3293]])
    Gamma_pub = np.array([[2.4738, 6.8092], [6.8092, 18.7428]])
    ok &= np.linalg.eigvals(SEC5_A + SEC5_B @ K_pub).real.max() < 0.0
    ok &= np.abs(Gamma_pub - K_pub.T @ K_pub).max() <= 1e-3
    p12_pub = -K_pub[0, 0]
    ok &= abs(1.0 - 2.0 * p12_pub - p12_pub**2) > 1.0
    verdict(1, "Sec. 5 ARE gains closed form; printed gains stabilize but miss the ARE", ok)


def test_criterion_2_are_residual_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    ok = True
    for _ in range(100):
        A, B, Q = random_stabilizable(rng)
        sol = solve_are(A, B, Q)
        ok &= sol.residual_norm <= 1e-9
        ok &= np.linalg.eigvals(A - B @ B.T @ sol.P).real.max() < 0.0
    ok &= (time.perf_counter() - t0) < 30.0
    verdict(2, "ARE residual + closed-loop stability over 100 instances", ok)


def test_criterion_3_sum_invariant(sec5_static_run):
    _, _, _, diag = sec5_static_run
    verdict(3, "sum invariant sup <= 1e-6", diag["sup_sum_invariant"] <= 1e-6)


def test_criterion_4_envelope_and_final_error(sec5_static_run, sec5_static_fine_run):
    t0 = time.perf_counter()
    _, _, _, diag = sec5_static_run
    ok = diag["envelope_violations"] == 0
    # final-error clause on the dt=5e-4 run: at dt=1e-3 the per-step c2*h
    # quantum alone exceeds 1e-2. A dt=1e-4 run ends at 6.8e-4, so the error
    # left at dt=5e-4 is the step size's, and 1e-2 still bounds it.
    ok &= sec5_static_fine_run["final_tracking_error"].max() <= 1e-2
    ok &= (time.perf_counter() - t0) < 30.0
    verdict(4, "decay envelope + final tracking error", ok)


def test_criterion_5_adaptive_bounds(sec5_adaptive_run):
    _, params, traj, diag = sec5_adaptive_run
    ok = bool(np.all(np.isfinite(traj.alpha)) and np.all(np.isfinite(traj.beta)))
    # running max stabilized: growth over the last 10% of the horizon < 1%
    cut = int(0.9 * len(traj.times))
    for series in (traj.alpha, traj.beta):
        running = np.maximum.accumulate(series, axis=0)
        growth = (running[-1] - running[cut]) / np.maximum(running[-1], 1e-12)
        ok &= bool(np.all(growth < 0.01))
    consts = diag["consts"]
    ok &= consts.varrho < consts.gamma
    ok &= diag["omega2_radius"] is not None
    ok &= diag["final_xi_norm"] <= diag["omega2_radius"] * 1.05
    verdict(5, "adaptive gains bounded + ultimate bound captured", ok)


def test_criterion_6_consensus_manifold_oracle():
    # 4-agent stable-plant run vs the variation-of-constants average
    scn = at.parse_scenario(scenario_config("ring-demo"))
    gains = scn.build_static_gains()
    traj = at.run(scn.graph, scn.reference_set, gains, scn.sim, mode="static")
    t_end = traj.times[-1]
    oracle = consensus_manifold(scn.reference_set, t_end, quad_steps=4000)
    track = at.tracking_error(traj.x[-1], traj.r[-1])
    tol = max(1e-3, 10.0 * float(np.linalg.norm(track, axis=1).max()))
    ok = all(
        np.linalg.norm(traj.x[-1, i] - oracle) <= tol for i in range(scn.graph.n_nodes)
    )
    # manifold == mean of per-agent reference trajectories, 20 random configs
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(2, 5))
        plant = LinearPlant(A=rng.standard_normal((n, n)) * 0.4, B=rng.standard_normal((n, 1)))
        inputs = tuple(
            InputDescriptor(
                kind="sinusoid",
                amp=rng.standard_normal(1),
                omega=rng.uniform(0.5, 3.0),
                phase=rng.uniform(0.0, 6.0),
            )
            for _ in range(N)
        )
        rs = ReferenceSet(plant=plant, initial_states=rng.standard_normal((N, n)), inputs=inputs)
        t = float(rng.uniform(0.5, 4.0))
        mean_traj = np.mean(
            [reference_trajectory(rs, i, t, quad_steps=200) for i in range(N)], axis=0
        )
        ok &= bool(
            np.abs(consensus_manifold(rs, t, quad_steps=200) - mean_traj).max() <= 1e-9
        )
    verdict(6, "consensus-manifold quadrature oracle", ok)


def test_criterion_7_boundary_layer_identities():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(10_000):
        w = rng.uniform(-5.0, 5.0, size=int(rng.integers(1, 5)))
        eps = float(rng.uniform(1e-3, 10.0))
        phi = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 10.0))
        h = boundary_layer(w, eps, phi, t)
        nrm = float(np.linalg.norm(w))
        bl = eps * np.exp(-phi * t)
        ok &= np.linalg.norm(h) < 1.0
        ok &= abs(w @ h - nrm**2 / (nrm + bl)) <= 1e-12
        if nrm >= 1e-6:
            ok &= np.linalg.norm(h - discontinuous_sign(w)) <= bl / nrm + 1e-12
    verdict(7, "boundary-layer identity suite (10^4 samples)", ok)


def _component_count(g: Graph) -> int:
    seen = set()
    comps = 0
    for start in range(g.n_nodes):
        if start in seen:
            continue
        comps += 1
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(neighbors(g, v))
    return comps


def test_criterion_8_graph_spectral_suite():
    rng = np.random.default_rng(8)
    ok = True
    # Laplacian identities on random graphs
    for _ in range(50):
        n = int(rng.integers(2, 9))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = rng.random(len(all_pairs)) < 0.5
        g = Graph(n, tuple(e for e, keep in zip(all_pairs, mask) if keep))
        L = laplacian(g)
        D = incidence_matrix(g)
        ok &= np.abs(L - D @ D.T).max() <= 1e-8
        deg = np.diag(np.diag(L))
        adj = deg - L
        ok &= np.abs(L - (deg - adj)).max() <= 1e-8
        # orientation invariance: flipping edge orientations leaves D D^T alone
        flips = np.where(rng.random(g.n_edges) < 0.5, -1.0, 1.0)
        ok &= np.abs(L - (D * flips) @ (D * flips).T).max() <= 1e-8
    # closed-form Fiedler values
    ok &= abs(lambda2(Graph(2, ((0, 1),))) - 2.0) <= 1e-8
    ok &= abs(lambda2(Graph(3, ((0, 1), (0, 2), (1, 2)))) - 3.0) <= 1e-8
    ok &= abs(lambda2(ring_graph(6)) - 1.0) <= 1e-8
    # zero-eigenvalue multiplicity == number of components, 200 random graphs
    for _ in range(200):
        n = int(rng.integers(2, 9))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = rng.random(len(all_pairs)) < rng.uniform(0.1, 0.6)
        g = Graph(n, tuple(e for e, keep in zip(all_pairs, mask) if keep))
        vals = np.linalg.eigvalsh(laplacian(g))
        ok &= int(np.count_nonzero(np.abs(vals) <= 1e-8)) == _component_count(g)
    verdict(8, "graph spectral suite", ok)


def test_criterion_9_chattering_comparison():
    # identical 2-agent scenario and gains; only the switching law differs
    plant = LinearPlant(A=SEC5_A, B=SEC5_B)
    rs = ReferenceSet(
        plant=plant,
        initial_states=np.array([[1.0, 0.0], [-1.0, 0.5]]),
        inputs=(
            InputDescriptor(kind="sinusoid", amp=[1.0], omega=1.0),
            InputDescriptor(kind="sinusoid", amp=[0.5], omega=2.0, phase=1.0),
        ),
    )
    g = Graph(2, ((0, 1),))
    gains = design_gains(plant, g, np.eye(2), f0=1.0)
    cfg = SimConfig(t_end=10.0, dt=1e-3, record_every=1)
    flips = {}
    for mode in ("static", "discontinuous"):
        traj = at.run(g, rs, gains, cfg, mode=mode)
        quarter = traj.times >= 0.75 * traj.times[-1]
        w = np.array([edge_signals(x, gains.K, g)[0] for x in traj.x[quarter]])
        flips[mode] = direction_flip_count(w)
    ok = flips["discontinuous"] >= 5 * max(flips["static"], 1)
    verdict(9, f"chattering flips {flips['discontinuous']} vs {flips['static']}", ok)
