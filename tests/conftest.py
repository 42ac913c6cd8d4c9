import numpy as np
import pytest

import avgtrack as at
from avgtrack.report import diagnostics_series

SEC5_A = np.array([[0.0, 1.0], [-1.0, -2.0]])
SEC5_B = np.array([[0.0], [1.0]])


def neighbors(g, i):
    """The sorted neighbours of node i in graph g."""
    return sorted(b if a == i else a for a, b in g.edges if i in (a, b))


@pytest.fixture(scope="session")
def sec5_static_scn():
    return at.parse_scenario(at.scenario_config("paper-sec5-static"))


@pytest.fixture(scope="session")
def sec5_static_run(sec5_static_scn):
    scn = sec5_static_scn
    gains = scn.build_static_gains()
    traj = at.run(scn.graph, scn.reference_set, gains, scn.sim, mode="static")
    diag = diagnostics_series(scn, gains, traj)
    return scn, gains, traj, diag


@pytest.fixture(scope="session")
def sec5_adaptive_run():
    scn = at.parse_scenario(at.scenario_config("paper-sec5-adaptive"))
    params = scn.build_adaptive_params()
    traj = at.run(scn.graph, scn.reference_set, params, scn.sim, mode="adaptive")
    diag = diagnostics_series(scn, params, traj)
    return scn, params, traj, diag


def ring_graph(n):
    return at.Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def _pbh_margin(A, B):
    # distance-to-uncontrollability proxy: smallest PBH singular value over
    # the spectrum of A; near-zero margins make the Riccati solution blow up
    # past what double precision can resolve to an absolute 1e-9 residual
    n = A.shape[0]
    return min(
        np.linalg.svd(np.hstack([A - lam * np.eye(n), B]).astype(complex), compute_uv=False)[-1]
        for lam in np.linalg.eigvals(A)
    )


def random_stabilizable(rng, n_max=6):
    """Random (A, B, Q) with (A, B) stabilizable, well away from the
    uncontrollable set, and Q > 0."""
    while True:
        n = rng.integers(2, n_max + 1)
        m = rng.integers(1, 3)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        M = rng.standard_normal((n, n))
        Q = M @ M.T + 0.1 * np.eye(n)
        if at.is_stabilizable(A, B) and _pbh_margin(A, B) >= 0.2:
            return A, B, Q
