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


def random_blocks(seed, laws, n, m, own_rates=False):
    """Blocks under the given laws that share a random plant, K and (unless
    `own_rates`) adaptive rates, each on a random connected graph of 4 to 11
    nodes (so at least three edges) with its own inputs, initial states and
    per-block constants."""
    rng = np.random.default_rng(seed)
    plant = at.LinearPlant(A=0.5 * rng.standard_normal((n, n)), B=rng.standard_normal((n, m)))
    K = 0.3 * rng.standard_normal((m, n))

    def draw_rates():
        return dict(mu=rng.uniform(0.1, 1), nu=rng.uniform(0.1, 1),
                    theta=rng.uniform(0.01, 1), chi=rng.uniform(0.01, 1))

    rates = draw_rates()
    blocks = []
    for law in laws:
        N = int(rng.integers(4, 12))
        edges = {(int(rng.integers(i)), i) for i in range(1, N)}
        for _ in range(int(rng.integers(0, N))):
            i, j = sorted(int(v) for v in rng.integers(0, N, size=2))
            if i != j:
                edges.add((i, j))
        eps, phi = rng.uniform(0.1, 5), rng.uniform(0.0, 2)
        if law == "adaptive":
            gains = at.AdaptiveParams(K=K, Gamma=K.T @ K, eps=eps, phi=phi, P=np.eye(n),
                                      alpha0=rng.uniform(0, 2), beta0=rng.uniform(0, 2),
                                      **(draw_rates() if own_rates else rates))
        else:
            gains = at.StaticGains(K=K, c1=rng.uniform(0, 3), c2=rng.uniform(0, 3),
                                   eps=eps, phi=phi, P=np.eye(n))
        inputs = tuple(
            at.InputDescriptor(kind="sinusoid", amp=rng.standard_normal(m),
                               omega=rng.uniform(0.5, 2), phase=rng.uniform(0, 6))
            for _ in range(N)
        )
        rs = at.ReferenceSet(plant=plant, initial_states=0.5 * rng.standard_normal((N, n)),
                             inputs=inputs)
        blocks.append((at.Graph(N, tuple(sorted(edges))), rs, gains))
    return blocks


def loop_coupling(loop, t, x, alpha=None, beta=None):
    """(coupling, dalpha, dbeta) of a ClosedLoop at time t, agent states x
    and the adaptive edges' gains alpha and beta: its add_to from a -0.0
    start, the identity of addition, so the coupling keeps the bits of the
    product. The rates are None where no edge is adaptive."""
    Ea = int(loop.gain_offsets[-1])
    coupling, rates = np.full(np.shape(x), -0.0), np.empty((2, Ea))
    gains = np.array([alpha, beta], dtype=float) if Ea else np.empty((2, 0))
    loop.add_to(loop.widths([t])[0, :, None], np.asarray(x, dtype=float), gains, coupling, rates)
    return (coupling, *(rates if Ea else (None, None)))


def zero_references(plant, n):
    """n agents of the plant at rest with zero inputs."""
    return at.ReferenceSet(plant=plant, initial_states=np.zeros((n, plant.n)),
                           inputs=tuple(at.InputDescriptor(kind="zero") for _ in range(n)))
