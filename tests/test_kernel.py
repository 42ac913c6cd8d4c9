"""The edge-coupling kernel against the dense incidence-matrix oracle, its
sum invariant, and byte-determinism of repeated CLI runs."""

import json
import operator
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import avgtrack as at
from avgtrack import (
    AdaptiveParams,
    Graph,
    InputDescriptor,
    LinearPlant,
    ReferenceSet,
    StaticGains,
    boundary_layer,
    discontinuous_sign,
)
from avgtrack import graph as graphmod
from avgtrack.cli import main
from avgtrack.control import ClosedLoop, NetworkState, adaptive_rhs, edge_signals, static_rhs
from avgtrack.graph import incidence_matrix
from avgtrack.errors import ConfigError
from avgtrack.scenarios import scenario_config
from conftest import loop_coupling, random_blocks

LAWS = ("static", "discontinuous", "adaptive")


def random_network(seed, n_nodes, law):
    """A connected graph (random spanning tree plus random chords), a random
    plant, gains for the law, states, inputs and edge gains, all from seed."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(i)), i) for i in range(1, n_nodes)}
    for _ in range(int(rng.integers(0, 2 * n_nodes))):
        i, j = sorted(int(v) for v in rng.integers(0, n_nodes, size=2))
        if i != j:
            edges.add((i, j))
    g = Graph(n_nodes, tuple(sorted(edges)))
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    plant = LinearPlant(A=rng.standard_normal((n, n)), B=rng.standard_normal((n, m)))
    K = rng.standard_normal((m, n))
    eps, phi = rng.uniform(0.1, 5.0), rng.uniform(0.0, 2.0)
    if law == "adaptive":
        gains = AdaptiveParams(
            K=K, Gamma=K.T @ K, mu=rng.uniform(0.1, 10), nu=rng.uniform(0.1, 10),
            theta=rng.uniform(0.01, 1), chi=rng.uniform(0.01, 1), eps=eps, phi=phi, P=np.eye(n),
        )
    else:
        gains = StaticGains(
            K=K, c1=rng.uniform(0, 5), c2=rng.uniform(0, 5), eps=eps, phi=phi, P=np.eye(n)
        )
    rs = ReferenceSet(
        plant=plant,
        initial_states=np.zeros((n_nodes, n)),
        inputs=tuple(
            InputDescriptor(kind="sinusoid", amp=rng.standard_normal(m), omega=1.0)
            for _ in range(n_nodes)
        ),
    )
    x = rng.standard_normal((n_nodes, n)) * 10.0 ** rng.integers(-3, 4)
    E = g.n_edges
    return g, rs, gains, x, rng.uniform(0, 3, E), rng.uniform(0, 3, E), rng.uniform(0, 10)


def edge_inputs(g, gains, law, x, alpha, beta, t):
    """Per-edge inputs u_e of the law, computed without the kernel."""
    w = edge_signals(x, gains.K, g)
    if law == "discontinuous":
        h = discontinuous_sign(w)
    else:
        h = boundary_layer(w, gains.eps, gains.phi, t)
    if law == "adaptive":
        u = alpha[:, None] * w + beta[:, None] * h
    else:
        u = gains.c1 * w + gains.c2 * h
    return u


def exact_drive(d, K):
    """The drive d^T Gamma d of each edge, Gamma = K^T K, in rationals and
    rounded once. In doubles d^T Gamma d rounds at the scale of
    |d|^T |Gamma| |d|, far above the drive where K d cancels."""
    rows = [[Fraction(v) for v in row] for row in K.tolist()]
    return np.array([float(sum(sum(map(operator.mul, row, map(Fraction, de))) ** 2
                               for row in rows)) for de in d.tolist()])


def kernel_rhs(g, rs, gains, law, x, alpha, beta, t):
    state = NetworkState(t=t, x=x, alpha=alpha, beta=beta)
    if law == "adaptive":
        return adaptive_rhs(state, rs, gains, g)
    return static_rhs(state, rs, gains, g, discontinuous=(law == "discontinuous"))


class TestEdgeKernel:
    """The edge coupling of ClosedLoop, through its add_to and the per-call
    wrappers."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_nodes=st.integers(2, 30),
        law=st.sampled_from(LAWS),
    )
    # an edge whose drive is 1/46,000 of |d|^T |Gamma| |d|
    @example(seed=1231, n_nodes=16, law="adaptive")
    def test_matches_dense_incidence_oracle(self, seed, n_nodes, law):
        g, rs, gains, x, alpha, beta, t = random_network(seed, n_nodes, law)
        u = edge_inputs(g, gains, law, x, alpha, beta, t)
        A, B = rs.plant.A, rs.plant.B
        D = incidence_matrix(g)
        f = rs.eval_inputs(t)
        oracle = x @ A.T + f @ B.T + D @ (u @ B.T)
        # entrywise scale: the sum of the absolute values of all products added
        scale = (
            np.abs(x) @ np.abs(A.T) + np.abs(f) @ np.abs(B.T)
            + np.abs(D) @ np.abs(u) @ np.abs(B.T)
        )
        got = kernel_rhs(g, rs, gains, law, x, alpha, beta, t)
        assert np.all(np.abs(got.x - oracle) <= 1e-12 * scale)
        if law == "adaptive":
            tails, heads = np.array(g.edges, dtype=int).reshape(-1, 2).T
            d = x[tails] - x[heads]
            w = edge_signals(x, gains.K, g)
            h = boundary_layer(w, gains.eps, gains.phi, t)
            np.testing.assert_allclose(
                got.alpha, gains.mu * (-gains.theta * alpha + exact_drive(d, gains.K)),
                rtol=1e-12, atol=1e-12 * gains.mu * (gains.theta * alpha.max(initial=0) + 1),
            )
            np.testing.assert_allclose(
                got.beta, gains.nu * (-gains.chi * beta + np.sum(w * h, axis=1)),
                rtol=1e-12, atol=1e-12 * gains.nu * (gains.chi * beta.max(initial=0) + 1),
            )

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_nodes=st.integers(2, 30),
        law=st.sampled_from(LAWS),
    )
    # n = 1, m = 2: the two inputs' products cancel within u_e B^T itself
    @example(seed=4014417995, n_nodes=3, law="adaptive")
    def test_edge_terms_cancel_in_the_sum(self, seed, n_nodes, law):
        # each edge adds +u to its tail and -u to its head, so the coupling
        # sums to zero over the agents up to rounding
        g, rs, gains, x, alpha, beta, t = random_network(seed, n_nodes, law)
        loop = ClosedLoop([(g, rs, gains)], law)
        coupling, _, _ = loop_coupling(loop, t, x, alpha, beta)
        u = edge_inputs(g, gains, law, x, alpha, beta, t)
        # rounding scales with the products u_e B^T before they cancel, as
        # +u_e and -u_e, and across the m inputs
        scale = 2 * (np.abs(u) @ np.abs(rs.plant.B.T)).sum(axis=0)
        bound = 4 * np.finfo(float).eps * (g.n_edges + n_nodes) * scale
        assert np.all(np.abs(coupling.sum(axis=0)) <= bound)

    def test_run_never_builds_the_incidence_matrix(self, monkeypatch):
        def refuse(g):
            raise AssertionError("incidence_matrix called")

        monkeypatch.setattr(graphmod, "incidence_matrix", refuse)
        for law in LAWS:
            g, rs, gains, *_ = random_network(3, 8, law)
            traj = at.run(g, rs, gains, at.SimConfig(0.05, 1e-3), mode=law)
            assert np.all(np.isfinite(traj.x))

    def test_mode_and_gains_checked(self):
        g, rs, gains, *_ = random_network(4, 5, "static")
        with pytest.raises(ConfigError):
            ClosedLoop([(g, rs, gains)], "adaptive")
        with pytest.raises(ConfigError):
            ClosedLoop([(g, rs, gains)], "sliding")


    def test_call_needs_one_row_per_agent(self):
        # the gather does not check its indices against x, so the wrapper does
        g, rs, gains, x, *_ = random_network(5, 6, "static")
        for rows in (x[:-1], np.concatenate([x, x[:1]])):
            with pytest.raises(ConfigError, match="rows for 6 agents"):
                static_rhs(NetworkState(t=0.0, x=rows), rs, gains, g)

    def test_adaptive_call_needs_one_gain_per_edge(self):
        g, rs, gains, x, alpha, beta, t = random_network(6, 7, "adaptive")
        E = g.n_edges
        for a, b in ((None, None), (alpha, None), (None, beta), (alpha[:-1], beta),
                     (alpha, np.append(beta, 1.0)), (alpha[:, None], beta)):
            with pytest.raises(ConfigError, match=f"needs {E} entries, one per adaptive edge"):
                adaptive_rhs(NetworkState(t=t, x=x, alpha=a, beta=b), rs, gains, g)
        got = adaptive_rhs(NetworkState(t=t, x=x, alpha=list(alpha), beta=beta), rs, gains, g)
        assert got.alpha.shape == got.beta.shape == (E,)

    def test_call_needs_one_state_per_agent(self):
        # a state of the wrong width or rank once reached numpy's take and
        # raised its "output array does not match" error
        g, rs, gains, x, *_ = random_network(10, 6, "static")      # n = 2 states
        for bad in (np.zeros((6, 3)), np.zeros((6, 1)), x.ravel(), x[:, 0], x[None]):
            with pytest.raises(ConfigError, match=re.escape(f"x needs shape (6, 2), 6 rows for "
                                                            f"6 agents of 2 states, got {bad.shape}")):
                static_rhs(NetworkState(t=0.0, x=bad), rs, gains, g)
        assert static_rhs(NetworkState(t=0.0, x=x), rs, gains, g).x.shape == (6, 2)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def wrapper_rhs(law, state, rs, gains, g, inputs):
    if law == "adaptive":
        return adaptive_rhs(state, rs, gains, g, inputs=inputs)
    return static_rhs(state, rs, gains, g, discontinuous=(law == "discontinuous"), inputs=inputs)


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("given", [False, True], ids=["inputs-evaluated", "inputs-given"])
def test_wrappers_are_one_call_of_the_run_vector_field(law, m, given):
    # the per-call wrappers have the bits of the x part and the edge-gain
    # part of the ClosedLoop vector field that a run integrates, at
    # y = [x, x, alpha, beta] and the row of terms at the same time
    (g, rs, gains), = random_blocks(40 + m, [law], 2, m, own_rates=True)
    loop = ClosedLoop([(g, rs, gains)], law)
    rng = np.random.default_rng(m)
    x = rng.standard_normal((g.n_nodes, 2))
    x[1] = x[0]                      # a zero row of w, whose h is +-0
    alpha, beta = rng.uniform(0, 2, (2, g.n_edges))
    Nn, Ea = x.size, int(loop.gain_offsets[-1])
    assert Ea == (g.n_edges if law == "adaptive" else 0)
    for t in (0.0, 1.5, 40.0):
        got = wrapper_rhs(law, NetworkState(t=t, x=x, alpha=alpha, beta=beta), rs, gains, g,
                          rs.eval_inputs(t) if given else None)
        y = np.concatenate([x.ravel(), x.ravel(), *((alpha, beta) if Ea else ())])
        out = np.empty_like(y)
        loop.loop(loop.terms([t])[0], y, out)
        assert same_bits(got.x, out[:Nn].reshape(x.shape))
        if Ea:
            assert same_bits(got.alpha, out[2 * Nn : 2 * Nn + Ea])
            assert same_bits(got.beta, out[2 * Nn + Ea :])
        else:
            assert got.alpha is None and got.beta is None


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("shape", [(5, 1), (6, 2), (6,), (1, 6, 1)])
def test_wrappers_need_one_input_row_per_agent(law, shape):
    # on the Sec. 5 ring of six agents and one input; a wrong shape reached
    # numpy's broadcast or matmul and raised its ValueError
    scn = at.parse_scenario(scenario_config("paper-sec5-adaptive"))
    gains = scn.build_adaptive_params() if law == "adaptive" else scn.build_static_gains()
    E = scn.graph.n_edges
    state = NetworkState(t=0.5, x=scn.reference_set.initial_states, alpha=np.ones(E),
                         beta=np.ones(E))
    with pytest.raises(ConfigError, match=re.escape(f"inputs needs shape (6, 1), one row per "
                                                    f"agent and one column per input, got {shape}")):
        wrapper_rhs(law, state, scn.reference_set, gains, scn.graph, np.zeros(shape))
    good = scn.reference_set.eval_inputs(0.5)
    want = wrapper_rhs(law, state, scn.reference_set, gains, scn.graph, None)
    assert same_bits(wrapper_rhs(law, state, scn.reference_set, gains, scn.graph, good).x, want.x)


def test_repeated_runs_write_identical_bytes(tmp_path):
    # all three laws in one sweep, run twice in one process
    cfgs = []
    for law in LAWS:
        cfg = scenario_config("paper-sec5-adaptive" if law == "adaptive" else "paper-sec5-static")
        cfg["name"] = law
        cfg["algorithm"] = law
        cfg["sim"]["t_end"] = 0.3
        cfgs.append(cfg)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfgs))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    for law in LAWS:
        for name in ("trajectory.csv", "diagnostics.csv", "summary.json"):
            assert (outs[0] / law / name).read_bytes() == (outs[1] / law / name).read_bytes()
