import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import avgtrack as at
from avgtrack import graph as graphmod
from avgtrack import (
    AdaptiveParams,
    Graph,
    InputDescriptor,
    LinearPlant,
    ReferenceSet,
    StaticGains,
    boundary_layer,
    design_gains,
    discontinuous_sign,
)
from avgtrack.control import ClosedLoop, NetworkState, adaptive_rhs, edge_signals, static_rhs
from avgtrack.errors import ConfigError, NotConnected, NotStabilizable
from conftest import SEC5_A, SEC5_B, loop_coupling, random_stabilizable, ring_graph


def sec5_refset(n_agents=6):
    plant = LinearPlant(A=SEC5_A, B=SEC5_B)
    inputs = [
        InputDescriptor(kind="sinusoid", amp=[(i + 1) / 2.0], omega=1.0)
        for i in range(1, n_agents + 1)
    ]
    r0 = np.array([[float(i), float(-i)] for i in range(1, n_agents + 1)])
    return ReferenceSet(plant=plant, initial_states=r0, inputs=tuple(inputs))


def sec5_gains(c1=0.5, c2=17.5, eps=5.0, phi=0.5):
    sol = at.solve_are(SEC5_A, SEC5_B, np.eye(2))
    K = -SEC5_B.T @ sol.P
    return StaticGains(K=K, c1=c1, c2=c2, eps=eps, phi=phi, P=sol.P)


def sec5_adaptive_params(**kw):
    sol = at.solve_are(SEC5_A, SEC5_B, np.eye(2))
    K = -SEC5_B.T @ sol.P
    defaults = dict(mu=10.0, nu=10.0, theta=0.01, chi=0.01, eps=5.0, phi=0.5)
    defaults.update(kw)
    return AdaptiveParams(K=K, Gamma=K.T @ K, P=sol.P, **defaults)


class TestBoundaryLayer:
    def test_zero(self):
        np.testing.assert_array_equal(boundary_layer(np.zeros(2), 5.0, 0.5, 0.0), [0.0, 0.0])

    def test_three_four(self):
        got = boundary_layer(np.array([3.0, 4.0]), 5.0, 0.0, 7.0)
        np.testing.assert_allclose(got, [0.3, 0.4])

    def test_limit_is_unit_direction(self):
        got = boundary_layer(np.array([3.0, 4.0]), 5.0, 0.5, 100.0)
        np.testing.assert_allclose(got, [0.6, 0.8], atol=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
        eps=st.floats(1e-6, 100.0),
        phi=st.floats(0.0, 5.0),
        t=st.floats(0.0, 50.0),
    )
    # the width e^{-24} sits below half an ulp of ||w||; an unfloored divisor
    # gave ||h|| = 1.0000000000000002 here
    @example(
        w=[-702337.3810223842, -779494.6977273187, -653271.58750384, -179513.6140855595],
        eps=1.0,
        phi=2.0,
        t=12.0,
    )
    def test_identities(self, w, eps, phi, t):
        w = np.array(w)
        h = boundary_layer(w, eps, phi, t)
        nrm = np.linalg.norm(w)
        bl = eps * np.exp(-phi * t)
        # strictly < 1 in exact arithmetic; == 1.0 is reachable in doubles
        # once the boundary layer shrinks below machine epsilon
        assert np.linalg.norm(h) <= 1.0
        assert w @ h == pytest.approx(nrm**2 / (nrm + bl), abs=1e-12 * max(1.0, nrm**2))
        if nrm >= 1e-6:
            assert np.linalg.norm(h - discontinuous_sign(w)) <= bl / nrm + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4
        ),
        eps=st.floats(0.0, 1e6),
        t=st.floats(0.0, 1e4),
    )
    # ||w|| overflows the double range; h = 0 here lost the direction
    @example(w=[1.5e308, 1.5e308], eps=1.0, t=0.0)
    def test_norm_at_most_one_at_any_scale(self, w, eps, t):
        # any finite w, down to subnormals and up to overflow of ||w||, with
        # widths that may underflow to zero
        w = np.array(w)
        with np.errstate(over="ignore"):  # ||w|| itself may exceed the double range
            h = boundary_layer(w, eps, 1.0, t)
        assert np.all(np.isfinite(h))
        assert np.linalg.norm(h) <= 1.0
        # once the width (held at or above the smallest subnormal) is
        # negligible against ||w||, h is the unit direction
        top = np.abs(w).max()
        width = max(eps * np.exp(-t), np.finfo(float).smallest_subnormal)
        if top > 0 and width <= 1e-12 * top:
            u = w / top
            np.testing.assert_allclose(h, u / np.linalg.norm(u), rtol=0, atol=1e-11)

    def test_zero_after_width_underflow(self):
        # e^{-1000} underflows; w = 0 must still give h = 0, not 0/0
        np.testing.assert_array_equal(boundary_layer(np.zeros(2), 5.0, 0.5, 2000.0), [0.0, 0.0])

    def test_rows_match_vector_form(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-3, 7, size=(7, 1))
        rows = boundary_layer(W, 2.0, 0.5, 3.0)
        for w, h in zip(W, rows):
            np.testing.assert_array_equal(h, boundary_layer(w, 2.0, 0.5, 3.0))
        assert np.all(np.linalg.norm(boundary_layer(W, 1.0, 2.0, 40.0), axis=1) <= 1.0)


class TestDiscontinuousSign:
    def test_zero(self):
        np.testing.assert_array_equal(discontinuous_sign(np.zeros(3)), np.zeros(3))

    def test_three_four(self):
        np.testing.assert_allclose(discontinuous_sign(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_unit_norm(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            w = rng.standard_normal(3)
            assert np.linalg.norm(discontinuous_sign(w)) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4
        )
    )
    # ||w|| overflows the double range; the sign term was 0 here
    @example(w=[1.5e308, 1.5e308])
    def test_unit_direction_at_any_scale(self, w):
        w = np.array(w)
        with np.errstate(over="ignore"):  # ||w|| itself may exceed the double range
            s = discontinuous_sign(w)
        top = np.abs(w).max()
        if top >= 1e-14:  # then ||w|| clears the zero threshold
            u = w / top
            np.testing.assert_allclose(s, u / np.linalg.norm(u), rtol=0, atol=1e-12)

    def test_rescale_touches_only_overflowing_rows(self):
        W = np.array([[1.5e308, -1.5e308], [3.0, 4.0], [1e-300, 0.0], [0.1, 0.2]])
        with np.errstate(over="ignore"):
            rows = discontinuous_sign(W)
        np.testing.assert_allclose(rows[0], [0.5**0.5, -(0.5**0.5)], rtol=0, atol=1e-12)
        # rows with a finite norm keep the bits of w / ||w||
        for w, s in zip(W[1:], rows[1:]):
            np.testing.assert_array_equal(s, discontinuous_sign(w))
        np.testing.assert_array_equal(rows[1], W[1] / 5.0)
        np.testing.assert_array_equal(rows[2], [0.0, 0.0])


class TestDesignGains:
    def test_sec5_arithmetic(self):
        plant = LinearPlant(A=SEC5_A, B=SEC5_B)
        gains = design_gains(plant, ring_graph(6), np.eye(2), f0=3.5)
        assert gains.c1 == pytest.approx(0.5)   # 1/(2*lambda2), lambda2(C6)=1
        assert gains.c2 == pytest.approx(17.5)  # 3.5*(6-1)
        np.testing.assert_allclose(gains.K, -SEC5_B.T @ gains.P, atol=1e-12)

    def test_p2_zero_f0(self):
        plant = LinearPlant(A=SEC5_A, B=SEC5_B)
        gains = design_gains(plant, Graph(2, ((0, 1),)), np.eye(2), f0=0.0)
        assert gains.c1 == pytest.approx(0.25)  # lambda2(P2)=2
        assert gains.c2 == 0.0

    def test_k3(self):
        plant = LinearPlant(A=SEC5_A, B=SEC5_B)
        g = Graph(3, ((0, 1), (0, 2), (1, 2)))
        gains = design_gains(plant, g, np.eye(2), f0=7.0)
        assert gains.c1 == pytest.approx(1.0 / 6.0)  # lambda2(K3)=3

    @pytest.mark.parametrize("c1, c2", [(np.inf, 1.0), (1.0, np.inf), (1.0, np.nan), (-1.0, 1.0)])
    def test_couplings_must_be_nonnegative_and_finite(self, c1, c2):
        name = "c1" if c1 != 1.0 else "c2"
        with pytest.raises(ConfigError, match=f"{name} must be nonnegative and finite"):
            sec5_gains(c1=c1, c2=c2)

    def test_disconnected_raises(self):
        plant = LinearPlant(A=SEC5_A, B=SEC5_B)
        with pytest.raises(NotConnected):
            design_gains(plant, Graph(3), np.eye(2), f0=1.0)

    def test_disconnected_raises_before_margins_are_checked(self):
        plant = LinearPlant(A=SEC5_A, B=SEC5_B)
        with pytest.raises(NotConnected):
            design_gains(plant, Graph(3), np.eye(2), f0=1.0, margins=(0.5, 1.0))

    def test_scenario_design_searches_the_graph_once(self, monkeypatch):
        calls = []
        search = graphmod.is_connected
        monkeypatch.setattr(graphmod, "is_connected", lambda g: calls.append(g) or search(g))
        at.parse_scenario(at.scenario_config("paper-sec5-static")).build_static_gains()
        assert len(calls) == 1

    def test_not_stabilizable_raises(self):
        plant = LinearPlant(A=np.eye(2), B=np.zeros((2, 1)))
        with pytest.raises(NotStabilizable):
            design_gains(plant, Graph(2, ((0, 1),)), np.eye(2), f0=1.0)

    def test_adding_edge_never_increases_c1(self):
        plant = LinearPlant(A=SEC5_A, B=SEC5_B)
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = 5
            g = ring_graph(n)
            non_edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if (i, j) not in g.edges
            ]
            i, j = non_edges[rng.integers(len(non_edges))]
            g2 = Graph(n, g.edges + ((i, j),))
            c1_before = design_gains(plant, g, np.eye(2), 1.0).c1
            c1_after = design_gains(plant, g2, np.eye(2), 1.0).c1
            assert c1_after <= c1_before + 1e-12

    def test_gamma_consistency(self):
        gains = sec5_gains()
        Gamma = gains.K.T @ gains.K
        np.testing.assert_allclose(Gamma, gains.P @ SEC5_B @ SEC5_B.T @ gains.P, atol=1e-12)


class TestStaticRhs:
    def test_consensus_state_decouples(self):
        rs = sec5_refset()
        # zero inputs: replace with a zero-input copy
        rs0 = ReferenceSet(
            plant=rs.plant,
            initial_states=rs.initial_states,
            inputs=tuple(InputDescriptor(kind="zero") for _ in range(6)),
        )
        x = np.tile([1.0, -2.0], (6, 1))
        d = static_rhs(NetworkState(t=0.3, x=x), rs0, sec5_gains(), ring_graph(6))
        np.testing.assert_allclose(d.x, x @ SEC5_A.T, atol=1e-12)

    def test_no_edges_single_dynamics(self):
        plant = LinearPlant(A=SEC5_A, B=SEC5_B)
        rs = ReferenceSet(
            plant=plant,
            initial_states=np.array([[1.0, 0.0], [0.0, 1.0]]),
            inputs=(
                InputDescriptor(kind="constant", value=[2.0]),
                InputDescriptor(kind="zero"),
            ),
        )
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        d = static_rhs(NetworkState(t=0.0, x=x), rs, sec5_gains(), Graph(2))
        f = rs.eval_inputs(0.0)
        np.testing.assert_allclose(d.x, x @ SEC5_A.T + f @ SEC5_B.T, atol=1e-12)

    def test_coupling_sums_to_zero(self):
        # sum over agents of (dx_i - A x_i - B f_i) vanishes by edge antisymmetry
        rs = sec5_refset()
        rng = np.random.default_rng(14)
        for t in (0.0, 1.7):
            x = rng.standard_normal((6, 2)) * 3
            d = static_rhs(NetworkState(t=t, x=x), rs, sec5_gains(), ring_graph(6))
            f = rs.eval_inputs(t)
            residual = (d.x - x @ SEC5_A.T - f @ SEC5_B.T).sum(axis=0)
            np.testing.assert_allclose(residual, 0.0, atol=1e-12)

    def test_discontinuous_mode_conservation(self):
        rs = sec5_refset()
        rng = np.random.default_rng(15)
        x = rng.standard_normal((6, 2))
        d = static_rhs(
            NetworkState(t=0.5, x=x), rs, sec5_gains(), ring_graph(6), discontinuous=True
        )
        f = rs.eval_inputs(0.5)
        residual = (d.x - x @ SEC5_A.T - f @ SEC5_B.T).sum(axis=0)
        np.testing.assert_allclose(residual, 0.0, atol=1e-12)


    def test_smoothed_term_is_boundary_layer(self):
        # with c1 = 0, c2 = 1 the coupling is D h B^T, h from boundary_layer per edge
        rs = sec5_refset()
        g = ring_graph(6)
        gains = sec5_gains(c1=0.0, c2=1.0)
        x = np.random.default_rng(18).standard_normal((6, 2))
        t = 0.7
        d = static_rhs(NetworkState(t=t, x=x), rs, gains, g)
        f = rs.eval_inputs(t)
        h = boundary_layer(edge_signals(x, gains.K, g), gains.eps, gains.phi, t)
        np.testing.assert_allclose(
            d.x - x @ SEC5_A.T - f @ SEC5_B.T,
            graphmod.incidence_matrix(g) @ (h @ SEC5_B.T),
            atol=1e-14,
        )


class TestAdaptiveRhs:
    def test_consensus_state_pure_gain_decay(self):
        rs = sec5_refset()
        params = sec5_adaptive_params()
        g = ring_graph(6)
        x = np.tile([0.5, 1.5], (6, 1))
        alpha = np.full(6, 2.0)
        beta = np.full(6, 3.0)
        d = adaptive_rhs(NetworkState(t=1.0, x=x, alpha=alpha, beta=beta), rs, params, g)
        np.testing.assert_allclose(d.alpha, -params.mu * params.theta * alpha, atol=1e-12)
        np.testing.assert_allclose(d.beta, -params.nu * params.chi * beta, atol=1e-12)

    def test_consensus_state_finite_after_width_underflow(self):
        # at t = 2000 the width 5 e^{-0.5 t} underflows; equal states give w = 0
        rs = sec5_refset()
        params = sec5_adaptive_params()
        x = np.tile([0.5, 1.5], (6, 1))
        beta = np.full(6, 3.0)
        d = adaptive_rhs(
            NetworkState(t=2000.0, x=x, alpha=np.zeros(6), beta=beta), rs, params, ring_graph(6)
        )
        assert np.all(np.isfinite(d.x))
        np.testing.assert_allclose(d.beta, -params.nu * params.chi * beta, atol=1e-12)

    def test_driving_terms_nonnegative(self):
        # adaptation drift is nonnegative once the leakage is removed;
        # theta, chi must stay positive, so subtract the leakage instead
        rs = sec5_refset()
        params = sec5_adaptive_params()
        g = ring_graph(6)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((6, 2)) * 2
        alpha = np.zeros(6)
        beta = np.zeros(6)
        d = adaptive_rhs(NetworkState(t=0.2, x=x, alpha=alpha, beta=beta), rs, params, g)
        assert np.all(d.alpha >= -1e-15)
        assert np.all(d.beta >= -1e-15)

    def test_edge_symmetry_under_orientation_swap(self):
        # the per-edge laws are even in (i, j): recompute with flipped edges
        rs = sec5_refset(4)
        params = sec5_adaptive_params()
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        rng = np.random.default_rng(17)
        x = rng.standard_normal((4, 2))
        alpha = rng.uniform(0.1, 1.0, 3)
        beta = rng.uniform(0.1, 1.0, 3)
        d = adaptive_rhs(NetworkState(t=0.4, x=x, alpha=alpha, beta=beta), rs, params, g)
        xs = x[::-1].copy()  # relabel nodes 0..3 -> 3..0; same graph, edges reversed
        ds = adaptive_rhs(
            NetworkState(t=0.4, x=xs, alpha=alpha[::-1].copy(), beta=beta[::-1].copy()),
            rs,
            params,
            Graph(4, ((0, 1), (1, 2), (2, 3))),
        )
        np.testing.assert_allclose(ds.alpha, d.alpha[::-1], atol=1e-12)
        np.testing.assert_allclose(ds.beta, d.beta[::-1], atol=1e-12)

    def test_conservation(self):
        rs = sec5_refset()
        params = sec5_adaptive_params()
        g = ring_graph(6)
        rng = np.random.default_rng(18)
        x = rng.standard_normal((6, 2))
        alpha = rng.uniform(0, 2, 6)
        beta = rng.uniform(0, 2, 6)
        d = adaptive_rhs(NetworkState(t=0.9, x=x, alpha=alpha, beta=beta), rs, params, g)
        f = rs.eval_inputs(0.9)
        residual = (d.x - x @ SEC5_A.T - f @ SEC5_B.T).sum(axis=0)
        np.testing.assert_allclose(residual, 0.0, atol=1e-12)


class TestAdaptiveGamma:
    """Gamma = P B B^T P = K^T K is derived from K; a given Gamma must be
    K^T K to rounding."""

    def test_gamma_derived_from_k(self):
        sol = at.solve_are(SEC5_A, SEC5_B, np.eye(2))
        K = -SEC5_B.T @ sol.P
        rates = dict(mu=10.0, nu=10.0, theta=0.01, chi=0.01, eps=5.0, phi=0.5, P=sol.P)
        want = (K.T @ K).tobytes()
        assert AdaptiveParams(K=K, **rates).Gamma.tobytes() == want
        for given in (K.T @ K, sol.P @ SEC5_B @ SEC5_B.T @ sol.P):
            assert AdaptiveParams(K=K, Gamma=given, **rates).Gamma.tobytes() == want

    @pytest.mark.parametrize("seed", range(8))
    def test_paper_form_accepted_on_random_plants(self, seed):
        # P B B^T P equals K^T K only to rounding on most of these plants
        A, B, Q = random_stabilizable(np.random.default_rng(seed))
        P = at.solve_are(A, B, Q).P
        K = -B.T @ P
        params = AdaptiveParams(K=K, Gamma=P @ B @ B.T @ P, P=P, mu=1.0, nu=1.0, theta=0.1,
                                chi=0.1, eps=1.0, phi=0.5)
        assert params.Gamma.tobytes() == (K.T @ K).tobytes()

    @pytest.mark.parametrize("given", [
        pytest.param(lambda G: 2.0 * G, id="twice"),
        pytest.param(lambda G: G + 1e-9 * np.abs(G).max(), id="off-by-1e-9"),
        pytest.param(lambda G: np.eye(3), id="wrong-shape"),
        pytest.param(lambda G: np.full_like(G, np.nan), id="nan"),
        pytest.param(lambda G: "Gamma", id="string"),
    ])
    def test_gamma_other_than_k_t_k_rejected(self, given):
        params = sec5_adaptive_params()
        with pytest.raises(ConfigError, match="^Gamma: "):
            AdaptiveParams(K=params.K, Gamma=given(params.Gamma), P=params.P, mu=1.0, nu=1.0,
                           theta=0.1, chi=0.1, eps=1.0, phi=0.5)

    def test_replace_derives_gamma_from_the_new_k(self):
        params = sec5_adaptive_params()
        K = 2.0 * params.K
        assert dataclasses.replace(params, K=K).Gamma.tobytes() == (K.T @ K).tobytes()
        assert dataclasses.replace(params, mu=3.0).Gamma.tobytes() == params.Gamma.tobytes()
        # the constructor still checks a Gamma it is given
        with pytest.raises(ConfigError, match="^Gamma: "):
            AdaptiveParams(K=K, Gamma=params.Gamma, P=params.P, mu=1.0, nu=1.0, theta=0.1,
                           chi=0.1, eps=1.0, phi=0.5)

    def test_signature_shows_the_fields(self):
        # __init__ takes a Gamma besides the fields; help() shows both
        params = inspect.signature(AdaptiveParams).parameters
        assert list(params) == ["K", "mu", "nu", "theta", "chi", "eps", "phi", "P", "alpha0",
                                "beta0", "Gamma"]
        assert params["Gamma"].kind is inspect.Parameter.KEYWORD_ONLY
        assert params["Gamma"].default is None

    def test_drive_is_the_paper_quadratic_form(self):
        # with alpha = beta = 0 the rates are mu and nu times the drives:
        # (x_i - x_j)^T P B B^T P (x_i - x_j) for alpha, with P from the
        # ARE, and w . h for beta, with w = K (x_i - x_j) and h boundary_layer's
        sol = at.solve_are(SEC5_A, SEC5_B, np.eye(2))
        params = sec5_adaptive_params(mu=3.0, nu=7.0)
        g = ring_graph(6)
        loop = ClosedLoop([(g, sec5_refset(), params)], "adaptive")
        gamma = sol.P @ SEC5_B @ SEC5_B.T @ sol.P
        rng = np.random.default_rng(5)
        tails, heads = graphmod.edge_index(g)
        zeros = np.zeros(g.n_edges)
        for scale in (1e-6, 1.0, 1e6):
            for t in (0.0, 0.7, 30.0):
                x = scale * rng.standard_normal((6, 2))
                _, dalpha, dbeta = loop_coupling(loop, t, x, zeros, zeros)
                d = x[tails] - x[heads]
                paper = np.einsum("ei,ij,ej->e", d, gamma, d)
                np.testing.assert_allclose(dalpha / params.mu, paper, rtol=1e-12, atol=0)
                w = d @ params.K.T
                w_dot_h = np.sum(w * boundary_layer(w, params.eps, params.phi, t), axis=1)
                np.testing.assert_allclose(dbeta / params.nu, w_dot_h, rtol=1e-12, atol=0)
