import numpy as np
import pytest

import avgtrack as at
from avgtrack import (
    Graph,
    InputDescriptor,
    LinearPlant,
    ReferenceSet,
    SimConfig,
    integrate,
    matrix_exp,
    reference_trajectory,
)
from avgtrack.errors import ConfigError, NonFinite
from conftest import SEC5_A, SEC5_B, ring_graph


class TestIntegrate:
    def test_zero_rhs_constant(self):
        times, ys = integrate(lambda t, y: np.zeros_like(y), np.array([1.0, 2.0]), SimConfig(1.0, 0.1))
        np.testing.assert_array_equal(ys, np.tile([1.0, 2.0], (len(times), 1)))

    def test_scalar_decay(self):
        times, ys = integrate(lambda t, y: -y, np.array([1.0]), SimConfig(1.0, 0.01))
        assert ys[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_rk4_fourth_order(self):
        def err(dt):
            _, ys = integrate(lambda t, y: -y, np.array([1.0]), SimConfig(1.0, dt))
            return abs(ys[-1, 0] - np.exp(-1.0))

        ratio = err(0.02) / err(0.01)
        assert 12.0 <= ratio <= 20.0  # ~16x per halving

    def test_grid_no_drift(self):
        times, _ = integrate(
            lambda t, y: np.zeros_like(y), np.array([0.0]), SimConfig(2.0, 0.1, record_every=2)
        )
        # stamps are k*dt*record_every exactly (index multiplication, no accumulation)
        np.testing.assert_array_equal(times[1:], np.arange(1, 11) * 0.2)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nonfinite_reported_with_time(self):
        def blowup(t, y):
            return y**3

        with pytest.raises(NonFinite) as exc:
            integrate(blowup, np.array([5.0]), SimConfig(5.0, 0.05))
        assert exc.value.time is not None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_time_independent_of_record_every(self):
        # the Sec. 5 design on a 500-ring puts c1 = 1/(2 lambda2) far outside
        # RK4's stability region at dt = 1e-3; the first non-finite step must
        # be reported however sparsely the run records
        n = 500
        cfg = at.scenario_config("paper-sec5-static")
        cfg["graph"] = {"n": n, "edges": [[i, (i + 1) % n] for i in range(n)]}
        cfg["agents"] = [
            {"r0": [float(i), float(-i)],
             "input": {"kind": "sinusoid", "amp": [(i + 1) / 2.0], "omega": 1.0, "phase": 0.0}}
            for i in range(1, n + 1)
        ]
        scn = at.parse_scenario(cfg)
        gains = scn.build_static_gains()
        times = []
        for every in (1, 500):
            with pytest.raises(NonFinite) as exc:
                at.run(scn.graph, scn.reference_set, gains, SimConfig(0.5, 1e-3, record_every=every))
            times.append(exc.value.time)
        assert times[0] == times[1] < 0.5

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(t_end=1.0, dt=2.0)
        with pytest.raises(ConfigError):
            SimConfig(t_end=1.0, dt=0.1, record_every=0)
        with pytest.raises(ConfigError):
            SimConfig(t_end=1.0, dt=0.1, integrator="rk45")

    @pytest.mark.parametrize("dt", [0.6, 0.4])
    def test_t_end_off_the_step_grid_rejected(self, dt):
        # integrate would end at round(t_end/dt) * dt: 1.2 and 0.8
        with pytest.raises(ConfigError, match="t_end/dt"):
            SimConfig(1.0, dt)


def two_agent_setup(r0, inputs):
    plant = LinearPlant(A=SEC5_A, B=SEC5_B)
    rs = ReferenceSet(plant=plant, initial_states=np.array(r0), inputs=tuple(inputs))
    sol = at.solve_are(SEC5_A, SEC5_B, np.eye(2))
    K = -SEC5_B.T @ sol.P
    gains = at.StaticGains(K=K, c1=0.25, c2=3.0, eps=5.0, phi=0.5, P=sol.P)
    return rs, gains


class TestRun:
    def test_symmetric_start_stays_at_homogeneous_flow(self):
        r0 = [[1.0, -0.5], [1.0, -0.5]]
        rs, gains = two_agent_setup(r0, [InputDescriptor(kind="zero")] * 2)
        traj = at.run(Graph(2, ((0, 1),)), rs, gains, SimConfig(2.0, 1e-3, record_every=10))
        expected = matrix_exp(SEC5_A, 2.0) @ np.array([1.0, -0.5])
        for i in range(2):
            np.testing.assert_allclose(traj.x[-1, i], expected, atol=1e-6)

    def test_initial_condition_is_reference(self):
        r0 = [[1.0, 2.0], [-3.0, 4.0]]
        rs, gains = two_agent_setup(
            r0, [InputDescriptor(kind="sinusoid", amp=[1.0], omega=1.0), InputDescriptor(kind="zero")]
        )
        traj = at.run(Graph(2, ((0, 1),)), rs, gains, SimConfig(0.5, 1e-3))
        np.testing.assert_array_equal(traj.x[0], np.array(r0))
        np.testing.assert_array_equal(traj.r[0], np.array(r0))

    def test_opposite_starts_converge_to_average(self):
        # P2, equal inputs, opposite r0: both agents approach the average signal
        r0 = [[2.0, 0.0], [-2.0, 0.0]]
        inp = InputDescriptor(kind="sinusoid", amp=[1.0], omega=1.0)
        rs, gains = two_agent_setup(r0, [inp, inp])
        traj = at.run(Graph(2, ((0, 1),)), rs, gains, SimConfig(15.0, 1e-3, record_every=10))
        avg_oracle = at.consensus_manifold(rs, 15.0, quad_steps=4000)
        for i in range(2):
            assert np.linalg.norm(traj.x[-1, i] - avg_oracle) < 5e-2

    def test_determinism(self):
        rs, gains = two_agent_setup(
            [[1.0, 0.0], [0.0, 1.0]],
            [InputDescriptor(kind="sinusoid", amp=[1.0], omega=1.0), InputDescriptor(kind="zero")],
        )
        g = Graph(2, ((0, 1),))
        cfg = SimConfig(1.0, 1e-3, record_every=5)
        t1 = at.run(g, rs, gains, cfg)
        t2 = at.run(g, rs, gains, cfg)
        assert t1.x.tobytes() == t2.x.tobytes()
        assert t1.r.tobytes() == t2.r.tobytes()

    def test_coreference_matches_quadrature_oracle(self):
        rs, gains = two_agent_setup(
            [[1.0, 0.0], [0.0, 1.0]],
            [InputDescriptor(kind="sinusoid", amp=[1.0], omega=1.0), InputDescriptor(kind="zero")],
        )
        traj = at.run(Graph(2, ((0, 1),)), rs, gains, SimConfig(5.0, 1e-3, record_every=10))
        for i in range(2):
            oracle = reference_trajectory(rs, i, 5.0, quad_steps=5000)
            assert np.linalg.norm(traj.r[-1, i] - oracle) <= 1e-6

    def test_graph_size_mismatch(self):
        rs, gains = two_agent_setup(
            [[1.0, 0.0], [0.0, 1.0]], [InputDescriptor(kind="zero")] * 2
        )
        with pytest.raises(ConfigError):
            at.run(ring_graph(3), rs, gains, SimConfig(1.0, 0.1))

    def test_adaptive_needs_params(self):
        rs, gains = two_agent_setup(
            [[1.0, 0.0], [0.0, 1.0]], [InputDescriptor(kind="zero")] * 2
        )
        with pytest.raises(ConfigError):
            at.run(Graph(2, ((0, 1),)), rs, gains, SimConfig(1.0, 0.1), mode="adaptive")

    def test_adaptive_records_edge_gains(self):
        rs, _ = two_agent_setup([[1.0, 0.0], [0.0, 1.0]], [InputDescriptor(kind="zero")] * 2)
        sol = at.solve_are(SEC5_A, SEC5_B, np.eye(2))
        K = -SEC5_B.T @ sol.P
        params = at.AdaptiveParams(
            K=K, Gamma=K.T @ K, mu=1.0, nu=1.0, theta=0.1, chi=0.1, eps=1.0, phi=0.5,
            P=sol.P, alpha0=0.5, beta0=0.25,
        )
        traj = at.run(Graph(2, ((0, 1),)), rs, params, SimConfig(1.0, 1e-3), mode="adaptive")
        assert traj.alpha.shape[1] == 1
        assert traj.alpha[0, 0] == 0.5
        assert traj.beta[0, 0] == 0.25
