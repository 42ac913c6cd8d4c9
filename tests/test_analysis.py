import numpy as np
import pytest

import avgtrack as at
from avgtrack import (
    InputDescriptor,
    LinearPlant,
    ReferenceSet,
    TheoremConstants,
    consensus_error,
    consensus_manifold,
    direction_flip_count,
    lyapunov_v1,
    lyapunov_v2,
    omega1_bound,
    omega2_radius,
    reference_trajectory,
    sum_invariant,
    theorem_constants,
    tracking_error,
    v1_envelope,
)
from avgtrack.errors import RhoExceedsGamma
from conftest import SEC5_A, SEC5_B, ring_graph


class TestConsensusError:
    def test_all_equal(self):
        x = np.tile([1.0, 2.0], (4, 1))
        np.testing.assert_allclose(consensus_error(x), 0.0, atol=1e-15)

    def test_two_agents(self):
        x = np.array([[3.0], [1.0]])
        np.testing.assert_allclose(consensus_error(x), [[1.0], [-1.0]])

    def test_idempotent_projection(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((5, 3))
        once = consensus_error(x)
        np.testing.assert_allclose(consensus_error(once), once, atol=1e-14)

    def test_mean_free(self):
        rng = np.random.default_rng(21)
        xi = consensus_error(rng.standard_normal((6, 2)))
        np.testing.assert_allclose(xi.sum(axis=0), 0.0, atol=1e-12)


class TestTrackingError:
    def test_exact_average(self):
        r = np.array([[1.0, 0.0], [3.0, 2.0]])
        x = np.tile(r.mean(axis=0), (2, 1))
        np.testing.assert_allclose(tracking_error(x, r), 0.0, atol=1e-15)

    def test_equals_consensus_error_when_sums_match(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((4, 2))
        r = rng.standard_normal((4, 2))
        r = r - r.mean(axis=0) + x.mean(axis=0)  # force sum x = sum r
        np.testing.assert_allclose(tracking_error(x, r), consensus_error(x), atol=1e-12)

    def test_bounded_difference_from_consensus_error(self):
        # when ||sum x - sum r|| <= eta, the two error notions differ by <= eta/N
        rng = np.random.default_rng(23)
        x = rng.standard_normal((5, 2))
        r = rng.standard_normal((5, 2))
        eta = float(sum_invariant(x, r))
        gap = np.linalg.norm(tracking_error(x, r) - consensus_error(x), axis=1).max()
        assert gap <= eta / 5 + 1e-12


class TestSumInvariant:
    def test_zero_at_matching_start(self):
        r = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert sum_invariant(r, r) == 0.0

    def test_perturbation_moves_exactly(self):
        r = np.zeros((3, 2))
        x = r.copy()
        v = np.array([0.3, -0.7])
        x[1] += v
        assert sum_invariant(x, r) == pytest.approx(np.linalg.norm(v))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sample_formed_again_scaled(self):
        # a sample whose squares overflow is formed again from x and r divided
        # by its largest entry; the other samples keep their bits
        rng = np.random.default_rng(29)
        x, r = rng.standard_normal((2, 4, 3, 2))
        x[1] *= 1e300
        r[1] *= 1e300
        got = sum_invariant(x, r)
        kept = [0, 2, 3]
        assert got[kept].tobytes() == sum_invariant(x[kept], r[kept]).tobytes()
        assert np.isfinite(got[1]) and got[1] == sum_invariant(x[1], r[1])
        want = np.linalg.norm(x[1].sum(0) / 1e300 - r[1].sum(0) / 1e300) * 1e300
        assert got[1] == pytest.approx(want, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sums_that_overflow_formed_again_scaled(self):
        x = np.full((3, 2), 1e308)
        assert sum_invariant(x, x) == 0.0
        r = x.copy()
        r[0, 0] = 0.5e308
        assert sum_invariant(x, r) == pytest.approx(0.5e308, rel=1e-15)


class TestLyapunovV1:
    def test_zero(self):
        assert lyapunov_v1(np.zeros((3, 2)), np.eye(2)) == 0.0

    def test_identity_p(self):
        rng = np.random.default_rng(24)
        xi = consensus_error(rng.standard_normal((5, 2)))
        assert lyapunov_v1(xi, np.eye(2)) == pytest.approx(np.sum(xi**2), abs=1e-12)

    def test_lower_bound(self):
        rng = np.random.default_rng(25)
        P = at.solve_are(SEC5_A, SEC5_B, np.eye(2)).P
        lam_min = np.linalg.eigvalsh(P)[0]
        for _ in range(30):
            xi = consensus_error(rng.standard_normal((6, 2)))
            assert lyapunov_v1(xi, P) >= lam_min * np.sum(xi**2) - 1e-10

    def test_series_equals_stacked_samples(self):
        rng = np.random.default_rng(26)
        P = at.solve_are(SEC5_A, SEC5_B, np.eye(2)).P
        xi = consensus_error(rng.standard_normal((50, 6, 2)))
        v = lyapunov_v1(xi, P)
        assert v.shape == (50,)
        np.testing.assert_array_equal(v, [lyapunov_v1(s, P) for s in xi])
        assert type(lyapunov_v1(xi[0], P)) is float

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_plus_inf(self):
        # with this P the sum of the overflowing terms is inf - inf, NaN
        P = np.array([[2.0, -1.0], [-1.0, 2.0]])
        huge = consensus_error(np.array([[1e300, 0.0], [-1e300, 1.0], [0.0, -1e300]]))
        assert np.isnan(np.einsum("in,nm,im->", huge, P, huge))
        small = consensus_error(np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]))
        v = lyapunov_v1(np.stack([small, huge]), P)
        assert v[0] == lyapunov_v1(small, P) and v[1] == np.inf
        assert lyapunov_v1(huge, P) == np.inf
        nan = small.copy()
        nan[0, 0] = np.nan
        assert np.isnan(lyapunov_v1(nan, P))      # a NaN state is no overflow


class TestEnvelope:
    def test_t0(self):
        assert v1_envelope(0.0, 3.3, 0.5, 2.0, 1.0, 0.7, 12) == pytest.approx(3.3)

    def test_equal_rates_vanishes(self):
        assert v1_envelope(200.0, 1.0, 0.5, 2.0, 1.0, 0.5, 12) == pytest.approx(0.0, abs=1e-12)

    def test_branch_continuity(self):
        for t in (0.5, 2.0, 10.0):
            base = v1_envelope(t, 1.0, 0.5, 2.0, 1.0, 0.5, 12)
            near = v1_envelope(t, 1.0, 0.5 + 1e-9, 2.0, 1.0, 0.5, 12)
            assert near == pytest.approx(base, abs=1e-6)

    @pytest.mark.parametrize("phi", [0.7, 0.5])  # gamma != phi and the gamma == phi branch
    def test_series_equals_stacked_samples(self, phi):
        t = np.linspace(0.0, 20.0, 201)
        env = v1_envelope(t, 3.3, 0.5, 2.0, 1.0, phi, 12)
        assert env.shape == t.shape
        stacked = [v1_envelope(s, 3.3, 0.5, 2.0, 1.0, phi, 12) for s in t]
        np.testing.assert_array_equal(env, stacked)
        assert type(stacked[0]) is float

    @pytest.mark.filterwarnings("error")
    def test_infinite_start_is_inf_at_every_t(self):
        # e^{-gamma t} underflows to 0 at t = 2000, where 0 * inf would be
        # NaN, with numpy's invalid-value warning
        env = v1_envelope([0, 1000, 2000], np.inf, 0.64, 17.5, 5, 0.5, 12)
        np.testing.assert_array_equal(env, [np.inf, np.inf, np.inf])


class TestLyapunovV2:
    def consts(self):
        return TheoremConstants(gamma=0.6, alpha_bar=0.5, beta_bar=17.5, delta=0.1, varrho=0.1)

    def test_zero_at_reference_point(self):
        c = self.consts()
        xi = np.zeros((4, 2))
        alpha = np.full(3, c.alpha_bar)
        beta = np.full(3, c.beta_bar)
        assert lyapunov_v2(xi, np.eye(2), alpha, beta, c, 1.0, 1.0) == 0.0

    def test_single_edge_double_count(self):
        c = self.consts()
        xi = np.zeros((2, 2))
        got = lyapunov_v2(xi, np.eye(2), np.zeros(1), np.zeros(1), c, 1.0, 1.0)
        assert got == pytest.approx(2.0 * (c.alpha_bar**2 / 2.0 + c.beta_bar**2 / 2.0))

    def test_monotone_in_deviation(self):
        c = self.consts()
        xi = np.zeros((2, 2))
        vals = [
            lyapunov_v2(xi, np.eye(2), np.array([c.alpha_bar + d]), np.array([c.beta_bar]), c, 1.0, 1.0)
            for d in (0.0, 0.5, 1.0, 2.0)
        ]
        assert vals == sorted(vals)

    def test_series_equals_stacked_samples(self):
        c = self.consts()
        rng = np.random.default_rng(27)
        xi = consensus_error(rng.standard_normal((50, 6, 2)))
        alpha = rng.uniform(0.0, 2.0, (50, 7))
        beta = rng.uniform(0.0, 30.0, (50, 7))
        v = lyapunov_v2(xi, np.eye(2), alpha, beta, c, 0.7, 1.3)
        assert v.shape == (50,)
        stacked = [
            lyapunov_v2(xi[k], np.eye(2), alpha[k], beta[k], c, 0.7, 1.3) for k in range(50)
        ]
        np.testing.assert_array_equal(v, stacked)
        assert type(stacked[0]) is float

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_plus_inf(self):
        c = self.consts()
        P = np.array([[2.0, -1.0], [-1.0, 2.0]])
        xi = consensus_error(np.array([[1e300, 0.0], [-1e300, 1.0], [0.0, -1e300]]))
        gains = np.zeros(3)
        assert lyapunov_v2(xi, P, gains, gains, c, 1.0, 1.0) == np.inf
        assert lyapunov_v2(np.zeros((3, 2)), P, gains + 1e300, gains, c, 1.0, 1.0) == np.inf


class TestOmegaBounds:
    def test_zero_leakage_zero_radius(self):
        c = TheoremConstants(gamma=0.6, alpha_bar=0.5, beta_bar=17.5, delta=0.1, varrho=0.1)
        assert omega2_radius(c, 0.0, 0.0, np.eye(2), 12) == 0.0

    def test_sqrt_scaling_in_theta(self):
        c = TheoremConstants(gamma=0.6, alpha_bar=0.5, beta_bar=17.5, delta=0.1, varrho=0.1)
        r1 = omega2_radius(c, 0.01, 0.0, np.eye(2), 12)
        r4 = omega2_radius(c, 0.04, 0.0, np.eye(2), 12)
        assert r4 == pytest.approx(2.0 * r1)

    def test_rho_exceeds_gamma(self):
        c = TheoremConstants(gamma=0.05, alpha_bar=0.5, beta_bar=17.5, delta=0.05, varrho=0.1)
        with pytest.raises(RhoExceedsGamma):
            omega2_radius(c, 0.01, 0.01, np.eye(2), 12)

    def test_omega1_formula(self):
        c = TheoremConstants(gamma=0.6, alpha_bar=2.0, beta_bar=3.0, delta=0.2, varrho=0.1)
        got = omega1_bound(c, 0.5, 0.25, 10)
        assert got == pytest.approx(10 * (0.5 * 4.0 / 2 + 0.25 * 9.0 / 2) / 0.2)


class TestTheoremConstants:
    def test_identity_case(self):
        c = theorem_constants(np.eye(2), np.eye(2), ring_graph(4), f0=0.0)
        assert c.gamma == pytest.approx(1.0)

    def test_sec5_gamma(self):
        P = at.solve_are(SEC5_A, SEC5_B, np.eye(2)).P
        c = theorem_constants(P, np.eye(2), ring_graph(6), f0=3.5)
        assert c.gamma == pytest.approx(1.0 / np.linalg.eigvalsh(P)[-1], abs=1e-10)
        assert c.alpha_bar == pytest.approx(0.5)
        assert c.beta_bar == pytest.approx(17.5)

    def test_min_max_arithmetic(self):
        c = theorem_constants(
            np.eye(2), np.eye(2), ring_graph(4), f0=1.0,
            mu=1.0, nu=1.0, theta=0.1, chi=0.1,
        )
        assert c.delta == pytest.approx(0.1)
        assert c.varrho == pytest.approx(0.1)


class TestConsensusManifold:
    def test_stable_decay_zero_inputs(self):
        plant = LinearPlant(A=-np.eye(2), B=[[0.0], [1.0]])
        rs = ReferenceSet(
            plant=plant,
            initial_states=np.array([[1.0, 2.0], [3.0, -1.0]]),
            inputs=(InputDescriptor(kind="zero"), InputDescriptor(kind="zero")),
        )
        np.testing.assert_allclose(consensus_manifold(rs, 30.0), 0.0, atol=1e-10)

    def test_equals_mean_of_reference_trajectories(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            N = int(rng.integers(2, 5))
            plant = LinearPlant(A=rng.standard_normal((n, n)) * 0.4, B=rng.standard_normal((n, 1)))
            inputs = tuple(
                InputDescriptor(
                    kind="sinusoid",
                    amp=rng.standard_normal(1),
                    omega=rng.uniform(0.5, 3.0),
                    phase=rng.uniform(0, 6),
                )
                for _ in range(N)
            )
            rs = ReferenceSet(plant=plant, initial_states=rng.standard_normal((N, n)), inputs=inputs)
            t = float(rng.uniform(0.5, 4.0))
            mean_traj = np.mean(
                [reference_trajectory(rs, i, t, quad_steps=200) for i in range(N)], axis=0
            )
            np.testing.assert_allclose(
                consensus_manifold(rs, t, quad_steps=200), mean_traj, atol=1e-9
            )

    def test_bits_of_the_per_agent_average(self):
        # one evaluation of the inputs shared by all agents keeps the bits of
        # each agent's own quadrature and of their sum in agent order
        rng = np.random.default_rng(25)
        kinds = ["zero", "constant", "sinusoid", "table"]
        for trial in range(40):
            n, m, N = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(2, 6))
            plant = LinearPlant(A=rng.standard_normal((n, n)) * 0.5,
                                B=rng.standard_normal((n, m)))
            inputs = [_random_input(rng, kinds[(trial + i) % 4], m) for i in range(N)]
            rs = ReferenceSet(plant=plant, initial_states=rng.standard_normal((N, n)),
                              inputs=inputs)
            t = 0.0 if trial % 10 == 0 else float(rng.uniform(0.1, 5.0))
            steps = int(rng.integers(1, 120))
            alone = [_per_agent_quadrature(rs, i, t, steps) for i in range(N)]
            for i in range(N):
                assert reference_trajectory(rs, i, t, steps).tobytes() == alone[i].tobytes()
            acc = np.zeros(n)
            for r in alone:
                acc += r
            assert consensus_manifold(rs, t, steps).tobytes() == (acc / N).tobytes()


def _random_input(rng, kind, m):
    if kind == "constant":
        return InputDescriptor(kind="constant", value=rng.standard_normal(m))
    if kind == "sinusoid":
        return InputDescriptor(kind="sinusoid", amp=rng.standard_normal(m),
                               omega=rng.uniform(0.0, 3.0), phase=rng.uniform(-3.0, 3.0))
    if kind == "table":
        k = int(rng.integers(1, 5))
        times = np.cumsum(rng.uniform(0.1, 1.5, k))
        return InputDescriptor(kind="table", times=times, values=rng.standard_normal((k, m)))
    return InputDescriptor(kind="zero")


def _per_agent_quadrature(rs, i, t, quad_steps):
    # r_i(t) by composite Simpson on its own: the inputs over every node, its
    # column read, e^{A(t - tau_k)} built up from the last node back
    A, B = rs.plant.A, rs.plant.B
    r = at.matrix_exp(A, t) @ rs.initial_states[i]
    if t == 0.0 or rs.inputs.kinds[i] == "zero":
        return r
    npts = 2 * quad_steps + 1
    taus = np.linspace(0.0, t, npts)
    f = rs.eval_inputs(taus)[:, i]
    h = taus[1] - taus[0]
    weights = np.ones(npts)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= h / 3.0
    Eh, prop, acc = at.matrix_exp(A, h), np.eye(rs.plant.n), np.zeros(rs.plant.n)
    for k in range(npts - 1, -1, -1):
        acc += weights[k] * (prop @ (B @ f[k]))
        prop = Eh @ prop
    return r + acc


class TestDirectionFlips:
    def test_constant_sign_no_flips(self):
        assert direction_flip_count(np.ones((10, 1))) == 0

    def test_alternating(self):
        w = np.array([1.0, -1.0] * 5)[:, None]
        assert direction_flip_count(w) == 9

    def test_zero_samples_do_not_count(self):
        w = np.array([1.0, 0.0, -1.0])[:, None]
        assert direction_flip_count(w) == 0

    def test_one_dimensional_series(self):
        # a (T,) series is T samples of a scalar signal, not one sample
        w = np.array([1.0, -1.0] * 5)
        assert direction_flip_count(w) == direction_flip_count(w[:, None]) == 9
