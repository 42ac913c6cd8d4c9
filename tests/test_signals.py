import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avgtrack import (
    InputDescriptor,
    InputTable,
    LinearPlant,
    ReferenceSet,
    eval_input,
    matrix_exp,
    reference_trajectory,
)
from avgtrack.errors import ConfigError

SEC5_PLANT = LinearPlant(A=[[0.0, 1.0], [-1.0, -2.0]], B=[[0.0], [1.0]])


def make_refset(plant, r0s, inputs):
    return ReferenceSet(plant=plant, initial_states=np.array(r0s), inputs=tuple(inputs))


class TestEvalInput:
    def test_zero(self):
        d = InputDescriptor(kind="zero")
        np.testing.assert_array_equal(eval_input(d, 3.7, 2), [0.0, 0.0])

    def test_constant(self):
        d = InputDescriptor(kind="constant", value=[1.0, -2.0])
        np.testing.assert_array_equal(eval_input(d, 100.0), [1.0, -2.0])

    def test_sinusoid_peak(self):
        # amplitude 3.5 = (6+1)/2, the largest of the six bundled inputs
        d = InputDescriptor(kind="sinusoid", amp=[3.5], omega=1.0, phase=0.0)
        assert eval_input(d, np.pi / 2.0)[0] == pytest.approx(3.5)

    def test_table_interpolates_and_holds(self):
        d = InputDescriptor(kind="table", times=[0.0, 1.0], values=[[0.0], [2.0]])
        assert eval_input(d, 0.5)[0] == pytest.approx(1.0)
        assert eval_input(d, 5.0)[0] == pytest.approx(2.0)  # hold-last policy

    def test_table_flat_values_are_one_column(self):
        flat = InputDescriptor(kind="table", times=[0, 1], values=[1.0, 2.0])
        column = InputDescriptor(kind="table", times=[0, 1], values=[[1.0], [2.0]])
        np.testing.assert_array_equal(flat.values, column.values)
        assert flat.dim(1) == 1
        assert eval_input(flat, 0.5)[0] == 1.5

    def test_table_single_time_flat_values_stay_a_row(self):
        # one grid time and m values: one sample of an m-input table, as before
        d = InputDescriptor(kind="table", times=[0.0], values=[1.0, 2.0])
        assert d.values.shape == (1, 2)
        with pytest.raises(ConfigError, match="length mismatch"):
            InputDescriptor(kind="table", times=[0, 1, 2], values=[1.0, 2.0])

    def test_bound_never_exceeded(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = InputDescriptor(
                kind="sinusoid",
                amp=rng.standard_normal(2),
                omega=rng.uniform(0.1, 5),
                phase=rng.uniform(0, 6),
            )
            f0 = d.bound()
            ts = np.linspace(0.0, 50.0, 4001)
            sup = max(np.linalg.norm(eval_input(d, t)) for t in ts)
            assert sup <= f0 + 1e-12


class TestInputBound:
    def test_all_zero(self):
        rs = make_refset(
            SEC5_PLANT,
            [[0, 0], [1, 1]],
            [InputDescriptor(kind="zero"), InputDescriptor(kind="zero")],
        )
        assert rs.inputs.bound() == 0.0

    def test_sec5_bound(self):
        inputs = [
            InputDescriptor(kind="sinusoid", amp=[(i + 1) / 2.0], omega=1.0) for i in range(1, 7)
        ]
        rs = make_refset(SEC5_PLANT, [[i, -i] for i in range(1, 7)], inputs)
        assert rs.inputs.bound() == pytest.approx(3.5)

    def test_constants(self):
        rs = make_refset(
            LinearPlant(A=np.zeros((2, 2)), B=np.eye(2)),
            [[0, 0], [0, 0]],
            [
                InputDescriptor(kind="constant", value=[1.0, 0.0]),
                InputDescriptor(kind="constant", value=[0.0, 2.0]),
            ],
        )
        assert rs.inputs.bound() == pytest.approx(2.0)


    def test_norm_bits_of_ordinary_inputs_kept(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.standard_normal(3) * 10.0 ** rng.integers(-100, 100)
            assert InputDescriptor(kind="sinusoid", amp=v).bound() == float(np.linalg.norm(v))
            table = rng.standard_normal((4, 3))
            d = InputDescriptor(kind="table", times=np.arange(4.0), values=table)
            assert d.bound() == float(np.max(np.linalg.norm(table, axis=1)))

    @pytest.mark.filterwarnings("error")
    def test_sum_of_squares_overflow_gives_the_finite_norm(self):
        plant = LinearPlant(A=np.zeros((2, 2)), B=np.eye(2))
        for d, f0 in (
            (InputDescriptor(kind="sinusoid", amp=[3e200, -4e200]), pytest.approx(5e200)),
            (InputDescriptor(kind="table", times=[0.0, 1.0], values=[[1.0, 0.0], [0.0, -1e300]]),
             1e300),
            # the norm itself beyond the double range
            (InputDescriptor(kind="constant", value=[1.5e308, 1.5e308]), np.inf),
        ):
            assert make_refset(plant, [[0, 0], [0, 0]], [d, d]).inputs.bound() == f0
            # with no overflow warning, as the table's bound
            assert d.bound() == f0


class TestValidation:
    def test_needs_two_agents(self):
        with pytest.raises(ConfigError):
            make_refset(SEC5_PLANT, [[0.0, 0.0]], [InputDescriptor(kind="zero")])

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            make_refset(
                SEC5_PLANT,
                [[0.0], [1.0]],
                [InputDescriptor(kind="zero"), InputDescriptor(kind="zero")],
            )

    def test_flat_b_is_one_column(self):
        plant = LinearPlant(A=SEC5_PLANT.A, B=[0.0, 1.0])
        assert plant.m == 1
        np.testing.assert_array_equal(plant.B, SEC5_PLANT.B)

    def test_one_input_per_initial_state(self):
        with pytest.raises(ConfigError, match="^one input descriptor per reference signal"):
            make_refset(SEC5_PLANT, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
                        [InputDescriptor(kind="zero")] * 2)

    def test_prebuilt_table_width_must_match_b(self):
        table = InputTable.of([InputDescriptor(kind="zero")] * 2, 2)
        with pytest.raises(ConfigError, match="^input dimension must match B's column count$"):
            ReferenceSet(plant=SEC5_PLANT, initial_states=np.zeros((2, 2)), inputs=table)

    @pytest.mark.parametrize("d, entries", [
        (InputDescriptor(kind="constant", value=[1.0, 2.0]), "2 entries"),
        (InputDescriptor(kind="table", times=[0.0], values=[[1.0, 2.0, 3.0]]), "3 entries"),
    ])
    def test_input_width_names_its_row(self, d, entries):
        with pytest.raises(ConfigError) as exc:
            make_refset(SEC5_PLANT, [[0.0, 0.0], [1.0, 1.0]], [InputDescriptor(kind="zero"), d])
        assert str(exc.value) == f"agents[1].input: {entries} per time, B has 1 column"


class TestReferenceTrajectory:
    def test_negative_time_rejected(self):
        rs = make_refset(SEC5_PLANT, [[1.0, 0.0], [0.0, 1.0]], [InputDescriptor(kind="zero")] * 2)
        with pytest.raises(ConfigError, match="^t must be nonnegative$"):
            reference_trajectory(rs, 0, -0.5)

    def test_homogeneous(self):
        rs = make_refset(
            SEC5_PLANT,
            [[1.0, 0.0], [0.0, 1.0]],
            [InputDescriptor(kind="zero")] * 2,
        )
        expected = matrix_exp(SEC5_PLANT.A, 2.5) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(reference_trajectory(rs, 0, 2.5), expected, atol=1e-12)

    def test_pure_integrator(self):
        plant = LinearPlant(A=np.zeros((2, 2)), B=[[1.0], [0.0]])
        rs = make_refset(
            plant,
            [[1.0, 2.0], [0.0, 0.0]],
            [InputDescriptor(kind="constant", value=[3.0]), InputDescriptor(kind="zero")],
        )
        np.testing.assert_allclose(
            reference_trajectory(rs, 0, 2.0), [1.0 + 3.0 * 2.0, 2.0], atol=1e-9
        )

    def _rk4_reference(self, rs, i, t_end, dt=1e-4):
        """r_i(t_end) by fine RK4, driven by agent i's input f_i."""
        A, B = rs.plant.A, rs.plant.B
        r = rs.initial_states[i].copy()

        def f(t, y):
            return A @ y + B @ rs.eval_inputs(t)[i]

        n = int(round(t_end / dt))
        for k in range(n):
            t = k * dt
            k1 = f(t, r)
            k2 = f(t + dt / 2, r + dt / 2 * k1)
            k3 = f(t + dt / 2, r + dt / 2 * k2)
            k4 = f(t + dt, r + dt * k3)
            r = r + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return r

    def test_vs_rk4_sec5_input(self):
        d = InputDescriptor(kind="sinusoid", amp=[1.0], omega=1.0)
        rs = make_refset(SEC5_PLANT, [[1.0, 0.0], [0.0, 0.0]], [d, InputDescriptor(kind="zero")])
        oracle = self._rk4_reference(rs, 0, 1.0)
        np.testing.assert_allclose(
            reference_trajectory(rs, 0, 1.0, quad_steps=2000), oracle, atol=1e-6
        )

    def test_vs_rk4_random_plants(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            plant = LinearPlant(A=rng.standard_normal((n, n)) * 0.5, B=rng.standard_normal((n, 1)))
            d = InputDescriptor(kind="sinusoid", amp=[1.0], omega=2.0, phase=0.3)
            rs = make_refset(plant, rng.standard_normal((2, n)), [d, InputDescriptor(kind="zero")])
            t_end = 5.0
            oracle = self._rk4_reference(rs, 0, t_end)
            got = reference_trajectory(rs, 0, t_end, quad_steps=4000)
            assert np.linalg.norm(got - oracle) <= 1e-6 * max(1.0, np.linalg.norm(oracle))

    def test_linearity(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 2.0])
        g = InputDescriptor(kind="sinusoid", amp=[1.0], omega=1.0)
        h = InputDescriptor(kind="constant", value=[0.5])
        combined = InputDescriptor(
            kind="table",
            times=np.linspace(0, 3, 3001),
            values=(np.sin(np.linspace(0, 3, 3001)) + 0.5)[:, None],
        )
        rs_sum = make_refset(SEC5_PLANT, [a + b, [0, 0]], [combined, InputDescriptor(kind="zero")])
        rs_a = make_refset(SEC5_PLANT, [a, [0, 0]], [g, InputDescriptor(kind="zero")])
        rs_b = make_refset(SEC5_PLANT, [b, [0, 0]], [h, InputDescriptor(kind="zero")])
        t = 2.0
        got = reference_trajectory(rs_sum, 0, t, quad_steps=3000)
        want = reference_trajectory(rs_a, 0, t, quad_steps=3000) + reference_trajectory(
            rs_b, 0, t, quad_steps=3000
        )
        # table path linearly interpolates the sinusoid, hence the looser tolerance
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_linearity_exact_parametric(self):
        # same input split across two runs: strictly parametric, 1e-9 contract
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 2.0])
        g = InputDescriptor(kind="sinusoid", amp=[1.0], omega=1.0)
        zero = InputDescriptor(kind="zero")
        rs_ab = make_refset(SEC5_PLANT, [a + b, [0, 0]], [g, zero])
        rs_a = make_refset(SEC5_PLANT, [a, [0, 0]], [g, zero])
        rs_b = make_refset(SEC5_PLANT, [b, [0, 0]], [zero, zero])
        t = 2.0
        got = reference_trajectory(rs_ab, 0, t, quad_steps=1000)
        want = reference_trajectory(rs_a, 0, t, quad_steps=1000) + reference_trajectory(
            rs_b, 0, t, quad_steps=1000
        )
        np.testing.assert_allclose(got, want, atol=1e-9)


GRID = (0.5, 1.0, 2.5, 3.0)          # table inputs' sample times come from here


@st.composite
def references_and_times(draw):
    """Zero, constant, sinusoid and table inputs of m = 1 or 2 entries, m,
    and stage times before, on, inside and past the tables' grids."""
    m = draw(st.sampled_from([1, 2]))
    values = st.floats(-1e3, 1e3, allow_subnormal=True)
    inputs = []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["zero", "constant", "sinusoid", "table"]))
        if kind == "zero":
            inputs.append(InputDescriptor(kind="zero"))
        elif kind == "constant":
            inputs.append(InputDescriptor(kind="constant", value=draw(st.lists(
                values, min_size=m, max_size=m))))
        elif kind == "sinusoid":
            inputs.append(InputDescriptor(
                kind="sinusoid", amp=draw(st.lists(values, min_size=m, max_size=m)),
                omega=draw(st.floats(0.0, 10.0)), phase=draw(st.floats(-4.0, 4.0))))
        else:
            times = sorted(draw(st.sets(st.sampled_from(GRID), min_size=1)))
            rows = draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=len(times),
                                 max_size=len(times)))
            inputs.append(InputDescriptor(kind="table", times=times, values=rows))
    t = st.one_of(st.sampled_from((0.0, *GRID, 0.75, 2.0, 50.0)), st.floats(0.0, 60.0))
    return inputs, m, draw(st.lists(t, min_size=1, max_size=8))


def per_time_form(rs, t):
    """f_i(t) for one time, in the form a call at one time always took: the
    parametric kinds as amp sin(omega t + phase) + const over all agents,
    each table column by np.interp."""
    u = rs.inputs
    f = u.amp * np.sin(u.omega * t + u.phase)[:, None] + u.const
    for i, d in u.tables.items():
        f[i] = [np.interp(t, d.times, d.values[:, k]) for k in range(rs.plant.m)]
    return f


@settings(max_examples=200, deadline=None)
@given(case=references_and_times())
@example(case=([
    InputDescriptor(kind="table", times=[0.5, 3.0], values=[[1.0, -2.0], [3.0, 0.5]]),
    InputDescriptor(kind="sinusoid", amp=[1.0, -0.0], omega=1.0, phase=0.0)],
    2, [0.0, 0.5, 1.75, 3.0, 7.0]))
# a -0.0 entry of a constant and a -0.0 amplitude are +0.0 in a run, and so
# in eval_input
@example(case=([
    InputDescriptor(kind="constant", value=[-0.0, 1.0]),
    InputDescriptor(kind="sinusoid", amp=[-0.0, 2.0], omega=1.0, phase=0.0),
    InputDescriptor(kind="zero")],
    2, [0.0, 1.0, 4.0]))
def test_eval_over_times_has_the_bits_of_each_time(case):
    inputs, m, times = case
    rs = make_refset(LinearPlant(A=-np.eye(2), B=np.ones((2, m))), np.zeros((len(inputs), 2)),
                     inputs)
    got = rs.eval_inputs(times)
    assert got.shape == (len(times), rs.n_agents, rs.plant.m)
    for t, f in zip(times, got):
        one = rs.eval_inputs(t)
        assert one.tobytes() == f.tobytes() == per_time_form(rs, t).tobytes()
    for i, d in enumerate(inputs):
        rows = eval_input(d, np.array(times), rs.plant.m)
        assert rows.shape == (len(times), rs.plant.m)
        for t, row, f in zip(times, rows, got):
            assert row.tobytes() == eval_input(d, t, rs.plant.m).tobytes()
            # one input alone has the bits of its row in the set's evaluation
            assert eval_input(d, t, rs.plant.m).tobytes() == f[i].tobytes()
