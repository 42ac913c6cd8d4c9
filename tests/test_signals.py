import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avgtrack import (
    InputTable,
    LinearPlant,
    ReferenceSet,
    matrix_exp,
    reference_trajectory,
)
from avgtrack.errors import ConfigError
from avgtrack.signals import check_input

SEC5_PLANT = LinearPlant(A=[[0.0, 1.0], [-1.0, -2.0]], B=[[0.0], [1.0]])


def make_refset(plant, r0s, inputs):
    return ReferenceSet(plant=plant, initial_states=np.array(r0s), inputs=tuple(inputs))


def eval_input(d, t, m=1):
    """f(t) of the one input d of m entries, by its one-row table."""
    return InputTable.of([d], m).eval(t)[..., 0, :]


def bound(d, m):
    """sup_t ||f(t)|| of the one input d of m entries, by its one-row table."""
    return InputTable.of([d], m).bound()


class TestEvalInput:
    def test_zero(self):
        d = {"kind": "zero"}
        np.testing.assert_array_equal(eval_input(d, 3.7, 2), [0.0, 0.0])

    def test_constant(self):
        d = {"kind": "constant", "value": [1.0, -2.0]}
        np.testing.assert_array_equal(eval_input(d, 100.0, 2), [1.0, -2.0])

    def test_sinusoid_peak(self):
        # amplitude 3.5 = (6+1)/2, the largest of the six bundled inputs
        d = {"kind": "sinusoid", "amp": [3.5], "omega": 1.0, "phase": 0.0}
        assert eval_input(d, np.pi / 2.0)[0] == pytest.approx(3.5)

    def test_table_interpolates_and_holds(self):
        d = {"kind": "table", "times": [0.0, 1.0], "values": [[0.0], [2.0]]}
        assert eval_input(d, 0.5)[0] == pytest.approx(1.0)
        assert eval_input(d, 5.0)[0] == pytest.approx(2.0)  # hold-last policy

    def test_table_flat_values_are_one_column(self):
        flat = {"kind": "table", "times": [0, 1], "values": [1.0, 2.0]}
        column = {"kind": "table", "times": [0, 1], "values": [[1.0], [2.0]]}
        np.testing.assert_array_equal(check_input(flat, "input")["values"],
                                      check_input(column, "input")["values"])
        assert InputTable.of([flat], 1).tables[0][1].shape[1] == 1
        assert eval_input(flat, 0.5)[0] == 1.5

    def test_table_single_time_flat_values_stay_a_row(self):
        # one grid time and m values: one sample of an m-input table, as before
        d = {"kind": "table", "times": [0.0], "values": [1.0, 2.0]}
        assert check_input(d, "input")["values"].shape == (1, 2)
        with pytest.raises(ConfigError, match="length mismatch"):
            check_input({"kind": "table", "times": [0, 1, 2], "values": [1.0, 2.0]}, "input")

    @pytest.mark.parametrize("d, f", [
        ({"kind": "zero"}, 0.0),
        ({"kind": "constant", "value": [2.5]}, 2.5),
        ({"kind": "sinusoid", "amp": [2.0], "omega": 0.0, "phase": 0.5}, 2.0 * np.sin(0.5)),
    ], ids=["zero", "constant", "sinusoid-omega-0"])
    def test_constant_in_time_at_infinity(self, d, f):
        # 0 sin(0 inf) was nan, with numpy's invalid-value warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = eval_input(d, [0.0, 1.0, np.inf, -np.inf])
        assert rows.tolist() == [[f]] * 4

    def test_bound_never_exceeded(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = {"kind": "sinusoid", "amp": rng.standard_normal(2),
                 "omega": rng.uniform(0.1, 5), "phase": rng.uniform(0, 6)}
            f0 = bound(d, 2)
            ts = np.linspace(0.0, 50.0, 4001)
            sup = max(np.linalg.norm(eval_input(d, t, 2)) for t in ts)
            assert sup <= f0 + 1e-12


class TestInputBound:
    def test_all_zero(self):
        rs = make_refset(
            SEC5_PLANT,
            [[0, 0], [1, 1]],
            [{"kind": "zero"}, {"kind": "zero"}],
        )
        assert rs.inputs.bound() == 0.0

    def test_sec5_bound(self):
        inputs = [
            {"kind": "sinusoid", "amp": [(i + 1) / 2.0], "omega": 1.0} for i in range(1, 7)
        ]
        rs = make_refset(SEC5_PLANT, [[i, -i] for i in range(1, 7)], inputs)
        assert rs.inputs.bound() == pytest.approx(3.5)

    def test_constants(self):
        rs = make_refset(
            LinearPlant(A=np.zeros((2, 2)), B=np.eye(2)),
            [[0, 0], [0, 0]],
            [
                {"kind": "constant", "value": [1.0, 0.0]},
                {"kind": "constant", "value": [0.0, 2.0]},
            ],
        )
        assert rs.inputs.bound() == pytest.approx(2.0)


    def test_norm_bits_of_ordinary_inputs_kept(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.standard_normal(3) * 10.0 ** rng.integers(-100, 100)
            assert bound({"kind": "sinusoid", "amp": v}, 3) == float(np.linalg.norm(v))
            table = rng.standard_normal((4, 3))
            d = {"kind": "table", "times": np.arange(4.0), "values": table}
            assert bound(d, 3) == float(np.max(np.linalg.norm(table, axis=1)))

    @pytest.mark.filterwarnings("error")
    def test_sum_of_squares_overflow_gives_the_finite_norm(self):
        plant = LinearPlant(A=np.zeros((2, 2)), B=np.eye(2))
        for d, f0 in (
            ({"kind": "sinusoid", "amp": [3e200, -4e200]}, pytest.approx(5e200)),
            ({"kind": "table", "times": [0.0, 1.0], "values": [[1.0, 0.0], [0.0, -1e300]]},
             1e300),
            # the norm itself beyond the double range
            ({"kind": "constant", "value": [1.5e308, 1.5e308]}, np.inf),
        ):
            assert make_refset(plant, [[0, 0], [0, 0]], [d, d]).inputs.bound() == f0
            # with no overflow warning, as the table's bound
            assert bound(d, 2) == f0


class TestValidation:
    def test_needs_two_agents(self):
        with pytest.raises(ConfigError):
            make_refset(SEC5_PLANT, [[0.0, 0.0]], [{"kind": "zero"}])

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            make_refset(
                SEC5_PLANT,
                [[0.0], [1.0]],
                [{"kind": "zero"}, {"kind": "zero"}],
            )

    def test_flat_b_is_one_column(self):
        plant = LinearPlant(A=SEC5_PLANT.A, B=[0.0, 1.0])
        assert plant.m == 1
        np.testing.assert_array_equal(plant.B, SEC5_PLANT.B)

    def test_one_input_per_initial_state(self):
        with pytest.raises(ConfigError, match="^one input per reference signal required$"):
            make_refset(SEC5_PLANT, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
                        [{"kind": "zero"}] * 2)

    def test_prebuilt_table_width_must_match_b(self):
        table = InputTable.of([{"kind": "zero"}] * 2, 2)
        with pytest.raises(ConfigError, match="^input dimension must match B's column count$"):
            ReferenceSet(plant=SEC5_PLANT, initial_states=np.zeros((2, 2)), inputs=table)

    @pytest.mark.parametrize("d, entries", [
        ({"kind": "constant", "value": [1.0, 2.0]}, "2 entries"),
        ({"kind": "table", "times": [0.0], "values": [[1.0, 2.0, 3.0]]}, "3 entries"),
    ])
    def test_input_width_names_its_row(self, d, entries):
        with pytest.raises(ConfigError) as exc:
            make_refset(SEC5_PLANT, [[0.0, 0.0], [1.0, 1.0]], [{"kind": "zero"}, d])
        assert str(exc.value) == f"agents[1].input: {entries} per time, B has 1 column"


    @pytest.mark.parametrize("obj, message", [
        # each read without a word before it was checked: a table as the zero
        # input, a nan amplitude as f0 = 0, an unknown kind or key as given.
        # A wrong width is test_input_width_names_its_row's
        ({"kind": "table", "times": [0.0, 1.0], "values": [1.0]},
         "agents[0].input: table times/values length mismatch"),
        ({"kind": "sinusoid", "amp": [float("nan")]},
         "agents[0].input: amp must be finite, got [nan]"),
        ({"kind": "magic"}, "agents[0].input: input kind 'magic' is not one of "
                            "['constant', 'sinusoid', 'table', 'zero']"),
        ({"kind": "sinusoid", "amp": [1.0], "gain": 2.0},
         "unknown keys in agents[0].input: ['gain']"),
        # a KeyError and numpy's ValueError
        ({"kind": "constant"}, "agents[0].input: constant input needs a value"),
    ], ids=["table-mismatch", "amp-nan", "kind-magic", "unknown-key", "value-missing"])
    def test_config_object_is_checked(self, obj, message):
        with pytest.raises(ConfigError) as exc:
            ReferenceSet(SEC5_PLANT, np.zeros((2, 2)), [obj, obj])
        assert str(exc.value) == message

    @pytest.mark.parametrize("objects, message", [
        # each was read as a number: amp 1.5, omega 1.0, a value of 1.0
        ([{"kind": "sinusoid", "amp": ["1.5"], "omega": True},
          {"kind": "constant", "value": [True]}], "agents[0].input: amp holds '1.5', not a number"),
        ([{"kind": "zero"}, {"kind": "sinusoid", "amp": [1.0], "omega": True}],
         "agents[1].input: omega holds True, not a number"),
        ([{"kind": "zero"}, {"kind": "constant", "value": [True]}],
         "agents[1].input: value holds True, not a number"),
        ([{"kind": "sinusoid", "amp": 2.0, "phase": "0.3"}, {"kind": "zero"}],
         "agents[0].input: phase holds '0.3', not a number"),
        ([{"kind": "zero"}, {"kind": "table", "times": [0.0, "1"], "values": [1.0, 2.0]}],
         "agents[1].input: times holds '1', not a number"),
        ([{"kind": "zero"}, {"kind": "table", "times": [0.0, 1.0], "values": [[1.0], [False]]}],
         "agents[1].input: values holds False, not a number"),
        ([{"kind": "sinusoid", "amp": np.array([True])}, {"kind": "zero"}],
         "agents[0].input: amp holds True, not a number"),
    ], ids=["str-amp", "bool-omega", "bool-value", "str-phase", "str-time", "bool-row",
            "bool-array"])
    def test_bool_or_str_is_not_a_number(self, objects, message):
        plant = LinearPlant([[0.0]], [[1.0]])
        for build in (lambda: ReferenceSet(plant, [[0.0], [1.0]], objects),
                      lambda: InputTable.of(objects, 1)):
            with pytest.raises(ConfigError) as exc:
                build()
            assert str(exc.value) == message

    def test_table_object_is_read_as_its_table(self):
        # it ran as the zero input, with f0 = 0
        obj = {"kind": "table", "times": [0.0, 1.0], "values": [1.0, -3.0]}
        rs = ReferenceSet(SEC5_PLANT, np.zeros((2, 2)), [obj, obj])
        assert rs.inputs.kinds == ("table", "table")
        np.testing.assert_array_equal(rs.eval_inputs(0.5), [[-1.0], [-1.0]])
        assert rs.inputs.bound() == 3.0


class TestReferenceTrajectory:
    def test_negative_time_rejected(self):
        rs = make_refset(SEC5_PLANT, [[1.0, 0.0], [0.0, 1.0]], [{"kind": "zero"}] * 2)
        with pytest.raises(ConfigError, match="^t must be nonnegative$"):
            reference_trajectory(rs, 0, -0.5)

    def test_homogeneous(self):
        rs = make_refset(
            SEC5_PLANT,
            [[1.0, 0.0], [0.0, 1.0]],
            [{"kind": "zero"}] * 2,
        )
        expected = matrix_exp(SEC5_PLANT.A, 2.5) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(reference_trajectory(rs, 0, 2.5), expected, atol=1e-12)

    def test_pure_integrator(self):
        plant = LinearPlant(A=np.zeros((2, 2)), B=[[1.0], [0.0]])
        rs = make_refset(
            plant,
            [[1.0, 2.0], [0.0, 0.0]],
            [{"kind": "constant", "value": [3.0]}, {"kind": "zero"}],
        )
        np.testing.assert_allclose(
            reference_trajectory(rs, 0, 2.0), [1.0 + 3.0 * 2.0, 2.0], atol=1e-9
        )

    def _rk4_reference(self, rs, i, t_end, dt=1e-4):
        """r_i(t_end) by fine RK4, driven by agent i's input f_i. B f_i is
        read by one eval_inputs call for each stage's times, k dt plus 0,
        dt/2 or dt, each time formed as a step at it forms it."""
        A, B = rs.plant.A, rs.plant.B
        r = rs.initial_states[i].copy()
        t = np.arange(int(round(t_end / dt))) * dt
        start, mid, end = (rs.eval_inputs(t + h)[:, i] @ B.T for h in (0.0, dt / 2, dt))
        for u1, u2, u4 in zip(start, mid, end):
            k1 = A @ r + u1
            k2 = A @ (r + dt / 2 * k1) + u2
            k3 = A @ (r + dt / 2 * k2) + u2
            k4 = A @ (r + dt * k3) + u4
            r = r + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return r

    def test_vs_rk4_sec5_input(self):
        d = {"kind": "sinusoid", "amp": [1.0], "omega": 1.0}
        rs = make_refset(SEC5_PLANT, [[1.0, 0.0], [0.0, 0.0]], [d, {"kind": "zero"}])
        oracle = self._rk4_reference(rs, 0, 1.0)
        np.testing.assert_allclose(
            reference_trajectory(rs, 0, 1.0, quad_steps=2000), oracle, atol=1e-6
        )

    def test_vs_rk4_random_plants(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            plant = LinearPlant(A=rng.standard_normal((n, n)) * 0.5, B=rng.standard_normal((n, 1)))
            d = {"kind": "sinusoid", "amp": [1.0], "omega": 2.0, "phase": 0.3}
            rs = make_refset(plant, rng.standard_normal((2, n)), [d, {"kind": "zero"}])
            t_end = 5.0
            oracle = self._rk4_reference(rs, 0, t_end)
            got = reference_trajectory(rs, 0, t_end, quad_steps=4000)
            assert np.linalg.norm(got - oracle) <= 1e-6 * max(1.0, np.linalg.norm(oracle))

    def test_linearity(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 2.0])
        g = {"kind": "sinusoid", "amp": [1.0], "omega": 1.0}
        h = {"kind": "constant", "value": [0.5]}
        combined = {
            "kind": "table",
            "times": np.linspace(0, 3, 3001),
            "values": (np.sin(np.linspace(0, 3, 3001)) + 0.5)[:, None],
        }
        rs_sum = make_refset(SEC5_PLANT, [a + b, [0, 0]], [combined, {"kind": "zero"}])
        rs_a = make_refset(SEC5_PLANT, [a, [0, 0]], [g, {"kind": "zero"}])
        rs_b = make_refset(SEC5_PLANT, [b, [0, 0]], [h, {"kind": "zero"}])
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
        g = {"kind": "sinusoid", "amp": [1.0], "omega": 1.0}
        zero = {"kind": "zero"}
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
            inputs.append({"kind": "zero"})
        elif kind == "constant":
            inputs.append({"kind": "constant", "value": draw(st.lists(
                values, min_size=m, max_size=m))})
        elif kind == "sinusoid":
            inputs.append({
                "kind": "sinusoid", "amp": draw(st.lists(values, min_size=m, max_size=m)),
                "omega": draw(st.floats(0.0, 10.0)), "phase": draw(st.floats(-4.0, 4.0))})
        else:
            times = sorted(draw(st.sets(st.sampled_from(GRID), min_size=1)))
            rows = draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=len(times),
                                 max_size=len(times)))
            inputs.append({"kind": "table", "times": times, "values": rows})
    t = st.one_of(st.sampled_from((0.0, *GRID, 0.75, 2.0, 50.0)), st.floats(0.0, 60.0))
    return inputs, m, draw(st.lists(t, min_size=1, max_size=8))


def per_time_form(rs, t):
    """f_i(t) for one time, in the form a call at one time always took: the
    parametric kinds as amp sin(omega t + phase) + const over all agents,
    each table column by np.interp."""
    u = rs.inputs
    f = u.amp * np.sin(u.omega * t + u.phase)[:, None] + u.const
    for i, (times, values) in u.tables.items():
        f[i] = [np.interp(t, times, values[:, k]) for k in range(rs.plant.m)]
    return f


@settings(max_examples=200, deadline=None)
@given(case=references_and_times())
@example(case=([
    {"kind": "table", "times": [0.5, 3.0], "values": [[1.0, -2.0], [3.0, 0.5]]},
    {"kind": "sinusoid", "amp": [1.0, -0.0], "omega": 1.0, "phase": 0.0}],
    2, [0.0, 0.5, 1.75, 3.0, 7.0]))
# a -0.0 entry of a constant and a -0.0 amplitude are +0.0 in a run, and so
# in an input's one-row table
@example(case=([
    {"kind": "constant", "value": [-0.0, 1.0]},
    {"kind": "sinusoid", "amp": [-0.0, 2.0], "omega": 1.0, "phase": 0.0},
    {"kind": "zero"}],
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
