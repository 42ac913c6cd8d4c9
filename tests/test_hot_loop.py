"""The hot loop's cheap paths keep the bits of the plain numpy forms: the
hypot chain and the sum-of-squares row norm, one evaluation of the inputs
per distinct stage time, and the one-template-per-record CSV writer."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import avgtrack as at
from avgtrack import ReferenceSet, SimConfig, analysis, boundary_layer, control, discontinuous_sign
from avgtrack.report import write_trajectory_csv

TINY = np.finfo(float).smallest_subnormal
SPECIAL = [0.0, -0.0, TINY, -TINY, 3 * TINY, 2.2e-308, -1e-310, 1e300, -1e300, 1.0]

entries = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_subnormal=True),
)
rows = st.tuples(st.integers(0, 50), st.integers(1, 8)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=entries)
)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(w=rows)
@example(w=np.array([[-0.0, -0.0, TINY], [TINY, -TINY, 0.0], [1e300, -1e300, 1e300]]))
def test_row_norms_are_hypot_reduce(w):
    want = np.hypot.reduce(w, axis=-1, keepdims=True, initial=0.0)
    assert same_bits(control._row_norms(w), want)
    floor = want * (1.0 + 4 * w.shape[-1] * np.finfo(float).eps)
    assert same_bits(control._divisor(w, 0.25), np.maximum(want + 0.25, floor))


def sign_oracle(w):
    """discontinuous_sign as written with np.linalg.norm."""
    w = np.asarray(w, dtype=float)
    nrm = np.linalg.norm(w, axis=-1, keepdims=True)
    s = np.where(nrm > 1e-15, w / np.where(nrm > 0, nrm, 1.0), 0.0)
    if not math.isfinite(nrm.max(initial=0.0)):
        s = np.where(np.isinf(nrm), boundary_layer(w, 0.0, 0.0, 0.0), s)
    return s


@settings(max_examples=300, deadline=None)
@given(w=rows)
@example(w=np.array([[1e300, 1e300], [3.0, 4.0], [-0.0, TINY], [1e-16, 0.0]]))
def test_discontinuous_sign_is_its_norm_form(w):
    with np.errstate(over="ignore"):      # the squares of 1e300 overflow in both
        assert same_bits(discontinuous_sign(w), sign_oracle(w))
        if len(w):
            assert same_bits(discontinuous_sign(w[0]), sign_oracle(w[0]))


@pytest.mark.parametrize("dt, steps", [(1e-3, 300), (0.1, 30), (0.01, 7)])
def test_inputs_evaluated_once_per_distinct_stage_time(monkeypatch, dt, steps):
    scn = at.parse_scenario(at.scenario_config("paper-sec5-static"))
    gains = scn.build_static_gains()
    seen = []
    evaluate = ReferenceSet.eval_inputs

    def counted(self, t):
        seen.append(t)
        return evaluate(self, t)

    monkeypatch.setattr(ReferenceSet, "eval_inputs", counted)
    at.run(scn.graph, scn.reference_set, gains, SimConfig(dt * steps, dt))
    # RK4's stage times, with a repeat dropped: k3 shares k2's time, and a
    # step's k1 shares the previous k4's where k*dt + dt == (k+1)*dt
    stages = [s for k in range(steps) for s in (k * dt, k * dt + dt / 2.0,
                                                k * dt + dt / 2.0, k * dt + dt)]
    distinct = [t for i, t in enumerate(stages) if i == 0 or t != stages[i - 1]]
    assert seen == distinct
    assert len(seen) <= 3 * steps + 1


def per_row_writer(path, scn, traj):
    """The writer that formats one row at a time, as the oracle."""
    n = scn.reference_set.plant.n
    track = analysis.tracking_error(traj.x, traj.r)
    track_norm = np.sqrt(track[..., None, :] @ track[..., :, None])[..., 0]
    agents = np.concatenate([traj.x, track_norm], axis=-1).tolist()
    edge_gains = None if traj.alpha is None else np.stack([traj.alpha, traj.beta], -1).tolist()
    agent_row = "agent,%s,%d" + ",%.12g" * (n + 1) + ",,\r\n"
    edge_row = "edge,%s,%d" + "," * (n + 1) + ",%.12g,%.12g\r\n"
    with path.open("w", newline="") as fh:
        fh.write("kind,t,index," + "".join(f"x_{k}," for k in range(n))
                 + "tracking_error_norm,alpha,beta\r\n")
        for k, t in enumerate(traj.times.tolist()):
            stamp = f"{t:.10g}"
            rows = [agent_row % (stamp, i, *v) for i, v in enumerate(agents[k])]
            if edge_gains is not None:
                rows += [edge_row % (stamp, e, *ab) for e, ab in enumerate(edge_gains[k])]
            fh.write("".join(rows))


def random_values(rng, shape):
    """Values over many magnitudes, with -0, subnormals and exact integers."""
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, size=shape)
    pick = rng.random(shape)
    v[pick < 0.05] = -0.0
    v[(0.05 <= pick) & (pick < 0.1)] = 1234567.0
    return v


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("law", ["adaptive", "static"])
def test_writer_matches_per_row_oracle(tmp_path, seed, law):
    rng = np.random.default_rng(seed)
    T, N, n, E = (int(v) for v in rng.integers(1, [8, 12, 5, 20], endpoint=True))
    times = np.sort(rng.uniform(0.0, 50.0, T)) * 10.0 ** rng.integers(-6, 3)
    times[0] = 0.0
    x, r = random_values(rng, (T, N, n)), random_values(rng, (T, N, n)) * 1e-3
    alpha, beta = (random_values(rng, (T, E)) if law == "adaptive" else None for _ in range(2))
    traj = at.Trajectory(times, x, r, alpha, beta, law)
    scn = SimpleNamespace(reference_set=SimpleNamespace(plant=SimpleNamespace(n=n)))
    with np.errstate(over="ignore"):      # huge tracking errors overflow their norm
        write_trajectory_csv(tmp_path / "trajectory.csv", scn, traj)
        per_row_writer(tmp_path / "oracle.csv", scn, traj)
    got = (tmp_path / "trajectory.csv").read_bytes()
    assert got == (tmp_path / "oracle.csv").read_bytes()
    assert got.count(b"\r\n") == 1 + T * (N + (E if law == "adaptive" else 0))
