"""The hot loop's cheap paths keep the bits of the plain numpy forms: the
hypot chain's row norm and the one routine that forms every law's direction
h from it, the discontinuous sign as the boundary layer of eps = 0, the
inputs and widths formed once per distinct stage time in one pass per block
of steps, RK4 and the one-pass kernel in their preallocated work arrays, the
adaptive drives from the norm and divisor that forming h leaves, and the
one-template-per-record CSV writer."""

import dataclasses
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import avgtrack as at
from avgtrack import (
    ReferenceSet, SimConfig, analysis, boundary_layer, control, discontinuous_sign, integrate, sim
)
from avgtrack.errors import NonFinite
from avgtrack.report import write_trajectory_csv
from avgtrack.signals import concat_references
from conftest import loop_coupling, random_blocks

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
    floor = 1.0 + 4 * w.shape[-1] * np.finfo(float).eps
    # no row of these overflows, so none is rescaled: the divisor is formed
    # from the hypot norm in the work column, which keeps the norm, and h is
    # w over it
    nrm, div, floored = np.empty((3, len(w), 1))
    h = control._direction(w, 0.25, floor, work=(nrm, div, floored, None))
    assert same_bits(nrm, want)
    assert same_bits(div, np.maximum(want + 0.25, want * floor))
    assert same_bits(h, w / np.maximum(want + 0.25, want * floor))


def sign_oracle(w):
    """discontinuous_sign as the zero-width boundary layer written with
    np.hypot.reduce: w / ||w||, 0 where ||w|| <= 1e-15, and rows whose norm
    overflows divided by their largest entry first."""
    w = np.asarray(w, dtype=float)
    nrm = np.hypot.reduce(w, axis=-1, keepdims=True, initial=0.0)
    s = np.where(nrm > 1e-15, w / np.where(nrm > 0, nrm, 1.0), 0.0)
    over = np.isinf(nrm[..., 0])
    u = w[over] / np.abs(w[over]).max(axis=-1, keepdims=True)
    s[over] = u / np.hypot.reduce(u, axis=-1, keepdims=True, initial=0.0)
    return s


@settings(max_examples=300, deadline=None)
@given(w=rows)
@example(w=np.array([[1e300, 1e300], [3.0, 4.0], [-0.0, TINY], [1e-16, 0.0]]))
def test_discontinuous_sign_is_its_norm_form(w):
    assert same_bits(discontinuous_sign(w), sign_oracle(w))
    if len(w):
        assert same_bits(discontinuous_sign(w[0]), sign_oracle(w[0]))


BIG = 1.34078079299425971e154       # about sqrt of the largest double


@settings(max_examples=300, deadline=None)
@given(w=arrays(np.float64, st.integers(0, 20),
                elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)))
@example(w=np.array([BIG, -np.nextafter(BIG, np.inf), 1e300, -np.finfo(float).max]))
@example(w=np.array([1e-15, -np.nextafter(1e-15, 1.0), -0.0, 0.0, TINY, -1e-300]))
def test_discontinuous_sign_of_one_input_is_the_sign(w):
    # at m = 1 the norm is |w| with no rounding, so h is exactly +-1 above
    # the zero threshold, also where w * w overflows, and +0 at or below it
    want = np.where(np.abs(w) > 1e-15, np.sign(w), 0.0)[:, None]
    assert same_bits(discontinuous_sign(w[:, None]), want)
    for v, s in zip(w, want):
        assert same_bits(discontinuous_sign(v[None]), s)


def distinct_stage_times(dt, steps, per_block):
    """RK4's stage times with a repeat dropped, one list per block of steps:
    k3 shares k2's time, and a step's k1 shares the previous k4's where
    k*dt + dt == (k+1)*dt and the two steps fall in one block. Each block
    lists its own first time."""
    out = []
    for start in range(0, steps, per_block):
        out.append([])
        last = None
        for k in range(start, min(start + per_block, steps)):
            for t in (k * dt, k * dt + dt / 2.0, k * dt + dt / 2.0, k * dt + dt):
                if t != last:
                    out[-1].append(t)
                last = t
    return out


def counting(monkeypatch, cls, name):
    """The list of time vectors that each call of cls.name gets."""
    seen = []
    method = getattr(cls, name)

    def counted(self, times, *args, **kwargs):
        seen.append(list(times))
        return method(self, times, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return seen


@pytest.mark.parametrize("dt, steps", [(1e-3, 300), (0.1, 30), (0.01, 7)])
def test_inputs_evaluated_once_per_distinct_stage_time(monkeypatch, dt, steps):
    # one call per block of steps, over the block's distinct stage times
    scn = at.parse_scenario(at.scenario_config("paper-sec5-static"))
    gains = scn.build_static_gains()
    seen = counting(monkeypatch, ReferenceSet, "eval_inputs")
    at.run(scn.graph, scn.reference_set, gains, SimConfig(dt * steps, dt))
    per_block = sim.BLOCK_STEPS
    want = distinct_stage_times(dt, steps, per_block)
    assert seen == want
    assert len(seen) == -(-steps // per_block)
    assert sum(map(len, seen)) <= 3 * steps


def per_row_writer(path, scn, traj):
    """The writer that formats one row at a time, as the oracle."""
    n = scn.reference_set.plant.n
    track = analysis.tracking_error(traj.x, traj.r)
    track_norm = np.sqrt(track[..., None, :] @ track[..., :, None])[..., 0]
    # where the square of a finite row overflows, math.hypot, which scales
    bad = ~np.isfinite(track_norm[..., 0]) & np.isfinite(track).all(axis=-1)
    track_norm[bad, 0] = [math.hypot(*v) for v in track[bad]]
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
    with np.errstate(over="ignore"):      # the squares of huge tracking errors overflow
        write_trajectory_csv(tmp_path / "trajectory.csv", scn, traj)
        per_row_writer(tmp_path / "oracle.csv", scn, traj)
    got = (tmp_path / "trajectory.csv").read_bytes()
    assert got == (tmp_path / "oracle.csv").read_bytes()
    assert got.count(b"\r\n") == 1 + T * (N + (E if law == "adaptive" else 0))


class TestIntegrateFinitenessCheck:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_state_whose_sum_overflows_runs_to_the_end(self):
        times, ys = integrate(lambda t, y, out: out.fill(0.0), np.array([1e308, 1e308]),
                              SimConfig(0.05, 0.01))
        assert times[-1] == 0.05
        assert (ys == 1e308).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_non_finite_value_reported_at_its_step(self, k, bad):
        # the value enters at step k's second stage and is in y after step k,
        # in the entry of block 1 alone
        dt = 0.01

        def rhs(t, y, out):
            out.fill(0.0)
            if t >= (k - 1) * dt + dt / 4:
                out[2] = bad

        with pytest.raises(NonFinite) as exc:
            integrate(rhs, np.array([1.0, 2.0, 3.0]), SimConfig(0.2, dt, record_every=4),
                      np.array([0, 0, 1]))
        assert exc.value.time == k * dt
        assert exc.value.block == 1


def allocating_integrate(rhs, initial, cfg, owner=None):
    """RK4 with a fresh array for every stage and update, and a returning
    rhs(t, y), as the oracle of the workspace form."""
    n_steps = int(round(cfg.t_end / cfg.dt))
    y = np.array(initial, dtype=float)
    rec_idx = list(range(0, n_steps, cfg.record_every)) + [n_steps]
    rec = [y]
    dt = cfg.dt
    for k in range(n_steps):
        t = k * dt
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2.0, y + dt / 2.0 * k1)
        k3 = rhs(t + dt / 2.0, y + dt / 2.0 * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            block = None if owner is None else int(owner[~np.isfinite(y)].min())
            raise NonFinite("non-finite state", time=(k + 1) * dt, block=block)
        if k + 1 in rec_idx:
            rec.append(y)
    return np.array(rec_idx, dtype=float) * dt, np.array(rec)


def allocating_coupling(kernel, blocks, t, x, alpha, beta):
    """The kernel's coupling and edge-gain rates from fresh arrays, each
    block's rows joined with np.concatenate, as the oracle of its work
    arrays. Every constant comes from the (graph, references, gains)
    `blocks`, in the caller's order; of the kernel it reads only the layout."""
    plant, K = blocks[0][1].plant, blocks[0][2].K
    d = np.take(x, kernel.tails, axis=0) - np.take(x, kernel.heads, axis=0)
    w = d @ K.T
    h, u, adaptive = [], [], []
    e0 = 0
    for b, law, a0 in zip(kernel.order, kernel.laws, kernel.gain_offsets):
        g, _, p = blocks[b]
        e1 = e0 + g.n_edges
        if law == "discontinuous":
            h.append(sign_oracle(w[e0:e1]))
        else:
            h.append(boundary_layer(w[e0:e1], p.eps, p.phi, t))
        if law == "adaptive":
            adaptive.append((g, p))
            a, c = alpha[a0 : a0 + g.n_edges, None], beta[a0 : a0 + g.n_edges, None]
        else:
            a, c = p.c1, p.c2
        u.append(a * w[e0:e1] + c * h[-1])
        e0 = e1
    h, u = np.concatenate(h), np.concatenate(u)
    cells = np.bincount(kernel._cells, weights=np.concatenate([u, -u]).ravel(),
                        minlength=kernel._n_cells)
    coupling = cells.reshape(-1, u.shape[1]) @ plant.B.T
    if not adaptive:
        return coupling, None, None
    # each adaptive block's rates and width repeated over its edges, which
    # come last
    mu, theta, nu, chi, width = np.repeat(
        [[p.mu, p.theta, p.nu, p.chi, control._width(p.eps, p.phi, t)] for _, p in adaptive],
        [g.n_edges for g, _ in adaptive], axis=0).T
    w = w[len(w) - len(mu):]
    # the drives (x_i - x_j)^T K^T K (x_i - x_j) = ||w||^2 and w . h =
    # ||w||^2 / div, from the norm and boundary_layer's divisor
    nrm = np.hypot.reduce(w, axis=1, initial=0.0)
    squares = nrm * nrm
    div = np.maximum(nrm + width, nrm * (1.0 + 4 * w.shape[1] * np.finfo(float).eps))
    dalpha = mu * (-theta * alpha + squares)
    dbeta = nu * (-chi * beta + squares / div)
    return coupling, dalpha, dbeta


def allocating_run_blocks(blocks, cfg, laws):
    """sim.run_blocks with a returning rhs that joins x, r and the rates with
    np.concatenate: (x, r, alpha, beta) per block, in the order given."""
    kernel = control.ClosedLoop(blocks, laws)
    order, nodes, edges = kernel.order, kernel.node_offsets, kernel.gain_offsets
    rs = concat_references([blocks[b][1] for b in order])
    adaptive = [b for b, law in zip(order, kernel.laws) if law == "adaptive"]
    N, n, Ea = rs.n_agents, rs.plant.n, int(edges[-1])
    Nn = N * n
    A, B = rs.plant.A, rs.plant.B

    def rhs(t, y):
        x = y[:Nn].reshape(N, n)
        r = y[Nn : 2 * Nn].reshape(N, n)
        fB = rs.eval_inputs(t) @ B.T
        coupling, *rates = allocating_coupling(kernel, blocks, t, x, y[2 * Nn : 2 * Nn + Ea],
                                               y[2 * Nn + Ea :])
        parts = [(x @ A.T + fB + coupling).ravel(), (r @ A.T + fB).ravel()]
        return np.concatenate(parts + rates if adaptive else parts)

    r0 = rs.initial_states
    y0 = [r0.ravel(), r0.ravel()] + [np.full(blocks[b][0].n_edges, getattr(blocks[b][2], k))
                                     for k in ("alpha0", "beta0") for b in adaptive]
    node_owner = np.repeat(order, np.diff(nodes) * n)
    edge_owner = np.repeat(order, np.diff(edges))
    owner = np.concatenate([node_owner, node_owner, edge_owner, edge_owner])
    _, ys = allocating_integrate(rhs, np.concatenate(y0), cfg, owner)
    x, r = ys[:, :Nn].reshape(len(ys), N, n), ys[:, Nn : 2 * Nn].reshape(len(ys), N, n)
    alpha, beta = ys[:, 2 * Nn : 2 * Nn + Ea], ys[:, 2 * Nn + Ea :]
    out = [None] * len(blocks)
    for b, law, n0, n1, e0, e1 in zip(order, kernel.laws, nodes, nodes[1:], edges, edges[1:]):
        gains = (alpha[:, e0:e1], beta[:, e0:e1]) if law == "adaptive" else (None, None)
        out[b] = (x[:, n0:n1], r[:, n0:n1], *gains)
    return out


def two_input_blocks():
    """The Sec. 5 plant with B = I2 under the three laws, on rings of 6 and 5."""
    blocks, laws = [], []
    for law in ("static", "adaptive", "discontinuous"):
        for n in (6, 5):
            cfg = at.scenario_config("paper-sec5-adaptive" if law == "adaptive"
                                     else "paper-sec5-static")
            cfg["plant"]["B"] = [[1.0, 0.0], [0.0, 1.0]]
            cfg["graph"] = {"n": n, "edges": [[i, (i + 1) % n] for i in range(n)]}
            cfg["agents"] = [
                {"r0": [0.5 * i, -float(i)],
                 "input": {"kind": "sinusoid", "amp": [0.5 * i, 0.25], "omega": 1.0,
                           "phase": 0.1 * i}}
                for i in range(1, n + 1)
            ]
            cfg["design"]["eps"] = 7.0 - n
            scn = at.parse_scenario(cfg)
            gains = scn.build_adaptive_params() if law == "adaptive" else scn.build_static_gains()
            blocks.append((scn.graph, scn.reference_set, gains))
            laws.append(law)
    return blocks, laws


def assert_same_run_bits(blocks, cfg, laws):
    want = allocating_run_blocks(blocks, cfg, laws)
    for traj, (x, r, alpha, beta) in zip(sim.run_blocks(blocks, cfg, laws), want):
        assert same_bits(traj.x, x) and same_bits(traj.r, r)
        assert (traj.alpha is None and alpha is None) or same_bits(traj.alpha, alpha)
        assert (traj.beta is None and beta is None) or same_bits(traj.beta, beta)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("record_every", [1, 3])
def test_workspace_run_has_the_bits_of_the_allocating_run(seed, record_every):
    # mixed laws with their own eps, phi, c1, c2 and adaptive rates: per-edge columns
    laws = [("static", "adaptive", "discontinuous", "adaptive"), ("discontinuous", "static"),
            ("adaptive", "static", "static"), ("adaptive",)][seed]
    blocks = random_blocks(seed, laws, 1 + seed, 1 + seed % 3, own_rates=True)
    assert_same_run_bits(blocks, SimConfig(0.02, 1e-3, record_every=record_every), laws)


@pytest.mark.parametrize("record_every", [1, 7])
def test_two_input_plant_has_the_bits_of_the_allocating_run(record_every):
    blocks, laws = two_input_blocks()
    assert_same_run_bits(blocks, SimConfig(0.05, 1e-3, record_every=record_every), laws)


@pytest.mark.parametrize("per_block", [1, 2, 7])
def test_blocks_of_few_steps_have_the_bits_of_the_allocating_run(monkeypatch, per_block):
    # blocks of `per_block` steps: a block's first time is often the
    # previous block's last, formed again
    blocks, laws = two_input_blocks()
    monkeypatch.setattr(sim, "BLOCK_STEPS", per_block)
    assert_same_run_bits(blocks, SimConfig(0.05, 1e-3, record_every=3), laws)


def ring_and_chords(N, seed):
    """One static block on N agents of the Sec. 5 plant, on a ring plus N
    random chords, with its own initial states and input phases."""
    rng = np.random.default_rng(seed)
    edges = {(i, i + 1) for i in range(N - 1)} | {(0, N - 1)}
    while len(edges) < 2 * N:
        i, j = sorted(int(v) for v in rng.choice(N, size=2, replace=False))
        edges.add((i, j))
    cfg = at.scenario_config("paper-sec5-static")
    cfg["graph"] = {"n": N, "edges": [list(e) for e in sorted(edges)]}
    angles = rng.uniform(0, 2 * np.pi, N)
    cfg["agents"] = [
        {"r0": [2 * math.cos(a), 2 * math.sin(a)],
         "input": {"kind": "sinusoid", "amp": [rng.uniform(0.5, 1)], "omega": 1.0,
                   "phase": rng.uniform(0, 2 * np.pi)}}
        for a in angles
    ]
    scn = at.parse_scenario(cfg)
    return [(scn.graph, scn.reference_set, scn.build_static_gains())], ["static"]


@pytest.mark.parametrize("case", ["mixed-one-input", "mixed-two-inputs", "ring-and-chords"])
def test_run_bits_do_not_depend_on_the_block_size(monkeypatch, case):
    # each block forms the terms of all its own stage times, so where the
    # blocks end moves no bit of a run
    laws = ("static", "adaptive", "discontinuous", "adaptive")
    if case == "ring-and-chords":
        blocks, laws = ring_and_chords(250, 5)
    else:
        blocks = random_blocks(11, laws, 2, 1 if case == "mixed-one-input" else 2, own_rates=True)
    cfg = SimConfig(0.1, 1e-3, record_every=3)
    assert sim.BLOCK_STEPS < 100
    want = sim.run_blocks(blocks, cfg, laws)
    for per_block in (1, 2, 7):
        monkeypatch.setattr(sim, "BLOCK_STEPS", per_block)
        for got, traj in zip(sim.run_blocks(blocks, cfg, laws), want):
            assert same_bits(got.x, traj.x) and same_bits(got.r, traj.r)
            for a, b in ((got.alpha, traj.alpha), (got.beta, traj.beta)):
                assert (a is None and b is None) or same_bits(a, b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blow_up_reported_as_by_the_allocating_run():
    # a c1 far outside RK4's stability region at dt 1e-3 in the third block
    laws = ("adaptive", "static", "static", "discontinuous")
    blocks = random_blocks(7, laws, 2, 1, own_rates=True)
    g, rs, gains = blocks[2]
    blocks[2] = (g, rs, dataclasses.replace(gains, c1=1e5))
    cfg = SimConfig(0.5, 1e-3, record_every=10)
    with pytest.raises(NonFinite) as want:
        allocating_run_blocks(blocks, cfg, laws)
    with pytest.raises(NonFinite) as got:
        sim.run_blocks(blocks, cfg, laws)
    assert (got.value.time, got.value.block) == (want.value.time, want.value.block)
    assert got.value.block == 2 and got.value.time < 0.5


@pytest.mark.parametrize("seed", range(6))
def test_kernel_call_has_the_bits_of_the_allocating_form(seed):
    laws = ["static", "discontinuous", "adaptive"][seed % 3 :] + ["adaptive"] * (seed // 3)
    blocks = random_blocks(seed, laws, 2 + seed % 3, 1 + seed % 2, own_rates=True)
    kernel = control.ClosedLoop(blocks, laws)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((int(kernel.node_offsets[-1]), blocks[0][1].plant.n))
    x[1] = x[0]                      # zero rows of w, whose h is +-0
    Ea = int(kernel.gain_offsets[-1])
    alpha, beta = rng.uniform(0, 2, Ea), rng.uniform(0, 2, Ea)
    for t in (0.0, 1.5):
        want = allocating_coupling(kernel, blocks, t, x, alpha, beta)
        for got, expected in zip(loop_coupling(kernel, t, x, alpha, beta), want):
            assert (got is None and expected is None) or same_bits(got, expected)


def kernel_call_matches_allocating_form(blocks, laws, x):
    """Assert that the kernel's call on x has the bits of the allocating
    form at four call times, and return the kernel."""
    kernel = control.ClosedLoop(blocks, laws)
    Ea = int(kernel.gain_offsets[-1])
    rng = np.random.default_rng(Ea)
    alpha, beta = rng.uniform(0, 2, Ea), rng.uniform(0, 2, Ea)
    for t in (0.0, 1.5, 1.5, 40.0):           # a repeated time reuses the width
        want = allocating_coupling(kernel, blocks, t, x, alpha, beta)
        for got, expected in zip(loop_coupling(kernel, t, x, alpha, beta), want):
            assert (got is None and expected is None) or same_bits(got, expected)
    return kernel


@pytest.mark.parametrize("laws, m", [
    (("static", "static", "static"), 1),
    (("discontinuous", "discontinuous"), 1),
    (("adaptive", "adaptive", "adaptive"), 1),
    (("discontinuous", "static", "adaptive"), 2),
    (("adaptive", "discontinuous", "static", "discontinuous"), 2),
    (("static",), 2), (("discontinuous",), 2), (("adaptive",), 2),
])
@pytest.mark.parametrize("seed", range(2))
def test_kernel_call_bits_for_one_law_and_two_inputs(seed, laws, m):
    # each block with its own eps, phi, c1, c2 and rates: per-edge columns
    blocks = random_blocks(10 + seed, laws, 2 + seed, m, own_rates=True)
    rng = np.random.default_rng(seed)
    N = sum(g.n_nodes for g, _, _ in blocks)
    x = rng.standard_normal((N, 2 + seed)) * 10.0 ** rng.integers(-8, 8, size=(N, 1))
    x[1] = x[0]                      # zero rows of w, whose h is +-0
    kernel_call_matches_allocating_form(blocks, laws, x)


@pytest.mark.parametrize("m", [1, 2])
def test_kernel_call_bits_where_blocks_share_part_of_a_width(m):
    # two static blocks share eps but not phi, and one (eps, phi) pair is
    # shared by a static and an adaptive block, so each block's width is of
    # its own whole pair; the discontinuous block's is that of eps = 0
    laws = ("adaptive", "static", "discontinuous", "static")
    pairs = [(2.0, 0.9), (2.0, 0.3), (2.0, 0.6), (2.0, 0.9)]
    blocks = [(g, rs, dataclasses.replace(p, eps=eps, phi=phi))
              for (g, rs, p), (eps, phi) in zip(random_blocks(20 + m, laws, 2, m, own_rates=True),
                                                pairs)]
    N = sum(g.n_nodes for g, _, _ in blocks)
    x = np.random.default_rng(m).standard_normal((N, 2))
    kernel = kernel_call_matches_allocating_form(blocks, laws, x)
    times = [0.0, 1.5, 40.0]
    own = [control._width(0.0 if law == "discontinuous" else eps, phi, np.array(times))
           for law, (eps, phi) in zip(laws, pairs)]
    want = np.repeat([own[b] for b in kernel.order], [blocks[b][0].n_edges for b in kernel.order],
                     axis=0).T
    assert same_bits(kernel.widths(times), want)
    assert set(want[-1]) == {TINY, *(control._width(2.0, phi, 40.0) for phi in (0.3, 0.9))}


def identity_blocks(laws, m):
    """Blocks on rings of 8 with K = I on an m-state, m-input plant, each
    with its own constants, so w = x_i - x_j bit for bit on rows whose
    entries are all equal."""
    rng = np.random.default_rng(m)
    plant = at.LinearPlant(A=-np.eye(m), B=rng.standard_normal((m, m)))
    K = np.eye(m)
    blocks = []
    for law in laws:
        eps, phi = rng.uniform(0.1, 5), rng.uniform(0.0, 2)
        if law == "adaptive":
            gains = at.AdaptiveParams(K=K, Gamma=K.T @ K, eps=eps, phi=phi, P=np.eye(m),
                                      mu=rng.uniform(0.1, 1), nu=rng.uniform(0.1, 1),
                                      theta=rng.uniform(0.01, 1), chi=rng.uniform(0.01, 1))
        else:
            gains = at.StaticGains(K=K, c1=rng.uniform(0, 3), c2=rng.uniform(0, 3),
                                   eps=eps, phi=phi, P=np.eye(m))
        inputs = tuple({"kind": "constant", "value": np.zeros(m)} for _ in range(8))
        rs = ReferenceSet(plant=plant, initial_states=np.zeros((8, m)), inputs=inputs)
        blocks.append((at.Graph(8, tuple((i, (i + 1) % 8) for i in range(7)) + ((0, 7),)),
                       rs, gains))
    return blocks


def with_edge_rows(blocks, laws, rows):
    """Agent states that give w the rows `rows[law]` on the law's first
    block's edges (0, 1), (2, 3), ..., which share no node, and small random
    values elsewhere."""
    m = blocks[0][1].plant.m
    rng = np.random.default_rng(len(laws))
    x = 1e-3 * rng.standard_normal((8 * len(blocks), m))
    offsets = np.cumsum([0] + [8] * len(blocks))
    for law, values in rows.items():
        o = offsets[list(laws).index(law)]
        for k, v in enumerate(values):
            x[o + 2 * k], x[o + 2 * k + 1] = v, 0.0
    return x


def first_block_rows(kernel, w, law, count):
    """The rows of w on the edges (0, 1), (2, 3), ... of the law's first block."""
    e0 = 8 * kernel.laws.index(law)
    return w[e0 : e0 + 2 * count : 2]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("m", [1, 2])
def test_kernel_call_bits_where_rows_overflow(monkeypatch, m):
    # the largest double overflows the divisor of boundary-layer rows, and
    # 1.5e308 the hypot chain over two columns; discontinuous rows, with
    # floor 1, overflow only there. The one routine that forms h rescales
    # those rows, with their own width and floor, in its one call per call
    laws = ("adaptive", "discontinuous", "static")
    blocks = identity_blocks(laws, m)
    values = [1e300, 1.5e308, -np.finfo(float).max]
    x = with_edge_rows(blocks, laws, {law: values for law in laws})
    kernel = kernel_call_matches_allocating_form(blocks, laws, x)
    w = np.take(x, kernel.tails, axis=0) - np.take(x, kernel.heads, axis=0)
    for law in laws:
        assert same_bits(first_block_rows(kernel, w, law, 3),
                         np.repeat(np.array(values)[:, None], m, axis=1))
    ns = 8                           # the one discontinuous ring
    norms = np.hypot.reduce(w, axis=1)
    sign_over = ~np.isfinite(norms[:ns])
    smooth_over = ~np.isfinite(norms[ns:] * (1.0 + 4 * m * np.finfo(float).eps))
    # each large row's node also ends the edge before it on the ring
    assert (sign_over.sum(), smooth_over.sum()) == ((0, 4) if m == 1 else (4, 8))
    handed, normed = Counter(), Counter()
    for name in ("_direction", "boundary_layer", "discontinuous_sign"):
        def counted(w, *args, _f=getattr(control, name), _name=name):
            handed[_name] += 1
            return _f(w, *args)
        monkeypatch.setattr(control, name, counted)
    row_norms = control._row_norms

    def norms(w, out=None):
        normed["work" if out is not None else "rescaled"] += len(w)
        return row_norms(w, out)

    monkeypatch.setattr(control, "_row_norms", norms)
    Ea = int(kernel.gain_offsets[-1])
    for t in (0.0, 1.5, 1.5, 40.0):
        loop_coupling(kernel, t, x, np.ones(Ea), np.ones(Ea))
    assert handed == {"_direction": 4}
    # each call takes the norms of all rows once in its work column, and
    # again once its divisor overflows, here on the rescaled rows of all edges
    E = len(kernel.tails)
    assert normed == {"work": 4 * E, "rescaled": 4 * E}


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("laws", [("discontinuous",), ("static", "discontinuous", "adaptive")])
def test_kernel_call_bits_at_the_zero_threshold(laws, m):
    # discontinuous rows at 0, -0, the threshold 1e-15 itself and the next
    # double above it; the threshold is on the norm, so with two columns the
    # rows at 1e-15 / sqrt(2) and the next double straddle it instead
    edge = 1e-15 / math.sqrt(m)
    values = [0.0, -0.0, edge, np.nextafter(edge, 1.0)]
    blocks = identity_blocks(laws, m)
    x = with_edge_rows(blocks, laws, {law: values for law in laws})
    kernel = kernel_call_matches_allocating_form(blocks, laws, x)
    w = np.take(x, kernel.tails, axis=0) - np.take(x, kernel.heads, axis=0)
    rows = first_block_rows(kernel, w, "discontinuous", 4)
    assert same_bits(rows, np.repeat(np.array(values)[:, None], m, axis=1))
    if m == 1:
        norms = control._row_norms(rows)[:, 0]
        assert norms[2] == 1e-15 and norms[3] > 1e-15


@pytest.mark.parametrize("per_block", [1, 4])
def test_blocks_share_a_row_only_where_their_times_agree(monkeypatch, per_block):
    # with blocks of few steps, every block forms its own first time k*dt;
    # where it agrees bit for bit with the previous block's last time,
    # (k-1)*dt + dt, the two rows have the same bits, and both cases occur
    scn = at.parse_scenario(at.scenario_config("paper-sec5-static"))
    gains = scn.build_static_gains()
    seen, formed = [], []
    terms = control.ClosedLoop.terms

    def recorded(self, times):
        rows = terms(self, times)
        seen.append(list(times))
        formed.append(rows)
        return rows

    monkeypatch.setattr(control.ClosedLoop, "terms", recorded)
    monkeypatch.setattr(sim, "BLOCK_STEPS", per_block)
    at.run(scn.graph, scn.reference_set, gains, SimConfig(0.3, 1e-3))
    assert seen == distinct_stage_times(1e-3, 300, per_block)
    dt, starts = 1e-3, range(per_block, 300, per_block)
    assert [times[0] for times in seen[1:]] == [k * dt for k in starts]
    agree = [k * dt == (k - 1) * dt + dt for k in starts]
    shared = [all(same_bits(a, b) for a, b in zip(prev[-1], rows[0]))
              for prev, rows in zip(formed, formed[1:])]
    assert all(same for same, a in zip(shared, agree) if a)
    assert any(agree) and not all(agree)


def test_width_formed_once_per_distinct_stage_time(monkeypatch):
    scn = at.parse_scenario(at.scenario_config("paper-sec5-static"))
    gains = scn.build_static_gains()
    seen = counting(monkeypatch, control.ClosedLoop, "widths")
    for law in ("discontinuous", "static"):
        seen.clear()
        at.run(scn.graph, scn.reference_set, gains, SimConfig(0.3, 1e-3), law)
        # every law forms its width, the discontinuous law that of eps = 0,
        # in one call per block of steps, over the block's distinct stage
        # times; RK4's four stages per step take at most three
        assert seen == distinct_stage_times(1e-3, 300, sim.BLOCK_STEPS)
        assert 2 * 300 <= sum(map(len, seen)) <= 3 * 300


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       laws=st.lists(st.sampled_from(control.LAWS), min_size=1, max_size=4),
       times=st.lists(st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 5e-4, 1e-3, 1e6])),
                      min_size=1, max_size=8))
def test_width_rows_have_the_bits_of_each_time(seed, laws, times):
    # every block's width at each time, repeated over its edges; on
    # discontinuous blocks the width of eps = 0, the smallest subnormal
    blocks = random_blocks(seed, laws, 2, 1, own_rates=True)
    gains = [p for _, _, p in blocks]
    kernel = control.ClosedLoop(blocks, laws)
    rows = kernel.widths(times)
    assert rows.shape == (len(times), len(kernel.tails))
    counts = [blocks[b][0].n_edges for b in kernel.order]
    for t, row in zip(times, rows):
        own = [control._width(0.0 if law == "discontinuous" else gains[b].eps, gains[b].phi, t)
               for b, law in zip(kernel.order, kernel.laws)]
        assert same_bits(row, np.repeat(own, counts))
        assert same_bits(row, kernel.widths([t])[0])
        assert all(w == TINY for w, law in zip(own, kernel.laws) if law == "discontinuous")


@pytest.mark.parametrize("plant", [*at.scenarios.NAMES, "seven-states"])
@pytest.mark.parametrize("N", [36, 1000])
def test_contiguous_a_transpose_keeps_the_product_bits(plant, N):
    # run_blocks multiplies the (2, N, n) stack of x and r by a C-contiguous
    # copy of A^T, not by the transposed view
    if plant == "seven-states":
        A = np.random.default_rng(7).standard_normal((7, 7))
    else:
        A = at.parse_scenario(at.scenario_config(plant)).reference_set.plant.A
    AT = np.ascontiguousarray(A.T)
    rng = np.random.default_rng(N)
    for _ in range(200):
        xr = rng.standard_normal((2, N, len(A))) * 10.0 ** rng.integers(-8, 8, size=(2, N, 1))
        assert same_bits(np.matmul(xr, AT), np.matmul(xr, A.T))
