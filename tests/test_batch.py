"""A scenario list integrates as one closed loop per group on the disjoint
union of its graphs: every block keeps the bits of a run of its own, and a
blow-up names its scenario."""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgtrack as at
from avgtrack import cli, control, sim
from avgtrack.cli import main
from avgtrack.control import ClosedLoop
from avgtrack.errors import ConfigError, NonFinite
from avgtrack.scenarios import scenario_config
from avgtrack.signals import concat_references
from conftest import loop_coupling, random_blocks, zero_references

RING6 = [[i, (i + 1) % 6] for i in range(6)]
FIVE = [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [0, 2]]   # 5-ring plus a chord
OUTPUTS = ("trajectory.csv", "diagnostics.csv", "summary.json")


def variant(law, name, edges, eps=5.0, phi=0.5, dt=1e-3, t_end=0.3, const=False):
    """A Sec. 5 scenario on another graph: its own inputs, initial states,
    boundary layer and time step, recorded at every step."""
    cfg = scenario_config("paper-sec5-adaptive" if law == "adaptive" else "paper-sec5-static")
    n = 1 + max(max(e) for e in edges)
    cfg.update(name=name, algorithm=law, graph={"n": n, "edges": edges})
    cfg["agents"] = [
        {"r0": [0.7 * i, 0.3 - i],
         "input": ({"kind": "constant", "value": [0.25 * i]} if const and i % 2 else
                   {"kind": "sinusoid", "amp": [(i + 1) / 2.0], "omega": 1.0 + 0.1 * i,
                    "phase": 0.2 * i})}
        for i in range(1, n + 1)
    ]
    cfg["design"].update(eps=eps, phi=phi)
    cfg["sim"] = {"t_end": t_end, "dt": dt, "record_every": 1}
    return cfg


def mixed_list():
    """Three laws; in each, a 6-ring and a 5-node graph (so another c1 and
    c2) with another eps/phi in one group, and a third adaptive scenario with
    its own initial edge gains. A finer dt puts one scenario in a group of
    its own, and the 2-node and 3-node graphs run alone too."""
    cfgs = []
    for law in ("static", "discontinuous", "adaptive"):
        cfgs.append(variant(law, f"{law}-ring6", RING6))
        cfgs.append(variant(law, f"{law}-five", FIVE, eps=4.0, phi=0.7, const=True))
    cfgs.append(variant("static", "static-fine-dt", RING6, eps=3.0, phi=0.4, dt=5e-4))
    cfgs.append(variant("static", "static-pair", [[0, 1]]))
    cfgs.append(variant("adaptive", "adaptive-path3", [[0, 1], [1, 2]]))
    cfgs.append(variant("adaptive", "adaptive-ring6-b", RING6, eps=2.0, phi=0.3, const=True))
    cfgs[-1]["adaptive"].update(alpha0=0.5, beta0=0.25)
    return cfgs


def write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_list_writes_the_bytes_of_single_runs(tmp_path, monkeypatch):
    cfgs = mixed_list()
    groups = []
    run_blocks = sim.run_blocks

    def recording(blocks, cfg, mode="static"):
        trajs = run_blocks(blocks, cfg, mode)
        groups.append((blocks, cfg, mode, trajs))
        return trajs

    monkeypatch.setattr(sim, "run_blocks", recording)
    assert main(["run", "--config", write(tmp_path, "list.json", cfgs),
                 "--out", str(tmp_path / "list")]) == 0
    monkeypatch.undo()

    # the three laws' ring6/five pairs and the second adaptive ring ran as
    # one union; the fine-dt, 2-node and 3-node scenarios ran alone
    assert sorted(len(blocks) for blocks, *_ in groups) == [1, 1, 1, 7]
    for blocks, cfg, modes, trajs in groups:
        for (g, rs, gains), law, traj in zip(blocks, modes, trajs):
            alone = at.run(g, rs, gains, cfg, law)
            for key in ("times", "x", "r", "alpha", "beta"):
                got, want = getattr(traj, key), getattr(alone, key)
                assert (got is None and want is None) or np.array_equal(got, want), key

    for cfg in cfgs:
        out = tmp_path / "alone" / cfg["name"]
        assert main(["run", "--config", write(tmp_path, "one.json", cfg), "--out", str(out)]) == 0
        listed = tmp_path / "list" / cfg["name"]
        for name in OUTPUTS:
            assert (listed / name).read_bytes() == (out / name).read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    law=st.sampled_from(("static", "discontinuous", "adaptive")),
    n=st.integers(1, 7),
    m=st.integers(1, 7),
    n_blocks=st.integers(2, 4),
)
def test_blocks_keep_the_bits_of_runs_alone(seed, law, n, m, n_blocks):
    # inside the group key's bounds: three or more edges, at most 7 states
    # and inputs (with 8 states and one input, most blocks change bits)
    blocks = random_blocks(seed, [law] * n_blocks, n, m)
    cfg = at.SimConfig(t_end=0.02, dt=1e-3)
    for block, traj in zip(blocks, sim.run_blocks(blocks, cfg, law)):
        alone = at.run(*block, cfg, law)
        for key in ("x", "r", "alpha", "beta"):
            got, want = getattr(traj, key), getattr(alone, key)
            assert (got is None and want is None) or np.array_equal(got, want), key


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    laws=st.lists(st.sampled_from(("static", "discontinuous", "adaptive")), min_size=2,
                  max_size=5),
    n=st.integers(1, 7),
    m=st.integers(1, 7),
)
def test_blocks_of_mixed_laws_keep_the_bits_of_runs_alone(seed, laws, n, m):
    # the union reorders the blocks by law, and each adaptive block has its
    # own rates; every block still sees the operations of a run of its own
    blocks = random_blocks(seed, laws, n, m, own_rates=True)
    cfg = at.SimConfig(t_end=0.02, dt=1e-3)
    for block, law, traj in zip(blocks, laws, sim.run_blocks(blocks, cfg, laws)):
        alone = at.run(*block, cfg, law)
        assert traj.mode == law
        for key in ("x", "r", "alpha", "beta"):
            got, want = getattr(traj, key), getattr(alone, key)
            assert (got is None and want is None) or np.array_equal(got, want), key


def coupling_by_block(blocks, laws, states, t):
    """Each block's coupling and edge-gain rates from one kernel over all
    blocks, in the order given; states[b] holds block b's (x, alpha, beta)."""
    kernel = ClosedLoop(blocks, laws)
    assert [laws[b] for b in kernel.order] == kernel.laws
    assert kernel.laws == sorted(laws, key=control.LAWS.index)
    x = np.concatenate([states[b][0] for b in kernel.order])
    gains = [states[b][1:] for b in kernel.order if laws[b] == "adaptive"]
    alpha, beta = (np.concatenate(v) for v in zip(*gains)) if gains else (None, None)
    coupling, dalpha, dbeta = loop_coupling(kernel, t, x, alpha, beta)
    nodes, edges = kernel.node_offsets, kernel.gain_offsets
    out = [None] * len(blocks)
    for k, b in enumerate(kernel.order):
        rates = (None, None) if laws[b] != "adaptive" else (
            dalpha[edges[k] : edges[k + 1]], dbeta[edges[k] : edges[k + 1]])
        out[b] = (coupling[nodes[k] : nodes[k + 1]], *rates)
    return out


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    laws=st.lists(st.sampled_from(("static", "discontinuous", "adaptive")), min_size=2,
                  max_size=5),
    n=st.integers(1, 7),
    m=st.integers(1, 7),
    data=st.data(),
)
def test_kernel_takes_the_blocks_in_any_order(seed, laws, n, m, data):
    # a kernel over a permutation of the blocks gives each block the bits
    # of a kernel over the blocks in law order
    blocks = random_blocks(seed, laws, n, m, own_rates=True)
    rng = np.random.default_rng(seed)
    states = [(rng.standard_normal((g.n_nodes, n)), rng.uniform(0, 2, g.n_edges),
               rng.uniform(0, 2, g.n_edges)) for g, _, _ in blocks]
    t = rng.uniform(0, 3)
    ordered = sorted(range(len(blocks)), key=lambda b: control.LAWS.index(laws[b]))
    perm = data.draw(st.permutations(range(len(blocks))))
    want = coupling_by_block([blocks[b] for b in ordered], [laws[b] for b in ordered],
                             [states[b] for b in ordered], t)
    got = coupling_by_block([blocks[b] for b in perm], [laws[b] for b in perm],
                            [states[b] for b in perm], t)
    want = dict(zip(ordered, want))
    for b, terms in zip(perm, got):
        for g, w in zip(terms, want[b]):
            assert (g is None and w is None) or np.array_equal(g, w)


def test_run_is_the_one_block_case():
    scn = at.parse_scenario(variant("adaptive", "a", FIVE, const=True))
    gains = scn.build_adaptive_params()
    traj = at.run(scn.graph, scn.reference_set, gains, scn.sim, "adaptive")
    (block,) = sim.run_blocks([(scn.graph, scn.reference_set, gains)], scn.sim, "adaptive")
    for key in ("times", "x", "r", "alpha", "beta"):
        assert np.array_equal(getattr(traj, key), getattr(block, key))


def test_blocks_are_views_of_one_run():
    scns = [at.parse_scenario(variant("static", n, e)) for n, e in (("a", RING6), ("b", FIVE))]
    blocks = [(s.graph, s.reference_set, s.build_static_gains()) for s in scns]
    a, b = sim.run_blocks(blocks, scns[0].sim, "static")
    assert a.x.shape[1:] == (6, 2) and b.x.shape[1:] == (5, 2)
    # slices of the run's one record array, not copies
    assert np.may_share_memory(a.x, b.x) and np.may_share_memory(a.x, b.r)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blow_up_in_a_group_names_its_scenario(tmp_path, capsys):
    # margins of 1e5 put c1 far outside RK4's stability region at dt 1e-3;
    # K is unchanged, so the scenario shares the group of "calm"
    stiff = variant("static", "stiff", FIVE)
    stiff["design"]["margins"] = [1e5, 1.0]
    first = variant("static", "first", RING6, dt=5e-4)
    cfgs = [first, variant("static", "calm", RING6), stiff, variant("static", "after", FIVE)]
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, "list.json", cfgs), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: scenario 'stiff': non-finite state at t=")
    assert err.count("\n") == 1
    # the group before keeps its outputs; the failed group writes none
    assert all((out / "first" / name).is_file() for name in OUTPUTS)
    assert not any((out / name).exists() for name in ("calm", "stiff", "after"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_groups_before_a_failing_group_keep_all_their_files(tmp_path, capsys):
    # "a" and "b" share a group, which runs and writes before the group of
    # "stiff" (another dt) fails, although "b" comes after "stiff" in the file
    stiff = variant("static", "stiff", FIVE, dt=5e-4)
    stiff["design"]["margins"] = [1e5, 1.0]
    cfgs = [variant("static", "a", RING6), stiff, variant("static", "b", FIVE)]
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, "list.json", cfgs), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("run failed: scenario 'stiff': ")
    assert all((out / scn / name).is_file() for scn in ("a", "b") for name in OUTPUTS)
    assert not (out / "stiff").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_two_blocks_failing_at_one_step_name_the_first(tmp_path, capsys):
    cfgs = [variant("static", "calm", RING6)]
    for name in ("stiff-a", "stiff-b"):
        cfgs.append(variant("static", name, RING6))
        cfgs[-1]["design"]["margins"] = [1e5, 1.0]
    assert main(["run", "--config", write(tmp_path, "list.json", cfgs),
                 "--out", str(tmp_path / "out")]) == 1
    assert "scenario 'stiff-a'" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blocks_of_two_laws_failing_at_one_step_name_the_first_in_the_file(tmp_path, capsys):
    # the union puts the discontinuous block before the static one, so the
    # lowest block there is the later one in the file
    cfgs = [variant("static", "calm", RING6)]
    for law in ("static", "discontinuous"):
        cfgs.append(variant(law, f"stiff-{law}", RING6))
        cfgs[-1]["design"]["margins"] = [1e5, 1.0]
    times = []
    for cfg in cfgs[1:]:
        scn = at.parse_scenario(cfg)
        with pytest.raises(NonFinite) as alone:
            at.run(scn.graph, scn.reference_set, scn.build_static_gains(), scn.sim, scn.algorithm)
        times.append(alone.value.time)
    assert times[0] == times[1]
    assert main(["run", "--config", write(tmp_path, "list.json", cfgs),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"run failed: scenario 'stiff-static': non-finite state at t={times[0]:g}")


# the steps the kernel takes to form each direction over a group's edges:
# one hypot-chain row norm and one width for both, discontinuous_sign's the
# width of eps = 0
NORM_STEP = {"boundary_layer": ("_row_norms", "_width"),
             "discontinuous_sign": ("_row_norms", "_width")}


@pytest.mark.parametrize("law, own, other", [
    ("static", "boundary_layer", "discontinuous_sign"),
    ("discontinuous", "discontinuous_sign", "boundary_layer"),
])
def test_one_law_calls_nothing_on_an_empty_slice(monkeypatch, law, own, other):
    calls = Counter()
    for name in ("_row_norms", "_width"):
        def counted(*args, _f=getattr(control, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(control, name, counted)
    scn = at.parse_scenario(variant(law, "a", RING6))
    at.run(scn.graph, scn.reference_set, scn.build_static_gains(), scn.sim, law)
    # one norm per RK4 stage: 300 steps of four; the widths of all distinct
    # stage times of a block of steps in one call, one per block
    assert calls["_row_norms"] == 4 * 300
    if "_width" in NORM_STEP[own]:
        assert calls["_width"] == -(-300 // sim.BLOCK_STEPS) == 10
    # no step of the other law's direction that this law's does not share
    assert all(calls[step] == 0 for step in set(NORM_STEP[other]) - set(NORM_STEP[own]))


def test_group_key():
    cfgs = {c["name"]: c for c in mixed_list()}
    keys = {}
    for i, (name, cfg) in enumerate(cfgs.items()):
        scn = at.parse_scenario(cfg)
        keys[name] = cli._group_key(i, scn, cli._design(scn))
    assert keys["static-ring6"] == keys["static-five"] != keys["static-fine-dt"]
    # the law and the adaptive rates are no part of the key
    assert keys["static-ring6"] == keys["discontinuous-ring6"] == keys["adaptive-ring6"]
    assert keys["adaptive-ring6"] == keys["adaptive-five"] == keys["adaptive-ring6-b"]
    # numpy forms one- and two-row products by other routes
    assert keys["static-pair"] != keys["static-ring6"]
    assert keys["adaptive-path3"] != keys["adaptive-ring6"]
    rates = variant("adaptive", "fast", RING6)
    rates["adaptive"]["mu"] = 20.0
    scn = at.parse_scenario(rates)
    assert cli._group_key(0, scn, cli._design(scn)) == keys["adaptive-ring6"]


def test_group_key_runs_eight_states_alone():
    # with eight states and one input, a row of numpy's d @ K.T can take
    # other bits depending on its place among the rows
    def eight_states(name):
        cfg = variant("static", name, RING6)
        cfg["plant"] = {"A": (-np.eye(8)).tolist(), "B": [[1.0]] + [[0.0]] * 7}
        cfg["design"]["Q"] = np.eye(8).tolist()
        for agent in cfg["agents"]:
            agent["r0"] = agent["r0"] * 4
        return at.parse_scenario(cfg)

    a, b = eight_states("a"), eight_states("b")
    assert cli._group_key(0, a, cli._design(a)) != cli._group_key(1, b, cli._design(b))


class TestUnion:
    def test_disjoint_union_offsets_nodes_and_keeps_edge_order(self):
        graphs = [at.Graph(3, ((0, 1), (1, 2))), at.Graph(2, ((0, 1),)), at.Graph(3, ((0, 2),))]
        scn = at.parse_scenario(variant("static", "a", RING6))
        gains = scn.build_static_gains()
        plant = scn.reference_set.plant
        k = ClosedLoop([(g, zero_references(plant, g.n_nodes), gains) for g in graphs], "static")
        np.testing.assert_array_equal(k.node_offsets, [0, 3, 5, 8])
        np.testing.assert_array_equal(k.tails, [0, 1, 3, 5])
        np.testing.assert_array_equal(k.heads, [1, 2, 4, 7])

    def test_single_graph_and_set_returned_as_they_are(self):
        scn = at.parse_scenario(scenario_config("ring-demo"))
        assert concat_references([scn.reference_set]) is scn.reference_set

    def test_concat_references_stacks_signals(self):
        a = at.parse_scenario(variant("static", "a", RING6)).reference_set
        b = at.parse_scenario(variant("static", "b", FIVE, const=True)).reference_set
        rs = concat_references([a, b])
        assert rs.n_agents == 11
        np.testing.assert_array_equal(rs.initial_states[6:], b.initial_states)
        for t in (0.0, 0.37, 2.5):
            np.testing.assert_array_equal(rs.eval_inputs(t)[:6], a.eval_inputs(t))
            np.testing.assert_array_equal(rs.eval_inputs(t)[6:], b.eval_inputs(t))

    def test_concat_references_needs_one_plant(self):
        a = at.parse_scenario(scenario_config("ring-demo")).reference_set
        b = at.parse_scenario(scenario_config("twin-integrator")).reference_set
        with pytest.raises(ConfigError, match="plant"):
            concat_references([a, b])

    def test_kernel_blocks_must_share_k(self):
        a = at.parse_scenario(variant("static", "a", RING6))
        b = at.parse_scenario(variant("static", "b", FIVE))
        ga, gb = a.build_static_gains(), b.build_static_gains()
        sa, sb = (a.graph, a.reference_set), (b.graph, b.reference_set)
        ClosedLoop([(*sa, ga), (*sb, gb)], "static")
        other = at.StaticGains(K=2 * gb.K, c1=gb.c1, c2=gb.c2, eps=gb.eps, phi=gb.phi, P=gb.P)
        with pytest.raises(ConfigError, match="share K"):
            ClosedLoop([(*sa, ga), (*sb, other)], "static")

    def test_kernel_blocks_come_in_law_order(self):
        # the kernel puts the blocks in the order of LAWS itself, keeping the
        # caller's order within a law
        a = at.parse_scenario(variant("static", "a", RING6))
        b = at.parse_scenario(variant("discontinuous", "b", FIVE))
        ga, gb = a.build_static_gains(), b.build_static_gains()
        sa, sb = (a.graph, a.reference_set), (b.graph, b.reference_set)
        k = ClosedLoop([(*sa, ga), (*sb, gb), (*sa, ga)], ["static", "discontinuous", "static"])
        assert k.order == [1, 0, 2]
        assert k.laws == ["discontinuous", "static", "static"]
        np.testing.assert_array_equal(k.node_offsets, [0, 5, 11, 17])
        np.testing.assert_array_equal(k.tails[:6], [0, 1, 2, 3, 0, 0])
        np.testing.assert_array_equal(k._ab[:, :, 0], [[gb.c1] * 6 + [ga.c1] * 12,
                                                       [gb.c2] * 6 + [ga.c2] * 12])
        # the discontinuous block is the boundary layer of eps = 0 and floor
        # 1, with the zero threshold
        np.testing.assert_array_equal(k._eps, [0.0, ga.eps, ga.eps])
        np.testing.assert_array_equal(k._floor[:, 0], [1.0] * 6 + [control._floor(1)] * 12)
        np.testing.assert_array_equal(k._zero[:, 0], [1e-15] * 6 + [-1.0] * 12)

    def test_kernel_holds_block_constants_per_edge(self):
        a = at.parse_scenario(variant("static", "a", RING6))
        b = at.parse_scenario(variant("static", "b", FIVE, eps=4.0, phi=0.7))
        c = at.parse_scenario(variant("adaptive", "c", FIVE, eps=4.0, phi=0.7))
        ga, gb = a.build_static_gains(), b.build_static_gains()
        gc = dataclasses.replace(c.build_adaptive_params(), mu=2.0, chi=0.5, alpha0=0.25)
        k = ClosedLoop([(c.graph, c.reference_set, gc), (a.graph, a.reference_set, ga),
                        (b.graph, b.reference_set, gb)], ["adaptive", "static", "static"])
        np.testing.assert_array_equal(k._ab[:, :12, 0], [[ga.c1] * 6 + [gb.c1] * 6,
                                                         [ga.c2] * 6 + [gb.c2] * 6])
        # each block's own (eps, phi) pair, whatever its law
        np.testing.assert_array_equal(k._eps[k._block_of_edge], [5.0] * 6 + [4.0] * 12)
        np.testing.assert_array_equal(k._phi[k._block_of_edge], [0.5] * 6 + [0.7] * 12)
        assert len(k._eps) == 3 and k._zero is None
        np.testing.assert_array_equal(k._rate, [[2.0] * 6, [gc.nu] * 6])
        np.testing.assert_array_equal(k._decay, [[-gc.theta] * 6, [-0.5] * 6])
        np.testing.assert_array_equal(k.gains0, [[0.25] * 6, [0.0] * 6])
        # with no adaptive block the adaptive stacks are empty
        same = ClosedLoop([(a.graph, a.reference_set, ga)] * 2, "static")
        assert same._rate.shape == same._decay.shape == same.gains0.shape == (2, 0)
        assert list(same._eps) == [ga.eps] * 2 and list(same._phi) == [ga.phi] * 2
