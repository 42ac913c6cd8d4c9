"""The whole-array set-up passes: a scenario's agents parsed into the initial
states and the input table, its input bound, and its graph's edge check,
each against the same values built one agent or one edge at a time."""

import copy
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgtrack as at
from avgtrack import graph
from avgtrack.cli import main
from avgtrack.errors import ConfigError
from avgtrack.scenarios import scenario_config

# the benchmark's workload generator, from its file
_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

FIELDS = ("kind", "value", "amp", "omega", "phase", "times", "values")


def network(seed):
    return json.loads(workloads.config_text("network-1k", seed))


def two_input_list():
    """The two-input (B = I2) scenarios of the CI's batched list."""
    cfgs = []
    for law in ("static", "discontinuous", "adaptive"):
        for n in (6, 5):
            name = "paper-sec5-adaptive" if law == "adaptive" else "paper-sec5-static"
            cfg = scenario_config(name)
            cfg["algorithm"], cfg["plant"]["B"] = law, [[1.0, 0.0], [0.0, 1.0]]
            cfg["graph"] = {"n": n, "edges": [[i, (i + 1) % n] for i in range(n)]}
            cfg["agents"] = [
                {"r0": [float(i), float(-i)],
                 "input": {"kind": "sinusoid", "amp": [(i + 1) / 2.0, 0.25 * i], "omega": 1.0,
                           "phase": 0.0}}
                for i in range(1, n + 1)
            ]
            cfgs.append(cfg)
    return cfgs


def odd_forms():
    """Agents off the plain form, each checked alone: a constant of ints, a
    table, a missing input, null r0s, a scalar amp, int omega and r0, a
    zero input given, a huge amp."""
    cfg = scenario_config("paper-sec5-static")
    a = cfg["agents"]
    a[0]["input"] = {"kind": "constant", "value": [2]}
    a[1]["input"] = {"kind": "table", "times": [0.0, 1.0], "values": [1.0, -3.0]}
    del a[2]["input"]
    a[2]["r0"] = None
    a[3]["input"] = {"kind": "sinusoid", "amp": 1.5, "omega": 2}
    a[4]["r0"], a[4]["input"] = [1, -1], {"kind": "zero"}
    a[5]["r0"], a[5]["input"]["amp"] = None, [1e300]
    return cfg


def agent_by_agent(cfg, seed):
    """The initial states, the input table and the descriptors of cfg's
    agents, one agent at a time, as the parse built them before the array
    pass."""
    n = len(cfg["plant"]["A"])
    m = np.atleast_2d(np.asarray(cfg["plant"]["B"], dtype=float)).shape[1]
    rng = None
    r0s, inputs = [], []
    for agent in cfg["agents"]:
        r0 = agent.get("r0")
        if r0 is None:
            rng = rng or np.random.default_rng(0 if seed is None else seed)
            r0 = rng.standard_normal(n)
        r0s.append(np.asarray(r0, dtype=float))
        inputs.append(at.InputDescriptor(**agent.get("input", {"kind": "zero"})))
    N = len(inputs)
    amp, const, omega, phase = np.zeros((N, m)), np.zeros((N, m)), np.zeros(N), np.zeros(N)
    for i, d in enumerate(inputs):
        if d.kind == "sinusoid":
            amp[i], omega[i], phase[i] = d.amp, d.omega, d.phase
        elif d.kind == "constant":
            const[i] = d.value
    return np.array(r0s), (amp, omega, phase, const), inputs


def same_bits(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return type(b) is float and a.hex() == b.hex()
    return a == b


@pytest.mark.parametrize("cfg, seed", [
    pytest.param(network(1), None, id="network-1k-1"),
    pytest.param(network(2), None, id="network-1k-2"),
    *(pytest.param(c, None, id=f"two-input-{c['algorithm']}-{c['graph']['n']}")
      for c in two_input_list()),
    pytest.param(odd_forms(), 7, id="odd-forms"),
])
def test_parse_has_the_bits_of_the_agent_by_agent_build(cfg, seed):
    scn = at.parse_scenario(copy.deepcopy(cfg), seed=seed)
    rs = scn.reference_set
    r0, columns, inputs = agent_by_agent(cfg, seed)
    assert same_bits(rs.initial_states, r0)
    table = rs.inputs
    assert table.kinds == tuple(d.kind for d in inputs)
    for got, want in zip((table.amp, table.omega, table.phase, table.const), columns):
        assert same_bits(got, want)
    assert sorted(table.tables) == [i for i, d in enumerate(inputs) if d.kind == "table"]
    for got, want in zip(table, inputs, strict=True):
        for name in FIELDS:
            assert same_bits(getattr(got, name), getattr(want, name)), name
    with np.errstate(over="ignore"):
        assert same_bits(scn.f0, max(d.bound() for d in inputs))


def test_reference_set_of_descriptors_reads_them_back():
    _, _, inputs = agent_by_agent(odd_forms(), 7)
    rs = at.ReferenceSet(at.LinearPlant([[0.0, 1.0], [-1.0, -2.0]], [[0.0], [1.0]]),
                         np.zeros((6, 2)), tuple(inputs))
    for got, want in zip(rs.inputs, inputs, strict=True):
        for name in FIELDS:
            assert same_bits(getattr(got, name), getattr(want, name)), name


def error_line(tmp_path, capsys, cfg):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    assert main(["gains", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    return err


BAD = {
    "nan-r0": (("r0",), [float("nan"), 0.0]),
    "string-amp": (("input", "amp"), ["x"]),
    "unknown-input-key": (("input", "gain"), 1.0),
    "r0-wrong-length": (("r0",), [1.0, -1.0, 0.0]),
}


def put(cfg, k, path, value):
    target = cfg["agents"][k]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


@pytest.mark.parametrize("k", [0, 500, 999])
@pytest.mark.parametrize("bad", sorted(BAD))
def test_fault_in_a_thousand_agents_names_its_agent(tmp_path, capsys, bad, k):
    # the line of the six-agent Sec. 5 config with the fault at agent 0, at index k
    six = scenario_config("paper-sec5-static")
    put(six, 0, *BAD[bad])
    want = error_line(tmp_path, capsys, six).replace("agents[0]", f"agents[{k}]")
    assert want.startswith(f"config error: agents[{k}]") or f" agents[{k}]" in want
    cfg = network(1)
    put(cfg, k, *BAD[bad])
    assert error_line(tmp_path, capsys, cfg) == want


@pytest.mark.parametrize("faults, want", [
    # the first agent with a fault names it, whatever the faults' kinds
    ([(700, ("input", "gain"), 1.0), (300, ("r0",), [float("nan"), 0.0])],
     "config error: agents[300].r0: must hold 2 finite numbers, got [nan, 0.0]\n"),
    ([(4, ("input",), {"kind": "table", "times": [0.0, 1.0], "values": [1.0]}),
      (9, ("r0",), [1.0])],
     "config error: agents[4].input: table times/values length mismatch\n"),
    # a number of the wrong type, as in every section, before any value
    ([(2, ("r0",), [float("nan"), 0.0]), (900, ("input", "amp"), ["x"])],
     'config error: agents[900].input.amp[0]: must be a number, got "x"\n'),
    # the input's width, checked over all agents after each alone
    ([(1, ("input", "amp"), [1.0, 2.0]), (800, ("r0",), [float("inf"), 0.0])],
     "config error: agents[800].r0: must hold 2 finite numbers, got [inf, 0.0]\n"),
    ([(1, ("input", "amp"), [1.0, 2.0])],
     "config error: input dimension must match B's column count\n"),
])
def test_two_faults_name_the_one_an_agent_by_agent_parse_named(tmp_path, capsys, faults, want):
    cfg = network(1)
    for k, path, value in faults:
        put(cfg, k, path, value)
    assert error_line(tmp_path, capsys, cfg) == want


def test_null_omega_is_a_config_error(tmp_path, capsys):
    # it ran as NaN, and the run failed at its first step
    cfg = scenario_config("paper-sec5-static")
    cfg["agents"][1]["input"]["omega"] = None
    assert error_line(tmp_path, capsys, cfg) == (
        "config error: agents[1].input: malformed value: float() argument must be a string or "
        "a real number, not 'NoneType'\n")


ENDS = st.one_of(st.integers(-2, 7), st.sampled_from([0.0, 1.0, 2.0, 2.5, float("nan"),
                                                      float("inf"), 2**64]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6),
       edges=st.lists(st.lists(ENDS, min_size=1, max_size=3).map(tuple), max_size=8))
def test_whole_array_edge_check_agrees_with_one_by_one(n, edges):
    def outcome(check):
        try:
            pairs = check(tuple(edges), n)
        except ConfigError as exc:
            return str(exc)
        assert all(type(v) is int for pair in pairs for v in pair)
        return pairs

    assert outcome(graph._checked_edges) == outcome(graph._edges_one_by_one)
