"""The set-up passes over a scenario's agents: the initial states and the
input table, and the input bound, each against the same values built one
agent at a time, and the config errors that name an agent."""

import copy
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import avgtrack as at
from avgtrack.cli import main
from avgtrack.scenarios import scenario_config
from avgtrack.signals import check_input

# the benchmark's workload generator, from its file
_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

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
    """Agents of odd forms, some checked alone: a constant of ints and an r0
    whose sum overflows, a table, a missing input, null r0s, a scalar amp,
    int omega and r0, a zero input given, a huge amp."""
    cfg = scenario_config("paper-sec5-static")
    a = cfg["agents"]
    a[0]["r0"], a[0]["input"] = [1e308, 1e308], {"kind": "constant", "value": [2]}
    a[1]["input"] = {"kind": "table", "times": [0.0, 1.0], "values": [1.0, -3.0]}
    del a[2]["input"]
    a[2]["r0"] = None
    a[3]["input"] = {"kind": "sinusoid", "amp": 1.5, "omega": 2}
    a[4]["r0"], a[4]["input"] = [1, -1], {"kind": "zero"}
    a[5]["r0"], a[5]["input"]["amp"] = None, [1e300]
    return cfg


def agent_by_agent(cfg, seed):
    """The initial states, the input table and the checked input objects of
    cfg's agents, one agent at a time, each input by check_input, as the
    parse built them before the array pass."""
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
        inputs.append(check_input(agent.get("input", {"kind": "zero"}), "input"))
    N = len(inputs)
    amp, const, omega, phase = np.zeros((N, m)), np.zeros((N, m)), np.zeros(N), np.zeros(N)
    for i, d in enumerate(inputs):
        if d["kind"] == "sinusoid":
            amp[i], omega[i], phase[i] = d["amp"], d["omega"], d["phase"]
        elif d["kind"] == "constant":
            const[i] = d["value"]
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
    assert table.kinds == tuple(d["kind"] for d in inputs)
    for got, want in zip((table.amp, table.omega, table.phase, table.const), columns):
        assert same_bits(got, want)
    assert sorted(table.tables) == [i for i, d in enumerate(inputs) if d["kind"] == "table"]
    for i, (times, values) in table.tables.items():
        assert same_bits(times, inputs[i]["times"]) and same_bits(values, inputs[i]["values"])
    m = table.amp.shape[1]
    with np.errstate(over="ignore"):
        assert same_bits(scn.f0, max(at.InputTable.of([d], m).bound() for d in inputs))


def test_reference_set_of_descriptors_has_the_agent_by_agent_columns():
    _, columns, inputs = agent_by_agent(odd_forms(), 7)
    rs = at.ReferenceSet(at.LinearPlant([[0.0, 1.0], [-1.0, -2.0]], [[0.0], [1.0]]),
                         np.zeros((6, 2)), tuple(inputs))
    table = rs.inputs
    assert table.kinds == tuple(d["kind"] for d in inputs)
    for got, want in zip((table.amp, table.omega, table.phase, table.const), columns):
        assert same_bits(got, want)
    assert sorted(table.tables) == [i for i, d in enumerate(inputs) if d["kind"] == "table"]
    for i, (times, values) in table.tables.items():
        assert same_bits(times, inputs[i]["times"]) and same_bits(values, inputs[i]["values"])


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("obj", [
    {"kind": "zero"},
    {"kind": "constant", "value": [-0.0, 2.5, 1e300]},
    {"kind": "sinusoid", "amp": [1.5, -0.0, 3e-310], "omega": 2.0, "phase": -0.0},
    {"kind": "constant", "value": [2, -3, 2**60 + 1]},
    {"kind": "sinusoid", "amp": [1, 0, -7], "omega": 3, "phase": 1},
    {"kind": "sinusoid", "amp": [0.5, 0.25, 4.0], "phase": 0.75},
], ids=["zero", "constant", "sinusoid", "int-constant", "int-sinusoid", "no-omega"])
def test_table_of_a_config_object_has_the_bits_of_its_descriptor(obj, m):
    obj = {k: v[:m] if type(v) is list else v for k, v in obj.items()}
    got = at.InputTable.of([obj, obj], m)
    # against its checked form, check_input's arrays in place of lists
    want = at.InputTable.of([check_input(obj, "input")] * 2, m)
    assert got.kinds == want.kinds == (obj["kind"],) * 2
    for name in ("amp", "omega", "phase", "const"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert got.tables == want.tables == {}


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
     "config error: agents[1].input: 2 entries per time, B has 1 column\n"),
])
def test_two_faults_name_the_one_an_agent_by_agent_parse_named(tmp_path, capsys, faults, want):
    cfg = network(1)
    for k, path, value in faults:
        put(cfg, k, path, value)
    assert error_line(tmp_path, capsys, cfg) == want


@pytest.mark.parametrize("path, value, where", [
    (("r0",), [10**400, -(10**400)], "agents[7].r0: malformed value: "),
    (("input", "amp"), [10**400], "agents[7].input: malformed value: "),
])
def test_int_beyond_float_names_its_agent(tmp_path, capsys, path, value, where):
    # the int sum of the first is 0, finite; the plain form's check must
    # not take it for two finite numbers
    cfg = network(1)
    put(cfg, 7, path, value)
    assert error_line(tmp_path, capsys, cfg).startswith("config error: " + where)


def test_null_omega_is_a_config_error(tmp_path, capsys):
    # it ran as NaN, and the run failed at its first step
    cfg = scenario_config("paper-sec5-static")
    cfg["agents"][1]["input"]["omega"] = None
    assert error_line(tmp_path, capsys, cfg) == (
        "config error: agents[1].input: malformed value: float() argument must be a string or "
        "a real number, not 'NoneType'\n")
