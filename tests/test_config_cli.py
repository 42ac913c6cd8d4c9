import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import avgtrack as at
from avgtrack import cli, signals
from avgtrack.cli import main
from avgtrack.errors import ConfigError
from avgtrack.report import write_diagnostics_csv, write_trajectory_csv
from avgtrack.scenarios import NAMES, scenario_config


def write_config(tmp_path, cfg, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParseScenario:
    @pytest.mark.parametrize("name", NAMES)
    def test_canned_configs_parse(self, name):
        scn = at.parse_scenario(scenario_config(name))
        assert scn.name == name
        assert scn.graph.n_nodes == scn.reference_set.n_agents

    def test_unknown_top_level_key(self):
        cfg = scenario_config("ring-demo")
        cfg["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            at.parse_scenario(cfg)

    def test_unknown_nested_keys(self):
        for section, key in (("design", "qq"), ("sim", "step"), ("graph", "weights")):
            cfg = scenario_config("ring-demo")
            cfg.setdefault(section, {})[key] = 1
            with pytest.raises(ConfigError, match=key):
                at.parse_scenario(cfg)

    def test_unknown_input_key(self):
        cfg = scenario_config("ring-demo")
        cfg["agents"][0]["input"]["freq"] = 1.0
        with pytest.raises(ConfigError, match="freq"):
            at.parse_scenario(cfg)

    def test_missing_required_key(self):
        cfg = scenario_config("ring-demo")
        del cfg["plant"]
        with pytest.raises(ConfigError, match="plant"):
            at.parse_scenario(cfg)

    def test_agent_count_mismatch(self):
        cfg = scenario_config("ring-demo")
        cfg["agents"] = cfg["agents"][:3]
        with pytest.raises(ConfigError):
            at.parse_scenario(cfg)

    def test_unknown_algorithm(self):
        cfg = scenario_config("ring-demo")
        cfg["algorithm"] = "magic"
        with pytest.raises(ConfigError, match="^unknown algorithm 'magic'$"):
            at.parse_scenario(cfg)

    def test_adaptive_requires_section(self):
        cfg = scenario_config("ring-demo")
        cfg["algorithm"] = "adaptive"
        with pytest.raises(ConfigError, match="adaptive"):
            at.parse_scenario(cfg)

    def test_adaptive_params_need_the_section(self):
        # a static scenario parses, but has no rates for the adaptive law
        scn = at.parse_scenario(scenario_config("ring-demo"))
        with pytest.raises(ConfigError, match="^adaptive algorithm needs an 'adaptive' section$"):
            scn.build_adaptive_params()

    def test_adaptive_missing_rate(self):
        cfg = scenario_config("paper-sec5-adaptive")
        del cfg["adaptive"]["theta"]
        with pytest.raises(ConfigError, match="theta"):
            at.parse_scenario(cfg)

    def test_null_r0_randomized_by_seed(self):
        cfg = scenario_config("twin-integrator")
        for agent in cfg["agents"]:
            agent["r0"] = None
        a = at.parse_scenario(cfg, seed=1).reference_set.initial_states
        b = at.parse_scenario(cfg, seed=1).reference_set.initial_states
        c = at.parse_scenario(cfg, seed=2).reference_set.initial_states
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_explicit_r0_builds_no_generator(self, monkeypatch):
        # a Generator costs about 16 us, and its first one imports
        # numpy.random, about 6 MB of resident memory
        def refuse(*args):
            raise AssertionError("default_rng called")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        at.parse_scenario(scenario_config("paper-sec5-static"), seed=3)

    def test_partly_null_r0_keeps_its_draws(self):
        # the generator is built at the first null r0 and draws in agent order
        cfg = scenario_config("ring-demo")
        for agent in cfg["agents"][1:]:
            agent["r0"] = None
        r0 = at.parse_scenario(cfg, seed=5).reference_set.initial_states
        np.testing.assert_array_equal(r0[1:], np.random.default_rng(5).standard_normal((3, 2)))

    def test_explicit_r0_is_seed_free(self):
        cfg = scenario_config("twin-integrator")
        a = at.parse_scenario(cfg, seed=1).reference_set.initial_states
        b = at.parse_scenario(cfg, seed=99).reference_set.initial_states
        np.testing.assert_array_equal(a, b)

    def test_numerics_overrides(self):
        cfg = scenario_config("ring-demo")
        cfg["numerics"] = {"are_residual_tol": 1e-8}
        scn = at.parse_scenario(cfg)
        assert scn.numerics.are_residual_tol == 1e-8

    def test_sinusoid_omega_default_matches_library(self):
        # a config and a library input share one default for omega; an array
        # amp takes the library's checked route
        cfg = scenario_config("paper-sec5-static")
        del cfg["agents"][0]["input"]["omega"]
        parsed = at.parse_scenario(cfg).reference_set
        built = at.InputTable.of(
            [{"kind": "sinusoid", "amp": np.array(cfg["agents"][0]["input"]["amp"])}], 1)
        for t in (0.0, 0.3, 1.7, 12.5):
            np.testing.assert_array_equal(parsed.eval_inputs(t)[0], built.eval(t)[0])


class TestScenarioCommand:
    def test_emits_parseable_json(self, capsys):
        assert main(["scenario", "paper-sec5-adaptive"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["adaptive"]["mu"] == 10.0
        assert cfg["adaptive"]["theta"] == 0.01
        at.parse_scenario(cfg)  # round-trips through the strict parser

    def test_unknown_name_exit_2(self, capsys):
        assert main(["scenario", "nope"]) == 2
        err = capsys.readouterr().err
        for name in NAMES:
            assert name in err


def adaptive_on_two_triangles():
    cfg = scenario_config("paper-sec5-adaptive")
    cfg["graph"]["edges"] = [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]
    return cfg


def assert_design_fails_with_no_out(tmp_path, capsys, cfg):
    out_dir = tmp_path / "out"
    args = ["--config", write_config(tmp_path, cfg), "--out", str(out_dir), "--t-end", "0.01"]
    assert main(["run", *args]) == 2
    out, err = capsys.readouterr()
    assert err == "design failed: lambda2 requires a connected graph\n"
    assert out == "" and not out_dir.exists()


class TestGainsCommand:
    def test_sec5_report(self, tmp_path, capsys):
        path = write_config(tmp_path, scenario_config("paper-sec5-static"))
        assert main(["gains", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "stabilizable" in out
        assert "lambda2 = 1.000000" in out
        assert "c1 = 0.500000" in out
        assert "c2 = 17.500000" in out

    def test_scalar_integrator_k_is_one(self, tmp_path, capsys):
        cfg = {
            "name": "scalar",
            "graph": {"n": 2, "edges": [[0, 1]]},
            "plant": {"A": [[0.0]], "B": [[1.0]]},
            "agents": [{"r0": [0.0], "input": {"kind": "zero"}}] * 2,
            "algorithm": "static",
            "design": {"Q": [[1.0]]},
            "sim": {"t_end": 1.0},
        }
        assert main(["gains", "--config", write_config(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        assert "K =\n  [-1.000000]" in out

    def test_list_reports_every_scenario_in_file_order(self, tmp_path, capsys):
        cfgs = [scenario_config("paper-sec5-static"), scenario_config("ring-demo")]
        cfgs[0]["name"], cfgs[1]["name"] = "b", "a"
        assert main(["gains", "--config", write_config(tmp_path, cfgs)]) == 0
        out = capsys.readouterr().out
        assert [ln for ln in out.splitlines() if ln.startswith("scenario:")] == [
            "scenario: b", "scenario: a"]
        alone = []
        for cfg in cfgs:
            assert main(["gains", "--config", write_config(tmp_path, cfg)]) == 0
            alone.append(capsys.readouterr().out)
        # each scenario's block as it prints alone, one blank line between
        assert out == "\n".join(alone)

    def test_list_with_a_disconnected_second_graph_exit_2(self, tmp_path, capsys):
        cfgs = [scenario_config("ring-demo"), scenario_config("ring-demo")]
        cfgs[1]["name"] = "split"
        cfgs[1]["graph"]["edges"] = [[0, 1], [2, 3]]
        assert main(["gains", "--config", write_config(tmp_path, cfgs)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("design failed: ") and "connected" in err
        assert out == ""
        # the adaptive law designs as the others do: `run` fails before the
        # first scenario's group runs, and writes nothing
        cfgs = [scenario_config("paper-sec5-adaptive"), adaptive_on_two_triangles()]
        cfgs[1]["name"] = "split"
        assert_design_fails_with_no_out(tmp_path, capsys, cfgs)

    def test_disconnected_exit_2(self, tmp_path, capsys):
        cfg = scenario_config("ring-demo")
        cfg["graph"]["edges"] = [[0, 1], [2, 3]]
        assert main(["gains", "--config", write_config(tmp_path, cfg)]) == 2
        assert "connected" in capsys.readouterr().err
        assert_design_fails_with_no_out(tmp_path, capsys, adaptive_on_two_triangles())

    def test_not_stabilizable_exit_2(self, tmp_path, capsys):
        cfg = scenario_config("ring-demo")
        cfg["plant"] = {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[0.0], [0.0]]}
        assert main(["gains", "--config", write_config(tmp_path, cfg)]) == 2
        assert "stabilizable" in capsys.readouterr().err

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["gains", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


GOLDEN_TRAJECTORY_HEADER = ["kind", "t", "index", "x_0", "x_1", "tracking_error_norm", "alpha", "beta"]
GOLDEN_DIAGNOSTICS_HEADER = ["t", "V1", "V2", "envelope", "sum_invariant"]
SUMMARY_KEYS = {
    "gamma", "lambda2", "c1", "c2", "omega2_radius", "omega1_bound",
    "final_tracking_error", "sup_sum_invariant", "envelope_violations",
    "final_consensus_error_norm", "mode", "config", "version",
}


def run_cli(tmp_path, cfg, *extra):
    out_dir = tmp_path / "out"
    code = main(
        ["run", "--config", write_config(tmp_path, cfg), "--out", str(out_dir), *extra]
    )
    return code, out_dir


class TestRunCommand:
    def test_static_outputs(self, tmp_path):
        cfg = scenario_config("twin-integrator")
        code, out = run_cli(tmp_path, cfg, "--t-end", "1.0")
        assert code == 0
        with (out / "trajectory.csv").open() as fh:
            header = next(csv.reader(fh))
        assert header == GOLDEN_TRAJECTORY_HEADER
        with (out / "diagnostics.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == GOLDEN_DIAGNOSTICS_HEADER
        assert all(r[2] == "" for r in rows[1:])  # V2 undefined in static mode
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == SUMMARY_KEYS
        assert summary["mode"] == "static"
        assert summary["omega2_radius"] is None
        assert summary["envelope_violations"] is not None
        assert summary["config"]["name"] == "twin-integrator"
        assert summary["version"].startswith("avgtrack-")

    def test_adaptive_outputs(self, tmp_path):
        cfg = scenario_config("paper-sec5-adaptive")
        cfg["sim"]["t_end"] = 0.5
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "adaptive"
        assert summary["c1"] is None and summary["c2"] is None
        assert summary["omega2_radius"] > 0
        assert summary["envelope_violations"] is None
        with (out / "trajectory.csv").open() as fh:
            kinds = {row[0] for row in csv.reader(fh)}
        assert {"agent", "edge"} <= kinds

    def test_adaptive_rho_at_least_gamma(self, tmp_path):
        # theta = chi = 1 puts rho = max{mu theta, nu chi} above gamma: the
        # omega2 radius is vacuous and left null, and the omega1 bound stays
        cfg = scenario_config("paper-sec5-adaptive")
        cfg["adaptive"].update(theta=1.0, chi=1.0)
        code, out = run_cli(tmp_path, cfg, "--t-end", "0.05")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["omega2_radius"] is None
        assert math.isfinite(summary["omega1_bound"])

    def test_scenario_to_run_round_trip(self, tmp_path, capsys):
        assert main(["scenario", "ring-demo"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        code, out = run_cli(tmp_path, cfg, "--t-end", "0.5")
        assert code == 0
        assert (out / "summary.json").exists()

    def test_deterministic_files(self, tmp_path):
        cfg = scenario_config("twin-integrator")
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, out1 = run_cli(tmp_path / "a", cfg, "--t-end", "0.5")
        _, out2 = run_cli(tmp_path / "b", cfg, "--t-end", "0.5")
        for name in ("trajectory.csv", "diagnostics.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_sweep_writes_per_scenario_dirs(self, tmp_path):
        a = scenario_config("twin-integrator")
        b = scenario_config("ring-demo")
        a["sim"]["t_end"] = b["sim"]["t_end"] = 0.5
        out_dir = tmp_path / "sweep"
        path = write_config(tmp_path, [a, b])
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        assert (out_dir / "twin-integrator" / "summary.json").exists()
        assert (out_dir / "ring-demo" / "summary.json").exists()

    def test_sweep_rejects_shared_names(self, tmp_path, capsys):
        # two unnamed scenarios would both write to out/unnamed
        a = scenario_config("twin-integrator")
        del a["name"]
        a["sim"]["t_end"] = 0.1
        out_dir = tmp_path / "sweep"
        path = write_config(tmp_path, [a, dict(a)])
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 2
        assert "unnamed" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("name", ["../escaped", "sub/dir", "a\\b", "", ".", ".."])
    def test_sweep_rejects_names_outside_out(self, tmp_path, capsys, name):
        a = scenario_config("twin-integrator")
        a["sim"]["t_end"] = 0.1
        path = write_config(tmp_path, [a, dict(a, name=name)])
        assert main(["run", "--config", path, "--out", str(tmp_path / "sweep")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["scn.json"]

    def test_single_scenario_name_is_no_path(self, tmp_path):
        cfg = dict(scenario_config("twin-integrator"), name="../escaped")
        code, out = run_cli(tmp_path, cfg, "--t-end", "0.1")
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scn.json"]

    def test_dt_off_the_step_grid_exit_2(self, tmp_path, capsys):
        cfg = scenario_config("twin-integrator")
        cfg["sim"]["t_end"] = 1
        code, out = run_cli(tmp_path, cfg, "--dt", "0.3")
        assert code == 2
        # the override is checked with the sim block it enters
        err = capsys.readouterr().err
        assert err.startswith("config error: sim: t_end/dt") and err.count("\n") == 1
        assert not out.exists()

    # paper-sec5-static with sim.dt = 0.3 (t_end 20 / 0.3 is no whole number
    # of steps, nor is 1.0 / 0.3), and overrides that make the run valid
    @pytest.mark.parametrize("t_end, extra", [
        (20.0, ("--t-end", "0.3")),
        (20.0, ("--t-end", "0.6")),
        (20.0, ("--dt", "0.001", "--t-end", "0.3")),
        (1.0, ("--dt", "0.01")),
        (1.0, ("--dt", "0.001")),
    ])
    def test_override_that_makes_the_sim_block_valid_runs(self, tmp_path, capsys, t_end, extra):
        cfg = scenario_config("paper-sec5-static")
        cfg["sim"].update(t_end=t_end, dt=0.3)
        code, out = run_cli(tmp_path, cfg, *extra)
        assert code == 0 and capsys.readouterr().err == ""
        summary = json.loads((out / "summary.json").read_text())
        given = dict(zip(extra[::2], map(float, extra[1::2])))
        assert summary["config"]["sim"]["dt"] == given.get("--dt", 0.3)
        assert summary["config"]["sim"]["t_end"] == given.get("--t-end", t_end)

    @pytest.mark.parametrize("t_end", [20.0, 1.0])
    def test_sim_block_off_the_step_grid_alone_exit_2(self, tmp_path, capsys, t_end):
        cfg = scenario_config("paper-sec5-static")
        cfg["sim"].update(t_end=t_end, dt=0.3)
        code, out = run_cli(tmp_path, cfg)
        steps = f"{t_end / 0.3:.10g}"
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: sim: t_end/dt = {steps} must be a whole number of steps\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--dt", "--t-end"])
    def test_zero_override_exit_2(self, tmp_path, flag):
        cfg = scenario_config("twin-integrator")
        code, out = run_cli(tmp_path, cfg, flag, "0")
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("null_r0", [False, True], ids=["fully-specified", "null-r0"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, null_r0):
        # a fully specified config draws no seed, and ran
        cfg = scenario_config("twin-integrator")
        if null_r0:
            cfg["agents"][0]["r0"] = None
        code, out = run_cli(tmp_path, cfg, "--seed", "-1")
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: --seed -1: must be a non-negative integer\n"
        assert not out.exists()

    def test_summary_records_overrides(self, tmp_path):
        cfg = scenario_config("twin-integrator")
        code, out = run_cli(tmp_path, cfg, "--dt", "5e-4", "--t-end", "0.2")
        assert code == 0
        sim_cfg = json.loads((out / "summary.json").read_text())["config"]["sim"]
        assert sim_cfg["dt"] == 5e-4 and sim_cfg["t_end"] == 0.2
        assert sim_cfg["record_every"] == cfg["sim"]["record_every"]
        with (out / "diagnostics.csv").open() as fh:
            last = list(csv.reader(fh))[-1]
        assert float(last[0]) == pytest.approx(0.2)

    @pytest.mark.parametrize("out, blocked", [
        ("taken", "taken"),
        ("taken/sub", "taken"),
        ("taken/sub/deeper", "taken"),
        ("list", "list/paper-sec5-static"),
    ])
    def test_out_at_a_file_exit_2_before_the_run(self, tmp_path, capsys, monkeypatch, out,
                                                  blocked):
        # a file at --out, at one of its ancestors or at a list scenario's
        # directory stops the run before its first step, and nothing is made
        (tmp_path / "taken").write_text("kept")
        (tmp_path / "list").mkdir()
        (tmp_path / "list" / "paper-sec5-static").write_text("kept")
        cfg = scenario_config("paper-sec5-static")
        path = write_config(tmp_path, [cfg, dict(cfg, name="other")] if out == "list" else cfg)
        monkeypatch.setattr(cli.sim, "run_blocks", lambda *a, **k: pytest.fail("a group ran"))
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", "--config", path, "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err == (f"config error: --out {tmp_path / out}: "
                                           f"{tmp_path / blocked} exists and is not a directory\n")
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / blocked).read_text() == "kept"

    def test_failed_write_exit_1_in_one_line(self, tmp_path, capsys):
        # a directory where trajectory.csv belongs fails the write after the run
        cfg = scenario_config("twin-integrator")
        (tmp_path / "out" / "trajectory.csv").mkdir(parents=True)
        code, out = run_cli(tmp_path, cfg, "--t-end", "0.1")
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: [Errno 21] Is a directory: '{out / 'trajectory.csv'}'\n"

    # an input of amplitude 1e300, or an r0 of 1e300, drives finite states
    # whose squares overflow: the norms are formed again scaled, and V1 reads
    # +inf, never NaN, and counts as a violation, also where V1(0) and so the
    # envelope overflow
    @pytest.mark.filterwarnings("error")      # a numpy warning would be a stderr line
    @pytest.mark.parametrize("path, value, v1_0", [
        (("agents", 0, "input", "amp"), [1e300], "17.5"),
        (("agents", 0, "r0"), [1e300, 0.0], "inf"),
    ])
    def test_finite_run_of_huge_states_reports_finite_norms(self, tmp_path, capsys, path, value,
                                                            v1_0):
        cfg = mutated("paper-sec5-static", (path, value))
        code, out = run_cli(tmp_path, cfg, "--t-end", "0.05")
        assert code == 0 and capsys.readouterr().err == ""
        summary = json.loads((out / "summary.json").read_text())
        huge = summary["final_tracking_error"] + [summary["final_consensus_error_norm"]]
        assert all(1e250 < v < 1e300 for v in huge), huge
        assert 0 < summary["sup_sum_invariant"] < np.inf
        with (out / "diagnostics.csv").open(newline="") as fh:
            v1 = [row["V1"] for row in csv.DictReader(fh)]
        assert v1 == [v1_0] + ["inf"] * 5
        assert summary["envelope_violations"] == v1.count("inf")
        text = (out / "trajectory.csv").read_text()
        assert "inf" not in text and "nan" not in text

    # record_every 1: more bytes than an index can count (ValueError); 10:
    # more than any address space holds (MemoryError)
    @pytest.mark.parametrize("every", [1, 10])
    def test_record_array_beyond_memory_exit_2(self, tmp_path, capsys, monkeypatch, every):
        # about 1e17 steps: the record schedule is arithmetic, and the record
        # array fails to allocate before the first step
        cfg = scenario_config("paper-sec5-static")
        cfg["sim"].update(t_end=1e5, dt=1e-12, record_every=every)
        steps = []
        monkeypatch.setattr(cli.sim.control.ClosedLoop, "loop", lambda *args: steps.append(1))
        code, out = run_cli(tmp_path, cfg)
        n_steps = int(round(1e5 / 1e-12))
        rows = -(-n_steps // every) + 1
        assert code == 2 and capsys.readouterr().err == (
            f"config error: sim: cannot allocate {rows} x 24 records for {n_steps} steps; "
            "raise dt or record_every\n")
        assert not steps and not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_1(self, tmp_path, capsys):
        # stiff stable plant far outside the RK4 stability region at this dt
        cfg = {
            "name": "stiff",
            "graph": {"n": 2, "edges": [[0, 1]]},
            "plant": {"A": [[-1e6]], "B": [[1.0]]},
            "agents": [{"r0": [1.0], "input": {"kind": "zero"}}] * 2,
            "algorithm": "static",
            "design": {"Q": [[1.0]]},
            "sim": {"t_end": 1.0, "dt": 1e-3},
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 1
        assert "t=" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, field", [("constant", "value"), ("sinusoid", "amp")])
    def test_input_missing_field_exit_2(self, tmp_path, capsys, kind, field):
        # a missing input field is a config error, not a KeyError traceback
        cfg = scenario_config("ring-demo")
        agent = next(a for a in cfg["agents"] if a["input"]["kind"] == kind)
        del agent["input"][field]
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert field in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = scenario_config("twin-integrator")
        cfg["sim"]["dt"] = 100.0  # dt > t_end
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2


MISSING = object()


def _set(cfg, path, value):
    """Set (or, for MISSING, delete) the entry at `path`, a tuple of keys
    and list indices; absent sections are created."""
    *parents, last = path
    for key in parents:
        cfg = cfg[key] if isinstance(cfg, list) else cfg.setdefault(key, {})
    if value is MISSING:
        del cfg[last]
    else:
        cfg[last] = value


SEC5_RATES = {"mu": 10.0, "nu": 10.0, "theta": 0.01, "chi": 0.01}


@pytest.mark.parametrize("path, value", [
    pytest.param(("sim", "t_end"), "abc", id="t_end-string"),
    pytest.param(("sim", "dt"), None, id="dt-null"),
    pytest.param(("sim", "record_every"), 2.7, id="record_every-fraction"),
    pytest.param(("sim", "integrator"), "euler", id="integrator-euler"),
    pytest.param(("graph", "n"), "six", id="n-string"),
    pytest.param(("graph", "n"), MISSING, id="n-missing"),
    pytest.param(("design", "Q"), [[1.0, 0.0], [0.0]], id="Q-ragged"),
    pytest.param(("design", "Q"), [[1.0, 0.5], [0.0, 1.0]], id="Q-not-symmetric"),
    pytest.param(("design", "Q"), np.eye(3).tolist(), id="Q-wrong-size"),
    pytest.param(("design", "margins"), [1], id="margins-one"),
    pytest.param(("design", "eps"), float("nan"), id="eps-nan"),
    pytest.param(("design", "margins"), [float("nan"), 1.0], id="margins-nan"),
    pytest.param(("graph", "n"), 6.5, id="n-fraction"),
    pytest.param(("agents", 0, "r0"), [1.0, -1.0, 0.0], id="r0-wrong-length"),
    pytest.param(("agents", 0, "input", "amp"), ["x"], id="amp-string"),
    pytest.param(("adaptive",), dict(SEC5_RATES, mu="a"), id="mu-string"),
    pytest.param(("adaptive",), dict(SEC5_RATES, alpha0=float("nan")), id="alpha0-nan"),
    # a removed key: the number check comes before the key check
    pytest.param(("numerics", "are_max_iter"), "x", id="are_max_iter-string"),
    pytest.param(("numerics", "sym_tol"), 1e-10, id="sym_tol-removed"),
    pytest.param(("numerics", "are_step_tol"), 1e-12, id="are_step_tol-removed"),
    pytest.param(("numerics", "rank_rtol"), 1e-10, id="rank_rtol-removed"),
    # an empty table passed the parse and raised numpy's ValueError in the input bound
    pytest.param(("agents", 0, "input"), {"kind": "table", "times": [], "values": []},
                 id="table-empty"),
])
def test_malformed_config_exit_2(tmp_path, capsys, path, value):
    """A malformed value ends in exit code 2 and one error line, never in a
    traceback (an exception escaping main) or a run."""
    cfg = scenario_config("paper-sec5-static")
    if path == ("adaptive",):
        cfg["algorithm"] = "adaptive"
    _set(cfg, path, value)
    # --t-end would replace a malformed t_end before the sim block is checked
    short = () if path == ("sim", "t_end") else ("--t-end", "0.01")
    code, out = run_cli(tmp_path, cfg, *short)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(("config error: ", "design failed: ")) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("Q", [
    pytest.param([[1.0, 0.0], [0.0, -1.0]], id="Q-indefinite"),
    pytest.param([[0.0, 0.0], [0.0, 0.0]], id="Q-zero"),
])
def test_q_not_positive_definite_exit_2(tmp_path, capsys, Q):
    cfg = scenario_config("paper-sec5-static")
    cfg["design"]["Q"] = Q
    code, out = run_cli(tmp_path, cfg, "--t-end", "0.01")
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: design.Q: must be positive definite")
    assert not out.exists()


@pytest.mark.parametrize("path, value, where", [
    pytest.param(("sim", "dt"), None, "sim: dt ", id="dt-null"),
    pytest.param(("sim", "record_every"), float("inf"), "sim: record_every ",
                 id="record_every-inf"),
    # more steps than an index can count: list(range(...)) raised
    # OverflowError, and an infinite t_end/dt was "cannot convert float
    # infinity to integer"
    pytest.param(("sim", "dt"), 1e-30, "sim: t_end/dt = 1e+28 must be at most ", id="dt-1e-30"),
    pytest.param(("sim", "dt"), 1e-320, "sim: t_end/dt = inf must be at most ", id="dt-1e-320"),
    pytest.param(("graph", "n"), "six", 'graph.n: must be a number, got "six"', id="n-string"),
    pytest.param(("design", "Q"), [[1.0, 0.0], [0.0]], "design.Q: ", id="Q-ragged"),
    # numpy's invalid-value warning in the symmetry check was a second line
    pytest.param(("design", "Q", 1, 1), float("inf"),
                 "design.Q: must be finite, got [[1.0, 0.0], [0.0, inf]]", id="Q-inf"),
    pytest.param(("design", "margins"), [1], "design.margins: ", id="margins-one"),
    pytest.param(("design", "eps"), "wide", "design.eps: ", id="eps-string"),
    pytest.param(("agents", 0, "r0"), [1.0, -1.0, 0.0], "agents[0].r0: ", id="r0-wrong-length"),
    pytest.param(("agents", 2, "input", "amp"), ["x"],
                 'agents[2].input.amp[0]: must be a number, got "x"', id="amp-string"),
    # one entry per input, each a number: these reached the reference set
    # and escaped as a traceback
    pytest.param(("agents", 4, "input", "amp"), [[[1, 2], [3, 4]]],
                 "agents[4].input: amp must be a flat list", id="amp-nested"),
    pytest.param(("agents", 1, "input"), {"kind": "constant", "value": [[]]},
                 "agents[1].input: value must be a flat list", id="value-empty-row"),
    pytest.param(("agents", 0, "input"),
                 {"kind": "table", "times": [[0.0], [1.0]], "values": [1.0, 2.0]},
                 "agents[0].input: times must be a flat list", id="times-nested"),
    pytest.param(("agents", 0, "input"),
                 {"kind": "table", "times": [0.0, 1.0], "values": [[[1.0]], [[2.0]]]},
                 "agents[0].input: values must be one row of numbers per time",
                 id="values-nested"),
    pytest.param(("adaptive",), dict(SEC5_RATES, mu="a"), "adaptive.mu: ", id="mu-string"),
    # a removed key: the number check comes before the key check
    pytest.param(("numerics", "are_max_iter"), "x",
                 'numerics.are_max_iter: must be a number, got "x"', id="are_max_iter-string"),
    pytest.param(("plant", "A"), [[1.0, 2.0]], "plant: ", id="A-not-square"),
    # a plant of more than two dimensions reached the gain printer, or had
    # its square first two dimensions taken for a matrix
    pytest.param(("plant", "B"), [[[[1, 2], [3, 4]]], [[[1, 2], [3, 4]]]],
                 "plant: B must be a matrix of A's 2 rows, got shape (2, 1, 2, 2)", id="B-4d"),
    pytest.param(("plant", "A"), [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]],
                 "plant: A must be square, got shape (2, 2, 2)", id="A-3d"),
    # an infinite tolerance is no tolerance
    pytest.param(("numerics", "are_residual_tol"), float("inf"),
                 "numerics: are_residual_tol must be a positive finite float, got inf",
                 id="are_residual_tol-inf"),
    pytest.param(("numerics", "are_max_iter"), 100,
                 "unknown keys in numerics: ['are_max_iter']\n", id="are_max_iter-removed"),
    pytest.param(("numerics", "lyap_residual_tol"), 1e-10,
                 "unknown keys in numerics: ['lyap_residual_tol']\n",
                 id="lyap_residual_tol-removed"),
    pytest.param(("graph", "n"), float("inf"), "graph: ", id="n-inf"),
    pytest.param(("graph", "edges"), [[0, float("inf")]], "graph: ", id="edge-inf"),
    # once truncated to (1, 2) or cut to its first two entries, and run
    pytest.param(("graph", "edges", 1), [1, 2.7],
                 "graph: edge [1, 2.7] is not a pair of whole node indices", id="edge-fraction"),
    pytest.param(("graph", "edges", 1), [1, 2, 5],
                 "graph: edge [1, 2, 5] is not a pair of whole node indices", id="edge-three-ends"),
    # a value out of range names where it sits too
    pytest.param(("design", "eps"), -1.0, "design.eps: must be positive and finite, got -1.0",
                 id="eps-negative"),
    pytest.param(("design", "margins"), [0.5, 1],
                 "design.margins: must be finite and >= 1, got [0.5, 1.0]", id="margins-below-one"),
    pytest.param(("adaptive",), dict(SEC5_RATES, mu=-1.0),
                 "adaptive.mu: must be positive and finite", id="mu-negative"),
    # checked although the static law reads no rate
    pytest.param(("adaptive", "mu"), -1.0, "adaptive.mu: must be positive and finite",
                 id="mu-negative-static"),
    # a string or boolean where an object belongs is not taken for a number
    pytest.param(("sim",), "x", "sim must be a JSON object\n", id="sim-string"),
    pytest.param(("graph",), "ring", "graph must be a JSON object\n", id="graph-string"),
    pytest.param(("design",), True, "design must be a JSON object\n", id="design-boolean"),
    pytest.param(("agents", 1), "x", "agents[1] must be a JSON object\n", id="agent-string"),
    pytest.param(("agents", 0, "input"), "zero", "agents[0].input: input kind None ",
                 id="input-string"),
    # each once a line of Python's own words that named no place, or the
    # wrong one: an object of agents was read as the list of its keys
    pytest.param(("graph", "edges"), None, "graph.edges must be a JSON list of node pairs\n",
                 id="edges-null"),
    pytest.param(("graph", "edges"), [0, 1], "graph.edges must be a JSON list of node pairs\n",
                 id="edges-flat"),
    pytest.param(("agents",), 5, "agents must be a JSON list\n", id="agents-number"),
    pytest.param(("agents",), {"a": 1}, "agents must be a JSON list\n", id="agents-object"),
    pytest.param(("agents", 0, "input", "kind"), [1], "agents[0].input: input kind [1] ",
                 id="kind-list"),
    pytest.param(("agents", 3, "input"), {"kind": "table", "times": [], "values": []},
                 "agents[3].input: table input needs values and at least one sample time\n",
                 id="table-empty"),
    pytest.param(("agents", 2, "input"),
                 {"kind": "table", "times": [0.0, 1.0, 1.0], "values": [[0.0], [1.0], [2.0]]},
                 "agents[2].input: table times must be strictly increasing\n",
                 id="table-times-repeat"),
])
def test_config_error_names_where(tmp_path, capsys, path, value, where):
    cfg = scenario_config("paper-sec5-static")
    if path == ("adaptive",):
        cfg["algorithm"] = "adaptive"
    _set(cfg, path, value)
    code, _ = run_cli(tmp_path, cfg, "--t-end", "0.01")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + where) and err.count("\n") == 1


@pytest.mark.parametrize("path, value, where", [
    # booleans ran as 1 or 0, and a t_end of true was recorded in summary.json
    (("sim", "t_end"), True, "sim.t_end: must be a number, got true"),
    (("numerics", "are_max_iter"), True, "numerics.are_max_iter: must be a number, got true"),
    (("agents", 0, "r0"), [True, False], "agents[0].r0[0]: must be a number, got true"),
    (("graph", "edges", 0), [False, True], "graph.edges[0][0]: must be a number, got false"),
    (("design", "eps"), True, "design.eps: must be a number, got true"),
    (("adaptive", "mu"), True, "adaptive.mu: must be a number, got true"),
    # numeric strings ran where numpy or float() read them ...
    (("sim", "t_end"), "0.02", 'sim.t_end: must be a number, got "0.02"'),
    (("design", "eps"), "2.5", 'design.eps: must be a number, got "2.5"'),
    (("agents", 0, "r0"), ["1", "0"], 'agents[0].r0[0]: must be a number, got "1"'),
    (("plant", "A"), [["0", "1"], ["-1", "-2"]], 'plant.A[0][0]: must be a number, got "0"'),
    (("adaptive", "mu"), "10", 'adaptive.mu: must be a number, got "10"'),
    # ... and exited 2 with another message where int() or a check read them
    (("sim", "record_every"), "2", 'sim.record_every: must be a number, got "2"'),
    (("graph", "edges", 0), ["0", "1"], 'graph.edges[0][0]: must be a number, got "0"'),
    (("graph", "n"), "6", 'graph.n: must be a number, got "6"'),
    (("numerics", "are_residual_tol"), "1e-9",
     'numerics.are_residual_tol: must be a number, got "1e-9"'),
    # deep in a long list of lists, which is walked item by item
    (("graph", "edges"), [[0, True] if k == 1500 else [k % 6, (k + 1) % 6] for k in range(2000)],
     "graph.edges[1500][1]: must be a number, got true"),
    # named first, before the input's own check
    (("agents", 0, "input", "omega"), True, "agents[0].input.omega: must be a number, got true"),
])
def test_config_number_must_be_a_json_number(tmp_path, capsys, path, value, where):
    cfg = scenario_config("paper-sec5-static")
    _set(cfg, path, value)
    # --t-end would replace the value under test
    code, out = run_cli(tmp_path, cfg, *(() if path == ("sim", "t_end") else ("--t-end", "0.02")))
    assert code == 2
    assert capsys.readouterr().err == f"config error: {where}\n"
    assert not out.exists()


def test_text_keys_keep_their_strings(tmp_path):
    # name, algorithm, the input kind, the integrator and the free-form
    # assumptions are the only text a config holds
    cfg = scenario_config("paper-sec5-static")
    cfg["assumptions"] = {"note": "text", "flags": [True, "x"]}
    cfg["sim"]["integrator"] = "rk4"
    code, out = run_cli(tmp_path, cfg, "--t-end", "0.02")
    assert code == 0 and (out / "summary.json").is_file()


def test_whole_float_graph_entries_run_as_integers(tmp_path):
    # as n: 6.0 is six nodes, [1.0, 2.0] is the edge (1, 2)
    cfg = scenario_config("paper-sec5-static")
    floats = json.loads(json.dumps(cfg))
    floats["graph"] = {"n": 6.0, "edges": [[float(i), float(j)] for i, j in cfg["graph"]["edges"]]}
    outs = []
    for k, c in enumerate((cfg, floats)):
        (tmp_path / str(k)).mkdir()
        code, out = run_cli(tmp_path / str(k), c, "--t-end", "0.05")
        assert code == 0
        outs.append(out)
    for name in ("trajectory.csv", "diagnostics.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command", ["run", "gains"])
@pytest.mark.parametrize("path, value, where", [
    (("agents", 0, "r0"), [NAN, 0.0], "agents[0].r0: must hold 2 finite numbers"),
    (("agents", 3, "r0"), [0.0, -INF], "agents[3].r0: must hold 2 finite numbers"),
    (("agents", 1, "input"), {"kind": "sinusoid", "amp": [NAN]}, "agents[1].input: amp "),
    (("agents", 1, "input"), {"kind": "sinusoid", "amp": [1.0], "omega": INF},
     "agents[1].input: omega "),
    (("agents", 1, "input"), {"kind": "sinusoid", "amp": [1.0], "phase": NAN},
     "agents[1].input: phase "),
    (("agents", 2, "input"), {"kind": "constant", "value": [INF]}, "agents[2].input: value "),
    (("agents", 2, "input"), {"kind": "table", "times": [0.0, NAN], "values": [1.0, 2.0]},
     "agents[2].input: times "),
    (("agents", 2, "input"), {"kind": "table", "times": [0.0, 1.0], "values": [1.0, INF]},
     "agents[2].input: values "),
])
def test_non_finite_reference_values_exit_2(tmp_path, capsys, command, path, value, where):
    # json reads NaN and Infinity; they would blow up the run or give c2 = inf
    cfg = scenario_config("paper-sec5-static")
    _set(cfg, path, value)
    args = ["--out", str(tmp_path / "out"), "--t-end", "0.01"] if command == "run" else []
    assert main([command, "--config", write_config(tmp_path, cfg), *args]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error: " + where) and err.count("\n") == 1
    assert out == "" and not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")      # numpy's overflow warning was a second line
@pytest.mark.parametrize("command", ["run", "gains"])
@pytest.mark.parametrize("name, value", [
    pytest.param("paper-sec5-static", {"kind": "sinusoid", "amp": [1e308]}, id="sinusoid"),
    pytest.param("paper-sec5-static", {"kind": "constant", "value": [-1e308]}, id="constant"),
    pytest.param("paper-sec5-static", {"kind": "table", "times": [0.0, 1.0],
                                       "values": [1.0, 1e308]}, id="table"),
    # the adaptive law's design checks c2 too, where its run failed with exit 1
    pytest.param("paper-sec5-adaptive", {"kind": "sinusoid", "amp": [1e308]}, id="adaptive"),
])
def test_huge_finite_input_exit_2(tmp_path, capsys, command, name, value):
    # f0 = 1e308 is finite, but c2 = f0 * (N - 1) is not
    cfg = scenario_config(name)
    cfg["agents"][0]["input"] = value
    args = ["--out", str(tmp_path / "out"), "--t-end", "0.01"] if command == "run" else []
    assert main([command, "--config", write_config(tmp_path, cfg), *args]) == 2
    out, err = capsys.readouterr()
    assert err == "config error: coupling strength c2 must be nonnegative and finite, got inf\n"
    assert out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "gains"])
@pytest.mark.parametrize("tol, error", [
    ("are_residual_tol", "ARE residual"),             # NoConvergence
])
def test_solver_failure_in_design_exit_2(tmp_path, capsys, command, tol, error):
    cfg = scenario_config("paper-sec5-static")
    cfg["numerics"] = {tol: 1e-300}
    args = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, "--config", write_config(tmp_path, cfg), *args]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("design failed: " + error) and err.count("\n") == 1
    assert out == "" and not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")      # numpy's overflow warning would be a second line
@pytest.mark.parametrize("command", ["run", "gains"])
def test_design_overflow_exit_2(tmp_path, capsys, command):
    # a finite B whose B B^T overflows: the Hamiltonian of the initial gain
    # is not finite, where np.linalg.eig raised LinAlgError
    cfg = scenario_config("paper-sec5-static")
    cfg["plant"]["B"] = [[1e308], [1.0]]
    args = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, "--config", write_config(tmp_path, cfg), *args]) == 2
    out, err = capsys.readouterr()
    assert err == "design failed: the Hamiltonian [[A, -B B^T], [-Q, -A^T]] is not finite\n"
    assert out == "" and not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")      # numpy's overflow warnings would be more lines
@pytest.mark.parametrize("command", ["run", "gains"])
def test_design_linalg_failure_exit_2(tmp_path, capsys, command):
    # a finite A whose Kronecker sum overflows in the Lyapunov solve: its
    # finiteness check raises numpy's LinAlgError, which solve_are reports
    cfg = scenario_config("ring-demo")
    cfg["plant"]["A"][1][1] = -1e308
    args = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, "--config", write_config(tmp_path, cfg), *args]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("design failed: the ARE solve: ") and err.count("\n") == 1
    assert out == "" and not (tmp_path / "out").exists()


def leaf_paths(node, path=()):
    """The paths to the scalars and empty containers of a config."""
    if not isinstance(node, (dict, list)) or not node:
        yield path
    else:
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from leaf_paths(child, path + (key,))


# values that escaped main when put into a canned config by hand or by an
# earlier fuzz; no small positive number, which as dt would make a long run
POOL = [None, True, False, 0, 1, -1, 1e308, -1e308, 1e-320, float("nan"), float("inf"),
        float("-inf"), "x", "", [], [[]], [[1, 2], [3, 4]], 2**63]


@st.composite
def mutated_configs(draw):
    """A canned config with one or two of its leaves set to values of POOL."""
    cfg = scenario_config(draw(st.sampled_from(NAMES)))
    paths = list(leaf_paths(cfg))
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True)):
        _set(cfg, path, draw(st.sampled_from(POOL)))
    return cfg


def mutated(name, *edits):
    cfg = scenario_config(name)
    for path, value in edits:
        _set(cfg, path, value)
    return cfg


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(cfg=mutated_configs())
@example(cfg=mutated("paper-sec5-static", (("sim", "dt"), 1e-30)))
@example(cfg=mutated("paper-sec5-static", (("sim", "dt"), 1e-320)))
@example(cfg=mutated("ring-demo", (("plant", "A", 1, 1), -1e308)))
@example(cfg=mutated("paper-sec5-static", (("plant", "B"), [[1e308], [1.0]])))
@example(cfg=mutated("paper-sec5-static", (("agents", 4, "input", "amp"), [[[1, 2], [3, 4]]])))
@example(cfg=mutated("paper-sec5-static", (("agents", 1, "input"),
                                           {"kind": "constant", "value": [[]]})))
@example(cfg=mutated("twin-integrator", (("plant", "B"), [[[[1, 2], [3, 4]]]] * 2)))
@example(cfg=mutated("paper-sec5-static", (("design", "Q", 1, 1), float("inf"))))
@example(cfg=mutated("paper-sec5-static", (("design", "Q", 0, 0), 1e308)))
@example(cfg=mutated("paper-sec5-static", (("agents", 0, "input", "amp"), [1e300])))
@pytest.mark.parametrize("command", ["run", "gains"])
def test_mutated_config_exits_with_files_or_one_line(command, cfg):
    # exit 0 with the three files, or exit 1 or 2 with one stderr line; no
    # exception leaves main, and no numpy warning adds a line
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        args = ["--out", str(out), "--t-end", "0.01"] if command == "run" else []
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([command, "--config", write_config(Path(tmp), cfg), *args])
        if code == 0:
            assert command == "gains" or all(
                (out / f).is_file() for f in ("trajectory.csv", "diagnostics.csv", "summary.json"))
            assert err.getvalue() == "" and not caught, [str(w.message) for w in caught]
        else:
            assert code in (1, 2)
            lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
            assert len(lines) == 1 and err.getvalue().endswith("\n"), lines


def test_blow_up_prints_one_line(tmp_path):
    # margins of 1e5 put c1 far outside RK4's stability region at dt 1e-3;
    # numpy's overflow warnings must not reach stderr
    cfg = scenario_config("paper-sec5-static")
    cfg["design"]["margins"] = [1e5, 1.0]
    env = dict(os.environ, PYTHONPATH=str(Path(at.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "avgtrack.cli", "run", "--config", write_config(tmp_path, cfg),
         "--out", str(tmp_path / "out"), "--t-end", "1"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("run failed: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("command", ["run", "gains"])
def test_input_bound_taken_once_per_scenario(tmp_path, monkeypatch, command):
    # the design and the diagnostics (run) or the report (gains) share
    # Scenario.f0; the adaptive law's design forms it too, in file order
    calls = []
    bound = signals.InputTable.bound
    monkeypatch.setattr(signals.InputTable, "bound", lambda t: calls.append(t) or bound(t))
    cfgs = [scenario_config(name) for name in ("paper-sec5-static", "paper-sec5-adaptive",
                                               "ring-demo")]
    args = ["--out", str(tmp_path / "out"), "--t-end", "0.01"] if command == "run" else []
    assert main([command, "--config", write_config(tmp_path, cfgs), *args]) == 0
    assert [len(t.kinds) for t in calls] == [6, 6, 4]


@pytest.mark.parametrize("command", ["run", "gains"])
def test_laplacian_spectrum_taken_once_per_scenario(tmp_path, monkeypatch, command):
    # the design, the diagnostics and the summary (run) or the report (gains)
    # share Graph.lambda2; the adaptive law's design forms it too, in file order
    cfgs = [scenario_config(name) for name in ("paper-sec5-static", "paper-sec5-adaptive",
                                               "ring-demo")]
    laplacians = [at.laplacian(at.parse_scenario(cfg).graph) for cfg in cfgs]
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    args = ["--out", str(tmp_path / "out"), "--t-end", "0.01"] if command == "run" else []
    assert main([command, "--config", write_config(tmp_path, cfgs), *args]) == 0
    taken = [a for a in calls if any(np.array_equal(a, L) for L in laplacians)]
    assert len(taken) == 3 and all(map(np.array_equal, taken, laplacians))


def test_flat_table_input_runs(tmp_path):
    cfg = scenario_config("ring-demo")
    cfg["agents"][2]["input"] = {"kind": "table", "times": [0.0, 1.0], "values": [1.0, 2.0]}
    code, out = run_cli(tmp_path, cfg, "--t-end", "0.1")
    assert code == 0 and (out / "summary.json").is_file()


def test_empty_scenario_list_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, [])
    assert main(["gains", "--config", path]) == 2
    assert "empty list" in capsys.readouterr().err


class TestWriters:
    """Byte format of both CSV writers, with the same rows written through
    the csv module as the oracle."""

    def test_bytes_match_csv_module(self, tmp_path):
        scn = at.parse_scenario(scenario_config("twin-integrator"))  # 2 agents, 1 edge, n = 2
        big = 123456789.123456789
        times = np.array([0.0, 1.0 / 3.0])
        x = np.array([[[-0.0, 1e-20], [big, -2.5]], [[1e-20, -0.0], [3.0, -big]]])
        alpha = np.array([[-0.0], [big]])
        beta = np.array([[1e-20], [0.5]])
        # zero references: the tracking error is x itself
        traj = at.Trajectory(times, x, np.zeros_like(x), alpha, beta, "adaptive")
        diag = {"times": times, "V1": np.array([-0.0, big]), "V2": np.array([1e-20, 2.0]),
                "envelope": None, "sum_invariant": np.array([0.0, 1.2345678901234e-15])}

        write_trajectory_csv(tmp_path / "trajectory.csv", scn, traj)
        with (tmp_path / "oracle.csv").open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(GOLDEN_TRAJECTORY_HEADER)
            for k, t in enumerate(times):
                for i in range(2):
                    norm = np.linalg.norm(x[k, i])
                    w.writerow(["agent", f"{t:.10g}", i, *(f"{v:.12g}" for v in x[k, i]),
                                f"{norm:.12g}", "", ""])
                w.writerow(["edge", f"{t:.10g}", 0, "", "", "",
                            f"{alpha[k, 0]:.12g}", f"{beta[k, 0]:.12g}"])
        got = (tmp_path / "trajectory.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()
        assert b"agent,0,0,-0,1e-20," in got and b"123456789.123" in got

        for v2, env in ((diag["V2"], None), (None, np.array([big, -0.0]))):
            diag.update(V2=v2, envelope=env)
            write_diagnostics_csv(tmp_path / "diagnostics.csv", diag)
            with (tmp_path / "oracle.csv").open("w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(GOLDEN_DIAGNOSTICS_HEADER)
                for k, t in enumerate(times):
                    w.writerow([f"{t:.10g}", f"{diag['V1'][k]:.12g}",
                                "" if v2 is None else f"{v2[k]:.12g}",
                                "" if env is None else f"{env[k]:.12g}",
                                f"{diag['sum_invariant'][k]:.12g}"])
            got = (tmp_path / "diagnostics.csv").read_bytes()
            assert got == (tmp_path / "oracle.csv").read_bytes()
