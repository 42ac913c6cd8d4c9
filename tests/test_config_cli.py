import csv
import json

import numpy as np
import pytest

import avgtrack as at
from avgtrack.cli import main
from avgtrack.errors import ConfigError
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
        with pytest.raises(ConfigError, match="magic"):
            at.parse_scenario(cfg)

    def test_adaptive_requires_section(self):
        cfg = scenario_config("ring-demo")
        cfg["algorithm"] = "adaptive"
        with pytest.raises(ConfigError, match="adaptive"):
            at.parse_scenario(cfg)

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

    def test_explicit_r0_is_seed_free(self):
        cfg = scenario_config("twin-integrator")
        a = at.parse_scenario(cfg, seed=1).reference_set.initial_states
        b = at.parse_scenario(cfg, seed=99).reference_set.initial_states
        np.testing.assert_array_equal(a, b)

    def test_numerics_overrides(self):
        cfg = scenario_config("ring-demo")
        cfg["numerics"] = {"are_max_iter": 50}
        scn = at.parse_scenario(cfg)
        assert scn.numerics.are_max_iter == 50


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

    def test_disconnected_exit_2(self, tmp_path, capsys):
        cfg = scenario_config("ring-demo")
        cfg["graph"]["edges"] = [[0, 1], [2, 3]]
        assert main(["gains", "--config", write_config(tmp_path, cfg)]) == 2
        assert "connected" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag", ["--dt", "--t-end"])
    def test_zero_override_exit_2(self, tmp_path, flag):
        cfg = scenario_config("twin-integrator")
        code, out = run_cli(tmp_path, cfg, flag, "0")
        assert code == 2
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
