"""Tests of the benchmark itself. From the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads

cli = pytest.importorskip("avgtrack.cli")
canned = pytest.importorskip("avgtrack.scenarios")

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_config_bytes_repeat_for_a_seed(workload):
    assert workloads.config_text(workload, 7) == workloads.config_text(workload, 7)


@pytest.mark.parametrize("workload", ["sweep", "network-1k"])
def test_seed_changes_the_inputs(workload):
    assert workloads.config_text(workload, 7) != workloads.config_text(workload, 8)


def test_sweep_names_are_unique():
    names = [s["name"] for s in workloads.sweep(3)]
    assert len(set(names)) == len(names) == workloads.SWEEP_SIZE


@pytest.mark.parametrize("law", ["static", "adaptive"])
def test_sec5_configs_are_the_canned_scenarios(law):
    canned_cfg = canned.scenario_config(f"paper-sec5-{law}")
    canned_cfg.pop("assumptions")
    assert workloads.sec5(law) == canned_cfg


def _run(cfg, tmp: Path) -> Path:
    path = tmp / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def sec5_static(tmp_path_factory):
    cfg = workloads.sec5("static")
    return cfg, _run(cfg, tmp_path_factory.mktemp("sec5"))


@pytest.fixture(scope="module")
def short_sweep(tmp_path_factory):
    cfg = workloads.sweep(5)
    for scn in cfg:
        scn["sim"]["t_end"] = 0.2
    return cfg, _run(cfg, tmp_path_factory.mktemp("sweep"))


def _copy(out: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "copy"
    shutil.copytree(out, dst)
    return dst


def test_clean_outputs_pass(sec5_static, short_sweep):
    for cfg, out in (sec5_static, short_sweep):
        assert checks.check(cfg, out) == []


def test_shifted_final_state_fails(sec5_static, tmp_path):
    cfg, out = sec5_static
    out = _copy(out, tmp_path)
    path = out / "trajectory.csv"
    lines = path.read_text().splitlines(keepends=True)
    t_end = f"{cfg['sim']['t_end']:.10g}"
    k = next(k for k, line in enumerate(lines) if line.startswith(f"agent,{t_end},0,"))
    cells = lines[k].split(",")
    cells[3] = f"{float(cells[3]) + 0.1:.12g}"
    lines[k] = ",".join(cells)
    path.write_text("".join(lines))
    bad = checks.check(cfg, out)
    assert any("agent 0 ends" in msg for msg in bad), bad
    assert any("sum invariant" in msg for msg in bad), bad


def test_missing_sweep_directory_fails(short_sweep, tmp_path):
    cfg, out = short_sweep
    out = _copy(out, tmp_path)
    shutil.rmtree(out / cfg[2]["name"])
    bad = checks.check(cfg, out)
    assert any("scenario directories" in msg for msg in bad), bad
    assert any(cfg[2]["name"] in msg and "missing" in msg for msg in bad), bad


def test_wrong_gain_fails(sec5_static, tmp_path):
    cfg, out = sec5_static
    out = _copy(out, tmp_path)
    summary = json.loads((out / "summary.json").read_text())
    summary["c2"] = 15.0
    (out / "summary.json").write_text(json.dumps(summary))
    assert any(msg.startswith(f"{cfg['name']}: c2") for msg in checks.check(cfg, out))


def test_refuses_to_run_without_the_program(tmp_path):
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sec5-static", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert p.stdout == ""
