"""Benchmark of `avgtrack run`: one workload per call, from the repository root.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

An operation is one `avgtrack run` process on the workload's config file.
Operations run one after another from this process (a closed loop with one
client) until --seconds have passed. The first operation's outputs are
checked (checks.py); every later one must write byte-identical CSV files.

--trace 0 prints the end-to-end metrics. --trace 1 alternates operations
with a traced run (probe.py) and prints the per-layer metrics. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 150.0
CHILD_TIMEOUT_S = 170.0
SETUP_REPS, SETUP_MIN_S = 3, 0.2

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_mem_mb": "MB", "final_tracking_error": "1"}
PER_LAYER_UNITS = {
    "config.parse_ms": "ms",
    "numerics.solve_are_ms": "ms",
    "numerics.are_iterations": "count",
    "graph.lambda2_ms": "ms",
    "graph.laplacian_ms": "ms",
    "graph.incidence_matrix_ms": "ms",
    "control.design_gains_ms": "ms",
    "signals.eval_inputs_us": "us",
    "control.static_rhs_us": "us",
    "control.adaptive_rhs_us": "us",
    "control.boundary_layer_us": "us",
    "sim.run_s": "s",
    "sim.us_per_rhs": "us",
    "sim.steps_per_s": "1/s",
    "sim.trajectory_mb": "MB",
    "report.diagnostics_ms": "ms",
    "report.summary_ms": "ms",
    "report.trajectory_csv_ms": "ms",
    "report.rows_written": "count",
    "report.bytes_written": "bytes",
    "report.write_mb_per_s": "MB/s",
    "cli.sweep_s": "s",
    "cli.serial_s": "s",
    "cli.pool_speedup": "ratio",
    "trace.overhead_s": "s",
}


def child(script: str, args: list[str], env: dict) -> object:
    """Run one of this directory's scripts and return the JSON it prints last."""
    p = subprocess.run([sys.executable, str(HERE / script), *args], env=env,
                       capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if p.returncode:
        raise RuntimeError(f"{script} {args[0]} exited {p.returncode}: {p.stderr.strip()}")
    sys.stderr.write(p.stderr)
    return json.loads(p.stdout.splitlines()[-1])


def csv_digest(cfg, out: Path) -> str:
    h = hashlib.sha256()
    for scn in checks.scenarios(cfg):
        d = checks.scenario_dir(cfg, out, scn)
        for name in ("trajectory.csv", "diagnostics.csv"):
            h.update((d / name).read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "avgtrack" / "cli.py").is_file():
        print(f"no avgtrack source under {root / 'src'}: run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(workloads.config_text(args.workload, args.seed))
    cfg = json.loads(cfg_path.read_text())

    env = dict(os.environ)
    env.pop("AVGTRACK_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    avgtrack_run = [sys.executable, "-c", "import sys; from avgtrack.cli import main; "
                    "sys.exit(main())", "run", "--config", str(cfg_path)]

    # The traced run calls the layers one scenario at a time. In a traced
    # run the operations it is compared with run a sweep on one thread too,
    # so that trace.overhead_s holds the tracing alone and not the pool.
    op_env = dict(env, AVGTRACK_THREADS="1") if args.trace else env

    run_s, mem, setup, traced = [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    first = digest = final_error = None
    deadline = time.perf_counter() + args.seconds
    while attempted == 0 or time.perf_counter() < deadline:
        out = work / "op"
        shutil.rmtree(out, ignore_errors=True)
        op = child("launch.py", [str(OP_TIMEOUT_S), *avgtrack_run, "--out", str(out)], op_env)
        attempted += 1
        if op["rc"]:
            failed += 1
        else:
            run_s.append(op["wall_s"])
            mem.append(op["peak_mb"])
            try:
                if first is None:
                    first = work / "first"
                    shutil.rmtree(first, ignore_errors=True)
                    out.rename(first)
                    problems += checks.check(cfg, first)
                    digest = csv_digest(cfg, first)
                    final_error = checks.final_tracking_error(cfg, first)
                elif csv_digest(cfg, out) != digest:
                    problems.append(f"operation {attempted} wrote other CSV bytes than the first")
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"operation {attempted} left unreadable outputs: {exc!r}")
        if not args.trace:
            # set-up timed in a fresh process after each operation: set-up
            # time varies more between processes than within one
            setup += child("probe.py", ["setup", str(cfg_path), str(SETUP_REPS),
                                        str(SETUP_MIN_S)], env)
        else:
            tdir = work / "traced"
            shutil.rmtree(tdir, ignore_errors=True)
            traced.append(child("probe.py", ["trace", str(cfg_path), str(tdir),
                                             str(work / "trace.json"), repr(time.perf_counter())],
                                env))

    if not run_s:
        problems.append("no operation succeeded")
        metrics = {}
    elif args.trace:
        metrics = {name: statistics.median(t[name] for t in traced)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(t["traced_total_s"] for t in traced)
                                       - statistics.median(run_s))
    else:
        metrics = {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setup),
            "peak_mem_mb": statistics.median(mem),
        }
        if final_error is not None:
            metrics["final_tracking_error"] = final_error
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations attempted, "
          f"{failed} failed, outputs {'correct' if not problems else 'WRONG'}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(f"  run_s samples: {' '.join(f'{v:.3f}' for v in run_s)}"
          + (f"; {len(setup)} set-up samples" if setup else ""))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
