"""In-process probes of avgtrack, run as a child of run.py with src/ on the path.

    python3 probe.py setup CONFIG REPS MIN_SECONDS
        Times set-up (load the config, parse every scenario, design its gains)
        REPS times and at least MIN_SECONDS long; prints the times as JSON.

    python3 probe.py trace CONFIG OUT TRACE_FILE SPAWN_TIME
        The traced run: calls each layer's public functions in turn, with a
        span around each call, then times single calls into control and
        signals on states from the run's own trajectory and the CLI's sweep
        path. Prints the per-layer metrics as JSON and writes the spans to
        TRACE_FILE. SPAWN_TIME is the parent's time.perf_counter() when it
        started this process (the clock is system-wide on Linux), so the root
        span covers interpreter start and imports as `avgtrack run` does.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

MB = 2**20


class Tracer:
    """Spans kept in memory: name, start, end and parent, written out at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, start: float | None = None):
        s = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() if start is None else start,
        }
        self.spans.append(s)
        self._open.append(s["id"])
        try:
            yield s
        finally:
            s["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span with this name, in seconds."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def dump(self, path: Path) -> None:
        """Write the spans with their self time: duration minus the time that
        their (sequential) child spans cover."""
        child = {s["id"]: 0.0 for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = [dict(s, self_s=s["end"] - s["start"] - child[s["id"]]) for s in self.spans]
        path.write_text(json.dumps({"spans": out}, indent=1) + "\n")


def load_items(path: str) -> list[dict]:
    with open(path) as fh:
        raw = json.load(fh)
    return raw if isinstance(raw, list) else [raw]


def design(scn):
    return scn.build_adaptive_params() if scn.algorithm == "adaptive" else scn.build_static_gains()


def setup(path: str, reps: int, min_seconds: float) -> list[float]:
    from avgtrack import parse_scenario

    times: list[float] = []
    t_stop = time.perf_counter() + min_seconds
    while len(times) < reps or time.perf_counter() < t_stop:
        t0 = time.perf_counter()
        for item in load_items(path):
            design(parse_scenario(item))
        times.append(time.perf_counter() - t0)
    return times


def per_call_us(fn, cases: list[tuple], budget_s: float = 0.3) -> float:
    """Median over batches of the mean time of one call, in microseconds.
    A batch cycles through `cases` and lasts about 20 ms."""
    for args in cases:
        fn(*args)
    t0 = time.perf_counter()
    for args in cases:
        fn(*args)
    reps = max(1, int(0.02 / max(time.perf_counter() - t0, 1e-9)))
    calls = reps * len(cases)
    batches: list[float] = []
    t_stop = time.perf_counter() + budget_s
    while len(batches) < 5 or time.perf_counter() < t_stop:
        t0 = time.perf_counter()
        for _ in range(reps):
            for args in cases:
                fn(*args)
        batches.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(batches)


def kernels(scn, gains, traj) -> dict:
    """Single calls into control and signals on states from the trajectory."""
    import numpy as np

    from avgtrack import control

    rs, g = scn.reference_set, scn.graph
    static = gains if isinstance(gains, control.StaticGains) else scn.build_static_gains()
    if isinstance(gains, control.AdaptiveParams):
        adaptive = gains
    else:
        adaptive = control.AdaptiveParams(
            K=static.K, Gamma=static.K.T @ static.K, mu=10.0, nu=10.0, theta=0.01, chi=0.01,
            eps=static.eps, phi=static.phi, P=static.P,
        )
    E = g.n_edges
    cases = []
    for k in np.linspace(0, len(traj.times) - 1, 8).astype(int):
        t, x = float(traj.times[k]), traj.x[k]
        alpha = traj.alpha[k] if traj.alpha is not None else np.full(E, static.c1)
        beta = traj.beta[k] if traj.beta is not None else np.full(E, static.c2)
        cases.append((t, x, rs.eval_inputs(t), alpha, beta, control.edge_signals(x, static.K, g)))
    return {
        "signals.eval_inputs_us": per_call_us(rs.eval_inputs, [(c[0],) for c in cases]),
        "control.static_rhs_us": per_call_us(
            lambda t, x, f: control.static_rhs(control.NetworkState(t=t, x=x), rs, static, g,
                                               inputs=f),
            [c[:3] for c in cases]),
        "control.adaptive_rhs_us": per_call_us(
            lambda t, x, f, a, b: control.adaptive_rhs(
                control.NetworkState(t=t, x=x, alpha=a, beta=b), rs, adaptive, g, inputs=f),
            [c[:5] for c in cases]),
        "control.boundary_layer_us": per_call_us(
            lambda t, w: control.boundary_layer(w, static.eps, static.phi, t),
            [(c[0], c[5]) for c in cases]),
    }


def trace(path: str, out: Path, trace_file: Path, spawn: float) -> dict:
    tr = Tracer()
    runs = []
    with tr.span("avgtrack run", start=spawn):
        with tr.span("import"):
            from avgtrack import graph, numerics, parse_scenario, report, sim
        with tr.span("config.load"):
            items = load_items(path)
        for item in items:
            with tr.span("scenario"):
                with tr.span("config.parse_scenario"):
                    scn = parse_scenario(item)
                with tr.span("control.design_gains"):
                    gains = design(scn)
                with tr.span("sim.run"):
                    traj = sim.run(scn.graph, scn.reference_set, gains, scn.sim, mode=scn.algorithm)
                d = out / scn.name if len(items) > 1 else out
                d.mkdir(parents=True, exist_ok=True)
                with tr.span("report.diagnostics_series"):
                    diag = report.diagnostics_series(scn, gains, traj)
                with tr.span("report.build_summary"):
                    summary = report.build_summary(scn, gains, traj, diag)
                with tr.span("report.write_trajectory_csv"):
                    report.write_trajectory_csv(d / "trajectory.csv", scn, traj)
                with tr.span("report.write_diagnostics_csv"):
                    report.write_diagnostics_csv(d / "diagnostics.csv", diag)
                with tr.span("report.write_summary_json"):
                    with (d / "summary.json").open("w") as fh:
                        json.dump(summary, fh, indent=2, sort_keys=True)
                        fh.write("\n")
            runs.append((scn, gains, traj, d))
    traced_total = tr.spans[0]["end"] - spawn

    # Layers that the run above reaches only inside other calls, timed alone.
    are_iterations = 0
    with tr.span("layers"):
        for scn, _, _, _ in runs:
            plant = scn.reference_set.plant
            with tr.span("numerics.solve_are"):
                sol = numerics.solve_are(plant.A, plant.B, scn.design_Q, scn.numerics)
            are_iterations += sol.iterations
            with tr.span("graph.lambda2"):
                graph.lambda2(scn.graph)
            with tr.span("graph.laplacian"):
                graph.laplacian(scn.graph)
            with tr.span("graph.incidence_matrix"):
                graph.incidence_matrix(scn.graph)
        with tr.span("kernels"):
            micro = kernels(*runs[0][:3])
    with tr.span("cli"):
        from avgtrack import cli

        os.environ.pop("AVGTRACK_THREADS", None)
        with tr.span("cli.main default threads"):
            rc_pool = cli.main(["run", "--config", path, "--out", str(out / "cli-pool")])
        os.environ["AVGTRACK_THREADS"] = "1"
        with tr.span("cli.main one thread"):
            rc_serial = cli.main(["run", "--config", path, "--out", str(out / "cli-serial")])
        del os.environ["AVGTRACK_THREADS"]
    if rc_pool or rc_serial:
        raise SystemExit(f"cli.main exited {rc_pool} with the default threads, "
                         f"{rc_serial} with one")
    tr.dump(trace_file)

    steps = rhs_calls = nbytes = rows = 0
    for scn, _, traj, d in runs:
        n = int(round(scn.sim.t_end / scn.sim.dt))
        steps += n
        rhs_calls += n * (4 if scn.sim.integrator == "rk4" else 1)
        arrays = (traj.times, traj.x, traj.r, traj.alpha, traj.beta)
        nbytes += sum(a.nbytes for a in arrays if a is not None)
        for name in ("trajectory.csv", "diagnostics.csv"):
            with (d / name).open("rb") as fh:
                rows += sum(1 for _ in fh) - 1
    written = sum((d / f).stat().st_size for *_, d in runs
                  for f in ("trajectory.csv", "diagnostics.csv", "summary.json"))
    write_s = sum(tr.total(n) for n in ("report.write_trajectory_csv",
                                        "report.write_diagnostics_csv",
                                        "report.write_summary_json"))
    sim_s = tr.total("sim.run")
    sweep_s = tr.total("cli.main default threads")
    serial_s = tr.total("cli.main one thread")
    return {
        "config.parse_ms": tr.total("config.parse_scenario") * 1e3,
        "numerics.solve_are_ms": tr.total("numerics.solve_are") * 1e3,
        "numerics.are_iterations": are_iterations,
        "graph.lambda2_ms": tr.total("graph.lambda2") * 1e3,
        "graph.laplacian_ms": tr.total("graph.laplacian") * 1e3,
        "graph.incidence_matrix_ms": tr.total("graph.incidence_matrix") * 1e3,
        "control.design_gains_ms": tr.total("control.design_gains") * 1e3,
        **micro,
        "sim.run_s": sim_s,
        "sim.us_per_rhs": sim_s / rhs_calls * 1e6,
        "sim.steps_per_s": steps / sim_s,
        "sim.trajectory_mb": nbytes / MB,
        "report.diagnostics_ms": tr.total("report.diagnostics_series") * 1e3,
        "report.summary_ms": tr.total("report.build_summary") * 1e3,
        "report.trajectory_csv_ms": tr.total("report.write_trajectory_csv") * 1e3,
        "report.rows_written": rows,
        "report.bytes_written": written,
        "report.write_mb_per_s": written / MB / write_s,
        "cli.sweep_s": sweep_s,
        "cli.serial_s": serial_s,
        "cli.pool_speedup": serial_s / sweep_s,
        "traced_total_s": traced_total,
    }


def main(argv: list[str]) -> None:
    mode, path = argv[0], argv[1]
    if mode == "setup":
        print(json.dumps(setup(path, int(argv[2]), float(argv[3]))))
    elif mode == "trace":
        print(json.dumps(trace(path, Path(argv[2]), Path(argv[3]), float(argv[4]))))
    else:
        raise SystemExit(f"unknown probe {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
