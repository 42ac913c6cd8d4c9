"""Command-line front end: gain reports, simulation runs, canned scenarios.

Exit codes: 0 success, 1 runtime/numerical failure, 2 config/validation or
gain-design failure; `main` alone maps errors to them. A config file may hold
a list of scenarios (parameter sweep). Scenarios that share the plant, K and
the sim block integrate as one closed loop on the disjoint union of their
graphs, whatever their laws and adaptive rates. Groups run one at a time, in
the order of their first scenario, and each writes its scenarios' files
(byte-identical to runs alone) once it has run; a failing group writes none
and ends the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import scenarios as canned
from . import sim
from .analysis import theorem_constants
from .config import Scenario, parse_scenario
from .control import AdaptiveParams, StaticGains
from .errors import (
    AvgTrackError, ConfigError, NoConvergence, NonFinite, NotConnected, NotStabilizable,
    NotSymmetric, SingularSystem,
)
from .report import write_outputs


def _load_configs(path: str, seed: int | None, sim: dict | None = None) -> list[Scenario]:
    """The scenarios of the config file, each with the given `sim` entries
    (--dt, --t-end) put into its sim block before it is checked, so that
    summary.json records them too."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    items = raw if isinstance(raw, list) else [raw]
    if not items:
        raise ConfigError(f"config {path} holds an empty list of scenarios")
    given = {k: v for k, v in (sim or {}).items() if v is not None}
    if given:
        # a sim block that is not an object is left for the parser to reject
        items = [dict(item, sim=dict(item["sim"], **given))
                 if isinstance(item, dict) and isinstance(item.get("sim"), dict) else item
                 for item in items]
    return [parse_scenario(item, seed=seed) for item in items]


def _fmt_matrix(name: str, m: np.ndarray) -> str:
    rows = ["  [" + ", ".join(f"{v: .6f}" for v in row) + "]" for row in np.atleast_2d(m)]
    return f"{name} =\n" + "\n".join(rows)


def _gain_report(scn: Scenario) -> str:
    gains = scn.build_static_gains()
    consts = theorem_constants(gains.P, scn.design_Q, scn.graph, scn.f0)
    return "\n".join([
        f"scenario: {scn.name}",
        "stabilizability: (A, B) is stabilizable",
        _fmt_matrix("P", gains.P),
        _fmt_matrix("K", gains.K),
        _fmt_matrix("Gamma", gains.K.T @ gains.K),
        f"lambda2 = {scn.graph.lambda2:.6f}",
        f"f0 = {scn.f0:.6f}",
        f"c1 = {gains.c1:.6f}",
        f"c2 = {gains.c2:.6f}",
        f"gamma = {consts.gamma:.6f}",
    ])


def cmd_gains(args: argparse.Namespace) -> int:
    # every scenario is designed before anything is printed, as `run` does
    reports = [_gain_report(scn) for scn in _load_configs(args.config, seed=None)]
    print("\n\n".join(reports))
    return 0


def _design(scn: Scenario) -> StaticGains | AdaptiveParams:
    return scn.build_adaptive_params() if scn.algorithm == "adaptive" else scn.build_static_gains()


def _group_key(i: int, scn: Scenario, gains: StaticGains | AdaptiveParams) -> tuple:
    """Scenarios with equal keys run as one closed loop on the disjoint union
    of their graphs: they share A, B and K bit for bit and the whole sim
    block, whatever their laws and adaptive rates."""
    # Where numpy forms a product with one or two edge rows, or over eight or
    # more states or inputs, a row's bits can depend on its place in the
    # product, so such a scenario would not keep its bits in a union
    plant = scn.reference_set.plant
    if scn.graph.n_edges < 3 or max(plant.n, plant.m) > 7:
        return ("alone", i)
    return (plant.A.tobytes(), plant.B.tobytes(), gains.K.tobytes(), scn.sim)


# the per-step check reports a blow-up, and an overflow in the certificates
# of a finite run reads inf; numpy's warnings would add lines
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _run_group(group: list[tuple[Scenario, StaticGains | AdaptiveParams, Path]]) -> None:
    # the group's record arrays die with the call
    first = group[0][0]
    try:
        trajs = sim.run_blocks(
            [(scn.graph, scn.reference_set, gains) for scn, gains, _ in group], first.sim,
            mode=[scn.algorithm for scn, _, _ in group],
        )
    except NonFinite as exc:
        raise NonFinite(f"scenario {group[exc.block][0].name!r}: {exc}", time=exc.time) from exc
    for (scn, gains, out_dir), traj in zip(group, trajs):
        write_outputs(out_dir, scn, gains, traj)


def cmd_run(args: argparse.Namespace) -> int:
    # checked for every config, also one whose r0s are all given and draw no seed
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed {args.seed}: must be a non-negative integer")
    scns = _load_configs(args.config, seed=args.seed, sim={"dt": args.dt, "t_end": args.t_end})
    names = Counter(s.name for s in scns) if len(scns) > 1 else Counter()  # a list's directories
    bad = sorted(name for name, k in names.items()
                 if k > 1 or name in ("", ".", "..") or any(c in name for c in "/\\\0"))
    if bad:
        raise ConfigError(f"scenario name(s) {bad} do not each name a subdirectory of --out; give "
                          "each scenario of a list its own 'name', not empty, '.' or '..', and "
                          "without '/', '\\' or NUL")
    out_dirs = [Path(args.out, scn.name) if names else Path(args.out) for scn in scns]
    # write_outputs makes the directories, which a file in their place fails
    for path in (p for out_dir in out_dirs for p in (out_dir, *out_dir.parents)):
        if os.path.lexists(path) and not os.path.isdir(path):
            raise ConfigError(f"--out {args.out}: {path} exists and is not a directory")
    groups: dict[tuple, list] = {}
    for i, (scn, out_dir) in enumerate(zip(scns, out_dirs)):
        gains = _design(scn)
        groups.setdefault(_group_key(i, scn, gains), []).append((scn, gains, out_dir))
    for group in groups.values():
        _run_group(group)
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    json.dump(canned.scenario_config(args.name), sys.stdout, indent=2)
    print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="avgtrack", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gains", help="print the designed gains for a scenario")
    g.add_argument("--config", required=True)
    g.set_defaults(func=cmd_gains)

    r = sub.add_parser("run", help="simulate a scenario and write CSV/JSON outputs")
    r.add_argument("--config", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--dt", type=float, default=None)
    r.add_argument("--t-end", dest="t_end", type=float, default=None)
    r.add_argument("--seed", type=int, default=None)
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("scenario", help="emit a canned scenario config as JSON")
    s.add_argument("name")
    s.set_defaults(func=cmd_scenario)
    return p


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only place that turns errors into exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NotConnected, NotStabilizable, NotSymmetric, NoConvergence, SingularSystem) as exc:
        print(f"design failed: {exc}", file=sys.stderr)
        return 2
    except NonFinite as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except (AvgTrackError, OSError) as exc:      # OSError: a file could not be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
