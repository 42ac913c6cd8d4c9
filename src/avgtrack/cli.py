"""Command-line front end: gain reports, simulation runs, canned scenarios.

Exit codes: 0 success, 1 runtime/numerical failure, 2 config/validation
failure. A config file may hold a list of scenarios (parameter sweep); they
run one after another in file order, each into its own subdirectory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import scenarios as canned
from . import sim
from .config import Scenario, parse_scenario
from .errors import AvgTrackError, ConfigError, NonFinite, NotConnected, NotStabilizable
from .report import write_outputs
from .signals import input_bound


def _load_configs(path: str, seed: int | None) -> list[Scenario]:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    items = raw if isinstance(raw, list) else [raw]
    return [parse_scenario(item, seed=seed) for item in items]


def _fmt_matrix(name: str, m: np.ndarray) -> str:
    rows = ["  [" + ", ".join(f"{v: .6f}" for v in row) + "]" for row in np.atleast_2d(m)]
    return f"{name} =\n" + "\n".join(rows)


def cmd_gains(args: argparse.Namespace) -> int:
    scn = _load_configs(args.config, seed=None)[0]
    plant = scn.reference_set.plant
    try:
        gains = scn.build_static_gains()
    except NotConnected:
        print("design step 2 failed: the communication graph is not connected", file=sys.stderr)
        return 2
    except NotStabilizable:
        print("design step 1 failed: (A, B) is not stabilizable, the ARE has no "
              "positive-definite solution", file=sys.stderr)
        return 2
    Gamma = gains.K.T @ gains.K
    qmin = float(np.linalg.eigvalsh(scn.design_Q)[0])
    pmax = float(np.linalg.eigvalsh(gains.P)[-1])
    print(f"scenario: {scn.name}")
    print("stabilizability: (A, B) is stabilizable")
    print(_fmt_matrix("P", gains.P))
    print(_fmt_matrix("K", gains.K))
    print(_fmt_matrix("Gamma", Gamma))
    print(f"lambda2 = {scn.lambda2:.6f}")
    print(f"f0 = {input_bound(scn.reference_set):.6f}")
    print(f"c1 = {gains.c1:.6f}")
    print(f"c2 = {gains.c2:.6f}")
    print(f"gamma = {qmin / pmax:.6f}")
    return 0


def _with_overrides(scn: Scenario, overrides: dict) -> Scenario:
    """The scenario with the given --dt / --t-end applied, both to the run
    and to the config that summary.json records."""
    given = {k: v for k, v in overrides.items() if v is not None}
    raw = dict(scn.raw, sim=dict(scn.raw.get("sim", {}), **given))
    return dataclasses.replace(scn, sim=dataclasses.replace(scn.sim, **given), raw=raw)


def _run_one(scn: Scenario, out_dir: Path) -> dict:
    if scn.algorithm == "adaptive":
        gains = scn.build_adaptive_params()
    else:
        gains = scn.build_static_gains()
    traj = sim.run(scn.graph, scn.reference_set, gains, scn.sim, mode=scn.algorithm)
    return write_outputs(out_dir, scn, gains, traj)


def cmd_run(args: argparse.Namespace) -> int:
    overrides = {"dt": args.dt, "t_end": args.t_end}
    scns = [_with_overrides(s, overrides) for s in _load_configs(args.config, seed=args.seed)]
    clash = sorted(name for name, k in Counter(s.name for s in scns).items() if k > 1)
    if clash:
        raise ConfigError(f"scenarios share the name(s) {clash} and so an output directory; "
                          "give each scenario of a list its own 'name'")
    out_root = Path(args.out)
    try:
        for scn in scns:
            _run_one(scn, out_root / scn.name if len(scns) > 1 else out_root)
    except NonFinite as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except (NotConnected, NotStabilizable) as exc:
        print(f"design failed: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    try:
        cfg = canned.scenario_config(args.name)
    except KeyError:
        print(
            f"unknown scenario {args.name!r}; valid names: {', '.join(canned.NAMES)}",
            file=sys.stderr,
        )
        return 2
    json.dump(cfg, sys.stdout, indent=2)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonFinite as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except AvgTrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
