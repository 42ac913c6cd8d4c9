"""Canned scenario configs, including the bundled six-agent benchmark."""

from __future__ import annotations

import copy

from .errors import ConfigError


def _ring_edges(n: int) -> list[list[int]]:
    return [[i, (i + 1) % n] for i in range(n)]


def _sec5_base() -> dict:
    # Six agents, second-order plant, inputs (i+1)/2 * sin t (1-based i).
    # The source figure for the topology and the initial states are not
    # recoverable; the ring and r_i(0) = (i, -i) are documented stand-ins.
    return {
        "name": "paper-sec5-static",
        "graph": {"n": 6, "edges": _ring_edges(6)},
        "plant": {"A": [[0.0, 1.0], [-1.0, -2.0]], "B": [[0.0], [1.0]]},
        "agents": [
            {
                "r0": [float(i), float(-i)],
                "input": {"kind": "sinusoid", "amp": [(i + 1) / 2.0], "omega": 1.0, "phase": 0.0},
            }
            for i in range(1, 7)
        ],
        "algorithm": "static",
        "design": {"Q": [[1.0, 0.0], [0.0, 1.0]], "margins": [1.0, 1.0], "eps": 5.0, "phi": 0.5},
        "sim": {"t_end": 20.0, "dt": 1e-3, "record_every": 10},
        "assumptions": {
            "topology": "ring of 6 (stand-in: source topology figure unavailable)",
            "initial_states": "r_i(0) = (i, -i), 1-based i (stand-in: not given in source)",
            "couplings": "minimal compliant values: c1 = 1/(2*lambda2), c2 = f0*(N-1)",
        },
    }


def _sec5_adaptive() -> dict:
    cfg = _sec5_base()
    cfg["name"] = "paper-sec5-adaptive"
    cfg["algorithm"] = "adaptive"
    cfg["adaptive"] = {
        "mu": 10.0,
        "nu": 10.0,
        "theta": 0.01,
        "chi": 0.01,
        "alpha0": 0.0,
        "beta0": 0.0,
    }
    return cfg


def _twin_integrator() -> dict:
    # Double integrator: A not asymptotically stable, so the filter initial
    # condition s_i(0) = 0 is load-bearing for the sum invariant.
    return {
        "name": "twin-integrator",
        "graph": {"n": 2, "edges": [[0, 1]]},
        "plant": {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
        "agents": [
            {"r0": [1.0, 0.0], "input": {"kind": "sinusoid", "amp": [1.0], "omega": 1.0, "phase": 0.0}},
            {"r0": [-1.0, 0.5], "input": {"kind": "constant", "value": [0.5]}},
        ],
        "algorithm": "static",
        "design": {"eps": 5.0, "phi": 0.5},
        "sim": {"t_end": 10.0, "dt": 1e-3, "record_every": 10},
    }


def _ring_demo() -> dict:
    return {
        "name": "ring-demo",
        "graph": {"n": 4, "edges": _ring_edges(4)},
        "plant": {"A": [[-0.5, 1.0], [-1.0, -0.5]], "B": [[0.0], [1.0]]},
        "agents": [
            {"r0": [1.0, 0.0], "input": {"kind": "sinusoid", "amp": [1.0], "omega": 2.0, "phase": 0.0}},
            {"r0": [0.0, 1.0], "input": {"kind": "constant", "value": [1.0]}},
            {"r0": [-1.0, 0.0], "input": {"kind": "zero"}},
            {"r0": [0.0, -1.0], "input": {"kind": "sinusoid", "amp": [0.5], "omega": 1.0, "phase": 1.0}},
        ],
        "algorithm": "static",
        "design": {"eps": 2.0, "phi": 0.5},
        "sim": {"t_end": 15.0, "dt": 1e-3, "record_every": 10},
    }


_BUILDERS = {
    "paper-sec5-static": _sec5_base,
    "paper-sec5-adaptive": _sec5_adaptive,
    "twin-integrator": _twin_integrator,
    "ring-demo": _ring_demo,
}

NAMES = tuple(sorted(_BUILDERS))


def scenario_config(name: str) -> dict:
    """Return a deep copy of the named canned scenario config."""
    if name not in _BUILDERS:
        raise ConfigError(f"unknown scenario {name!r}; valid names: {', '.join(NAMES)}")
    return copy.deepcopy(_BUILDERS[name]())
