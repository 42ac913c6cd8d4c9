"""Workload generators: each turns a seed into the config file that
`avgtrack run` reads. The same seed gives byte-identical text.

The Sec. 5 configs are written out here rather than fetched from the
program's canned scenarios, so that a change to the program cannot change
the benchmark's inputs.
"""

from __future__ import annotations

import json

import numpy as np

SEC5_A = [[0.0, 1.0], [-1.0, -2.0]]
SEC5_B = [[0.0], [1.0]]
SEC5_ADAPTIVE = {"mu": 10.0, "nu": 10.0, "theta": 0.01, "chi": 0.01, "alpha0": 0.0, "beta0": 0.0}

SWEEP_SIZE = 6
SWEEP_T_END = 1.5
SWEEP_LAWS = ("static", "discontinuous", "adaptive")

NET_AGENTS = 1000
NET_CHORDS = 1000
NET_T_END = 0.5
NET_RECORD_EVERY = 10


def _ring(n: int) -> list[list[int]]:
    return [[i, (i + 1) % n] for i in range(n)]


def sec5(algorithm: str) -> dict:
    """The paper's Sec. 5 example: six agents on a ring, second-order plant,
    inputs (i+1)/2 * sin t and r_i(0) = (i, -i) for 1-based i."""
    cfg = {
        "name": f"paper-sec5-{algorithm}",
        "graph": {"n": 6, "edges": _ring(6)},
        "plant": {"A": SEC5_A, "B": SEC5_B},
        "agents": [
            {
                "r0": [float(i), float(-i)],
                "input": {"kind": "sinusoid", "amp": [(i + 1) / 2.0], "omega": 1.0, "phase": 0.0},
            }
            for i in range(1, 7)
        ],
        "algorithm": algorithm,
        "design": {"Q": [[1.0, 0.0], [0.0, 1.0]], "margins": [1.0, 1.0], "eps": 5.0, "phi": 0.5},
        "sim": {"t_end": 20.0, "dt": 1e-3, "record_every": 10},
    }
    if algorithm == "adaptive":
        cfg["adaptive"] = dict(SEC5_ADAPTIVE)
    return cfg


def sweep(seed: int) -> list[dict]:
    """Sec. 5 variants that cycle through the three laws. Each moves the
    paper's initial states by up to 0.1 per entry and draws the boundary-layer
    width eps and decay rate phi near the paper's values, all from the seed,
    and has a name of its own, so no two share an output directory. The
    draws stay narrow so that the run's final error moves little with the
    seed."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for k in range(SWEEP_SIZE):
        law = SWEEP_LAWS[k % len(SWEEP_LAWS)]
        cfg = sec5(law)
        cfg["name"] = f"sweep-{k:02d}-{law}"
        for agent, shift in zip(cfg["agents"], rng.uniform(-0.1, 0.1, size=(6, 2))):
            agent["r0"] = [float(v) for v in agent["r0"] + shift]
        cfg["design"]["eps"] = float(rng.uniform(4.8, 5.2))
        cfg["design"]["phi"] = float(rng.uniform(0.48, 0.52))
        cfg["sim"]["t_end"] = SWEEP_T_END
        out.append(cfg)
    return out


def network_edges(seed: int) -> list[list[int]]:
    """A ring of NET_AGENTS nodes plus NET_CHORDS distinct random chords. The chords lift lambda2
    from about 4e-5 (bare ring) to about 0.31, which keeps RK4 stable at the
    shipped dt."""
    rng = np.random.default_rng([seed, 2])
    ring = [tuple(sorted(e)) for e in _ring(NET_AGENTS)]
    edges = set(ring)
    while len(edges) < NET_AGENTS + NET_CHORDS:
        i, j = (int(v) for v in rng.integers(0, NET_AGENTS, size=2))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return [list(e) for e in ring] + sorted(list(e) for e in edges.difference(ring))


def network_1k(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    # initial states at random angles on a circle of radius 2: every agent
    # starts about as far from the average, so the largest final error
    # moves little with the seed
    angle = rng.uniform(0.0, 2.0 * np.pi, size=NET_AGENTS)
    r0 = 2.0 * np.column_stack([np.cos(angle), np.sin(angle)])
    amp = rng.uniform(0.5, 1.0, size=NET_AGENTS)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=NET_AGENTS)
    return {
        "name": "network-1k",
        "graph": {"n": NET_AGENTS, "edges": network_edges(seed)},
        "plant": {"A": SEC5_A, "B": SEC5_B},
        "agents": [
            {
                "r0": [float(v) for v in r0[i]],
                "input": {"kind": "sinusoid", "amp": [float(amp[i])], "omega": 1.0,
                          "phase": float(phase[i])},
            }
            for i in range(NET_AGENTS)
        ],
        "algorithm": "static",
        "design": {"Q": [[1.0, 0.0], [0.0, 1.0]], "margins": [1.0, 1.0], "eps": 5.0, "phi": 0.5},
        "sim": {"t_end": NET_T_END, "dt": 1e-3, "record_every": NET_RECORD_EVERY},
    }


GENERATORS = {
    "sec5-static": lambda seed: sec5("static"),
    "sec5-adaptive": lambda seed: sec5("adaptive"),
    "sweep": sweep,
    "network-1k": network_1k,
}


def config_text(workload: str, seed: int) -> str:
    """The config file's text for one workload and seed."""
    return json.dumps(GENERATORS[workload](seed), indent=1, sort_keys=True) + "\n"
