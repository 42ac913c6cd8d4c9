"""Scenario config parsing and validation (strict: unknown keys rejected)."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property, partial

import numpy as np

from . import control
from .errors import MALFORMED, ConfigError, NotSymmetric, located
from .graph import Graph
from .numerics import NumericsConfig, sym_eigvals
from .signals import (
    ZERO_INPUT, InputTable, LinearPlant, ReferenceSet, check_input, finite_numbers, plain_input,
)
from .sim import SimConfig

_TOP_KEYS = {
    "name", "graph", "plant", "agents", "algorithm", "design", "adaptive",
    "sim", "numerics", "assumptions",
}
# each design key's check, in the order they run, after Q's; design_gains holds their defaults
_DESIGN_CHECKS = {"margins": control.design_margins,
                  "eps": partial(control.in_range, "eps"), "phi": partial(control.in_range, "phi")}
# the adaptive keys: AdaptiveParams' fields that the design does not give, each
# mapped to whether it is needed (has no default)
_ADAPTIVE = {f.name: f.default is MISSING for f in fields(control.AdaptiveParams)
             if f.init and f.name not in {"K", "eps", "phi", "P"}}


def _check_keys(d: dict, allowed: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _section(cls, d: dict, where: str):
    """`cls` built from the config section `d`, whose keys must be fields of
    `cls`; the class converts and checks the values."""
    _check_keys(d, {f.name for f in fields(cls)}, where)
    return located(where, cls, **d)


# every value in a config is a number, null, or an object or list of such
# values, but at the top-level text keys, sim.integrator and an input's kind;
# the agents are checked by their own pass
_TEXT_KEYS = {"name", "algorithm", "assumptions"}
_PLAIN = {int, float, type(None)}
# an agent, its input and the input's kind, by their paths without the index
_AGENT_NOT_NUMBERS = {("agents",), ("agents", "input"), ("agents", "input", "kind")}


def _numbers_only(value, where: tuple) -> None:
    """Reject a boolean or a string anywhere but at the text keys: Python
    reads true as 1, and numpy reads "2.5" as 2.5. One in place of a
    section, an agent or its input is left to their parsers, which say that
    an object belongs there. A list of plain numbers is checked in one pass,
    as most of a config's values sit in such lists."""
    if isinstance(value, (bool, str)):
        if (len(where) > 1 and where != ("sim", "integrator")
                and where[:1] + where[2:] not in _AGENT_NOT_NUMBERS):
            path = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in where)[1:]
            raise ConfigError(f"{path}: must be a number, got {json.dumps(value)}")
        return
    items = (enumerate(value) if isinstance(value, list)
             else value.items() if isinstance(value, dict) else ())
    for key, child in items:
        kind = type(child)
        if not (kind in _PLAIN or kind is list and _PLAIN.issuperset(map(type, child))):
            _numbers_only(child, (*where, key))


def _initial_state(r0, n: int) -> np.ndarray:
    r0 = np.asarray(r0, dtype=float)
    if r0.shape != (n,) or not all(map(math.isfinite, r0.tolist())):
        raise ConfigError(f"must hold {n} finite numbers, got {r0.tolist()}")
    return r0


def _design_q(value, n: int) -> np.ndarray:
    """design.Q as a symmetric positive definite n x n array. solve_are checks
    the same, but a bad Q is a config fault, not a numerical failure."""
    Q = np.asarray(value, dtype=float)
    if Q.shape != (n, n):
        raise ConfigError(f"must be {n} x {n}, got shape {Q.shape}")
    if not np.isfinite(Q).all():
        raise ConfigError(f"must be finite, got {Q.tolist()}")
    try:
        smallest = sym_eigvals(Q)[0]
    except NotSymmetric:
        raise ConfigError("must be symmetric") from None
    if not smallest > 0:
        raise ConfigError(f"must be positive definite, but its smallest eigenvalue is {smallest:g}")
    return Q


@dataclass
class Scenario:
    """Validated scenario: everything a run needs, plus design inputs."""

    name: str
    graph: Graph
    reference_set: ReferenceSet
    algorithm: str
    design_Q: np.ndarray
    design: dict             # the design keywords the config gives, checked
    adaptive: dict | None
    sim: SimConfig
    numerics: NumericsConfig
    raw: dict = field(default_factory=dict)

    @cached_property
    def f0(self) -> float:
        """The input bound f0, computed once: design, diagnostics and `gains` read it."""
        return self.reference_set.inputs.bound()

    def build_static_gains(self) -> control.StaticGains:
        return control.design_gains(
            self.reference_set.plant,
            self.graph,
            self.design_Q,
            self.f0,
            cfg=self.numerics,
            **self.design,
        )

    def build_adaptive_params(self) -> control.AdaptiveParams:
        if self.adaptive is None:
            raise ConfigError("adaptive algorithm needs an 'adaptive' section")
        d = self.build_static_gains()
        return control.AdaptiveParams(K=d.K, eps=d.eps, phi=d.phi, P=d.P, **self.adaptive)


_AGENT_KEYS = {"r0", "input"}


def _plain_agent(agent, n: int, m: int) -> bool:
    """True for an agent that the initial states and InputTable read as it
    stands: known keys, r0 null or n finite numbers, and an input in the
    plain form (signals.plain_input)."""
    if type(agent) is not dict or not agent.keys() <= _AGENT_KEYS:
        return False
    r0 = agent.get("r0")
    if r0 is not None and not (type(r0) is list and len(r0) == n and finite_numbers(r0)):
        return False
    return plain_input(agent.get("input", ZERO_INPUT), m)


def _agent(k: int, agent, n: int) -> tuple[np.ndarray | None, dict]:
    """Agent k checked alone: its r0 (None where it is drawn) and its input,
    by signals.check_input. Its first fault raises, named by its index."""
    _check_keys(agent, _AGENT_KEYS, f"agents[{k}]")
    r0 = agent.get("r0")
    if r0 is not None:
        r0 = located(f"agents[{k}].r0", _initial_state, r0, n)
    return r0, check_input(agent.get("input", ZERO_INPUT), f"agents[{k}].input")


def _references(agents, plant: LinearPlant, seed: int | None) -> ReferenceSet:
    """The agents' reference set, with its initial states and InputTable each
    built once. An agent in the plain form goes in as it stands. Any other
    agent (a table input, a scalar amp, a fault, a number that is not
    finite) is checked alone: the odd agents' numbers first, as every
    section's are, then each odd agent by `_agent`, in agent order, so the
    first fault is the one an agent-by-agent parse would name. Its r0 and
    checked input take its place; each input is recognized or checked once,
    and the table checks the widths after all agents."""
    if not isinstance(agents, (list, tuple)):
        raise ConfigError("agents must be a JSON list")
    n, m = plant.n, plant.m
    odd = [k for k, a in enumerate(agents) if not _plain_agent(a, n, m)]
    for k in odd:
        _numbers_only(agents[k], ("agents", k))
    parsed = {k: _agent(k, agents[k], n) for k in odd}
    rows = [parsed.get(k) or (a.get("r0"), a.get("input", ZERO_INPUT))
            for k, a in enumerate(agents)]
    zero = [0.0] * n
    r0 = np.array([zero if r is None else r for r, _ in rows], dtype=float).reshape(len(rows), n)
    drawn = [k for k, (r, _) in enumerate(rows) if r is None]
    if drawn:
        # one draw for all null r0s has the bits of one per agent in agent
        # order; a fully specified scenario builds no generator
        rng = np.random.default_rng(0 if seed is None else seed)
        r0[drawn] = rng.standard_normal((len(drawn), n))
    return ReferenceSet(plant=plant, initial_states=r0,
                        inputs=InputTable._of_checked([d for _, d in rows], m))


def parse_scenario(cfg: dict, seed: int | None = None) -> Scenario:
    """Validate a scenario dict and build the typed objects.

    `seed` feeds only agents whose r0 is null (randomized initial states);
    fully specified scenarios are seed-free. A missing key or a value of the
    wrong type or shape raises ConfigError, as every other invalid config does.
    """
    try:
        return _parse(cfg, seed)
    except KeyError as exc:
        raise ConfigError(f"missing key {exc}") from exc
    except MALFORMED as exc:
        raise ConfigError(f"malformed value: {exc}") from exc


def _parse(cfg: dict, seed: int | None) -> Scenario:
    _check_keys(cfg, _TOP_KEYS, "scenario config")
    for key, value in cfg.items():
        if key not in _TEXT_KEYS and key != "agents":
            _numbers_only(value, (key,))
    gd = cfg["graph"]
    _check_keys(gd, {"n", "edges"}, "graph")
    n, edges = gd["n"], gd.get("edges", [])
    if not (isinstance(edges, (list, tuple)) and all(isinstance(e, (list, tuple)) for e in edges)):
        raise ConfigError("graph.edges must be a JSON list of node pairs")
    g = located("graph", Graph, n_nodes=n, edges=edges)
    plant = _section(LinearPlant, cfg["plant"], "plant")

    rs = _references(cfg["agents"], plant, seed)
    if g.n_nodes != rs.n_agents:
        raise ConfigError("graph node count must equal the number of agents")

    algorithm = cfg["algorithm"]
    if algorithm not in control.LAWS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")

    dd = cfg.get("design", {})
    _check_keys(dd, {"Q", *_DESIGN_CHECKS}, "design")
    Q = located("design.Q", _design_q, dd["Q"] if "Q" in dd else np.eye(plant.n), plant.n)
    design = {k: located(f"design.{k}", check, dd[k])
              for k, check in _DESIGN_CHECKS.items() if k in dd}

    # AdaptiveParams fields, all numbers, checked whatever the algorithm
    ad = cfg.get("adaptive")
    if ad is not None:
        _check_keys(ad, set(_ADAPTIVE), "adaptive")
        ad = {k: located(f"adaptive.{k}", control.in_range, k, v) for k, v in ad.items()}
    if algorithm == "adaptive":
        missing = sorted(k for k, needed in _ADAPTIVE.items() if needed and k not in (ad or ()))
        if missing:
            raise ConfigError(f"adaptive algorithm needs {missing} in an 'adaptive' section")

    return Scenario(
        name=str(cfg.get("name", "unnamed")),
        graph=g,
        reference_set=rs,
        algorithm=algorithm,
        design_Q=Q,
        design=design,
        adaptive=ad,
        sim=_section(SimConfig, cfg["sim"], "sim"),
        numerics=_section(NumericsConfig, cfg.get("numerics", {}), "numerics"),
        raw=cfg,
    )
