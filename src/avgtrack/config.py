"""Scenario config parsing and validation (strict: unknown keys rejected)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import control
from .errors import MALFORMED, ConfigError, NotSymmetric, located
from .graph import Graph
from .numerics import NumericsConfig, sym_eigvals
from .signals import InputDescriptor, InputTable, LinearPlant, ReferenceSet, input_bound
from .sim import SimConfig

_TOP_KEYS = {
    "name", "graph", "plant", "agents", "algorithm", "design", "adaptive",
    "sim", "numerics", "assumptions",
}
_DESIGN_KEYS = {"Q", "margins", "eps", "phi"}
_ADAPTIVE_KEYS = {"mu", "nu", "theta", "chi", "alpha0", "beta0"}
_INPUT_KEYS = {
    "zero": {"kind"},
    "constant": {"kind", "value"},
    "sinusoid": {"kind", "amp", "omega", "phase"},
    "table": {"kind", "times", "values"},
}


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
    margins: tuple[float, float]
    eps: float
    phi: float
    adaptive: dict | None
    sim: SimConfig
    numerics: NumericsConfig
    raw: dict = field(default_factory=dict)

    @cached_property
    def f0(self) -> float:
        """The input bound f0, computed once: design, diagnostics and `gains` read it."""
        return input_bound(self.reference_set)

    def build_static_gains(self) -> control.StaticGains:
        return control.design_gains(
            self.reference_set.plant,
            self.graph,
            self.design_Q,
            self.f0,
            eps=self.eps,
            phi=self.phi,
            margins=self.margins,
            cfg=self.numerics,
        )

    def build_adaptive_params(self) -> control.AdaptiveParams:
        if self.adaptive is None:
            raise ConfigError("adaptive algorithm needs an 'adaptive' section")
        P, K = control.feedback_gain(self.reference_set.plant, self.design_Q, self.numerics)
        return control.AdaptiveParams(K=K, eps=self.eps, phi=self.phi, P=P, **self.adaptive)


_AGENT_KEYS = {"r0", "input"}
_ZERO = {"kind": "zero"}
_NUMBER = {int, float}
# the list each parametric kind needs, of one entry per input
_VECTOR = {"zero": (), "constant": ("value",), "sinusoid": ("amp",)}


def _plain_agent(agent, n: int, m: int) -> bool:
    """True for an agent that the array pass reads as it stands: known keys,
    r0 null or n numbers, and an input of a parametric kind with its keys,
    its list of m numbers and number omega and phase."""
    if type(agent) is not dict or not agent.keys() <= _AGENT_KEYS:
        return False
    r0 = agent.get("r0")
    if r0 is not None and not (type(r0) is list and len(r0) == n
                               and _NUMBER.issuperset(map(type, r0))):
        return False
    d = agent.get("input", _ZERO)
    kind = d.get("kind") if type(d) is dict else None
    if type(kind) is not str or kind not in _VECTOR or not d.keys() <= _INPUT_KEYS[kind]:
        return False
    for key in _VECTOR[kind]:
        v = d.get(key)
        if not (type(v) is list and len(v) == m and _NUMBER.issuperset(map(type, v))):
            return False
    return type(d.get("omega", 1.0)) in _NUMBER and type(d.get("phase", 0.0)) in _NUMBER


def _parse_input(d: dict, where: str) -> InputDescriptor:
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind not in _INPUT_KEYS:
        raise ConfigError(f"{where}: input kind {kind!r} is not one of {sorted(_INPUT_KEYS)}")
    _check_keys(d, _INPUT_KEYS[kind], where)
    # InputDescriptor converts the fields and checks that the kind has them
    return located(where, InputDescriptor, **d)


def _agent(k: int, agent, n: int) -> tuple[np.ndarray | None, InputDescriptor]:
    """Agent k checked alone: its r0 (None where it is drawn) and its input.
    Its first fault raises, named by its index."""
    _check_keys(agent, _AGENT_KEYS, f"agents[{k}]")
    r0 = agent.get("r0")
    if r0 is not None:
        r0 = located(f"agents[{k}].r0", _initial_state, r0, n)
    return r0, _parse_input(agent.get("input", _ZERO), f"agents[{k}].input")


def _references(agents, plant: LinearPlant, seed: int | None) -> ReferenceSet:
    """The agents' reference set, built in whole-array passes.

    An agent in the plain form goes into the (N, n) initial states and the
    input table as it stands, and one isfinite per array checks all of them.
    Any other agent (a table input, a scalar amp, a fault, a non-finite
    number) is then checked alone by `_agent`, in agent order, after the
    agents' numbers are checked as every section's are: the first fault is
    the one an agent-by-agent parse would name."""
    if type(agents) is not list:
        _numbers_only(agents, ("agents",))
        agents = list(agents)
    N, n, m = len(agents), plant.n, plant.m
    plain = [_plain_agent(a, n, m) for a in agents]
    # the plain agents' numbers as they stand, zeros in the others' rows
    rows = [a if ok else {} for a, ok in zip(agents, plain)]
    inputs = [a.get("input", _ZERO) for a in rows]
    kinds = [d["kind"] for d in inputs]
    zero_n, zero_m = [0.0] * n, [0.0] * m
    try:
        r0 = np.array([a.get("r0") or zero_n for a in rows], dtype=float).reshape(N, n)
        amp = np.array([d.get("amp", zero_m) for d in inputs], dtype=float).reshape(N, m)
        const = np.array([d.get("value", zero_m) for d in inputs], dtype=float).reshape(N, m)
        omega = np.array([d.get("omega", 1.0) if kind == "sinusoid" else 0.0
                          for d, kind in zip(inputs, kinds)], dtype=float)
        phase = np.array([d.get("phase", 0.0) for d in inputs], dtype=float)
        finite = (np.isfinite(r0).all(axis=1) & np.isfinite(amp).all(axis=1)
                  & np.isfinite(const).all(axis=1) & np.isfinite(omega) & np.isfinite(phase))
        odd = [k for k in range(N) if not (plain[k] and finite[k])]
    except OverflowError:    # an int beyond float's range: each agent alone names it
        r0, amp, const = np.zeros((N, n)), np.zeros((N, m)), np.zeros((N, m))
        omega, phase, odd = np.zeros(N), np.zeros(N), list(range(N))
    tables = {}
    if odd:
        for k in odd:
            _numbers_only(agents[k], ("agents", k))
        checked = [_agent(k, agents[k], n) for k in odd]
        table = InputTable.of([d for _, d in checked], m)
        amp[odd], omega[odd], phase[odd], const[odd] = table.amp, table.omega, table.phase, table.const
        for k, (state, _), kind in zip(odd, checked, table.kinds):
            kinds[k] = kind
            if state is not None:
                r0[k] = state
        tables = {odd[i]: d for i, d in table.tables.items()}
    drawn = [k for k, a in enumerate(agents) if a.get("r0") is None]
    if drawn:
        # one draw for all null r0s has the bits of one per agent in agent
        # order; a fully specified scenario builds no generator
        rng = np.random.default_rng(0 if seed is None else seed)
        r0[drawn] = rng.standard_normal((len(drawn), n))
    return ReferenceSet(plant=plant, initial_states=r0,
                        inputs=InputTable(tuple(kinds), amp, omega, phase, const, tables))


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
    g = located("graph", Graph, n_nodes=gd["n"], edges=tuple(tuple(e) for e in gd.get("edges", [])))
    plant = _section(LinearPlant, cfg["plant"], "plant")

    rs = _references(cfg["agents"], plant, seed)
    if g.n_nodes != rs.n_agents:
        raise ConfigError("graph node count must equal the number of agents")

    algorithm = cfg["algorithm"]
    if algorithm not in ("static", "adaptive", "discontinuous"):
        raise ConfigError(f"unknown algorithm {algorithm!r}")

    dd = cfg.get("design", {})
    _check_keys(dd, _DESIGN_KEYS, "design")
    Q = located("design.Q", _design_q, dd["Q"] if "Q" in dd else np.eye(plant.n), plant.n)
    margins = located("design.margins", control.design_margins, dd.get("margins", (1.0, 1.0)))
    eps, phi = (located(f"design.{k}", control.in_range, k, dd.get(k, v))
                for k, v in (("eps", 5.0), ("phi", 0.5)))

    # AdaptiveParams fields, all numbers, checked whatever the algorithm
    ad = cfg.get("adaptive")
    if ad is not None:
        _check_keys(ad, _ADAPTIVE_KEYS, "adaptive")
        ad = {k: located(f"adaptive.{k}", control.in_range, k, v) for k, v in ad.items()}
    if algorithm == "adaptive":
        missing = sorted({"mu", "nu", "theta", "chi"} - set(ad or ()))
        if missing:
            raise ConfigError(f"adaptive algorithm needs {missing} in an 'adaptive' section")

    return Scenario(
        name=str(cfg.get("name", "unnamed")),
        graph=g,
        reference_set=rs,
        algorithm=algorithm,
        design_Q=Q,
        margins=margins,
        eps=eps,
        phi=phi,
        adaptive=ad,
        sim=_section(SimConfig, cfg["sim"], "sim"),
        numerics=_section(NumericsConfig, cfg.get("numerics", {}), "numerics"),
        raw=cfg,
    )
