"""Scenario config parsing and validation (strict: unknown keys rejected)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import control
from .errors import ConfigError
from .graph import Graph, lambda2 as graph_lambda2
from .numerics import NumericsConfig
from .signals import InputDescriptor, LinearPlant, ReferenceSet, input_bound
from .sim import SimConfig

_TOP_KEYS = {
    "name", "graph", "plant", "agents", "algorithm", "design", "adaptive",
    "sim", "numerics", "assumptions",
}
_DESIGN_KEYS = {"Q", "margins", "eps", "phi"}
_ADAPTIVE_KEYS = {"mu", "nu", "theta", "chi", "alpha0", "beta0"}
_SIM_KEYS = {"t_end", "dt", "record_every", "integrator"}
_INPUT_KEYS = {
    "zero": {"kind"},
    "constant": {"kind", "value"},
    "sinusoid": {"kind", "amp", "omega", "phase"},
    "table": {"kind", "times", "values"},
}
_NUMERICS_KEYS = {
    "sym_tol", "lyap_residual_tol", "are_residual_tol", "are_step_tol",
    "are_max_iter", "rank_rtol",
}


def _check_keys(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


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
    assumptions: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @cached_property
    def lambda2(self) -> float:
        """lambda2 of the graph, computed once: design, diagnostics and summary read it."""
        return graph_lambda2(self.graph)

    def build_static_gains(self) -> control.StaticGains:
        return control.design_gains(
            self.reference_set.plant,
            self.graph,
            self.design_Q,
            input_bound(self.reference_set),
            eps=self.eps,
            phi=self.phi,
            margins=self.margins,
            cfg=self.numerics,
            lam2=self.lambda2,
        )

    def build_adaptive_params(self) -> control.AdaptiveParams:
        a = self.adaptive
        if a is None:
            raise ConfigError("adaptive algorithm needs an 'adaptive' section")
        P, K = control.feedback_gain(self.reference_set.plant, self.design_Q, self.numerics)
        return control.AdaptiveParams(
            K=K,
            Gamma=K.T @ K,
            mu=a["mu"],
            nu=a["nu"],
            theta=a["theta"],
            chi=a["chi"],
            eps=self.eps,
            phi=self.phi,
            P=P,
            alpha0=a.get("alpha0", 0.0),
            beta0=a.get("beta0", 0.0),
        )


def _parse_input(d: dict, where: str) -> InputDescriptor:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{where}: input needs a 'kind'")
    kind = d["kind"]
    if kind not in _INPUT_KEYS:
        raise ConfigError(f"{where}: unknown input kind {kind!r}")
    _check_keys(d, _INPUT_KEYS[kind], where)
    if kind == "sinusoid":
        d = {"omega": 1.0, **d}
    # InputDescriptor converts the fields and checks that the kind has them
    return InputDescriptor(**d)


def parse_scenario(cfg: dict, seed: int | None = None) -> Scenario:
    """Validate a scenario dict and build the typed objects.

    `seed` feeds only agents whose r0 is null (randomized initial states);
    fully specified scenarios are seed-free.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("scenario config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "scenario")
    for key in ("graph", "plant", "agents", "algorithm", "sim"):
        if key not in cfg:
            raise ConfigError(f"missing required key {key!r}")

    gd = cfg["graph"]
    _check_keys(gd, {"n", "edges"}, "graph")
    g = Graph(n_nodes=int(gd["n"]), edges=tuple(tuple(e) for e in gd.get("edges", [])))

    pd = cfg["plant"]
    _check_keys(pd, {"A", "B"}, "plant")
    plant = LinearPlant(A=np.asarray(pd["A"], dtype=float), B=np.asarray(pd["B"], dtype=float))

    rng = np.random.default_rng(0 if seed is None else seed)
    r0s, inputs = [], []
    for k, agent in enumerate(cfg["agents"]):
        _check_keys(agent, {"r0", "input"}, f"agents[{k}]")
        r0 = agent.get("r0")
        if r0 is None:
            r0 = rng.standard_normal(plant.n)
        r0s.append(np.asarray(r0, dtype=float))
        inputs.append(_parse_input(agent.get("input", {"kind": "zero"}), f"agents[{k}].input"))
    rs = ReferenceSet(plant=plant, initial_states=np.array(r0s), inputs=tuple(inputs))
    if g.n_nodes != rs.n_agents:
        raise ConfigError("graph node count must equal the number of agents")

    algorithm = cfg["algorithm"]
    if algorithm not in ("static", "adaptive", "discontinuous"):
        raise ConfigError(f"unknown algorithm {algorithm!r}")

    dd = cfg.get("design", {})
    _check_keys(dd, _DESIGN_KEYS, "design")
    Q = np.asarray(dd.get("Q", np.eye(plant.n).tolist()), dtype=float)
    margins = tuple(float(v) for v in dd.get("margins", (1.0, 1.0)))
    eps = float(dd.get("eps", 5.0))
    phi = float(dd.get("phi", 0.5))

    ad = cfg.get("adaptive")
    if algorithm == "adaptive":
        if ad is None:
            raise ConfigError("adaptive algorithm needs an 'adaptive' section")
        _check_keys(ad, _ADAPTIVE_KEYS, "adaptive")
        for key in ("mu", "nu", "theta", "chi"):
            if key not in ad:
                raise ConfigError(f"adaptive section missing {key!r}")

    sd = cfg["sim"]
    _check_keys(sd, _SIM_KEYS, "sim")
    sim = SimConfig(
        t_end=float(sd["t_end"]),
        dt=float(sd.get("dt", 1e-3)),
        record_every=int(sd.get("record_every", 1)),
        integrator=sd.get("integrator", "rk4"),
    )

    nd = cfg.get("numerics", {})
    _check_keys(nd, _NUMERICS_KEYS, "numerics")
    numerics = NumericsConfig(**{k: v for k, v in nd.items()})

    return Scenario(
        name=str(cfg.get("name", "unnamed")),
        graph=g,
        reference_set=rs,
        algorithm=algorithm,
        design_Q=Q,
        margins=margins,  # type: ignore[arg-type]
        eps=eps,
        phi=phi,
        adaptive=dict(ad) if ad else None,
        sim=sim,
        numerics=numerics,
        assumptions=dict(cfg.get("assumptions", {})),
        raw=cfg,
    )
