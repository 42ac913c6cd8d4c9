"""Reference-signal models: shared linear plant, bounded per-agent inputs,
and the variation-of-constants trajectory oracle."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, located
from .numerics import finite_norms, matrix_exp


@dataclass(frozen=True)
class LinearPlant:
    """The pair (A, B) shared by all reference signals and agents."""

    A: NDArray[np.float64]
    B: NDArray[np.float64]

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ConfigError(f"A must be square, got shape {A.shape}")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ConfigError(f"B must be a matrix of A's {A.shape[0]} rows, got shape {B.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ConfigError("A, B must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


# each kind's config keys, each parametric kind's list of m entries, the
# default input and a sinusoid's defaults
INPUT_KEYS = {
    "zero": {"kind"},
    "constant": {"kind", "value"},
    "sinusoid": {"kind", "amp", "omega", "phase"},
    "table": {"kind", "times", "values"},
}
INPUT_VECTORS = {"zero": (), "constant": ("value",), "sinusoid": ("amp",)}
ZERO_INPUT = {"kind": "zero"}
SINE_DEFAULTS = {"omega": 1.0, "phase": 0.0}
# the order in which check_input converts an input's fields
_FIELDS = ("value", "amp", "times", "values", "omega", "phase")
_NUMBER = {int, float}


def finite_numbers(values: list) -> bool:
    """True if every value is an int or a float, and their sum is finite, so
    every value is (an int beyond float's range raises on the way). False
    only sends the values to the full check."""
    if not _NUMBER.issuperset(map(type, values)):
        return False
    try:
        return math.isfinite(sum(values, 0.0))
    except OverflowError:
        return False


def plain_input(d, m: int) -> bool:
    """True for a config input object that InputTable reads as it stands: a
    zero, constant or sinusoid kind with only its own keys, its list of m
    numbers and number omega and phase, every number finite."""
    kind = d.get("kind") if type(d) is dict else None
    if type(kind) is not str or kind not in INPUT_VECTORS or not d.keys() <= INPUT_KEYS[kind]:
        return False
    numbers = [d[k] for k in SINE_DEFAULTS if k in d]
    for key in INPUT_VECTORS[kind]:
        v = d.get(key)
        if not (type(v) is list and len(v) == m):
            return False
        numbers += v
    return finite_numbers(numbers)


def check_input(d, where: str) -> dict:
    """The config input object d checked and converted: its kind one of
    INPUT_KEYS with only that kind's keys; value, amp and times flat arrays,
    values one row per time (a flat list as long as times is one column),
    a sinusoid's omega and phase floats (SINE_DEFAULTS where absent), every
    number finite; a table's times strictly increasing. Its output passes
    again unchanged. A fault raises ConfigError naming `where`."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in INPUT_KEYS:
        raise ConfigError(f"{where}: input kind {kind!r} is not one of {sorted(INPUT_KEYS)}")
    unknown = set(d) - INPUT_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return located(where, _converted, d)


def _converted(d: dict) -> dict:
    kind = d["kind"]
    out = {"kind": kind}
    for name in _FIELDS:
        scalar = name in SINE_DEFAULTS
        v = d.get(name, SINE_DEFAULTS.get(name))
        # omega and phase have defaults, so a null one is a fault
        if name not in INPUT_KEYS[kind] or (v is None and not scalar):
            continue
        v = float(v) if scalar else np.atleast_1d(np.asarray(v, dtype=float))
        if name in ("value", "amp", "times") and v.ndim != 1:
            raise ConfigError(f"{name} must be a flat list of numbers, got shape {v.shape}")
        # an input holds few numbers, and a loop over them beats np.isfinite
        numbers = [v] if scalar else v.ravel().tolist()
        if not all(map(math.isfinite, numbers)):
            raise ConfigError(f"{name} must be finite, got {numbers}")
        out[name] = v
    if kind == "constant" and "value" not in out:
        raise ConfigError("constant input needs a value")
    if kind == "sinusoid" and "amp" not in out:
        raise ConfigError("sinusoid input needs an amplitude")
    if kind == "table":
        if "times" not in out or "values" not in out or not len(out["times"]):
            raise ConfigError("table input needs values and at least one sample time")
        t, v = out["times"], out["values"]
        # a flat list as long as the grid is the one input's column
        v = v[:, None] if v.ndim == 1 and len(v) == len(t) else np.atleast_2d(v)
        if v.ndim != 2:
            raise ConfigError(f"values must be one row of numbers per time, got shape {v.shape}")
        if v.shape[0] != t.shape[0]:
            raise ConfigError("table times/values length mismatch")
        if np.any(np.diff(t) <= 0):
            raise ConfigError("table times must be strictly increasing")
        out["values"] = v
    return out


@dataclass(frozen=True, eq=False)
class InputTable:
    """N inputs as whole arrays: f_i(t) = amp[i] sin(omega[i] t + phase[i]) +
    const[i] covers the zero, constant and sinusoid kinds in one expression,
    their unused entries zero; `tables` maps each table input's row to its
    (times, values), evaluated on its own grid. The only code that evaluates
    or bounds an input."""

    kinds: tuple[str, ...]
    amp: NDArray[np.float64]      # (N, m)
    omega: NDArray[np.float64]    # (N,)
    phase: NDArray[np.float64]    # (N,)
    const: NDArray[np.float64]    # (N, m)
    tables: dict[int, tuple[NDArray[np.float64], NDArray[np.float64]]] = field(
        default_factory=dict)

    @classmethod
    def of(cls, objects: Sequence[dict], m: int) -> InputTable:
        """The table of m entries per row that holds the config input
        objects, each checked: one in the plain form (plain_input) as it
        stands, any other by check_input. A fault raises ConfigError naming
        the row as agents[i].input; a width other than m is named after
        every row's own checks."""
        return cls._of_checked([d if plain_input(d, m) else check_input(d, f"agents[{i}].input")
                                for i, d in enumerate(objects)], m)

    @classmethod
    def _of_checked(cls, objects: Sequence[dict], m: int) -> InputTable:
        """The table of objects that plain_input or check_input passed, with
        the width of each checked: the only map from kinds to columns."""
        zero = [0.0] * m
        kinds, amp, omega, phase, const, tables = [], [], [], [], [], {}
        for i, d in enumerate(objects):
            kind = d["kind"]
            sine = kind == "sinusoid"
            row = d["values"][0] if kind == "table" else d.get("amp" if sine else "value", zero)
            if len(row) != m:
                entries = "1 entry" if len(row) == 1 else f"{len(row)} entries"
                raise ConfigError(f"agents[{i}].input: {entries} per time, B has {m} "
                                  f"column{'' if m == 1 else 's'}")
            if kind == "table":
                # evaluated on its own grid, over zeros in the columns
                tables[i] = d["times"], d["values"]
            kinds.append(kind)
            amp.append(row if sine else zero)
            omega.append(d.get("omega", SINE_DEFAULTS["omega"]) if sine else 0.0)
            phase.append(d.get("phase", SINE_DEFAULTS["phase"]) if sine else 0.0)
            const.append(row if kind == "constant" else zero)
        N = len(kinds)
        return cls(tuple(kinds), np.array(amp, dtype=float).reshape(N, m),
                   np.array(omega, dtype=float), np.array(phase, dtype=float),
                   np.array(const, dtype=float).reshape(N, m), tables)

    @classmethod
    def concat(cls, parts: Sequence[InputTable]) -> InputTable:
        """The rows of all parts in order."""
        starts = itertools.accumulate((len(p.kinds) for p in parts), initial=0)
        return cls(
            kinds=tuple(itertools.chain.from_iterable(p.kinds for p in parts)),
            amp=np.concatenate([p.amp for p in parts]),
            omega=np.concatenate([p.omega for p in parts]),
            phase=np.concatenate([p.phase for p in parts]),
            const=np.concatenate([p.const for p in parts]),
            tables={s + i: d for s, p in zip(starts, parts) for i, d in p.tables.items()},
        )

    def eval(self, t: float | Sequence[float]) -> NDArray[np.float64]:
        """All f_i(t) as an (N, m) array, or (T, N, m) for T times, each time
        with the bits of a call at it alone. A table interpolates linearly on
        its grid and holds its end values beyond it; a row with omega = 0
        reads amp sin(phase) + const at every t, t = inf included."""
        t = np.asarray(t, dtype=float)[..., None]
        if np.isfinite(t).all():
            arg = self.omega * t + self.phase
        else:
            # 0 t is nan at t = inf, so a row with omega = 0 takes 0 for omega t
            arg = np.multiply(self.omega, t, where=self.omega != 0.0, out=np.zeros(
                np.broadcast_shapes(t.shape, self.omega.shape))) + self.phase
        f = self.amp * np.sin(arg)[..., None] + self.const
        for i, (times, values) in self.tables.items():
            for k, v in enumerate(values.T):
                f[..., i, k] = np.interp(t[..., 0], times, v)
        return f

    def bound(self) -> float:
        """f0 = max_i sup_t ||f_i(t)||: the row norms of amp and const in one
        pass, the largest formed again as one vector each (the bits of the
        input's own norm), and each table input's largest over its grid."""
        rows = np.concatenate([self.amp, self.const])
        # a square may overflow where the norm need not; finite_norms forms it again
        with np.errstate(over="ignore"):
            nrm = finite_norms(np.linalg.norm(rows, axis=1), rows, 1)
            top = nrm.max(initial=0.0)
            # a row norm and its one-vector form differ by rounding, far below 1e-12
            near = rows[nrm >= top * (1.0 - 1e-12)] if top > 0.0 else rows[:0]
            vectors = [finite_norms(np.linalg.norm(v), v, None) for v in near]
            grids = [finite_norms(np.linalg.norm(v, axis=1), v, 1).max()
                     for _, v in self.tables.values()]
            return float(max([0.0, *vectors, *grids]))


@dataclass(frozen=True)
class ReferenceSet:
    """N reference signals r_i driven by the shared plant and inputs f_i,
    given as their InputTable or as config input objects, which
    InputTable.of checks into one."""

    plant: LinearPlant
    initial_states: NDArray[np.float64]   # (N, n)
    inputs: InputTable | Sequence[dict] = ()

    def __post_init__(self):
        r0 = np.atleast_2d(np.asarray(self.initial_states, dtype=float))
        if r0.shape[0] < 2:
            raise ConfigError("need at least two reference signals")
        if r0.shape[1] != self.plant.n:
            raise ConfigError("initial state dimension must match the plant")
        m = self.plant.m
        inputs = self.inputs
        if not isinstance(inputs, InputTable):
            inputs = InputTable.of(inputs, m)
        if len(inputs.kinds) != r0.shape[0]:
            raise ConfigError("one input descriptor per reference signal required")
        if inputs.amp.shape[1] != m:
            raise ConfigError("input dimension must match B's column count")
        object.__setattr__(self, "initial_states", r0)
        object.__setattr__(self, "inputs", inputs)

    @property
    def n_agents(self) -> int:
        return self.initial_states.shape[0]

    def eval_inputs(self, t: float | Sequence[float]) -> NDArray[np.float64]:
        """All f_i(t) as an (N, m) array, or (T, N, m) for T times, by
        InputTable.eval."""
        return self.inputs.eval(t)


def concat_references(sets: Sequence[ReferenceSet]) -> ReferenceSet:
    """The signals of all sets in order, as one set on their shared plant.
    A single set is returned as it is."""
    if len(sets) == 1:
        return sets[0]
    plant = sets[0].plant
    if any(not (np.array_equal(s.plant.A, plant.A) and np.array_equal(s.plant.B, plant.B))
           for s in sets):
        raise ConfigError("reference sets to concatenate must share the plant (A, B)")
    return ReferenceSet(
        plant=plant,
        initial_states=np.concatenate([s.initial_states for s in sets]),
        inputs=InputTable.concat([s.inputs for s in sets]),
    )


def reference_trajectory(
    rs: ReferenceSet, i: int, t: float, quad_steps: int = 256
) -> NDArray[np.float64]:
    """r_i(t) by variation of constants.

    e^{At} r_i(0) plus the convolution integral of e^{A(t-tau)} B f_i(tau),
    evaluated with composite Simpson quadrature on quad_steps panels. This
    is the oracle path; accuracy beats speed.
    """
    return next(_trajectories(rs, [i], t, quad_steps))


def _trajectories(rs: ReferenceSet, agents: Iterable[int], t: float,
                  quad_steps: int) -> Iterator[NDArray[np.float64]]:
    """r_i(t) of each agent in turn, with the bits of its quadrature alone;
    e^{At}, the powers of e^{Ah} and f at every node are formed once."""
    if t < 0:
        raise ConfigError("t must be nonnegative")
    A, B = rs.plant.A, rs.plant.B
    eAt = matrix_exp(A, t)
    npts = 2 * max(1, int(quad_steps)) + 1
    taus = np.linspace(0.0, t, npts)
    f = rs.eval_inputs(taus)      # f at each node, with the bits of each time alone
    h = taus[1] - taus[0]
    weights = np.ones(npts)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= h / 3.0
    # e^{A(t - tau_k)} = (e^{A h})^(npts-1-k), the powers from the last node back
    Eh, powers = matrix_exp(A, h), [np.eye(rs.plant.n)]
    for _ in range(npts - 1):
        powers.append(Eh @ powers[-1])
    for i in agents:
        r = eAt @ rs.initial_states[i]
        if t != 0.0 and rs.inputs.kinds[i] != "zero":
            acc = np.zeros(rs.plant.n)
            for k, prop in zip(range(npts - 1, -1, -1), powers):
                acc += weights[k] * (prop @ (B @ f[k, i]))
            r = r + acc
        yield r
