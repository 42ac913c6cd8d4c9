"""Reference-signal models: shared linear plant, bounded per-agent inputs,
and the variation-of-constants trajectory oracle."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError
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


# each kind's config keys, each parametric kind's list of m entries, the default input
INPUT_KEYS = {
    "zero": {"kind"},
    "constant": {"kind", "value"},
    "sinusoid": {"kind", "amp", "omega", "phase"},
    "table": {"kind", "times", "values"},
}
INPUT_VECTORS = {"zero": (), "constant": ("value",), "sinusoid": ("amp",)}
ZERO_INPUT = {"kind": "zero"}


def input_keys(kind) -> set[str]:
    """The keys of a config input object of this kind, one of INPUT_KEYS."""
    if not isinstance(kind, str) or kind not in INPUT_KEYS:
        raise ConfigError(f"input kind {kind!r} is not one of {sorted(INPUT_KEYS)}")
    return INPUT_KEYS[kind]


@dataclass(frozen=True)
class InputDescriptor:
    """Closed-form bounded input f(t) in R^m.

    Kinds:
      zero      -- f(t) = 0
      constant  -- f(t) = value
      sinusoid  -- f(t) = amp * sin(omega*t + phase), amp in R^m
      table     -- linear interpolation on a sample grid; held at the last
                   value beyond the grid (out-of-range policy: hold).
    """

    kind: str
    value: NDArray[np.float64] | None = None       # constant
    amp: NDArray[np.float64] | None = None         # sinusoid
    omega: float = 1.0
    phase: float = 0.0
    times: NDArray[np.float64] | None = None       # table
    values: NDArray[np.float64] | None = None      # table, shape (len(times), m)

    def __post_init__(self):
        input_keys(self.kind)
        for name in ("value", "amp", "times", "values", "omega", "phase"):
            v = getattr(self, name)
            scalar = name in ("omega", "phase")
            # omega and phase have defaults, so a null one is a fault
            if v is not None or scalar:
                v = float(v) if scalar else np.atleast_1d(np.asarray(v, dtype=float))
                if name in ("value", "amp", "times") and v.ndim != 1:
                    raise ConfigError(f"{name} must be a flat list of numbers, got shape {v.shape}")
                # an input holds few numbers, and a loop over them beats np.isfinite
                numbers = [v] if scalar else v.ravel().tolist()
                if not all(map(math.isfinite, numbers)):
                    raise ConfigError(f"{name} must be finite, got {numbers}")
                object.__setattr__(self, name, v)
        if self.kind == "constant" and self.value is None:
            raise ConfigError("constant input needs a value")
        if self.kind == "sinusoid" and self.amp is None:
            raise ConfigError("sinusoid input needs an amplitude")
        if self.kind == "table":
            if self.times is None or self.values is None or not len(self.times):
                raise ConfigError("table input needs values and at least one sample time")
            t = self.times
            v = self.values
            # a flat list as long as the grid is the one input's column
            v = v[:, None] if v.ndim == 1 and len(v) == len(t) else np.atleast_2d(v)
            if v.ndim != 2:
                raise ConfigError(f"values must be one row of numbers per time, got shape "
                                  f"{v.shape}")
            if v.shape[0] != t.shape[0]:
                raise ConfigError("table times/values length mismatch")
            if np.any(np.diff(t) <= 0):
                raise ConfigError("table times must be strictly increasing")
            object.__setattr__(self, "values", v)

    def dim(self, m: int) -> int:
        v = {"constant": self.value, "sinusoid": self.amp, "table": self.values}.get(self.kind)
        return m if v is None else v.shape[-1]

    def bound(self) -> float:
        """Declared bound on sup_t ||f(t)|| (exact for parametric kinds,
        max over the grid for tables), by InputTable.bound."""
        return InputTable.of([self], self.dim(1)).bound()


def eval_input(d: InputDescriptor, t: float | NDArray, m: int = 1) -> NDArray[np.float64]:
    """Evaluate f(t) for t >= 0, or f at each of an array of times, one row
    of m entries per time, by InputTable.eval."""
    return InputTable.of([d], d.dim(m)).eval(t)[..., 0, :]


@dataclass(frozen=True, eq=False)
class InputTable:
    """N inputs as whole arrays: f_i(t) = amp[i] sin(omega[i] t + phase[i]) +
    const[i] covers the zero, constant and sinusoid kinds in one expression,
    their unused entries zero; `tables` holds the table inputs by row, each
    evaluated on its own grid. The only code that evaluates or bounds an
    input."""

    kinds: tuple[str, ...]
    amp: NDArray[np.float64]      # (N, m)
    omega: NDArray[np.float64]    # (N,)
    phase: NDArray[np.float64]    # (N,)
    const: NDArray[np.float64]    # (N, m)
    tables: dict[int, InputDescriptor] = field(default_factory=dict)

    @classmethod
    def of(cls, inputs: Sequence[InputDescriptor | dict], m: int) -> InputTable:
        """The table of m entries per row that holds the inputs, each an
        InputDescriptor of width m or a config input object in the plain form:
        a zero, constant or sinusoid kind with its list of m numbers and number
        omega and phase, all finite. The only map from kinds to columns."""
        zero = [0.0] * m
        kinds, amp, omega, phase, const, tables = [], [], [], [], [], {}
        for i, d in enumerate(inputs):
            if isinstance(d, InputDescriptor):
                width = d.dim(m)
                if width != m:
                    entries = "1 entry" if width == 1 else f"{width} entries"
                    raise ConfigError(f"agents[{i}].input: {entries} per time, B has {m} "
                                      f"column{'' if m == 1 else 's'}")
                if d.kind == "table":
                    # evaluated on its own grid, over zeros in the columns
                    tables[i], d = d, {"kind": d.kind}
                else:
                    d = vars(d)     # its fields by name, as a config object's keys
            kind = d["kind"]
            sine = kind == "sinusoid"
            kinds.append(kind)
            amp.append(d["amp"] if sine else zero)
            omega.append(d.get("omega", InputDescriptor.omega) if sine else 0.0)
            phase.append(d.get("phase", InputDescriptor.phase) if sine else 0.0)
            const.append(d["value"] if kind == "constant" else zero)
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
        with the bits of a call at it alone; a table holds its end values."""
        t = np.asarray(t, dtype=float)
        f = self.amp * np.sin(self.omega * t[..., None] + self.phase)[..., None] + self.const
        for i, d in self.tables.items():
            for k, v in enumerate(d.values.T):
                f[..., i, k] = np.interp(t, d.times, v)
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
            grids = [finite_norms(np.linalg.norm(d.values, axis=1), d.values, 1).max()
                     for d in self.tables.values()]
            return float(max([0.0, *vectors, *grids]))


@dataclass(frozen=True)
class ReferenceSet:
    """N reference signals r_i driven by the shared plant and inputs f_i,
    given as their InputTable or as anything InputTable.of takes, which
    builds it."""

    plant: LinearPlant
    initial_states: NDArray[np.float64]   # (N, n)
    inputs: InputTable | Sequence[InputDescriptor] = ()

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
