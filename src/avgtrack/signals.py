"""Reference-signal models: shared linear plant, bounded per-agent inputs,
and the variation-of-constants trajectory oracle."""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
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
        if self.kind not in ("zero", "constant", "sinusoid", "table"):
            raise ConfigError(f"unknown input kind {self.kind!r}")
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
            if self.times is None or self.values is None:
                raise ConfigError("table input needs times and values")
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
        if self.kind == "constant":
            return len(self.value)
        if self.kind == "sinusoid":
            return len(self.amp)
        if self.kind == "table":
            return self.values.shape[1]
        return m

    def bound(self) -> float:
        """Declared bound on sup_t ||f(t)|| (exact for parametric kinds,
        max over the grid for tables). A finite norm comes out finite, by
        finite_norms; numpy warns of the overflow of its sum of squares
        unless over is ignored, as input_bound does."""
        if self.kind == "zero":
            return 0.0
        if self.kind != "table":
            return _vector_bound(self.value if self.kind == "constant" else self.amp)
        nrm = np.linalg.norm(self.values, axis=1)
        top = float(nrm.max())
        return top if top < math.inf else float(np.max(finite_norms(nrm, self.values, 1)))


def _vector_bound(v: NDArray) -> float:
    """||v|| of one flat vector, finite where v is, by finite_norms."""
    nrm = np.linalg.norm(v)
    return float(nrm) if nrm < math.inf else float(finite_norms(nrm, v, None))


def eval_input(d: InputDescriptor, t: float | NDArray, m: int = 1) -> NDArray[np.float64]:
    """Evaluate f(t) for t >= 0, or f at each of an array of times, one row
    of m entries per time."""
    t = np.asarray(t, dtype=float)
    if d.kind == "zero":
        return np.zeros(t.shape + (m,))
    if d.kind == "constant":
        return np.broadcast_to(d.value, t.shape + d.value.shape).copy()
    if d.kind == "sinusoid":
        return d.amp * np.sin(d.omega * t[..., None] + d.phase)
    # table: hold-last beyond grid, hold-first before it
    return np.stack([np.interp(t, d.times, v) for v in d.values.T], axis=-1)


@dataclass(frozen=True, eq=False)
class InputTable(Sequence):
    """N inputs as whole arrays: f_i(t) = amp[i] sin(omega[i] t + phase[i]) +
    const[i] covers the zero, constant and sinusoid kinds in one expression,
    their unused entries zero; `tables` holds the table inputs by row, each
    evaluated on its own grid, as is an input of another width than the
    table's, which ReferenceSet rejects. Row i reads back as an
    InputDescriptor."""

    kinds: tuple[str, ...]
    amp: NDArray[np.float64]      # (N, m)
    omega: NDArray[np.float64]    # (N,)
    phase: NDArray[np.float64]    # (N,)
    const: NDArray[np.float64]    # (N, m)
    tables: dict[int, InputDescriptor] = field(default_factory=dict)

    @classmethod
    def of(cls, inputs: Sequence[InputDescriptor], m: int) -> InputTable:
        """The table of m entries per row that holds the descriptors."""
        N = len(inputs)
        amp, const = np.zeros((N, m)), np.zeros((N, m))
        omega, phase = np.zeros(N), np.zeros(N)
        tables = {}
        for i, d in enumerate(inputs):
            if d.kind == "table" or d.dim(m) != m:
                tables[i] = d
            elif d.kind == "sinusoid":
                amp[i], omega[i], phase[i] = d.amp, d.omega, d.phase
            elif d.kind == "constant":
                const[i] = d.value
        return cls(tuple(d.kind for d in inputs), amp, omega, phase, const, tables)

    @classmethod
    def concat(cls, parts: Sequence[InputTable]) -> InputTable:
        """The rows of all parts in order."""
        starts = itertools.accumulate((len(p) for p in parts), initial=0)
        return cls(
            kinds=tuple(itertools.chain.from_iterable(p.kinds for p in parts)),
            amp=np.concatenate([p.amp for p in parts]),
            omega=np.concatenate([p.omega for p in parts]),
            phase=np.concatenate([p.phase for p in parts]),
            const=np.concatenate([p.const for p in parts]),
            tables={s + i: d for s, p in zip(starts, parts) for i, d in p.tables.items()},
        )

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> InputDescriptor:
        i = range(len(self))[i]
        if i in self.tables:
            return self.tables[i]
        kind = self.kinds[i]
        if kind == "sinusoid":
            return InputDescriptor(kind, amp=self.amp[i].copy(), omega=float(self.omega[i]),
                                   phase=float(self.phase[i]))
        if kind == "constant":
            return InputDescriptor(kind, value=self.const[i].copy())
        return InputDescriptor(kind)


@dataclass(frozen=True)
class ReferenceSet:
    """N reference signals r_i driven by the shared plant and inputs f_i,
    given as descriptors or as their InputTable."""

    plant: LinearPlant
    initial_states: NDArray[np.float64]   # (N, n)
    inputs: InputTable | Sequence[InputDescriptor] = ()

    def __post_init__(self):
        r0 = np.atleast_2d(np.asarray(self.initial_states, dtype=float))
        if r0.shape[0] < 2:
            raise ConfigError("need at least two reference signals")
        if r0.shape[1] != self.plant.n:
            raise ConfigError("initial state dimension must match the plant")
        if len(self.inputs) != r0.shape[0]:
            raise ConfigError("one input descriptor per reference signal required")
        m = self.plant.m
        inputs = self.inputs
        if not isinstance(inputs, InputTable):
            inputs = InputTable.of(inputs, m)
        if inputs.amp.shape[1] != m or any(d.dim(m) != m for d in inputs.tables.values()):
            raise ConfigError("input dimension must match B's column count")
        object.__setattr__(self, "initial_states", r0)
        object.__setattr__(self, "inputs", inputs)

    @property
    def n_agents(self) -> int:
        return self.initial_states.shape[0]

    def eval_inputs(self, t: float | Sequence[float]) -> NDArray[np.float64]:
        """All f_i(t) stacked as an (N, m) array; for a vector of T times,
        one such array per time, (T, N, m), each with the bits of a call at
        its time alone."""
        u = self.inputs
        t = np.asarray(t, dtype=float)
        f = u.amp * np.sin(u.omega * t[..., None] + u.phase)[..., None] + u.const
        for i, d in u.tables.items():
            f[..., i, :] = eval_input(d, t, self.plant.m)
        return f


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


def input_bound(rs: ReferenceSet) -> float:
    """f0 = max_i sup_t ||f_i(t)||: the row norms of the table's amp and
    const in one pass, each table input by its grid. The largest rows are
    formed again one at a time, as InputDescriptor.bound does, so f0 has the
    bits of the largest per-input bound."""
    u = rs.inputs
    rows = np.concatenate([u.amp, u.const])
    # one errstate for all rows: a square may overflow where the norm need not
    with np.errstate(over="ignore"):
        nrm = finite_norms(np.linalg.norm(rows, axis=1), rows, 1)
        top = nrm.max(initial=0.0)
        # a row norm and its one-vector form differ by rounding, far below 1e-12
        near = rows[nrm >= top * (1.0 - 1e-12)] if top > 0.0 else rows[:0]
        return max([0.0, *map(_vector_bound, near), *(d.bound() for d in u.tables.values())])


def reference_trajectory(
    rs: ReferenceSet, i: int, t: float, quad_steps: int = 256
) -> NDArray[np.float64]:
    """r_i(t) by variation of constants.

    e^{At} r_i(0) plus the convolution integral of e^{A(t-tau)} B f_i(tau),
    evaluated with composite Simpson quadrature on quad_steps panels. This
    is the oracle path; accuracy beats speed.
    """
    if t < 0:
        raise ConfigError("t must be nonnegative")
    A, B = rs.plant.A, rs.plant.B
    r = matrix_exp(A, t) @ rs.initial_states[i]
    d = rs.inputs[i]
    if t == 0.0 or d.kind == "zero":
        return r
    npts = 2 * max(1, int(quad_steps)) + 1
    taus = np.linspace(0.0, t, npts)
    h = taus[1] - taus[0]
    weights = np.ones(npts)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= h / 3.0
    # e^{A(t - tau_k)} = (e^{A h})^(npts-1-k); accumulate powers backwards
    Eh = matrix_exp(A, h)
    acc = np.zeros(rs.plant.n)
    prop = np.eye(rs.plant.n)
    for k in range(npts - 1, -1, -1):
        acc += weights[k] * (prop @ (B @ eval_input(d, taus[k], rs.plant.m)))
        if k > 0:
            prop = Eh @ prop
    return r + acc
