"""Reference-signal models: shared linear plant, bounded per-agent inputs,
and the variation-of-constants trajectory oracle."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError
from .numerics import matrix_exp


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
            if v is not None:
                scalar = name in ("omega", "phase")
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
        max over the grid for tables). Where the sum of squares overflows,
        the values are divided by their largest magnitude first, so a finite
        norm comes out finite; numpy warns of that overflow unless over is
        ignored, as input_bound does."""
        if self.kind == "zero":
            return 0.0
        v, axis = (self.values, 1) if self.kind == "table" else (
            self.value if self.kind == "constant" else self.amp, None)
        nrm = _largest_norm(v, axis)
        if nrm == math.inf:
            scale = float(np.abs(v).max())
            nrm = scale * _largest_norm(v / scale, axis)
        return nrm


def _largest_norm(v: NDArray, axis: int | None) -> float:
    nrm = np.linalg.norm(v, axis=axis)
    return float(nrm if axis is None else nrm.max())


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


@dataclass(frozen=True)
class ReferenceSet:
    """N reference signals r_i driven by the shared plant and inputs f_i."""

    plant: LinearPlant
    initial_states: NDArray[np.float64]   # (N, n)
    inputs: tuple[InputDescriptor, ...] = field(default_factory=tuple)

    def __post_init__(self):
        r0 = np.atleast_2d(np.asarray(self.initial_states, dtype=float))
        if r0.shape[0] < 2:
            raise ConfigError("need at least two reference signals")
        if r0.shape[1] != self.plant.n:
            raise ConfigError("initial state dimension must match the plant")
        if len(self.inputs) != r0.shape[0]:
            raise ConfigError("one input descriptor per reference signal required")
        for d in self.inputs:
            if d.dim(self.plant.m) != self.plant.m:
                raise ConfigError("input dimension must match B's column count")
        object.__setattr__(self, "initial_states", r0)
        object.__setattr__(self, "inputs", tuple(self.inputs))

    @property
    def n_agents(self) -> int:
        return self.initial_states.shape[0]

    @cached_property
    def _parametric(self):
        # amp*sin(omega t + phase) + const covers zero/constant/sinusoid in
        # one vectorized expression; table inputs fall back to eval_input.
        N, m = self.n_agents, self.plant.m
        amp = np.zeros((N, m))
        omega = np.zeros(N)
        phase = np.zeros(N)
        const = np.zeros((N, m))
        tables = []
        for i, d in enumerate(self.inputs):
            if d.kind == "sinusoid":
                amp[i] = d.amp
                omega[i] = d.omega
                phase[i] = d.phase
            elif d.kind == "constant":
                const[i] = d.value
            elif d.kind == "table":
                tables.append(i)
        return amp, omega, phase, const, tuple(tables)

    def eval_inputs(self, t: float | Sequence[float]) -> NDArray[np.float64]:
        """All f_i(t) stacked as an (N, m) array; for a vector of T times,
        one such array per time, (T, N, m), each with the bits of a call at
        its time alone."""
        amp, omega, phase, const, tables = self._parametric
        t = np.asarray(t, dtype=float)
        f = amp * np.sin(omega * t[..., None] + phase)[..., None] + const
        for i in tables:
            f[..., i, :] = eval_input(self.inputs[i], t, self.plant.m)
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
        inputs=tuple(d for s in sets for d in s.inputs),
    )


def input_bound(rs: ReferenceSet) -> float:
    """f0 = max_i sup_t ||f_i(t)|| from the declared per-agent bounds."""
    # one errstate for all agents: entering one costs about as much as a bound
    with np.errstate(over="ignore"):
        return max(d.bound() for d in rs.inputs)


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
