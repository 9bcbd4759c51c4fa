"""Trajectories, training sets, and fixed-step integration.

All trajectory data in the package lives on uniform time grids produced by
classical fourth-order Runge-Kutta; there is deliberately no adaptive
stepping, so reruns are bit-reproducible.  Every field the package
integrates in state space, a benchmark system or an identified qendy, SINDy
or gEDMD model, is a :class:`VectorField` of expressions, and runs the whole
loop as one compiled function of its program, in Python floats, with the
operations of the array step in the same order, so both give the same bits;
NumPy dispatch on (n,) arrays would cost more than the field itself.  A field
hands its arguments straight to its program, which checks their shapes;
:func:`rk4_integrate` checks only the start state it writes into the path.
Derivative data for training comes either from evaluating the governing
vector field at the samples or from second-order finite differences along a
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import Program, parse

__all__ = [
    "IntegrationBlowupError", "VectorField", "Trajectory", "TrainingSet",
    "rk4_step", "rk4_integrate", "sample_trajectory", "sample_uniform",
    "exact_derivatives", "finite_diff_derivatives",
    "write_rows", "save_trajectory", "load_trajectory", "save_training",
    "load_training",
]


class IntegrationBlowupError(RuntimeError):
    """The integrator produced a non-finite state at step ``step``.

    ``partial`` is what the call would have returned, cut after the last
    finite state (steps 0 to step - 1); it holds a copy of those rows only.
    """

    def __init__(self, step: int, partial):
        self.step = step
        self.partial = partial
        super().__init__(f"integration blew up at step {step}")


@dataclass(frozen=True, eq=False)
class VectorField:
    """A vector field on R^n whose components are compiled expressions.

    ``program`` holds the n component trees over R^n and checks every
    argument.  :meth:`many` runs its array binding on a batch, and a call at
    one state runs it on a batch of one.
    """

    n: int
    program: Program

    def __post_init__(self):
        if len(self.program.outputs) != self.n:
            raise ValueError(
                f"{len(self.program.outputs)} component expressions for dimension {self.n}")
        if self.program.n != self.n:
            raise ValueError(f"a program over R^{self.program.n} for dimension {self.n}")

    def __call__(self, x) -> np.ndarray:
        return self.program.point(x)

    def many(self, points) -> np.ndarray:
        return self.program.values(points, per_point=True)

    @classmethod
    def from_exprs(cls, n: int, exprs) -> "VectorField":
        return cls(n, Program((parse(e) if isinstance(e, str) else e for e in exprs), n))


# Time steps compared per block of the grid check, so that its temporaries
# stay small for any grid length.
_GRID_BLOCK = 4096


def _check_uniform(times: np.ndarray):
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-D array")
    first, last = float(times[0]), float(times[-1])
    if not (math.isfinite(first) and math.isfinite(last)):
        raise ValueError("trajectory times must be finite")
    if times.size < 3:
        return
    mean = (last - first) / (times.size - 1)
    # On a uniform grid the largest |t| is at an end.
    slack = 1e-12 * max(1.0, abs(first), abs(last))
    for start in range(0, times.size - 1, _GRID_BLOCK):
        block = times[start:start + _GRID_BLOCK + 1]
        # Written so that a nan step fails it too.
        if not np.abs(np.diff(block) - mean).max() <= slack:
            if not np.isfinite(block).all():
                raise ValueError("trajectory times must be finite")
            raise ValueError("trajectory time grid is not uniform")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States sampled on a uniform time grid: times (m,), states (m, n)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        _check_uniform(times)
        if states.ndim != 2 or states.shape[0] != times.size:
            raise ValueError(
                f"states shape {states.shape} does not match {times.size} times")
        if not np.all(np.isfinite(states)):
            raise ValueError("trajectory states contain non-finite values")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def dt(self) -> float:
        if self.times.size < 2:
            raise ValueError("single-sample trajectory has no step size")
        return float((self.times[-1] - self.times[0]) / (self.times.size - 1))

    @property
    def n(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Paired states and time derivatives, with a provenance tag.

    ``provenance`` is one of "exact", "finite-difference", or "external".
    """

    states: np.ndarray
    derivatives: np.ndarray
    provenance: str = "external"

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        derivatives = np.asarray(self.derivatives, dtype=float)
        if states.ndim != 2 or states.shape != derivatives.shape:
            raise ValueError(
                f"states {states.shape} and derivatives {derivatives.shape} disagree")
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(derivatives))):
            raise ValueError("training data contains non-finite values")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "derivatives", derivatives)

    @property
    def m(self) -> int:
        return self.states.shape[0]

    @property
    def n(self) -> int:
        return self.states.shape[1]


def rk4_step(f, x: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of size dt from state x."""
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_count(t_end: float, dt: float) -> int:
    """round(t_end / dt), the number of fixed steps over [0, t_end]."""
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dt <= 0.0:
        raise ValueError(f"step size must be positive, got {dt}")
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_end={t_end} over dt={dt} is not a finite step count")
    steps = int(round(ratio))
    if steps < 1:
        raise ValueError(f"t_end={t_end} shorter than one step dt={dt}")
    return steps


def rk4_integrate(f: VectorField, x0, t_end: float, dt: float) -> Trajectory:
    """Integrate the field ``f`` from x0 over [0, t_end] with fixed step dt.

    The number of steps is round(t_end / dt); t = 0 is included.  Raises
    :class:`IntegrationBlowupError`, carrying a copy of the path up to the
    last finite state, at the first non-finite state; the overflow that
    produced it is not warned.  The whole loop runs in Python floats through
    the program's compiled ``rk4`` binding, which writes each state straight
    into the path, bit for bit as :func:`rk4_step` steps it on arrays.
    """
    if not isinstance(f, VectorField):
        raise TypeError(f"rk4_integrate needs a VectorField, got {type(f).__name__}")
    dt = float(dt)
    steps = _step_count(t_end, dt)
    x = np.asarray(x0, dtype=float)
    if x.shape != (f.n,):
        raise ValueError(f"expected shape ({f.n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"start state {x.tolist()} is not finite")
    states = np.empty((steps + 1, f.n))
    states[0] = x
    loop, flat = f.program._bound("rk4"), memoryview(states.reshape(-1))
    # A non-finite state raises IntegrationBlowupError, so the overflow that
    # leads to it is not warned as well.  The float loop computes exp and
    # powers in NumPy, so it needs this too.
    with np.errstate(over="ignore", invalid="ignore"):
        k = loop(flat, 0, steps, dt)
        while k < steps:
            # The float loop stops before a step that ends non-finite or takes
            # math.sin of an infinity; the array step gives the same bits, and
            # maps the sin to nan.
            x = rk4_step(f, states[k], dt)
            if not np.isfinite(x).all():
                raise IntegrationBlowupError(
                    k + 1, Trajectory(np.arange(k + 1) * dt, states[:k + 1].copy()))
            k += 1
            states[k] = x
            k = loop(flat, k, steps, dt)
    return Trajectory(np.arange(steps + 1) * dt, states)


def sample_trajectory(f, x0, t_end: float, num_samples: int,
                      substeps: int = 10) -> Trajectory:
    """``num_samples`` evenly spaced states over [0, t_end], both ends included.

    Integrates with ``substeps`` internal RK4 steps per output sample so that
    the returned states are accurate well beyond the output resolution.  The
    kept states are copied out of the fine path, which is then freed.
    """
    if num_samples < 2:
        raise ValueError("need at least two samples")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    dt = t_end / ((num_samples - 1) * substeps)
    fine = rk4_integrate(f, x0, t_end, dt).states
    out = fine if substeps == 1 else fine[::substeps].copy()
    times = np.arange(num_samples) * (t_end / (num_samples - 1))
    return Trajectory(times, out)


def sample_uniform(box, num_samples: int, seed=0) -> np.ndarray:
    """(m, n) points drawn uniformly from an axis-aligned box [(lo, hi), ...]."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    if np.any(hi <= lo):
        raise ValueError("box bounds must satisfy lo < hi on every axis")
    points = np.random.default_rng(seed).random((num_samples, lo.size))
    # lo + (hi - lo) * r, bit for bit, a column at a time and in place: the
    # broadcast runs a length-n inner loop per sample.
    for axis in range(lo.size):
        column = points[:, axis]
        column *= hi[axis] - lo[axis]
        column += lo[axis]
    return points


def exact_derivatives(f: VectorField, points) -> TrainingSet:
    """Training set with derivatives f(x) evaluated at each sample."""
    points = np.asarray(points, dtype=float)
    return TrainingSet(points, f.many(points), "exact")


def finite_diff_derivatives(traj: Trajectory) -> TrainingSet:
    """Finite differences along a trajectory.

    Second order throughout: central differences in the interior, and the
    one-sided three-point stencils (-3x_0 + 4x_1 - x_2) / (2 dt) at the first
    sample and its mirror image at the last; needs at least three samples.
    """
    states = traj.states
    m = states.shape[0]
    if m < 3:
        raise ValueError("finite differences need at least three samples")
    dt = traj.dt
    derivs = np.empty_like(states)
    derivs[1:-1] = (states[2:] - states[:-2]) / (2.0 * dt)
    derivs[0] = (-3.0 * states[0] + 4.0 * states[1] - states[2]) / (2.0 * dt)
    derivs[-1] = (3.0 * states[-1] - 4.0 * states[-2] + states[-3]) / (2.0 * dt)
    return TrainingSet(states, derivs, "finite-difference")


# ---------------------------------------------------------------------------
# CSV formats
#
# Trajectory files:  header "t,x1,...,xn", one row per sample.
# Training files:    header "x1,...,xn,dx1,...,dxn", one row per sample.
# Floats are written with shortest round-trip repr, so save/load is exact.


def write_rows(path, header, rows):
    """CSV lines under ``header`` unless it is None.  ``rows`` is an array of
    floats, or rows of text, ints and floats: text is written as it is, an
    int in decimal and a float as its ``repr``."""
    if isinstance(rows, np.ndarray):
        # Row by row: a whole-array tolist() holds every cell as a Python float.
        rows = map(np.ndarray.tolist, rows.astype(float, copy=False))
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        # str() of a Python float is its repr().
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def save_trajectory(traj: Trajectory, path):
    header = "t," + ",".join(f"x{j + 1}" for j in range(traj.n))
    write_rows(path, header, np.column_stack([traj.times, traj.states]))


def _load_rows(path, header: bool = True) -> np.ndarray:
    """The data rows of a CSV file, under one header line unless ``header``
    is False, as an (m, k) array."""
    with open(path) as fh:
        if header:
            fh.readline()
        if not any(line.strip() for line in fh):
            raise ValueError(f"{path} has no data rows")
    return np.loadtxt(path, delimiter=",", skiprows=int(header), ndmin=2)


def load_trajectory(path) -> Trajectory:
    data = _load_rows(path)
    return Trajectory(data[:, 0], data[:, 1:])


def save_training(ts: TrainingSet, path):
    n = ts.n
    header = (",".join(f"x{j + 1}" for j in range(n)) + ","
              + ",".join(f"dx{j + 1}" for j in range(n)))
    write_rows(path, header, np.column_stack([ts.states, ts.derivatives]))


def load_training(path) -> TrainingSet:
    data = _load_rows(path)
    if data.shape[1] % 2 != 0:
        raise ValueError(f"training file must have an even column count, got {data.shape[1]}")
    n = data.shape[1] // 2
    return TrainingSet(data[:, :n], data[:, n:], "external")
