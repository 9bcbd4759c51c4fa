"""Quadratic embedding models: dz = A (z kron z) + B z + C, x = G z.

The Kronecker square is row-major in the index pair: entry N*i + j of
``kron_squared(z)`` is ``z[i] * z[j]``.  Row r of A therefore reshapes to the
(N, N) coefficient matrix of the quadratic form feeding dz_r.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dictionary import (
    _STRING, _SWITCH, _WHOLE, Dictionary, _coefficients, _given, _number, _Reader,
    dictionary_from_json, dictionary_to_json, feature_map, feature_matrix, write_json,
)
from .dynamics import IntegrationBlowupError, _step_count
from .expr import BLOCK

__all__ = [
    "kron_squared", "kron_squared_cols", "QuadraticModel", "EmbeddedTrajectory",
    "StabilityReport", "SparsityReport",
    "evaluate", "evaluate_cols", "simulate", "extract_rhs", "extract_rhs_many",
    "symmetrize", "hurwitz_margin", "sparsity_report",
    "model_to_json", "model_from_json", "save_model", "load_model",
]


def kron_squared(z) -> np.ndarray:
    """Self-Kronecker product of a vector: entry N*i + j is z[i] * z[j]."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"expected a vector, got shape {z.shape}")
    return np.multiply.outer(z, z).ravel()


def kron_squared_cols(z_cols) -> np.ndarray:
    """Columnwise self-Kronecker: (N, m) in, (N^2, m) out."""
    z_cols = np.asarray(z_cols, dtype=float)
    if z_cols.ndim != 2:
        raise ValueError(f"expected a (N, m) column stack, got shape {z_cols.shape}")
    n, m = z_cols.shape
    return np.einsum("ik,jk->ijk", z_cols, z_cols).reshape(n * n, m)


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """Fitted coefficients plus the dictionary that defines the lift.

    Shapes: a (N, N^2), b (N, N), c (N,), g (n, N).  ``metadata`` carries fit
    context (sample count, regularization, derivative provenance).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    g: np.ndarray
    dictionary: Dictionary
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        size = self.dictionary.size
        shapes = {"a": (size, size * size), "b": (size, size), "c": (size,),
                  "g": (self.dictionary.state_dim, size)}
        for key, shape in shapes.items():
            object.__setattr__(self, key, _coefficients(key, getattr(self, key), shape))

    @property
    def basis_size(self) -> int:
        return self.dictionary.size

    @property
    def state_dim(self) -> int:
        return self.dictionary.state_dim


def evaluate(model: QuadraticModel, z) -> np.ndarray:
    """Right-hand side in lifted coordinates: A (z kron z) + B z + C."""
    z = np.asarray(z, dtype=float)
    if z.shape != (model.basis_size,):
        raise ValueError(f"expected z of shape ({model.basis_size},), got {z.shape}")
    return model.a @ kron_squared(z) + model.b @ z + model.c


def evaluate_cols(model: QuadraticModel, z_cols) -> np.ndarray:
    """Columnwise :func:`evaluate`: (N, m) in, (N, m) out."""
    z_cols = np.asarray(z_cols, dtype=float)
    return model.a @ kron_squared_cols(z_cols) + model.b @ z_cols + model.c[:, None]


@dataclass(frozen=True, eq=False)
class EmbeddedTrajectory:
    """Simulation output: the lifted path and its projection to state space."""

    times: np.ndarray
    z_states: np.ndarray
    x_states: np.ndarray


# The steps that :func:`simulate` takes between two scans of its path for a
# non-finite state.
STEP_BLOCK = 64


def simulate(model: QuadraticModel, x0, t_end: float, dt: float) -> EmbeddedTrajectory:
    """Integrate the lifted dynamics with RK4 from z0 = phi(x0).

    A non-finite lifted state raises :class:`IntegrationBlowupError` carrying
    the path up to the last finite state; as in
    :func:`~qendy.dynamics.rk4_integrate`, the overflow that produced it is
    not warned, nor is one in the lift of x0.  The identified state-space
    field ``G dz(phi(x))``, which stays on the embedded manifold, is
    :func:`qendy.baselines.state_field` of the model.

    The loop evaluates one homogeneous quadratic form instead of
    :func:`evaluate`.  With zh = (z, 1), the form Q (N, N+1, N+1) holds A in
    its (N, N) block, B in its last column and C in its corner, so
    dz = (Q zh) zh: two matrix-vector products, on a flattened
    (N(N+1), N+1) view of Q and then on the (N, N+1) result.  Q is scaled
    once by dt/2 and once by dt, so each stage yields h dz, the shift to the
    next stage state.  The path is held with a trailing column of ones
    (``z_states`` is a view of it), so stage 1 reads the row (z, 1) in
    place, and the later stage states are written into one (N+1,) buffer;
    the four shifts go into one (4, N) buffer, and the new state
    z + (1/3, 2/3, 1/3, 1/6) @ shifts is written straight into the next
    row.  A step allocates nothing.  The rows are
    scanned for a non-finite state once per :data:`STEP_BLOCK` steps; the
    first one ends the path, and the rows stepped after it are discarded.
    Every step is the same arithmetic as with a check per step, so the path
    is the same bits.  BLAS sums in its own order, so the path agrees with
    ``rk4_step(evaluate)`` to rounding, not bit for bit; reruns are
    byte-identical.
    """
    steps = _step_count(t_end, dt)
    dt = float(dt)
    size = model.basis_size

    with np.errstate(over="ignore", invalid="ignore"):
        z = feature_map(model.dictionary, np.asarray(x0, dtype=float))
    if not np.isfinite(z).all():
        raise ValueError("start state lifts to non-finite values")
    form = np.zeros((size, size + 1, size + 1))
    form[:, :size, :size] = model.a.reshape(size, size, size)
    form[:, :size, size] = model.b
    form[:, size, size] = model.c
    form = form.reshape(size * (size + 1), size + 1)
    half, full = (0.5 * dt) * form, dt * form
    stage = np.ones(size + 1)
    head = stage[:size]
    products = np.empty(size * (size + 1))
    rows = products.reshape(size, size + 1)
    shifts = np.empty((4, size))
    # The scaled form of each of stages 1-3 and the row its shift goes to.
    forms = tuple(zip((half, half, full), shifts))
    last = shifts[3]
    weights = np.array([1.0, 2.0, 1.0, 0.5]) / 3.0
    path = np.ones((steps + 1, size + 1))
    z_states = path[:, :size]
    z_states[0] = z
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, STEP_BLOCK):
            stop = min(start + STEP_BLOCK, steps)
            for zh, z, new in zip(path[start:stop], z_states[start:stop],
                                  z_states[start + 1:stop + 1]):
                for scaled, shift in forms:
                    np.dot(scaled, zh, out=products)
                    np.dot(rows, zh, out=shift)
                    np.add(z, shift, out=head)
                    zh = stage
                np.dot(full, stage, out=products)
                np.dot(rows, stage, out=last)
                np.dot(weights, shifts, out=new)
                new += z
            finite = np.isfinite(z_states[start + 1:stop + 1]).all(axis=1)
            if not finite.all():
                step = start + 1 + int(finite.argmin())
                # A copy, so that the error does not hold the whole path.
                kept = z_states[:step].copy()
                raise IntegrationBlowupError(step, EmbeddedTrajectory(
                    np.arange(step) * dt, kept, kept @ model.g.T))
    times = np.arange(steps + 1) * dt
    return EmbeddedTrajectory(times, z_states, z_states @ model.g.T)


def extract_rhs(model: QuadraticModel, x) -> np.ndarray:
    """Identified state-space right-hand side at one point: G dz(phi(x))."""
    z = feature_map(model.dictionary, np.asarray(x, dtype=float))
    return model.g @ evaluate(model, z)


def extract_rhs_many(model: QuadraticModel, points) -> np.ndarray:
    """Identified right-hand side at each row of ``points``; (m, n) out.

    Evaluated on blocks of :data:`qendy.expr.BLOCK` points, so a call holds
    its result plus one block's Kronecker square, not the (N^2, m) square.
    """
    points = np.atleast_1d(np.asarray(points, dtype=float))
    out = np.empty((len(points), model.state_dim))
    for start in range(0, max(len(points), 1), BLOCK):  # block 0 checks the shape
        block = slice(start, start + BLOCK)
        z_cols = feature_matrix(model.dictionary, points[block])
        out[block] = (model.g @ evaluate_cols(model, z_cols)).T
    return out


def symmetrize(model: QuadraticModel) -> QuadraticModel:
    """Replace each row's quadratic-form matrix by its symmetric part.

    Leaves every evaluation unchanged because z kron z is symmetric in the
    index pair.
    """
    size = model.basis_size
    a = np.empty_like(model.a)
    for r in range(size):
        square = model.a[r].reshape(size, size)
        a[r] = (0.5 * (square + square.T)).reshape(size * size)
    return QuadraticModel(a, model.b, model.c, model.g, model.dictionary,
                          dict(model.metadata))


@dataclass(frozen=True, eq=False)
class StabilityReport:
    stable: bool
    max_real_part: float
    eigenvalues: np.ndarray


def hurwitz_margin(model: QuadraticModel) -> StabilityReport:
    """Eigenvalues of the linear part B; stable iff all real parts < 0."""
    eigenvalues = np.linalg.eigvals(model.b)
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues = eigenvalues[order]
    max_real = float(eigenvalues.real.max())
    return StabilityReport(max_real < 0.0, max_real, eigenvalues)


@dataclass(frozen=True, eq=False)
class SparsityReport:
    a_nonzeros: int
    b_nonzeros: int
    c_nonzeros: int
    a_frobenius: float


def sparsity_report(model: QuadraticModel) -> SparsityReport:
    """Counts of entries of A, B and C with magnitude above 1e-6, plus ||A||_F."""
    return SparsityReport(
        int(np.sum(np.abs(model.a) > 1e-6)),
        int(np.sum(np.abs(model.b) > 1e-6)),
        int(np.sum(np.abs(model.c) > 1e-6)),
        float(np.linalg.norm(model.a)),
    )


# ---------------------------------------------------------------------------
# serialization


def _model_json(d: Dictionary, **coefficients) -> dict:
    """The layout every kind of model file shares: ``state_dim``, the
    dictionary and each coefficient array as nested lists under its file key.
    The readers take the dictionary and the arrays back; ``state_dim`` is for
    a reader of the file, and is not read."""
    return {"state_dim": int(d.state_dim), "dictionary": dictionary_to_json(d),
            **{key: value.tolist() for key, value in coefficients.items()}}


def model_to_json(model: QuadraticModel) -> dict:
    meta = model.metadata
    return {
        **_model_json(model.dictionary, A=model.a, B=model.b, C=model.c, G=model.g),
        "lambda": float(meta.get("lambda", 0.0)),
        "m": int(meta["m"]) if "m" in meta else None,
        "provenance": str(meta.get("provenance", "external")),
        "force_c_zero": bool(meta.get("force_c_zero", False)),
    }


_LAMBDA = _Reader("a finite number >= 0",
                  lambda value: _given(0.0 <= _number(value) < math.inf, _number(value)))


def _fit_context(obj: dict) -> dict:
    """The fit metadata of a model file, each value read as the kind a fit
    writes; an absent key reads as for a model with no fit context."""
    context = {
        "lambda": _LAMBDA.read("lambda", obj.get("lambda", 0.0)),
        "provenance": _STRING.read("provenance", obj.get("provenance", "external")),
        "force_c_zero": _SWITCH.read("force_c_zero", obj.get("force_c_zero", False)),
    }
    if obj.get("m") is not None:
        context["m"] = _WHOLE.read("m", obj["m"])
    return context


def model_from_json(obj: dict) -> QuadraticModel:
    d, _ = dictionary_from_json(obj["dictionary"])
    return QuadraticModel(obj["A"], obj["B"], obj["C"], obj["G"], d, _fit_context(obj))


def save_model(model: QuadraticModel, path):
    write_json(path, model_to_json(model))


def load_model(path) -> QuadraticModel:
    with open(path) as fh:
        return model_from_json(json.load(fh))
