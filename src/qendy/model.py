"""Quadratic embedding models: dz = A (z kron z) + B z + C, x = G z.

The Kronecker square is row-major in the index pair: entry N*i + j of
``kron_squared(z)`` is ``z[i] * z[j]``.  Row r of A therefore reshapes to the
(N, N) coefficient matrix of the quadratic form feeding dz_r.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dictionary import (
    Dictionary, dictionary_from_json, dictionary_to_json, feature_map,
    feature_matrix, write_json,
)
from .dynamics import IntegrationBlowupError, _step_count, rk4_step

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
        n = self.dictionary.state_dim
        arrays = {
            "a": (np.asarray(self.a, dtype=float), (size, size * size)),
            "b": (np.asarray(self.b, dtype=float), (size, size)),
            "c": (np.asarray(self.c, dtype=float), (size,)),
            "g": (np.asarray(self.g, dtype=float), (n, size)),
        }
        for key, (arr, want) in arrays.items():
            if arr.shape != want:
                raise ValueError(f"{key} must have shape {want}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{key} contains non-finite entries")
            object.__setattr__(self, key, arr)

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


def simulate(model: QuadraticModel, x0, t_end: float, dt: float,
             reembed: bool = False) -> EmbeddedTrajectory:
    """Integrate the lifted dynamics with RK4 from z0 = phi(x0).

    With ``reembed=True`` the lifted state is replaced by phi(G z) after every
    step, which pins the path to the embedded manifold (a consistency
    diagnostic; exact embeddings are unaffected).  A non-finite lifted state,
    after the step or after its re-embedding, raises
    :class:`IntegrationBlowupError` carrying the path up to the last finite
    state; as in :func:`~qendy.dynamics.rk4_integrate`, the overflow that
    produced it is not warned, nor is one in the lift of x0.
    """
    steps = _step_count(t_end, dt)
    d = model.dictionary

    def f(z):
        return evaluate(model, z)

    with np.errstate(over="ignore", invalid="ignore"):
        z = feature_map(d, np.asarray(x0, dtype=float))
    if not np.isfinite(z).all():
        raise ValueError("start state lifts to non-finite values")
    z_states = np.empty((steps + 1, model.basis_size))
    z_states[0] = z
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            z = rk4_step(f, z, dt)
            if reembed and np.isfinite(z).all():
                z = feature_map(d, model.g @ z)
            if not np.isfinite(z).all():
                kept = z_states[:k + 1]
                raise IntegrationBlowupError(k + 1, EmbeddedTrajectory(
                    np.arange(k + 1) * dt, kept, kept @ model.g.T))
            z_states[k + 1] = z
    times = np.arange(steps + 1) * dt
    return EmbeddedTrajectory(times, z_states, z_states @ model.g.T)


def extract_rhs(model: QuadraticModel, x) -> np.ndarray:
    """Identified state-space right-hand side at one point: G dz(phi(x))."""
    z = feature_map(model.dictionary, np.asarray(x, dtype=float))
    return model.g @ evaluate(model, z)


def extract_rhs_many(model: QuadraticModel, points) -> np.ndarray:
    """Identified right-hand side at each row of ``points``; (m, n) out."""
    z_cols = feature_matrix(model.dictionary, points)
    return (model.g @ evaluate_cols(model, z_cols)).T


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


def model_to_json(model: QuadraticModel) -> dict:
    meta = model.metadata
    return {
        "state_dim": int(model.state_dim),
        "dictionary": dictionary_to_json(model.dictionary),
        "A": model.a.tolist(),
        "B": model.b.tolist(),
        "C": model.c.tolist(),
        "G": model.g.tolist(),
        "lambda": float(meta.get("lambda", 0.0)),
        "m": int(meta["m"]) if "m" in meta else None,
        "provenance": str(meta.get("provenance", "external")),
        "force_c_zero": bool(meta.get("force_c_zero", False)),
    }


def model_from_json(obj: dict) -> QuadraticModel:
    d, _ = dictionary_from_json(obj["dictionary"])
    metadata = {
        "lambda": float(obj.get("lambda", 0.0)),
        "provenance": str(obj.get("provenance", "external")),
        "force_c_zero": bool(obj.get("force_c_zero", False)),
    }
    if obj.get("m") is not None:
        metadata["m"] = int(obj["m"])
    return QuadraticModel(np.asarray(obj["A"], dtype=float),
                          np.asarray(obj["B"], dtype=float),
                          np.asarray(obj["C"], dtype=float),
                          np.asarray(obj["G"], dtype=float),
                          d, metadata)


def save_model(model: QuadraticModel, path):
    write_json(path, model_to_json(model))


def load_model(path) -> QuadraticModel:
    with open(path) as fh:
        return model_from_json(json.load(fh))
