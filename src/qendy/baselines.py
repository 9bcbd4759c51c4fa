"""Baseline identification methods on the same dictionaries: SINDy and gEDMD.

SINDy regresses the state derivatives directly on the dictionary,
``Xdot ~= Xi Phi``, with an optional single hard-threshold-and-refit pass.
gEDMD regresses the lifted derivatives on the dictionary,
``Phi_dot ~= Theta Phi``; Theta^T then represents the generator of the
dynamics on the span of the dictionary, so its left action on coefficient
vectors yields eigenfunctions.  Both sum their normal equations over chunks
of samples (:func:`qendy.linalg.summed_normal_equations`), lifting one chunk
at a time through the checked passes of :mod:`qendy.fitting`, so memory does
not grow with the sample count, and solve them through the shared regression
core in :mod:`qendy.linalg`.  Either model forecasts in state space through
its :func:`state_field`, ``x -> W phi(x)``, a vector field of expressions
that :func:`qendy.dynamics.rk4_integrate` steps like any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .dictionary import (
    Dictionary, dictionary_from_json, feature_map, feature_matrix, full_state_matrix,
)
from .dynamics import TrainingSet, VectorField
from .expr import Add, Const, Mul, Program
from .fitting import lifted_chunks, value_chunks
from .linalg import min_norm_solve, summed_normal_equations
from .model import _coefficients, _model_json

__all__ = [
    "SindyModel", "GedmdModel", "GeneratorEigenfunction",
    "sindy_fit", "sindy_rhs_many",
    "gedmd_fit", "koopman_eigenfunctions", "state_field",
    "sindy_to_json", "sindy_from_json", "gedmd_to_json", "gedmd_from_json",
]


@dataclass(frozen=True, eq=False)
class SindyModel:
    """Coefficients xi (n, N) with dx ~= xi phi(x)."""

    xi: np.ndarray
    dictionary: Dictionary

    def __post_init__(self):
        d = self.dictionary
        object.__setattr__(self, "xi", _coefficients("xi", self.xi, (d.state_dim, d.size)))


def sindy_fit(d: Dictionary, ts: TrainingSet, threshold: float = 0.0,
              rcond=None) -> SindyModel:
    """Row-wise minimum-norm regression of derivatives on the dictionary.

    A ``threshold`` above 0 (it must be finite and >= 0) makes one pass zero
    the coefficients below it and refit each row on its surviving columns,
    from the rows and columns of the same normal equations.
    """
    if not (np.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"threshold must be a finite number >= 0, got {threshold!r}")
    gram, cross = summed_normal_equations(value_chunks(d, ts), d.size, ts.n)
    xi = min_norm_solve(gram, cross, rcond).T
    if threshold > 0.0:
        for r in range(xi.shape[0]):
            keep = np.abs(xi[r]) >= threshold
            xi[r, ~keep] = 0.0
            if np.any(keep):
                xi[r, keep] = min_norm_solve(gram[np.ix_(keep, keep)], cross[keep, r],
                                             rcond)
    return SindyModel(xi, d)


def sindy_rhs_many(model: SindyModel, points) -> np.ndarray:
    """Identified right-hand side at each row of ``points``; (m, n) out."""
    return (model.xi @ feature_matrix(model.dictionary, points)).T


@dataclass(frozen=True, eq=False)
class GedmdModel:
    """Coefficients theta (N, N) with d/dt phi(x) ~= theta phi(x)."""

    theta: np.ndarray
    dictionary: Dictionary

    def __post_init__(self):
        size = self.dictionary.size
        object.__setattr__(self, "theta", _coefficients("theta", self.theta, (size, size)))


def gedmd_fit(d: Dictionary, ts: TrainingSet, rcond=None) -> GedmdModel:
    """Minimum-norm regression of the lifted derivatives on phi (the training
    lift of :func:`qendy.fitting.lifted_chunks`, a chunk at a time)."""
    gram, cross = summed_normal_equations(lifted_chunks(d, ts), d.size, d.size)
    return GedmdModel(min_norm_solve(gram, cross, rcond).T, d)


@dataclass(frozen=True, eq=False)
class GeneratorEigenfunction:
    """An eigenpair of theta^T: the function x -> coefficients . phi(x)."""

    eigenvalue: complex
    coefficients: np.ndarray
    dictionary: Dictionary

    def __call__(self, x) -> complex:
        return complex(self.coefficients @ feature_map(self.dictionary,
                                                       np.asarray(x, dtype=float)))


def koopman_eigenfunctions(model: GedmdModel):
    """Eigenfunctions of the identified generator, one per eigenvalue.

    Coefficient vectors v solve theta^T v = eigenvalue * v, are normalized to
    unit length, and are phased so the largest-magnitude entry is positive
    real.  Sorted by (real, imag) of the eigenvalue.
    """
    values, vectors = np.linalg.eig(model.theta.T)
    order = np.lexsort((values.imag, values.real))
    out = []
    for idx in order:
        v = vectors[:, idx]
        v = v / np.linalg.norm(v)
        pivot = v[np.argmax(np.abs(v))]
        v = v * (np.conj(pivot) / np.abs(pivot))
        out.append(GeneratorEigenfunction(complex(values[idx]), v, model.dictionary))
    return out


def state_field(model) -> VectorField:
    """The identified field ``x -> W phi(x)`` of a SINDy or gEDMD model as
    expressions, with ``W = Xi`` for SINDy and ``W = G Theta`` for gEDMD.

    Component i is ``sum_j W_ij * phi_j``, folded left to right in entry
    order over the dictionary's own trees.  Terms whose coefficient is zero
    are kept, so an entry that overflows makes the sum nan, as a BLAS dot
    does with ``0 * inf``.
    """
    d = model.dictionary
    w = model.xi if isinstance(model, SindyModel) else full_state_matrix(d) @ model.theta
    components = [reduce(Add, (Mul(Const(c), phi) for c, phi in zip(row, d.basis)))
                  for row in w.tolist()]
    return VectorField(d.state_dim, Program(components, d.state_dim))


# ---------------------------------------------------------------------------
# serialization


def sindy_to_json(model: SindyModel) -> dict:
    return _model_json(model.dictionary, Xi=model.xi)


def sindy_from_json(obj: dict) -> SindyModel:
    return SindyModel(obj["Xi"], dictionary_from_json(obj["dictionary"])[0])


def gedmd_to_json(model: GedmdModel) -> dict:
    return _model_json(model.dictionary, Theta=model.theta)


def gedmd_from_json(obj: dict) -> GedmdModel:
    return GedmdModel(obj["Theta"], dictionary_from_json(obj["dictionary"])[0])
