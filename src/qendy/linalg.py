"""The regression core: weighted normal equations and their minimum-norm solve.

Every regression in the package reduces to ``M v = s`` with M symmetric
positive semidefinite and possibly rank-deficient.  One eigendecomposition is
shared by every right-hand side; eigenvalues below ``rcond * max|eigenvalue|``
are treated as exact zeros, which makes each solution the minimum-norm
least-squares solution.
"""

from __future__ import annotations

import numpy as np

__all__ = ["default_rcond", "normal_equations", "summed_normal_equations",
           "SymmetricPinvSolver", "min_norm_solve"]


def default_rcond(dim: int) -> float:
    """Relative eigenvalue cutoff for a dim x dim system: dim * eps * 64."""
    return dim * np.finfo(float).eps * 64.0


def normal_equations(table, targets, weights=None):
    """(table W table^T, table W targets^T), W = diag(weights), for a (K, m) table.

    Unweighted, ``table @ table.T`` on one buffer is NumPy's symmetric product.
    An overflow leaves non-finite entries, unwarned, for the solver to reject.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = table if weights is None else table * weights
        return weighted @ table.T, weighted @ targets.T


def summed_normal_equations(chunks, size: int, outputs: int, weights=None):
    """:func:`normal_equations` summed over chunks of samples.

    ``chunks`` yields ``(samples, table (size, c), targets (outputs, c))``,
    where ``samples`` indexes the chunk's samples in ``weights`` (one weight
    per sample of the whole set, or None).  Only one chunk is held at a time,
    so memory does not grow with the sample count.
    """
    matrix, rhs = np.zeros((size, size)), np.zeros((size, outputs))
    for samples, table, targets in chunks:
        gram, cross = normal_equations(
            table, targets, None if weights is None else weights[samples])
        with np.errstate(over="ignore", invalid="ignore"):
            matrix += gram
            rhs += cross
    return matrix, rhs


class SymmetricPinvSolver:
    """Eigendecomposition-backed pseudoinverse of a symmetric PSD matrix.

    A matrix with a non-finite entry (an overflow while assembling it) is
    rejected with a ValueError instead of reaching the eigensolver.  So is an
    ``rcond`` outside [0, 1): nan or >= 1 would keep no eigenvalue, a negative
    one every eigenvalue, numerical zeros included.
    """

    def __init__(self, matrix, rcond=None):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValueError(
                "the Gram matrix has non-finite entries, so the system overflowed; "
                "rescale the data or the dictionary")
        if rcond is None:
            rcond = default_rcond(matrix.shape[0])
        self.rcond = float(rcond)
        if not 0.0 <= self.rcond < 1.0:
            raise ValueError(
                f"rcond must be a finite number in [0, 1), got {self.rcond!r}")
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(matrix)
        scale = np.abs(self.eigenvalues).max() if self.eigenvalues.size else 0.0
        self.kept = np.abs(self.eigenvalues) > self.rcond * scale

    @property
    def rank(self) -> int:
        return int(self.kept.sum())

    def solve(self, rhs) -> np.ndarray:
        """Minimum-norm solution(s); rhs may be a vector or a column stack."""
        rhs = np.asarray(rhs, dtype=float)
        coeffs = self.eigenvectors.T @ rhs
        inv = np.zeros_like(self.eigenvalues)
        inv[self.kept] = 1.0 / self.eigenvalues[self.kept]
        if rhs.ndim == 1:
            return self.eigenvectors @ (inv * coeffs)
        return self.eigenvectors @ (inv[:, None] * coeffs)

    def null_component(self, vec) -> np.ndarray:
        """Projection of ``vec`` onto the numerical null space."""
        vec = np.asarray(vec, dtype=float)
        dropped = self.eigenvectors[:, ~self.kept]
        return dropped @ (dropped.T @ vec)


def min_norm_solve(matrix, rhs, rcond=None) -> np.ndarray:
    """One-shot minimum-norm solve of a symmetric PSD system."""
    return SymmetricPinvSolver(matrix, rcond).solve(rhs)
